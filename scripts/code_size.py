#!/usr/bin/env python3
"""Print the size of each module of src/osclab, and of all of them: its
total lines, and its code-only lines, those that hold a token which is
neither a comment nor part of a docstring. Blank lines, comment lines and
docstring lines count in the total only. A docstring is a string that
stands alone as a statement, as the first of a module, class or function
or anywhere else.

Usage: python scripts/code_size.py [src/osclab]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token which is neither a comment nor
    part of a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent / "src" / "osclab")
    total = code = 0
    print(f"{'module':16s} {'total':>6s} {'code':>6s}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        lines, only = len(source.splitlines()), code_lines(source)
        total, code = total + lines, code + only
        print(f"{path.name:16s} {lines:6d} {only:6d}")
    print(f"{'all':16s} {total:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
