"""Checks on the library's own source: no module-level function of
src/osclab takes a parameter that its body never reads, so a knob that no
longer does anything cannot stay in a signature."""

import ast
from pathlib import Path

import osclab

SRC = Path(osclab.__file__).parent


def _unread_parameters(source: str) -> list[str]:
    """name(parameter) for every parameter of a module-level function of
    `source` that its body, nested functions and lambdas included, never
    loads."""
    unread = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}({p})" for p in params if p not in read]
    return unread


def test_the_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    return (lambda: a + c)()\n"
              "class K:\n"
              "    def method(self, unused):\n"
              "        return 0\n")
    assert _unread_parameters(source) == ["f(b)", "f(args)", "f(kw)"]


def test_every_parameter_of_a_module_level_function_is_read():
    unread = {path.name: _unread_parameters(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}
