"""Checks on the library's own source: no module-level function of
src/osclab takes a parameter that its body never reads, so a knob that no
longer does anything cannot stay in a signature; and a sweep family's
cutoff is read only where its map is built and where its leaves are bound,
so no cutoff path can patch values after they are evaluated; and only the
jets module calls jet_eval_expr, so every stack of jets comes from
jets.jet_eval_many."""

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


def _functions_reading(source: str, name: str) -> set[str]:
    """Names of the functions of `source`, methods and nested ones
    included, whose body loads `name` as a variable or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
                and (n.id if isinstance(n, ast.Name) else n.attr) == name
                for stmt in node.body for n in ast.walk(stmt)):
            out.add(node.name)
    return out


def test_the_scan_finds_a_cutoff_reader():
    source = ("class F:\n"
              "    def __init__(self, cutoff):\n"
              "        self.cutoff = cutoff\n"
              "    def point(self):\n"
              "        return self.cutoff\n"
              "    def frame(self):\n"
              "        self.cutoff = None\n")
    assert _functions_reading(source, "cutoff") == {"__init__", "point"}


def test_the_sweep_cutoff_is_read_only_by_the_map_and_its_leaves():
    """SweepFamily.__init__ puts chi into the map, and _env binds chi and
    d_i chi from Cutoff.value_and_grad; every other path reads the map."""
    source = (SRC / "sweep.py").read_text()
    assert _functions_reading(source, "cutoff") == {"__init__", "_env"}


def _calls(source: str, name: str) -> int:
    """How many calls in `source` call `name`, as a bare name or as an
    attribute."""
    return sum(isinstance(n, ast.Call) and name == (
        n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
        for n in ast.walk(ast.parse(source)))


def test_the_scan_finds_a_call():
    source = ("from .jets import jet_eval_expr\n"
              "f = jet_eval_expr\n"
              "def g(e, env):\n"
              "    return jets.jet_eval_expr(e, env), jet_eval_expr(e, env).coeffs\n")
    assert _calls(source, "jet_eval_expr") == 2


def test_only_jet_eval_many_stacks_jets():
    callers = {path.name for path in sorted(SRC.glob("*.py"))
               if _calls(path.read_text(), "jet_eval_expr")}
    assert callers == {"jets.py"}
    assert _functions_reading((SRC / "jets.py").read_text(), "jet_eval_expr") == {
        "jet_eval_many"}
