"""Command line entry point.

Subcommands: contact, sweep, exponent, coeffs, ruled, verify, corpus.
Exit codes: 0 for success and for negative mathematical verdicts, 1 for
usage/scene errors, 2 for numerical failures (expr.NumericalError: no
convergence, ambiguous projection, an expression off its domain, ...).
verify and corpus record a numerical failure at its step and exit 0.
Diagnostics go to stderr; data goes to stdout or to files, written
atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import corpus as corpus_mod
from . import expr as ex
from .config import Tolerances
from .contact import (
    MAX_JET_ORDER,
    contact_order_jet_recharted,
    contact_order_metric,
    max_contact_order,
)
from .osculate import growth_record, ruledness_record, verify_theorem
from .scene import Scene, SceneError, load_scene, make_params
from .sweep import coefficients_csv, vanishing_verdict, volume_csv, volume_series

_TOL_FIELDS = [f.name for f in dataclasses.fields(Tolerances)]


class UsageError(Exception):
    pass


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".osclab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None):
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _add_flags(p: argparse.ArgumentParser, command: str):
    """The flags of `command`: --scene (all but corpus), --seed (verify and
    corpus), --point and --max-order (contact), --out or --report, and the
    settings flags, --quad-*, --t-grid, --span, --samples and --tol-*,
    which every command takes."""
    if command != "corpus":
        p.add_argument("--scene", required=True, help="scene JSON file")
    if command in ("verify", "corpus"):
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (OSCLAB_SEED overrides)")
    if command == "contact":
        p.add_argument("--max-order", type=int, default=None)
        p.add_argument("--point", default=None,
                       help="chart coordinates, comma separated")
    if command in ("sweep", "coeffs"):
        p.add_argument("--out", default=None, help="write CSV data here")
    else:
        p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--quad-cells", type=int, default=None)
    p.add_argument("--t-grid", default=None,
                   help="geometric:<t0>,<n>")
    p.add_argument("--span", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    for name in _TOL_FIELDS:
        p.add_argument(f"--tol-{name.replace('_', '-')}", type=float,
                       default=None, dest=f"tol_{name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osclab",
        description="osculation, swept volume, and ruled-submanifold verdicts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("contact", "jet and metric contact order of the family curve at a point"),
        ("sweep", "swept-volume series as CSV"),
        ("exponent", "growth exponent of the swept volume"),
        ("coeffs", "t-polynomial coefficients of the volume element as CSV"),
        ("ruled", "finite-window containment check of the curve family"),
        ("verify", "full theorem pipeline"),
        ("corpus", "run the built-in example suite"),
    ]:
        _add_flags(sub.add_parser(name, help=help_text), name)
    return parser


def _seed(args) -> int:
    """OSCLAB_SEED if set, else --seed; numpy's RNG takes no negative seed."""
    env = os.environ.get("OSCLAB_SEED")
    try:
        seed = args.seed if env is None else int(env)
    except ValueError:
        raise UsageError(f"OSCLAB_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise UsageError(f"the seed must be >= 0, got {seed}")
    return seed


def _tolerances(args) -> Tolerances:
    overrides = {}
    for name in _TOL_FIELDS:
        v = getattr(args, f"tol_{name}")
        if v is not None:
            if not (math.isfinite(v) and v >= 0):
                raise UsageError(f"--tol-{name.replace('_', '-')} must be a finite "
                                 f"number >= 0, got {v}")
            overrides[name] = v
    return Tolerances(**overrides)


def _with_flags(scene: Scene, args) -> Scene:
    """Rebuild the scene's params from its file's params with the flags folded in."""
    raw = dict(scene.raw.get("params") or {})
    for key in ("quad_order", "quad_cells", "span", "samples"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.t_grid is not None:
        if not args.t_grid.startswith("geometric:"):
            raise UsageError("--t-grid must look like geometric:<t0>,<n>")
        try:
            t0, count = args.t_grid[len("geometric:"):].split(",")
            raw["t0"], raw["t_steps"] = float(t0), int(count)
        except ValueError as err:
            raise UsageError(f"bad --t-grid value: {err}") from None
    scene.params = make_params(raw, scene.manifold.m, scene.params.tol)
    return scene


def _load(args) -> Scene:
    return _with_flags(load_scene(args.scene, tol=_tolerances(args)), args)


def _parse_point(args, M) -> np.ndarray:
    """--point as a chart point of M: M.m finite coordinates in its box."""
    if args.point is None:
        raise UsageError("--point is required for this command")
    try:
        vals = [float(v) for v in args.point.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --point {args.point!r}") from None
    if len(vals) != M.m:
        raise UsageError(f"--point needs {M.m} chart coordinates")
    x = np.array(vals)
    if not (np.all(np.isfinite(x)) and M.in_box_many(x)):
        raise UsageError(f"--point {args.point!r} must be finite and inside "
                         f"the chart box {M.box.tolist()}")
    return x


def _need_family(scene: Scene):
    if scene.family is None:
        raise UsageError(f"scene {scene.name!r} has no curve family")
    return scene.family


def _cmd_contact(args) -> int:
    if args.max_order is not None and args.max_order < 1:
        raise UsageError(f"--max-order must be >= 1, got {args.max_order}")
    if args.max_order is not None and args.max_order > MAX_JET_ORDER:
        raise UsageError(f"--max-order must be at most {MAX_JET_ORDER}, got {args.max_order}")
    scene = _load(args)
    family = _need_family(scene)
    M = scene.manifold
    x = _parse_point(args, M)
    max_order = max_contact_order(scene.k, M.m) if args.max_order is None else args.max_order
    curve = family.curve_at(x)
    jet = contact_order_jet_recharted(curve, M, max_order, scene.params.tol)
    metric = contact_order_metric(curve, M, scene.params.t_grid(), scene.params.tol)
    record = {
        "point": x.tolist(),
        "jet_order": str(jet),
        "metric_slope": metric.slope,
        "metric_order": "numerically contained" if metric.contained else metric.order,
        "config": scene.config_dict(),
    }
    _emit(_json_text(record), args.report)
    return 0


def _cmd_sweep(args) -> int:
    scene = _load(args)
    family = _need_family(scene)
    series = volume_series(family, scene.params.t_grid(), scene.params.quad)
    _emit(volume_csv(series), args.out)
    return 0


def _cmd_exponent(args) -> int:
    scene = _load(args)
    record = growth_record(_need_family(scene), scene.params)
    record["config"] = scene.config_dict()
    _emit(_json_text(record), args.report)
    return 0


def _cmd_coeffs(args) -> int:
    scene = _load(args)
    p = scene.params
    vv = vanishing_verdict(_need_family(scene), p.samples, p.margin, p.tol)
    _emit(coefficients_csv(vv.table, scene.manifold.m), args.out)
    return 0


def _cmd_ruled(args) -> int:
    scene = _load(args)
    record, rv = ruledness_record(scene.manifold, _need_family(scene), scene.params)
    record["per_sample"] = rv.per_sample
    record["config"] = scene.config_dict()
    _emit(_json_text(record), args.report)
    return 0


def _cmd_verify(args) -> int:
    seed = _seed(args)
    scene = _load(args)
    report = verify_theorem(scene, seed=seed)
    _emit(_json_text(report.as_dict()), args.report)
    print(f"{scene.name}: {report.verdict}", file=sys.stderr)
    return 0


def _cmd_corpus(args) -> int:
    seed, tol = _seed(args), _tolerances(args)
    rows = []
    for name in corpus_mod.names():
        scene = _with_flags(corpus_mod.load(name, tol=tol), args)
        report = verify_theorem(scene, seed=seed)
        step = "-" if report.first_failure is None else report.first_failure["step"]
        rows.append({"scene": name, "verdict": report.verdict, "first_failure": step})
        print(f"{name:24s} {report.verdict:18s} {step}", file=sys.stderr)
    _emit(_json_text(rows), args.report)
    return 0


_COMMANDS = {
    "contact": _cmd_contact,
    "sweep": _cmd_sweep,
    "exponent": _cmd_exponent,
    "coeffs": _cmd_coeffs,
    "ruled": _cmd_ruled,
    "verify": _cmd_verify,
    "corpus": _cmd_corpus,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, SceneError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ex.NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
