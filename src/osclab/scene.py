"""Scene files: one JSON object fully determines a run.

Schema:

    {"manifold": {"type": "graph"|"parametric",
                  "chart_vars": [...], "domain": [[a,b], ...],
                  "ambient_dim": n,
                  "height": [exprs]        (graph)
                  "map": [exprs]},         (parametric)
     "family": {"k": int, "fields": [[exprs x n] x k]
                           | "map": [exprs x n in chart vars and t]},
     "cutoff": {"inner": r0, "outer": r1},
     "params": {...}}

Validation failures carry the JSON-pointer path of the offending element.
The "map" form of a family is the general smooth-motion escape hatch for
families of embeddings that are not polynomial in t (rigid rotations).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import expr as ex
from .config import QuadConfig, RunParams, Tolerances
from .manifold import ImmersionError, Submanifold
from .sweep import Cutoff, SweepFamily


class SceneError(Exception):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


_PARAM_KEYS = {
    "t0": float,
    "t_steps": int,
    "quad_order": int,
    "quad_cells": int,
    "quad_t_cells": int,
    "span": float,
    "samples": int,
    "tspan": float,
    "margin": float,
    "tube_rho_max": float,
    "k": int,
}


@dataclass
class Scene:
    name: str
    manifold: Submanifold
    family: SweepFamily | None
    params: RunParams
    k: int
    raw: dict

    def config_dict(self) -> dict:
        config = asdict(self.params)
        config["tolerances"] = config.pop("tol")
        return config


def _require(data: dict, key: str, pointer: str):
    if not isinstance(data, dict) or key not in data:
        raise SceneError(f"{pointer}/{key}", "missing required key")
    return data[key]


def _expr_list(items, pointer: str, count: int | None = None) -> list[ex.Expr]:
    if not isinstance(items, list) or not items:
        raise SceneError(pointer, "expected a nonempty list of expressions")
    if count is not None and len(items) != count:
        raise SceneError(pointer, f"expected {count} expressions, got {len(items)}")
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise SceneError(f"{pointer}/{i}", "expression must be a string")
        try:
            out.append(ex.parse(item))
        except ex.ParseError as err:
            raise SceneError(f"{pointer}/{i}", str(err)) from err
    return out


def _build_manifold(data) -> Submanifold:
    kind = _require(data, "type", "/manifold")
    if kind not in ("graph", "parametric"):
        raise SceneError("/manifold/type", f"unknown manifold type {kind!r}")
    chart_vars = _require(data, "chart_vars", "/manifold")
    if (not isinstance(chart_vars, list) or not chart_vars
            or not all(isinstance(v, str) and v.isidentifier() for v in chart_vars)):
        raise SceneError("/manifold/chart_vars", "expected identifier names")
    if ex.TIME_VAR in chart_vars:
        raise SceneError("/manifold/chart_vars",
                         f"{ex.TIME_VAR!r} is reserved for the time variable")
    if len(set(chart_vars)) != len(chart_vars):
        raise SceneError("/manifold/chart_vars", "chart variables must be unique")
    m = len(chart_vars)
    domain = _require(data, "domain", "/manifold")
    if not isinstance(domain, list) or len(domain) != m:
        raise SceneError("/manifold/domain", f"expected {m} intervals")
    for i, pair in enumerate(domain):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) for v in pair)
                or not pair[0] < pair[1]):
            raise SceneError(f"/manifold/domain/{i}", "expected [a, b] with a < b")
    n = _require(data, "ambient_dim", "/manifold")
    if not isinstance(n, int) or n <= m:
        raise SceneError("/manifold/ambient_dim",
                         "ambient dimension must be an integer above the chart dimension")
    try:
        if kind == "graph":
            heights = _expr_list(_require(data, "height", "/manifold"),
                                 "/manifold/height", n - m)
            return Submanifold.graph(chart_vars, domain, heights, ambient_dim=n)
        maps = _expr_list(_require(data, "map", "/manifold"), "/manifold/map", n)
        return Submanifold.parametric(chart_vars, domain, maps, ambient_dim=n)
    except (SceneError, ImmersionError):
        raise
    except Exception as err:
        raise SceneError("/manifold", str(err)) from err


def _build_family(data, M: Submanifold, cutoff_data) -> SweepFamily:
    k = _require(data, "k", "/family")
    if not isinstance(k, int) or k < 1:
        raise SceneError("/family/k", "k must be a positive integer")
    has_fields = "fields" in data
    has_map = "map" in data
    if has_fields == has_map:
        raise SceneError("/family", "provide exactly one of 'fields' or 'map'")
    cutoff = None
    if cutoff_data is not None:
        if not isinstance(cutoff_data, dict):
            raise SceneError("/cutoff", "expected an object with inner/outer radii")
        inner = _require(cutoff_data, "inner", "/cutoff")
        outer = _require(cutoff_data, "outer", "/cutoff")
        half_side = float(np.min(0.5 * (M.box[:, 1] - M.box[:, 0])))
        if not (isinstance(inner, (int, float)) and isinstance(outer, (int, float))
                and 0.0 < inner < outer <= half_side):
            raise SceneError("/cutoff",
                             f"need 0 < inner < outer <= {half_side} (half box side)")
        center = 0.5 * (M.box[:, 0] + M.box[:, 1])
        cutoff = Cutoff(float(inner), float(outer), center)
    try:
        if has_fields:
            raw = data["fields"]
            if not isinstance(raw, list) or len(raw) != k:
                raise SceneError("/family/fields", f"expected {k} vector fields")
            fields = [_expr_list(f, f"/family/fields/{j}", M.n)
                      for j, f in enumerate(raw)]
            return SweepFamily(M, k, fields=fields, cutoff=cutoff)
        if cutoff is not None:
            raise SceneError("/cutoff", "cutoff applies to polynomial field families")
        maps = _expr_list(data["map"], "/family/map", M.n)
        return SweepFamily(M, k, map_exprs=maps)
    except SceneError:
        raise
    except Exception as err:
        raise SceneError("/family", str(err)) from err


def make_params(raw: dict | None, tol: Tolerances | None = None) -> RunParams:
    given = {}
    for key, value in (raw or {}).items():
        if key not in _PARAM_KEYS:
            raise SceneError(f"/params/{key}", "unknown parameter")
        if not isinstance(value, (int, float)):
            raise SceneError(f"/params/{key}", "expected a number")
        given[key] = _PARAM_KEYS[key](value)
    if not given.get("t0", 1.0) > 0:
        raise SceneError("/params/t0", "t0 must be positive")
    for key in ("t_steps", "quad_order", "quad_cells", "quad_t_cells", "samples"):
        if given.get(key, 1) < 1:
            raise SceneError(f"/params/{key}", f"{key} must be at least 1")
    for key in ("span", "tspan", "tube_rho_max"):
        if not given.get(key, 1.0) > 0:
            raise SceneError(f"/params/{key}", f"{key} must be positive")
    if not 0.0 <= given.get("margin", 0.0) < 0.5:
        raise SceneError("/params/margin", "margin must lie in [0, 0.5)")
    quad = QuadConfig(**{f.name: given[f"quad_{f.name}"] for f in fields(QuadConfig)
                         if f"quad_{f.name}" in given})
    run = {f.name: given[f.name] for f in fields(RunParams) if f.name in given}
    return RunParams(quad=quad, tol=tol or Tolerances(), **run)


def build_scene(data: dict, name: str = "scene",
                tol: Tolerances | None = None) -> Scene:
    if not isinstance(data, dict):
        raise SceneError("/", "scene must be a JSON object")
    M = _build_manifold(_require(data, "manifold", ""))
    family = None
    if "family" in data and data["family"] is not None:
        family = _build_family(data["family"], M, data.get("cutoff"))
    elif "cutoff" in data:
        raise SceneError("/cutoff", "cutoff without a family")
    params = make_params(data.get("params"), tol)
    k = family.k if family is not None else int(data.get("params", {}).get("k", 1))
    return Scene(name=name, manifold=M, family=family, params=params, k=k, raw=data)


def load_scene(path, tol: Tolerances | None = None) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise SceneError("/", f"cannot read scene file: {err}") from err
    except json.JSONDecodeError as err:
        raise SceneError("/", f"malformed JSON: {err}") from err
    name = str(path).rsplit("/", 1)[-1].removesuffix(".json")
    return build_scene(data, name=name, tol=tol)
