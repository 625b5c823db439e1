"""Run configuration: quadrature settings, tolerances, sampling grids."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class QuadConfig:
    """Tensor-product Gauss-Legendre settings for swept-volume integrals."""

    order: int = 8
    cells: int = 16
    t_cells: int = 8

    def halved(self) -> "QuadConfig":
        return replace(self, order=max(self.order // 2, 1))


@dataclass(frozen=True)
class Tolerances:
    """Named numerical tolerances; every CLI subcommand accepts --tol-* overrides."""

    on_manifold: float = 1e-10
    contact_coeff: float = 1e-11
    degree_guard: float = 1e-9
    vanish: float = 1e-9
    flow_drift: float = 1e-6
    ruled: float = 1e-8
    vol_zero: float = 1e-13
    #: distances at most this are exact containment in the metric contact
    #: order and the decay check. Absolute: it sits above the projection's
    #: rounding (eps |p|, about 2e-14 at |p| = 100) for scenes of unit
    #: scale, and moves with the scene like a distance. Only `osclab
    #: contact` and the lemma checks read it, never a verdict; a scene far
    #: from unit scale scales it with --tol-dist-zero
    dist_zero: float = 1e-13
    #: uniform_decay_check calls a family contained when every ratio
    #: d / t^k is below this. Absolute for dist_zero's reason: a contained
    #: family reads ratios of exactly 0 once distances under dist_zero are
    #: 0, and the floor admits only rounding above it on a unit-scale scene
    decay_floor: float = 1e-12
    cubic_residual: float = 1e-9


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of `order` points on [-1, 1], as
    np.polynomial.legendre.leggauss gives them, computed once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)     # shared by every caller through the cache
    weights.setflags(write=False)
    return nodes, weights


def composite_gauss(a: float, b: float, cells: int, order: int):
    """Gauss-Legendre nodes and weights of `order` points per cell on `cells`
    equal cells of [a, b]."""
    nodes, weights = _gauss_legendre(order)
    edges = np.linspace(a, b, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    ts = (mid[:, None] + half * nodes[None, :]).ravel()
    ws = np.tile(half * weights, cells)
    return ts, ws


def geometric_grid(t0: float = 0.2, steps: int = 8) -> np.ndarray:
    """t_i = t0 * 2^-i, i = 0..steps-1 (descending); spans two decades at defaults."""
    return t0 * 0.5 ** np.arange(steps, dtype=float)


@dataclass(frozen=True)
class RunParams:
    """Per-scene numeric parameters with library-wide defaults."""

    t0: float = 0.2
    t_steps: int = 8
    quad: QuadConfig = field(default_factory=QuadConfig)
    span: float = 1.0
    samples: int = 3
    tspan: float = 0.2
    margin: float = 0.15
    tube_rho_max: float | None = None
    tol: Tolerances = field(default_factory=Tolerances)

    def t_grid(self) -> np.ndarray:
        return geometric_grid(self.t0, self.t_steps)
