"""Built-in example scenes the acceptance suite runs against."""

from __future__ import annotations

from pathlib import Path

from .config import Tolerances
from .scene import Scene, load_scene
from .sweep import Cutoff, SweepFamily

CORPUS_DIR = Path(__file__).parent / "corpus"

#: the nine core scenes; contact-order agreement runs over all of them
CORE = (
    "plane",
    "sphere",
    "cylinder",
    "hyperbolic_paraboloid",
    "saddle",
    "paraboloid",
    "cubic_graph",
    "circle",
    "segment",
)

#: extra scenes for checks that need non-polynomial motions
EXTRA = ("circle_rotation",)


def names() -> tuple[str, ...]:
    return CORE + EXTRA


def scene_path(name: str) -> Path:
    path = CORPUS_DIR / f"{name}.json"
    if not path.exists():
        raise KeyError(f"no corpus scene named {name!r}")
    return path


def load(name: str, tol: Tolerances | None = None) -> Scene:
    return load_scene(scene_path(name), tol)


def with_cutoff(scene: Scene, inner: float, outer: float) -> Scene:
    """Copy of a polynomial-field scene with a bump cutoff on its fields."""
    fam = scene.family
    if fam is None or not fam.polynomial:
        raise ValueError("cutoff needs a polynomial field family")
    center = 0.5 * (scene.manifold.box[:, 0] + scene.manifold.box[:, 1])
    cut = Cutoff(float(inner), float(outer), center)
    family = SweepFamily(scene.manifold, fam.k, fields=fam.fields, cutoff=cut)
    return Scene(name=f"{scene.name}+cutoff", manifold=scene.manifold,
                 family=family, params=scene.params, k=fam.k, raw=scene.raw)

