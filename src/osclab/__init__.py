"""osclab: desk-scale numerical verification of osculation, swept volume,
coefficient vanishing, tangency flows, and ruled-submanifold verdicts."""

from .config import QuadConfig, RunParams, Tolerances, geometric_grid
from .contact import (
    ContactOrder,
    ExprCurve,
    PolyCurve,
    contact_order_jet_recharted,
    contact_order_metric,
    length_bound_check,
    monotone_window,
    uniform_decay_check,
)
from .exterior import frame_norm
from .expr import diff, evaluate, parse, to_string
from .jets import Jet, jet_eval_expr
from .manifold import AmbiguousProjection, NoConvergence, Submanifold
from .osculate import (
    fit_class_k_curve,
    osculating_directions,
    ruledness_check,
    verify_theorem,
)
from .scene import Scene, SceneError, build_scene, load_scene
from .sweep import (
    Cutoff,
    SweepFamily,
    VolumeSample,
    extract_t_polynomials,
    extract_t_polynomials_sampled,
    growth_exponent,
    reparam_invariance_test,
    swept_volume,
    tangency_flow_check,
    vanishing_verdict,
    volume_series,
)

__version__ = "0.1.0"
