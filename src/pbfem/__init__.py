"""Penalty-barrier finite element transcription for dynamic optimization."""

from .analysis import (
    ConvergenceStudy,
    StudyRow,
    control_error,
    estimate_order,
    nested_step,
    optimality_gap,
    weierstrass,
)
from .benchmarks import BenchmarkSpec, build, control_values, registered_names
from .collocation import (
    CollocationScheme,
    detect_ringing,
    radau_right,
    transcribe_collocation,
)
from .errors import (
    BarrierDomainError,
    EvaluationError,
    InputError,
    InternalError,
)
from .mesh import (
    FESpace,
    Mesh,
    Trajectory,
    best_approximation,
    evaluate,
    norm_equivalence_bound_check,
    uniform_mesh,
)
from .problem import (
    BolzaProblem,
    DynamicProblem,
    convert_bolza,
    evaluate_dae_residual,
    feasibility_residual_exact,
)
from .quadrature import QuadratureRule, gauss_legendre, integrate_on_mesh
from .solver import SolveReport, SolverConfig, initial_guess, solve
from .transcription import PenaltyBarrierParams, TranscribedNLP

__version__ = "0.1.0"

__all__ = [
    "BarrierDomainError",
    "BenchmarkSpec",
    "BolzaProblem",
    "CollocationScheme",
    "ConvergenceStudy",
    "StudyRow",
    "build",
    "control_error",
    "control_values",
    "detect_ringing",
    "estimate_order",
    "nested_step",
    "optimality_gap",
    "radau_right",
    "registered_names",
    "transcribe_collocation",
    "weierstrass",
    "DynamicProblem",
    "EvaluationError",
    "FESpace",
    "InputError",
    "InternalError",
    "Mesh",
    "PenaltyBarrierParams",
    "QuadratureRule",
    "SolveReport",
    "SolverConfig",
    "TranscribedNLP",
    "Trajectory",
    "best_approximation",
    "convert_bolza",
    "evaluate",
    "evaluate_dae_residual",
    "feasibility_residual_exact",
    "gauss_legendre",
    "initial_guess",
    "integrate_on_mesh",
    "norm_equivalence_bound_check",
    "solve",
    "uniform_mesh",
]
