"""Numerical decoupling analysis for first-order quasilinear PDE systems
in two independent variables: structure-condition checking over sampled
state space, decoupling-map verification and construction, and a 1D solver
harness comparing coupled against hierarchical solves."""

from . import errors
from .conditions import (
    ConditionReport,
    PartitionScheme,
    check_partition,
    gradient_condition_residual,
    interaction_condition_residual,
    nijenhuis_max,
    nijenhuis_residual,
    search_partitions,
    source_condition_residual,
)
from .eigen import FrameStack, align_frames, analytic_frame, spectrum_at
from .exprlang import (
    Expr,
    compile_expression,
    differentiate,
    evaluate,
    parse,
    substitute,
    to_string,
)
from .hypsolve import (
    GridSolution,
    burgers_exact,
    compare_solutions,
    solve_coupled,
    solve_hierarchical,
)
from .models import (
    ModelEntry,
    build_barotropic,
    build_isentropic,
    build_synthetic_triangular,
    build_threadline,
    decoupled_system,
)
from .system import QuasilinearSystem, SamplePlan, conjugate_system, load_system
from .transform import (
    TransformCandidate,
    TransformedSystem,
    characteristic_flow,
    construct_transform_numeric,
    verify_transform,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "PartitionScheme", "check_partition",
    "gradient_condition_residual", "interaction_condition_residual",
    "source_condition_residual", "search_partitions", "nijenhuis_residual",
    "nijenhuis_max", "FrameStack", "spectrum_at", "align_frames",
    "analytic_frame", "Expr", "parse", "evaluate", "differentiate",
    "substitute", "to_string", "compile_expression", "GridSolution",
    "solve_coupled", "solve_hierarchical", "compare_solutions", "burgers_exact",
    "ModelEntry", "build_barotropic", "build_isentropic", "build_threadline",
    "build_synthetic_triangular", "decoupled_system", "QuasilinearSystem",
    "SamplePlan", "load_system", "conjugate_system", "TransformCandidate",
    "TransformedSystem", "verify_transform", "characteristic_flow",
    "construct_transform_numeric", "errors",
]
