"""Robust H-infinity state-feedback synthesis under box parametric uncertainty.

The pipeline: describe a plant and its uncertainty (model), enumerate the
extreme systems, assemble the conic program data (problem), run the
symmetric Gauss-Seidel ADMM loop (solver), then certify the result
independently (verify). The cli module wraps the same pipeline for the
command line.
"""

from .errors import (
    AssumptionError,
    CapacityError,
    DimensionError,
    ExtractionError,
    HinfgccError,
    InvalidInputError,
    NotPsdError,
    NumericalError,
    SchemaError,
    SingularSystemError,
)
from .model import (
    DEFAULT_VERTEX_CAP,
    PlantModel,
    PlantValidation,
    UncertaintySpec,
    VertexSet,
    enumerate_vertices,
    validate_plant,
)
from .problem import (
    ExtendedMatrices,
    SchurData,
    build_extended,
    build_schur,
    eval_theta1,
)
from .solver import (
    CONVERGED,
    MAX_ITERS,
    NUMERICAL_FAILURE,
    ConsensusVector,
    Solution,
    SolverConfig,
    SolverState,
    extract_gain,
    solve,
)
from .verify import (
    ClosedLoop,
    FeasibilityReport,
    HinfNorm,
    certified_attenuation,
    check_feasibility,
    closed_loop,
    gain_curve,
    hinf_sweep,
    impulse_response,
    stability_margin,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "CapacityError",
    "ClosedLoop",
    "ConsensusVector",
    "CONVERGED",
    "DEFAULT_VERTEX_CAP",
    "DimensionError",
    "ExtendedMatrices",
    "ExtractionError",
    "FeasibilityReport",
    "HinfgccError",
    "HinfNorm",
    "InvalidInputError",
    "MAX_ITERS",
    "NotPsdError",
    "NumericalError",
    "NUMERICAL_FAILURE",
    "PlantModel",
    "PlantValidation",
    "SchemaError",
    "SchurData",
    "SingularSystemError",
    "Solution",
    "SolverConfig",
    "SolverState",
    "UncertaintySpec",
    "VertexSet",
    "build_extended",
    "build_schur",
    "certified_attenuation",
    "check_feasibility",
    "closed_loop",
    "enumerate_vertices",
    "eval_theta1",
    "extract_gain",
    "gain_curve",
    "hinf_sweep",
    "impulse_response",
    "solve",
    "stability_margin",
    "validate_plant",
    "fixture_path",
]


def fixture_path(name: str) -> str:
    """Absolute path of a bundled problem file, e.g. fixture_path('example1.json')."""
    import importlib.resources

    return str(importlib.resources.files(__package__) / "fixtures" / name)
