"""Switched feedback-linearising control toolkit.

Symbolic Lie-derivative chains for SISO control-affine systems, detection
and factorisation of feedback-linearisation singularities, the three-law
supervised controller for the ball-and-beam benchmark, a deterministic
closed-loop simulator, and sampling-based coverage / necessity analysis
for families of control laws.
"""

from .ballbeam import PlantParams, benchmark_plant, symbolic_system
from .controllers import (
    GainSet,
    LawDescriptor,
    SwitchThresholds,
    TrackingReference,
    apply_law,
    law_descriptor,
    outer_loop_v,
    pole_gains,
    supervisor,
    table_laws,
)
from .coverage import (
    CoverageReport,
    FactorCheck,
    coverage_check,
    factor_check,
    necessity_witness,
    pure_part_sample,
    transversality_report,
)
from .expr import (
    Bindings,
    EvaluationError,
    ExprError,
    ParseError,
    ScalarField,
    VectorField,
    parse,
)
from .geometry import (
    ControlAffineSystem,
    DerivativeChain,
    SingularityFactor,
    ad_power,
    derivative_chain,
    involutivity_witness,
    lie_bracket,
    lie_derivative,
    relative_degree_at,
    transversality_rank,
)
from .sim import Metrics, Scenario, Trajectory, load_scenario, rk4_step, run

__version__ = "0.1.0"

__all__ = [
    "Bindings",
    "ControlAffineSystem",
    "CoverageReport",
    "DerivativeChain",
    "EvaluationError",
    "ExprError",
    "FactorCheck",
    "GainSet",
    "LawDescriptor",
    "Metrics",
    "ParseError",
    "PlantParams",
    "ScalarField",
    "Scenario",
    "SingularityFactor",
    "SwitchThresholds",
    "TrackingReference",
    "Trajectory",
    "VectorField",
    "ad_power",
    "apply_law",
    "benchmark_plant",
    "coverage_check",
    "derivative_chain",
    "factor_check",
    "involutivity_witness",
    "law_descriptor",
    "lie_bracket",
    "lie_derivative",
    "load_scenario",
    "necessity_witness",
    "outer_loop_v",
    "parse",
    "pole_gains",
    "pure_part_sample",
    "relative_degree_at",
    "rk4_step",
    "run",
    "supervisor",
    "symbolic_system",
    "table_laws",
    "transversality_rank",
    "transversality_report",
]
