"""Bias-robust weighted course ratings from peer competence networks."""

from .degree import degree_weights, weighted_rating
from .dispersion import (
    DispersionAggregate,
    DispersionRow,
    aggregate,
    dispersion_row,
    mode_of,
    read_dispersion_csv,
)
from .eigenfactor import (
    InfluenceVector,
    eigenfactor_weights,
    stationary_distribution,
)
from .errors import (
    ClassrankError,
    DegenerateNetwork,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    MalformedInput,
    NoConvergence,
    NonBinaryEntry,
    NonZeroDiagonal,
    ScaleViolation,
)
from .report import MethodResult, WeightedRatingReport, rate_survey
from .scenarios import (
    ReductionSummary,
    Scenario,
    ScenarioResult,
    error_reduction_summary,
    inject_bias,
    load_scenarios,
    run_scenario,
)
from .survey import (
    CompetenceMatrix,
    RatingVector,
    SurveyInstance,
    load_survey_csv,
    load_survey_json,
    validate_survey,
)

__version__ = "0.1.0"

__all__ = [
    "ClassrankError",
    "CompetenceMatrix",
    "DegenerateNetwork",
    "DimensionMismatch",
    "DispersionAggregate",
    "DispersionRow",
    "EmptyInput",
    "IndexOutOfRange",
    "InfluenceVector",
    "MalformedInput",
    "MethodResult",
    "NoConvergence",
    "NonBinaryEntry",
    "NonZeroDiagonal",
    "RatingVector",
    "ReductionSummary",
    "ScaleViolation",
    "Scenario",
    "ScenarioResult",
    "SurveyInstance",
    "WeightedRatingReport",
    "aggregate",
    "degree_weights",
    "dispersion_row",
    "eigenfactor_weights",
    "error_reduction_summary",
    "inject_bias",
    "load_scenarios",
    "load_survey_csv",
    "load_survey_json",
    "mode_of",
    "rate_survey",
    "read_dispersion_csv",
    "run_scenario",
    "stationary_distribution",
    "validate_survey",
    "weighted_rating",
]
