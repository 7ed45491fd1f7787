"""Bias-robust weighted course ratings from peer competence networks.

Each public name is imported from its module on first use (PEP 562), so
``import classrank`` loads no numpy until a numeric name is used.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names by the module they live in
_EXPORTS = {
    "degree": ("degree_weights", "weighted_rating"),
    "dispersion": (
        "DispersionAggregate",
        "DispersionRow",
        "aggregate",
        "dispersion_row",
        "read_dispersion_csv",
    ),
    "eigenfactor": ("eigenfactor_weights", "stationary_distribution"),
    "errors": (
        "ClassrankError",
        "DegenerateNetwork",
        "DimensionMismatch",
        "EmptyInput",
        "IndexOutOfRange",
        "MalformedInput",
        "NoConvergence",
        "NonBinaryEntry",
        "NonZeroDiagonal",
        "ScaleViolation",
    ),
    "report": ("MethodResult", "WeightedRatingReport", "rate_survey"),
    "scenarios": (
        "Scenario",
        "ScenarioResult",
        "error_reduction_summary",
        "inject_bias",
        "load_scenarios",
        "run_scenario",
    ),
    "survey": (
        "CompetenceMatrix",
        "RatingVector",
        "SurveyInstance",
        "load_survey_json",
        "validate_survey",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    # a module that the package used to import eagerly is still an attribute
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
