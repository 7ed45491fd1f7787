"""End-to-end rating pipeline and JSON report shapes.

All report builders return plain dicts ready for json.dumps. Floats are
serialized with Python's shortest round-trip repr, so a report read back by
json.loads reproduces bit-identical values. The dispersion report is built
by ``dispersion.dispersion_report_dict``, which needs no numpy.
"""

from dataclasses import dataclass

import numpy as np

from .common import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL, SCHEMA_VERSION
from .degree import degree_weights, weighted_rating
from .eigenfactor import eigenfactor_weights, stationary_distribution
from .survey import SurveyInstance

# the weighting methods score_method dispatches on, in report order
METHODS = ("degree", "eigenfactor")


@dataclass(frozen=True, eq=False)
class MethodResult:
    """One weighting method applied to one survey: the read-only weights
    and the weighted rating they give. For eigenfactor only, also the
    read-only influence (stationary distribution) they come from and the
    solver's iteration count and final residual; None for degree."""

    weights: np.ndarray
    rating: float
    influence: np.ndarray | None = None
    iterations: int | None = None
    residual: float | None = None


def score_method(
    survey: SurveyInstance,
    method: str,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MethodResult:
    """Score ``survey`` with ``method``, "degree" or "eigenfactor".

    Raises ValueError naming any other method, and DegenerateNetwork when
    nobody endorses anybody; the eigenfactor solver raises ValueError on a
    bad setting and NoConvergence.
    """
    if method == "degree":
        weights = degree_weights(survey.competence)
        return MethodResult(weights, weighted_rating(survey.ratings, weights))
    if method != "eigenfactor":
        raise ValueError(f"unknown weighting method {method!r}")
    solved = stationary_distribution(survey.competence, alpha, tol, max_iter)
    weights = eigenfactor_weights(solved.values, survey.competence)
    return MethodResult(weights, weighted_rating(survey.ratings, weights), *solved)


@dataclass(frozen=True, eq=False)
class WeightedRatingReport:
    """Both weighting methods applied to one survey."""

    survey: SurveyInstance
    alpha: float
    degree: MethodResult
    eigenfactor: MethodResult

    @property
    def arithmetic_mean(self) -> float:
        """The plain mean of the survey's ratings, taken once when they
        were checked (``RatingVector.mean``)."""
        return self.survey.ratings.mean


def rate_survey(
    survey: SurveyInstance,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> WeightedRatingReport:
    """Compute degree and eigenfactor weighted ratings for one survey.

    The report keeps ``alpha`` as a Python float, whatever real number it
    was given as.
    """
    # the solver validates alpha, tol and max_iter, so it runs first: a bad
    # setting is reported before a degenerate network is
    eigenfactor = score_method(survey, "eigenfactor", alpha, tol, max_iter)
    degree = score_method(survey, "degree")
    # the solver took alpha as any real number; the report holds a float
    return WeightedRatingReport(survey, float(alpha), degree, eigenfactor)


def rating_report_dict(report: WeightedRatingReport, config: dict) -> dict:
    survey = report.survey
    mean = report.arithmetic_mean
    return {
        "schema": SCHEMA_VERSION,
        "label": survey.label,
        "n": survey.n,
        "scale": [survey.ratings.scale_min, survey.ratings.scale_max],
        "arithmetic_mean": mean,
        "degree": {
            "method": "degree",
            "weights": report.degree.weights.tolist(),
            "weighted_rating": report.degree.rating,
            "arithmetic_mean": mean,
        },
        "eigenfactor": {
            "method": "eigenfactor",
            "alpha": report.alpha,
            "weights": report.eigenfactor.weights.tolist(),
            "influence": report.eigenfactor.influence.tolist(),
            "iterations": report.eigenfactor.iterations,
            "residual": report.eigenfactor.residual,
            "weighted_rating": report.eigenfactor.rating,
        },
        "dangling": sorted(survey.competence.dangling),
        "warnings": list(survey.warnings),
        "config": config,
    }


def _scenario_method(result, method: str) -> dict:
    """One method's block of a scenario row; null fields where it failed."""
    scored = getattr(result, method)
    block = {
        "method": method,
        "weights": None if scored is None else scored.weights.tolist(),
        "weighted_rating": None if scored is None else scored.rating,
        "error": result.error(method),
        "error_reduction_pct": result.reduction(method),
    }
    if method == "eigenfactor":
        block["influence"] = None if scored is None else scored.influence.tolist()
        block["iterations"] = None if scored is None else scored.iterations
        block["residual"] = None if scored is None else scored.residual
    block["failure"] = getattr(result, f"{method}_failure")
    return block


def scenario_report_dict(results, summary, config: dict) -> dict:
    rows = [
        {
            "id": result.id,
            "arithmetic_mean": result.arithmetic_mean,
            "unbiased_mean": result.unbiased_mean,
            "err_mean": result.err_mean,
            "degree": _scenario_method(result, "degree"),
            "eigenfactor": _scenario_method(result, "eigenfactor"),
            "winner": result.winner,
            "zero_baseline": result.zero_baseline,
        }
        for result in sorted(results, key=lambda r: r.id)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "results": rows,
        "summary": {
            f"mean_{method}_reduction_pct": summary[method] for method in METHODS
        },
        "config": config,
    }
