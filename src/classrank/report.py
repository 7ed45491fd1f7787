"""End-to-end rating pipeline and JSON report shapes.

All report builders return plain dicts ready for json.dumps. Floats are
serialized with Python's shortest round-trip repr, so a report read back by
json.loads reproduces bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degree import WeightVector, degree_weights, weighted_rating
from .eigenfactor import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    InfluenceVector,
    eigenfactor_weights,
    stationary_distribution,
)
from .survey import SurveyInstance

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class WeightedRatingReport:
    """Both weighting methods applied to one survey."""

    survey: SurveyInstance
    arithmetic_mean: float
    degree: WeightVector
    degree_rating: float
    eigenfactor: WeightVector
    eigenfactor_rating: float
    influence: InfluenceVector
    alpha: float
    dangling: tuple[int, ...]


# rate_survey and run_scenario both score a survey through these two steps;
# only what they do with a failing step differs
def _degree_step(survey: SurveyInstance) -> tuple[WeightVector, float]:
    weights = degree_weights(survey.competence)
    return weights, weighted_rating(survey.ratings, weights)


def _eigenfactor_step(
    survey: SurveyInstance, alpha: float, tol: float, max_iter: int
) -> tuple[WeightVector, float, InfluenceVector]:
    influence = stationary_distribution(survey.competence, alpha, tol, max_iter)
    weights = eigenfactor_weights(influence, survey.competence)
    return weights, weighted_rating(survey.ratings, weights), influence


def rate_survey(
    survey: SurveyInstance,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> WeightedRatingReport:
    """Compute degree and eigenfactor weighted ratings for one survey."""
    # the solver validates alpha, tol and max_iter, so it runs first: a bad
    # setting is reported before a degenerate network is
    eigenfactor, eigenfactor_rating, influence = _eigenfactor_step(
        survey, alpha, tol, max_iter
    )
    degree, degree_rating = _degree_step(survey)
    return WeightedRatingReport(
        survey=survey,
        arithmetic_mean=float(survey.ratings.values.mean()),
        degree=degree,
        degree_rating=degree_rating,
        eigenfactor=eigenfactor,
        eigenfactor_rating=eigenfactor_rating,
        influence=influence,
        alpha=alpha,
        dangling=tuple(sorted(survey.competence.dangling)),
    )


def rating_report_dict(report: WeightedRatingReport, config: dict) -> dict:
    survey = report.survey
    return {
        "schema": SCHEMA_VERSION,
        "label": survey.label,
        "n": survey.n,
        "scale": [survey.ratings.scale_min, survey.ratings.scale_max],
        "arithmetic_mean": report.arithmetic_mean,
        "degree": {
            "method": "degree",
            "weights": report.degree.weights.tolist(),
            "weighted_rating": report.degree_rating,
            "arithmetic_mean": report.arithmetic_mean,
        },
        "eigenfactor": {
            "method": "eigenfactor",
            "alpha": report.alpha,
            "weights": report.eigenfactor.weights.tolist(),
            "influence": report.influence.values.tolist(),
            "iterations": report.influence.iterations,
            "residual": report.influence.residual,
            "weighted_rating": report.eigenfactor_rating,
        },
        "dangling": list(report.dangling),
        "warnings": list(survey.warnings),
        "config": config,
    }


def dispersion_report_dict(rows, aggregate, excluded, config: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "rows": [
            {
                "label": row.label,
                "n": row.n,
                "mode": row.mode,
                "dev2": row.dev2,
                "dev3plus": row.dev3plus,
            }
            for row in rows
        ],
        "aggregate": {
            "total_n": aggregate.total_n,
            "total_dev2": aggregate.total_dev2,
            "total_dev3plus": aggregate.total_dev3plus,
            "pct_dev2": aggregate.pct_dev2,
            "pct_dev3plus": aggregate.pct_dev3plus,
            "pct_dev2plus": aggregate.pct_dev2plus,
        },
        "excluded": list(excluded),
        "config": config,
    }


def scenario_report_dict(results, summary, config: dict) -> dict:
    def optional_floats(array):
        return None if array is None else array.tolist()

    reductions = {entry.id: entry for entry in summary.per_scenario}
    rows = []
    for result in sorted(results, key=lambda r: r.id):
        reduction = reductions[result.id]
        rows.append(
            {
                "id": result.id,
                "arithmetic_mean": result.arithmetic_mean,
                "unbiased_mean": result.unbiased_mean,
                "err_mean": result.err_mean,
                "degree": {
                    "method": "degree",
                    "weights": optional_floats(result.degree_weights),
                    "weighted_rating": result.degree_rating,
                    "error": result.err_degree,
                    "error_reduction_pct": reduction.degree_reduction,
                    "failure": result.degree_failure,
                },
                "eigenfactor": {
                    "method": "eigenfactor",
                    "weights": optional_floats(result.eigenfactor_weights),
                    "weighted_rating": result.eigenfactor_rating,
                    "error": result.err_eigenfactor,
                    "error_reduction_pct": reduction.eigenfactor_reduction,
                    "influence": optional_floats(result.influence),
                    "iterations": result.iterations,
                    "residual": result.residual,
                    "failure": result.eigenfactor_failure,
                },
                "winner": reduction.winner,
                "zero_baseline": reduction.zero_baseline,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "results": rows,
        "summary": {
            "mean_degree_reduction_pct": summary.mean_degree_reduction,
            "mean_eigenfactor_reduction_pct": summary.mean_eigenfactor_reduction,
        },
        "config": config,
    }
