"""Biased-rating scenario harness.

Each scenario pairs one rating vector, holding a single declared-biased
rating, with its own competence matrix. The harness scores the arithmetic
mean and both weighted ratings by their absolute distance from the
leave-the-biased-one-out mean, then summarizes how much of the mean's error
each weighting method removes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenfactor import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import (
    DegenerateNetwork,
    EmptyInput,
    IndexOutOfRange,
    MalformedInput,
    NoConvergence,
    ScaleViolation,
)
from .report import _degree_step, _eigenfactor_step
from .survey import (
    RatingVector,
    SurveyInstance,
    _document_scale,
    _read_document,
    _survey_from_document,
)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One survey with one rating index declared as biased."""

    id: int
    survey: SurveyInstance
    biased_index: int

    def __post_init__(self):
        if not 0 <= self.biased_index < self.survey.n:
            raise IndexOutOfRange(
                f"biased index {self.biased_index} outside 0..{self.survey.n - 1}"
            )

    @property
    def n(self) -> int:
        return self.survey.n


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Ratings and errors of one scenario run.

    A weighting method that fails (degenerate network, no convergence)
    leaves its fields None and records the reason in its failure slot; the
    other method still runs.
    """

    id: int
    arithmetic_mean: float
    unbiased_mean: float
    err_mean: float
    degree_weights: np.ndarray | None
    degree_rating: float | None
    err_degree: float | None
    eigenfactor_weights: np.ndarray | None
    eigenfactor_rating: float | None
    err_eigenfactor: float | None
    influence: np.ndarray | None
    iterations: int | None
    residual: float | None
    degree_failure: str | None = None
    eigenfactor_failure: str | None = None


@dataclass(frozen=True)
class ScenarioReduction:
    """Share of the mean's error removed by each method, in percent."""

    id: int
    degree_reduction: float | None
    eigenfactor_reduction: float | None
    winner: str | None
    zero_baseline: bool


@dataclass(frozen=True)
class ReductionSummary:
    per_scenario: tuple[ScenarioReduction, ...]
    mean_degree_reduction: float | None
    mean_eigenfactor_reduction: float | None


def inject_bias(ratings: RatingVector, index: int, value: float) -> RatingVector:
    """Replace one rating, keeping the scale; the value must fit the scale."""
    if not 0 <= index < ratings.n:
        raise IndexOutOfRange(f"index {index} outside 0..{ratings.n - 1}")
    if not ratings.scale_min <= value <= ratings.scale_max:
        raise ScaleViolation(
            f"injected value {value!r} outside "
            f"[{ratings.scale_min}, {ratings.scale_max}]"
        )
    values = np.array(ratings.values)
    values[index] = value
    return RatingVector(
        values, scale_min=ratings.scale_min, scale_max=ratings.scale_max
    )


def run_scenario(
    scenario: Scenario,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScenarioResult:
    """Score both weighting methods against the leave-one-out mean."""
    ratings = scenario.survey.ratings
    if ratings.n < 2:
        raise EmptyInput("cannot exclude the only rating")
    values = ratings.values
    arithmetic_mean = float(values.mean())
    i = scenario.biased_index
    unbiased_mean = float(np.concatenate((values[:i], values[i + 1 :])).mean())
    err_mean = abs(arithmetic_mean - unbiased_mean)

    d_weights = d_rating = d_error = None
    degree_failure = None
    try:
        weights, d_rating = _degree_step(scenario.survey)
        d_weights = weights.weights
        d_error = abs(d_rating - unbiased_mean)
    except DegenerateNetwork as exc:
        degree_failure = str(exc)

    e_weights = e_rating = e_error = None
    influence = iterations = residual = None
    eigenfactor_failure = None
    try:
        weights, e_rating, stationary = _eigenfactor_step(
            scenario.survey, alpha, tol, max_iter
        )
        influence = stationary.values
        iterations = stationary.iterations
        residual = stationary.residual
        e_weights = weights.weights
        e_error = abs(e_rating - unbiased_mean)
    except (DegenerateNetwork, NoConvergence) as exc:
        eigenfactor_failure = str(exc)

    return ScenarioResult(
        id=scenario.id,
        arithmetic_mean=arithmetic_mean,
        unbiased_mean=unbiased_mean,
        err_mean=err_mean,
        degree_weights=d_weights,
        degree_rating=d_rating,
        err_degree=d_error,
        eigenfactor_weights=e_weights,
        eigenfactor_rating=e_rating,
        err_eigenfactor=e_error,
        influence=influence,
        iterations=iterations,
        residual=residual,
        degree_failure=degree_failure,
        eigenfactor_failure=eigenfactor_failure,
    )


def _winner(result: ScenarioResult) -> str | None:
    if result.err_degree is None and result.err_eigenfactor is None:
        return None
    if result.err_eigenfactor is None:
        return "degree"
    if result.err_degree is None:
        return "eigenfactor"
    if result.err_degree == result.err_eigenfactor:
        return "tie"
    return "degree" if result.err_degree < result.err_eigenfactor else "eigenfactor"


def error_reduction_summary(results) -> ReductionSummary:
    """Percent of the mean's error removed per scenario, plus the means.

    A scenario whose baseline error is zero cannot be scored as a ratio; it
    is flagged with ``zero_baseline`` and left out of the mean reductions.
    """
    results = list(results)
    if not results:
        raise EmptyInput("no scenario results to summarize")
    per_scenario = []
    degree_values = []
    eigen_values = []
    for result in results:
        zero_baseline = result.err_mean == 0.0
        degree_reduction = eigen_reduction = None
        if not zero_baseline:
            if result.err_degree is not None:
                degree_reduction = 100.0 * (1.0 - result.err_degree / result.err_mean)
                degree_values.append(degree_reduction)
            if result.err_eigenfactor is not None:
                eigen_reduction = 100.0 * (
                    1.0 - result.err_eigenfactor / result.err_mean
                )
                eigen_values.append(eigen_reduction)
        per_scenario.append(
            ScenarioReduction(
                id=result.id,
                degree_reduction=degree_reduction,
                eigenfactor_reduction=eigen_reduction,
                winner=_winner(result),
                zero_baseline=zero_baseline,
            )
        )
    return ReductionSummary(
        per_scenario=tuple(per_scenario),
        mean_degree_reduction=(
            sum(degree_values) / len(degree_values) if degree_values else None
        ),
        mean_eigenfactor_reduction=(
            sum(eigen_values) / len(eigen_values) if eigen_values else None
        ),
    )


def load_scenarios(source, diagonal_policy: str = "coerce") -> list[Scenario]:
    """Load a scenario bundle: shared ratings and biased index, one
    competence matrix per scenario. Results are ordered by scenario id,
    which must be unique."""
    data = _read_document(source, "scenario", ("ratings", "biased_index", "scenarios"))
    if not isinstance(data["scenarios"], list) or not data["scenarios"]:
        raise MalformedInput("scenario document holds no scenarios")
    scale = _document_scale(data)
    label = str(data.get("label", "scenario"))
    biased_index = data["biased_index"]
    if not isinstance(biased_index, int) or isinstance(biased_index, bool):
        raise MalformedInput("biased_index must be an integer")

    scenarios = {}
    for position, entry in enumerate(data["scenarios"], start=1):
        if not isinstance(entry, dict) or "competence" not in entry:
            raise MalformedInput(f"scenario #{position} lacks a competence matrix")
        sid = entry.get("id", position)
        if not isinstance(sid, int) or isinstance(sid, bool):
            raise MalformedInput(f"scenario #{position} id must be an integer")
        if sid in scenarios:
            raise MalformedInput(f"scenario #{position} repeats id {sid}")
        survey = _survey_from_document(
            data["ratings"],
            entry["competence"],
            f"scenario {sid}",
            scale=scale,
            diagonal_policy=diagonal_policy,
            label=f"{label}-{sid}",
        )
        scenarios[sid] = Scenario(id=sid, survey=survey, biased_index=biased_index)
    return [scenarios[sid] for sid in sorted(scenarios)]
