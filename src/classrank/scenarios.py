"""Biased-rating scenario harness.

Each scenario pairs one rating vector, holding a single declared-biased
rating, with its own competence matrix. The harness scores the arithmetic
mean and both weighted ratings by their absolute distance from the
leave-the-biased-one-out mean, then summarizes how much of the mean's error
each weighting method removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common import DEFAULT_ALPHA, DEFAULT_DIAGONAL_POLICY, DEFAULT_MAX_ITER
from .common import DEFAULT_SCALE, DEFAULT_TOL, _integer
from .errors import (
    ClassrankError,
    DegenerateNetwork,
    EmptyInput,
    IndexOutOfRange,
    MalformedInput,
    NoConvergence,
    ScaleViolation,
)
from .report import METHODS, MethodResult, score_method
from .survey import (
    CompetenceMatrix,
    RatingVector,
    SurveyInstance,
    _grid,
    _label,
    _mean,
    _rating_vector,
    _read_document,
)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One survey with one rating index declared as biased: an integer
    (numpy's too, not a bool) in 0..n-1, else IndexOutOfRange. The survey
    must hold at least two ratings, else EmptyInput, since
    ``unbiased_mean`` is the mean of the others, taken once here by
    ``_mean``, as RatingVector takes the mean of all. Every score is a
    distance between two points of the scale, so a scale wider than the
    largest float, and a leave-one-out mean past the float range, raise
    ScaleViolation."""

    id: int
    survey: SurveyInstance
    biased_index: int
    unbiased_mean: float = field(init=False)

    def __post_init__(self):
        ratings = self.survey.ratings
        i = self.biased_index
        _check_index(i, ratings.n, "biased index")
        if ratings.n < 2:
            raise EmptyInput("cannot exclude the only rating")
        if not math.isfinite(ratings.scale_max - ratings.scale_min):
            raise ScaleViolation(
                f"scale [{ratings.scale_min}, {ratings.scale_max}] is wider than "
                "the largest float"
            )
        values = ratings.values
        others = np.concatenate((values[:i], values[i + 1 :]))
        unbiased = _mean(others, "the ratings other than the biased one")
        object.__setattr__(self, "unbiased_mean", unbiased)


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Both weighting methods scored on one scenario.

    A method that fails (degenerate network, no convergence) leaves its
    result None and records the reason in its failure slot; the other still
    runs. The scores are derived from these fields on access, which costs
    less than caching them would.
    """

    id: int
    arithmetic_mean: float
    unbiased_mean: float
    degree: MethodResult | None = None
    eigenfactor: MethodResult | None = None
    degree_failure: str | None = None
    eigenfactor_failure: str | None = None

    @property
    def err_mean(self) -> float:
        """Distance of the arithmetic mean from the leave-one-out mean."""
        return abs(self.arithmetic_mean - self.unbiased_mean)

    @property
    def zero_baseline(self) -> bool:
        """A zero baseline error cannot be scored as a ratio."""
        return self.err_mean == 0.0

    def error(self, method: str) -> float | None:
        """Distance of the method's rating from the leave-one-out mean."""
        scored = getattr(self, method)
        return None if scored is None else abs(scored.rating - self.unbiased_mean)

    def reduction(self, method: str) -> float | None:
        """Percent of the mean's error the method removes; None when the
        method failed, the baseline is zero or the percent is not finite
        (a tiny baseline can make the ratio overflow)."""
        error = self.error(method)
        if error is None or self.zero_baseline:
            return None
        reduction = 100.0 * (1.0 - error / self.err_mean)
        return reduction if math.isfinite(reduction) else None

    @property
    def winner(self) -> str | None:
        """The method with the smaller error, "tie", or None if both failed."""
        degree, eigenfactor = self.error("degree"), self.error("eigenfactor")
        if degree == eigenfactor:
            return None if degree is None else "tie"
        if eigenfactor is None or (degree is not None and degree < eigenfactor):
            return "degree"
        return "eigenfactor"


def _check_index(index, n: int, what: str) -> None:
    # a bool would pass as 0 or 1, and numpy reads it as a mask; a float
    # would pass the range check and fail as a slice or array index
    if not _integer(index):
        raise IndexOutOfRange(f"{what} must be an integer, got {index!r}")
    if not 0 <= index < n:
        raise IndexOutOfRange(f"{what} {index} outside 0..{n - 1}")


def inject_bias(ratings: RatingVector, index: int, value: float) -> RatingVector:
    """Replace one rating, keeping the scale. ``index`` must be an integer
    (numpy's too, not a bool) in 0..n-1, else IndexOutOfRange; ``value``
    is checked with the other ratings by RatingVector, so one that is not a
    real number or lies off the scale raises its ScaleViolation."""
    _check_index(index, ratings.n, "index")
    values = ratings.values.tolist()
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
    """Score both weighting methods against ``scenario.unbiased_mean``."""
    survey = scenario.survey
    # each method's MethodResult, or the reason it failed, by field name
    outcome = {}
    for method in METHODS:
        try:
            outcome[method] = score_method(survey, method, alpha, tol, max_iter)
        except (DegenerateNetwork, NoConvergence) as exc:
            outcome[f"{method}_failure"] = str(exc)
    return ScenarioResult(
        id=scenario.id,
        arithmetic_mean=survey.ratings.mean,
        unbiased_mean=scenario.unbiased_mean,
        **outcome,
    )


def error_reduction_summary(results) -> dict[str, float | None]:
    """Mean percent of the mean's error each method removes, by method.

    The keys are ``METHODS``, in that order. Scenarios where a method
    failed, or whose baseline error is zero (see
    ``ScenarioResult.zero_baseline``), are left out of that method's mean,
    which is None when no scenario is left. Finite reductions can sum past
    the float range; only then is the mean taken as the sum of each
    reduction over the count, which stays finite, so every other mean is
    bit for bit ``sum(kept) / len(kept)``. A mean that is still not finite
    is None.
    """
    results = list(results)
    if not results:
        raise EmptyInput("no scenario results to summarize")
    means = {}
    for method in METHODS:
        reductions = [r.reduction(method) for r in results]
        kept = [value for value in reductions if value is not None]
        mean = sum(kept) / len(kept) if kept else math.nan
        if math.isinf(mean):
            mean = sum(value / len(kept) for value in kept)
        means[method] = mean if math.isfinite(mean) else None
    return means


def load_scenarios(
    source, diagonal_policy: str = DEFAULT_DIAGONAL_POLICY
) -> list[Scenario]:
    """Load a scenario bundle: shared ratings and biased index, one
    competence matrix per scenario. Results are ordered by scenario id,
    which must be unique.

    Only the document's shape raises MalformedInput here: the keys, the
    scenario entries and ids, the label and each competence grid (see
    ``_grid``). The scale and the shared ratings are checked once, by
    ``_rating_vector`` right after the first listed scenario's grid, and
    every scenario's survey shares that RatingVector; each matrix is then
    checked by CompetenceMatrix, and the biased index, then the count of
    at least two ratings, by the scenario's Scenario, after its survey is
    built; each raises the library's own error. An error of one scenario's
    matrix, or of its size against the ratings, is raised again as the
    same class with ``scenario <id>: `` in front. Scenarios are read in
    the order listed, so the first bad one listed is the one reported.
    ``label`` defaults to "scenario", and each survey is labelled
    ``<label>-<id>``."""
    data = _read_document(source, "scenario", ("ratings", "biased_index", "scenarios"))
    if not isinstance(data["scenarios"], list) or not data["scenarios"]:
        raise MalformedInput("scenario document holds no scenarios")
    scale = data.get("scale", DEFAULT_SCALE)
    label = _label(data.get("label", "scenario"))
    biased_index = data["biased_index"]

    ratings = None
    scenarios = {}
    for position, entry in enumerate(data["scenarios"], start=1):
        if not isinstance(entry, dict) or "competence" not in entry:
            raise MalformedInput(f"scenario #{position} lacks a competence matrix")
        sid = entry.get("id", position)
        if not _integer(sid):
            raise MalformedInput(f"scenario #{position} id must be an integer")
        if sid in scenarios:
            raise MalformedInput(f"scenario #{position} repeats id {sid}")
        grid = _grid(entry["competence"], f"scenario {sid}")
        # checked after the first grid, so a bundle reports its errors in
        # the order a survey document does
        if ratings is None:
            ratings = _rating_vector(data["ratings"], scale)
        try:
            survey = SurveyInstance(
                ratings, CompetenceMatrix(grid, diagonal_policy), f"{label}-{sid}"
            )
        except ClassrankError as exc:
            # one network of up to hundreds: say which, keeping the class
            raise type(exc)(f"scenario {sid}: {exc}") from exc
        scenarios[sid] = Scenario(id=sid, survey=survey, biased_index=biased_index)
    return [scenarios[sid] for sid in sorted(scenarios)]
