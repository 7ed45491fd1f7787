"""Degree-centrality weights and the weighted rating itself.

Each student's weight is the total incoming mass in the row-normalized
competence matrix, rescaled so the weights sum to one. Because every
endorsing row contributes exactly 1 of mass, the rescaling divisor is the
number of endorsing students, and a student endorsed by nobody gets weight
exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNetwork, DimensionMismatch
from .survey import CompetenceMatrix, RatingVector

WEIGHT_SUM_TOL = 1e-9
METHODS = ("degree", "eigenfactor")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative per-student weights summing to one."""

    weights: np.ndarray
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown weighting method {self.method!r}")
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise DimensionMismatch("weights must form a nonempty 1-d sequence")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = weights.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.weights.size


def degree_weights(competence: CompetenceMatrix) -> WeightVector:
    """Weights proportional to incoming normalized-endorsement mass.

    Raises DegenerateNetwork when the matrix has no endorsements at all,
    since then there is no mass to distribute.
    """
    column_mass = np.bincount(competence.targets, competence.shares, competence.n)
    total = column_mass.sum()
    if total <= 0.0:
        raise DegenerateNetwork("no student endorses any other")
    return WeightVector(weights=column_mass / total, method="degree")


def weighted_rating(ratings: RatingVector, weights: WeightVector) -> float:
    """Convex combination of the ratings under the given weights.

    The result is clamped to [min(ratings), max(ratings)]: mathematically it
    always lies there, and the clamp keeps the guarantee under floating-point
    roundoff.
    """
    if ratings.n != weights.n:
        raise DimensionMismatch(
            f"{ratings.n} ratings vs {weights.n} weights"
        )
    value = float(weights.weights @ ratings.values)
    low = float(ratings.values.min())
    high = float(ratings.values.max())
    return min(max(value, low), high)
