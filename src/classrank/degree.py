"""Degree-centrality weights and the weighted rating itself.

Each student's weight is the total incoming mass in the row-normalized
competence matrix, rescaled so the weights sum to one. Because every
endorsing row contributes exactly 1 of mass, the rescaling divisor is the
number of endorsing students, and a student endorsed by nobody gets weight
exactly zero.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNetwork, DimensionMismatch
from .survey import CompetenceMatrix, RatingVector


def degree_weights(competence: CompetenceMatrix) -> np.ndarray:
    """Weights proportional to incoming normalized-endorsement mass.

    Returns a read-only float array of ``competence.n`` nonnegative weights
    that sum to 1 within 1e-9, with exactly 0 for a student nobody
    endorses: a bincount of endorsement shares divided by its own sum. The
    survey keeps compressed rows, so the shares, ``competence.shares``, are
    its per-student ``row_shares`` repeated over ``row_sums`` into edge
    order, an O(nnz) array built on this call. The tests
    ``test_weights_are_convex_coefficients`` and
    ``test_unendorsed_student_rating_is_irrelevant`` in
    ``tests/test_properties.py`` pin these invariants. Raises
    DegenerateNetwork when the matrix has no endorsements at all, since then
    there is no mass to distribute.
    """
    column_mass = np.bincount(competence.targets, competence.shares, competence.n)
    total = column_mass.sum()
    if total <= 0.0:
        raise DegenerateNetwork("no student endorses any other")
    weights = column_mass / total
    weights.setflags(write=False)
    return weights


def weighted_rating(ratings: RatingVector, weights: np.ndarray) -> float:
    """Convex combination of the ratings under the given weights.

    The result is clamped to [min(ratings), max(ratings)]: mathematically it
    always lies there, and the clamp keeps the guarantee under floating-point
    roundoff.
    """
    if ratings.n != weights.size:
        raise DimensionMismatch(
            f"{ratings.n} ratings vs {weights.size} weights"
        )
    value = float(weights @ ratings.values)
    low = float(ratings.values.min())
    high = float(ratings.values.max())
    return min(max(value, low), high)
