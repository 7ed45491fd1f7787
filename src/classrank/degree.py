"""Degree-centrality weights and the weighted rating itself.

Both weightings are visit-weighted incoming mass (Bergstrom, "Eigenfactor",
C&RL News, 2007): endorsement i -> j carries ``v[i] * row_shares[i]``, with
v = 1 for degree and the stationary walk for eigenfactor, and the weights
are the mass each student receives, rescaled to sum to one. A student
endorsed by nobody gets weight exactly zero.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNetwork, DimensionMismatch
from .survey import CompetenceMatrix, RatingVector


def _incoming_weights(
    competence: CompetenceMatrix, visits: np.ndarray | None = None
) -> np.ndarray:
    """Read-only weights: incoming mass under ``visits``, rescaled to sum 1.

    Row i hands each endorsement ``visits[i] * row_shares[i]``, its bare
    share when ``visits`` is None, repeated over ``row_sums`` into the O(nnz)
    edge order. Raises DimensionMismatch unless ``visits`` is 1-d with one
    entry a student, and DegenerateNetwork when no mass arrives.
    """
    row_mass = competence.row_shares
    if visits is not None:
        if visits.shape != (competence.n,):
            raise DimensionMismatch(
                f"{visits.size} influence entries vs {competence.n} students"
                f" (shape {visits.shape})"
            )
        row_mass = visits * row_mass
    mass = np.bincount(
        competence.targets, row_mass.repeat(competence.row_sums), competence.n
    )
    total = mass.sum()
    if total <= 0.0:
        raise DegenerateNetwork("no student endorses any other")
    weights = mass / total
    weights.setflags(write=False)
    return weights


def degree_weights(competence: CompetenceMatrix) -> np.ndarray:
    """Weights proportional to incoming normalized-endorsement mass.

    Returns a read-only float array of ``competence.n`` nonnegative weights
    that sum to 1 within 1e-9, with exactly 0 for a student nobody
    endorses: every endorser counts once, so each endorsement carries its
    row share. The tests ``test_weights_are_convex_coefficients`` and
    ``test_unendorsed_student_rating_is_irrelevant`` in
    ``tests/test_properties.py`` pin these invariants. Raises
    DegenerateNetwork when the matrix has no endorsements at all, since then
    there is no mass to distribute.
    """
    return _incoming_weights(competence)


def weighted_rating(ratings: RatingVector, weights: np.ndarray) -> float:
    """Convex combination of the ratings under the given weights.

    The result is clamped to [ratings.low, ratings.high], the smallest and
    largest rating: mathematically it always lies there, and the clamp keeps
    the guarantee under floating-point roundoff. Raises DimensionMismatch
    unless ``weights`` is 1-d with one entry a rating.
    """
    if weights.shape != (ratings.n,):
        raise DimensionMismatch(
            f"{ratings.n} ratings vs {weights.size} weights (shape {weights.shape})"
        )
    value = float(weights @ ratings.values)
    return min(max(value, ratings.low), ratings.high)
