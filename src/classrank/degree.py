"""Degree-centrality weights and the weighted rating itself.

Both weightings, and each power step of the walk behind eigenfactor, are
incoming mass (Bergstrom, "Eigenfactor", C&RL News, 2007): row i hands
``v[i] * row_shares[i]`` to each student it endorses, and
``_incoming_mass`` is the one sum over the endorsements. Degree takes
v = 1, eigenfactor the stationary walk and a step alpha times the current
distribution. The weights are the mass each student receives, rescaled to
sum to one, so a student endorsed by nobody gets weight exactly zero.
"""

import numpy as np

from .errors import DegenerateNetwork, DimensionMismatch
from .survey import CompetenceMatrix, RatingVector, _readonly

# np.bincount's C function, called past numpy's __array_function__
# dispatcher (NEP 18's ``_implementation``, present since numpy 1.17): the
# dispatcher is C code too, but it still adds ~0.14 us to each call, one per
# power step, and the kernel is only ever given plain ndarrays, which it
# would hand to this same function.
_bincount = np.bincount._implementation


def _incoming_mass(
    targets: np.ndarray, row_sums: np.ndarray, row_mass: np.ndarray
) -> np.ndarray:
    """The mass each of the n = ``row_sums.size`` students receives when row
    i hands ``row_mass[i]`` to each of its endorsements: the one sum over
    the endorsements, O(nnz).

    ``targets`` and ``row_sums`` are a CompetenceMatrix's edge arrays, which
    the power iteration binds once per solve, ``targets`` as an intp copy;
    a weighting hands over the stored narrow ``targets``, which bincount
    casts once. ``row_mass`` is repeated over ``row_sums`` into the
    edge order of ``targets``. A network without edges gets an int64 array
    of zeros.
    """
    return _bincount(targets, row_mass.repeat(row_sums), row_sums.size)


def _require_type(value, kind: type, name: str, what: str) -> None:
    """Raise DimensionMismatch unless ``value``, the ``name`` of the caller's
    argument, is an instance of ``kind``, which the message calls ``what``:
    a list where an array belongs, or an array where a CompetenceMatrix
    does, would fail later on a missing attribute."""
    if not isinstance(value, kind):
        raise DimensionMismatch(f"{name} must be {what}, got {type(value).__name__}")


def _per_student(array, n: int, name: str) -> None:
    """Raise DimensionMismatch unless ``array``, the ``name`` of the caller's
    argument, is an ndarray of shape (n,), one entry a student."""
    _require_type(array, np.ndarray, name, "a numpy array")
    if array.shape != (n,):
        raise DimensionMismatch(f"{name} must have shape ({n},), got {array.shape}")


def _incoming_weights(competence: CompetenceMatrix, row_mass: np.ndarray) -> np.ndarray:
    """Read-only weights: the incoming mass under ``row_mass``, rescaled to
    sum to 1. Raises DegenerateNetwork when no mass arrives."""
    mass = _incoming_mass(competence.targets, competence.row_sums, row_mass)
    total = mass.sum()
    if total <= 0.0:
        raise DegenerateNetwork("no student endorses any other")
    return _readonly(mass / total)


def degree_weights(competence: CompetenceMatrix) -> np.ndarray:
    """Weights proportional to incoming normalized-endorsement mass.

    Returns a read-only float array of ``competence.n`` nonnegative weights
    that sum to 1 within 1e-9, with exactly 0 for a student nobody
    endorses: every endorser counts once, so each endorsement carries its
    row share. The tests ``test_weights_are_convex_coefficients`` and
    ``test_unendorsed_student_rating_is_irrelevant`` in
    ``tests/test_properties.py`` pin these invariants. Raises
    DegenerateNetwork when the matrix has no endorsements at all, since then
    there is no mass to distribute, and DimensionMismatch when
    ``competence`` is not a CompetenceMatrix (a raw matrix, say).
    """
    _require_type(competence, CompetenceMatrix, "competence", "a CompetenceMatrix")
    return _incoming_weights(competence, competence.row_shares)


def weighted_rating(ratings: RatingVector, weights: np.ndarray) -> float:
    """Convex combination of the ratings under the given weights.

    The sum is numpy's pairwise sum (``np.add.reduce``) of the products,
    not a BLAS dot, whose kernel OpenBLAS picks by CPU and whose kernels
    round differently: no step from validation to report calls BLAS, so
    the rating has the same bits on every machine. Before the clamp it lies
    within gamma_n * sum|w_i y_i| of the exact sum of w_i y_i over these
    very floats, where gamma_n = n u / (1 - n u) and u = 2**-53 (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., §3.1 and
    §4.2: the bound holds for any summation order).

    The result is clamped to [ratings.low, ratings.high], the smallest and
    largest rating: mathematically it always lies there, and the clamp keeps
    the guarantee under floating-point roundoff. Raises DimensionMismatch
    unless ``weights`` is a 1-d ndarray with one entry a rating.
    """
    _per_student(weights, ratings.n, "weights")
    value = float(np.add.reduce(weights * ratings.values))
    return min(max(value, ratings.low), ratings.high)
