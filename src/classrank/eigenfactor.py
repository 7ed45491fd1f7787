"""Eigenfactor-style weights from a teleported random walk.

The walk runs on the row-normalized competence matrix, which validation
keeps as compressed rows of endorsements (a CompetenceMatrix), so each step
costs O(nnz). A dangling student, one who endorses nobody, hands their
visit mass on uniformly: at every step that mass is spread over all n
students, as if the zero row were the uniform row. With teleportation probability
1 - alpha the walker jumps to a uniformly random student, which makes the
chain primitive and its stationary distribution unique and strictly
positive. A student's weight is then the stationary-visit-weighted incoming
mass, so endorsements from influential students count for more.
"""

from collections import namedtuple

import numpy as np

from .common import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL, _check_count, _real
from .degree import _incoming_mass, _incoming_weights, _per_student, _require_type
from .errors import NoConvergence
from .survey import CompetenceMatrix, _readonly

_Stationary = namedtuple("Stationary", "values iterations residual")


def stationary_distribution(
    competence: CompetenceMatrix,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> _Stationary:
    """Power iteration for the stationary distribution of the chain.

    Returns a named tuple ``(values, iterations, residual)``: the read-only
    distribution, the steps taken and the final L1 change between steps.

    Each step follows every endorsement once: ``y[j]`` collects
    ``x[i] * (alpha * share_i)`` over the edges i -> j, where ``share_i`` is
    ``competence.row_shares[i]``: the n products are taken first and handed
    to the incoming-mass kernel that both weightings use, which repeats them
    over ``row_sums`` into edge order and sums them into their targets. Then
    every entry gains ``(1 - sum(y)) / n``. That term is exactly the
    teleport mass ``(1 - alpha) / n`` plus the dangling mass
    ``alpha * (x . d) / n`` plus any floating-point drift, so no walk
    matrix is ever built (the rank-one dangling-node treatment of Langville
    & Meyer, "Deeper Inside PageRank", 2004) and a step costs O(nnz).
    Starts from the uniform distribution and stops once the L1 change
    between steps drops to ``tol``, which must be positive and finite (an
    infinite tol states no accuracy); the map contracts by ``alpha`` in L1,
    so the result is then within ``alpha / (1 - alpha) * tol`` of the exact
    distribution. The run is deterministic: fixed start, fixed operation
    order. ``alpha`` and ``tol`` must be real numbers (Python or numpy), not
    bools or strings, and are run as Python floats; ``max_iter`` must be an
    integer of at least 1 (a Python or numpy integer, not a bool or a float).
    Each raises ValueError otherwise.
    Raises NoConvergence if ``max_iter`` steps are not enough, and first
    DimensionMismatch if ``competence`` is not a CompetenceMatrix.

    The returned ``values`` are strictly positive (each entry holds at
    least the teleport mass ``(1 - alpha) / n``) and sum to 1 within 1e-12,
    as ``tests/test_properties.py::test_weights_are_convex_coefficients``
    and ``tests/test_eigenfactor.py::test_influence_meets_teleportation_floor``
    pin.
    """
    _require_type(competence, CompetenceMatrix, "competence", "a CompetenceMatrix")
    # a bool or a string is no setting: True would run as 1, "0.5" would
    # fail with a TypeError. Any other real number runs as the nearest float,
    # since bincount casts no Fraction or longdouble to float64, so that
    # float is what the ranges are checked on
    if not (_real(alpha) and 0.0 <= float(alpha) < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    if not (_real(tol) and 0 < float(tol) < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    # a float would fail inside range() and a bool would run one step
    _check_count(max_iter, "max_iter")
    alpha, tol = float(alpha), float(tol)
    # bound once: a step makes one kernel call and no attribute lookup, and
    # bincount gets intp targets, which it would otherwise cast every step
    targets, row_sums = competence.targets.astype(np.intp), competence.row_sums
    n = row_sums.size
    shares = alpha * competence.row_shares
    total = np.add.reduce
    current = np.full(n, 1.0 / n)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        advanced = _incoming_mass(targets, row_sums, current * shares)
        # not in place: a network without edges gets an int64 bincount
        advanced = advanced + (1.0 - total(advanced)) / n
        residual = float(total(np.abs(advanced - current)))
        current = advanced
        if residual <= tol:
            return _Stationary(_readonly(current), iteration, residual)
    raise NoConvergence(
        f"residual {residual:.3e} still above {tol:.3e} after {max_iter} iterations"
    )


def eigenfactor_weights(
    influence: np.ndarray, competence: CompetenceMatrix
) -> np.ndarray:
    """Weights proportional to influence-weighted incoming mass.

    Returns a read-only float array of ``competence.n`` nonnegative weights
    that sum to 1 within 1e-9. Each endorsement i -> j carries
    ``x[i] * row_shares[i]``, so a student endorsed by nobody keeps weight
    exactly zero. The tests ``test_weights_are_convex_coefficients`` and
    ``test_unendorsed_student_rating_is_irrelevant`` in
    ``tests/test_properties.py`` pin these invariants. ``influence`` is the
    distribution itself, the solver's ``values``. Raises DimensionMismatch
    unless ``competence`` is a CompetenceMatrix and ``influence`` a 1-d
    ndarray with one entry a student, and DegenerateNetwork when nobody
    endorses anybody.
    """
    _require_type(competence, CompetenceMatrix, "competence", "a CompetenceMatrix")
    _per_student(influence, competence.n, "influence")
    return _incoming_weights(competence, influence * competence.row_shares)
