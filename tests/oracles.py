"""Independent reference implementations used to cross-check the solvers.

The oracles deliberately avoid the code paths they are checking: the
normalized matrix is a dense row division instead of an edge list, the
stationary oracle solves a dense linear system over an explicitly patched
walk matrix instead of iterating with the dangling mass folded in, and the
degree oracle works in exact rational arithmetic straight from the raw
binary matrix.
"""

from fractions import Fraction

import numpy as np


def stationary_oracle(walk_entries: np.ndarray, alpha: float) -> np.ndarray:
    """Stationary row distribution of alpha*walk + (1-alpha)*uniform.

    Solves (G^T - I) x = 0 with the normalization sum(x) = 1 appended in
    place of the last equation. Unique for alpha < 1.
    """
    n = walk_entries.shape[0]
    chain = alpha * walk_entries + (1.0 - alpha) / n
    system = chain.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def dense_normalized(raw_matrix) -> np.ndarray:
    """Row-normalized n x n float matrix straight from a raw 0/1 matrix.

    Each row is divided by its endorsement count; rows of zeros stay zero.
    """
    matrix = np.array(raw_matrix, dtype=float)
    counts = matrix.sum(axis=1)
    return matrix / np.where(counts == 0, 1.0, counts)[:, None]


def walk_matrix(normalized_entries) -> np.ndarray:
    """Row-stochastic walk: each all-zero (dangling) row becomes 1/n."""
    walk = np.array(normalized_entries, dtype=float)
    walk[walk.sum(axis=1) == 0] = 1.0 / walk.shape[0]
    return walk


def materialize_transition(walk: np.ndarray, alpha: float) -> np.ndarray:
    """Dense column-stochastic transition matrix of the teleported chain.

    Column j holds the outgoing probabilities of student j, so a stationary
    distribution x satisfies materialize_transition(walk, alpha) @ x = x.
    """
    return alpha * walk.T + (1.0 - alpha) / walk.shape[0]


def degree_oracle(raw_matrix) -> list | None:
    """Exact-fraction degree weights straight from a raw 0/1 matrix.

    Returns None when the matrix has no endorsements at all.
    """
    n = len(raw_matrix)
    incoming = [Fraction(0)] * n
    for row in raw_matrix:
        endorsements = sum(row)
        if endorsements == 0:
            continue
        share = Fraction(1, int(endorsements))
        for j, cell in enumerate(row):
            if cell:
                incoming[j] += share
    total = sum(incoming)
    if total == 0:
        return None
    return [value / total for value in incoming]


def random_binary_matrix(rng, n: int, density: float = 0.5) -> np.ndarray:
    """Random zero-diagonal 0/1 matrix with at least one endorsement."""
    matrix = (rng.random((n, n)) < density).astype(int)
    np.fill_diagonal(matrix, 0)
    if not matrix.any():
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        matrix[i, j] = 1
    return matrix
