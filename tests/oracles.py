"""Independent reference implementations used to cross-check the solvers.

The oracles deliberately avoid the code paths they are checking: the
normalized matrix is a dense row division instead of an edge list, the
stationary oracle solves a dense linear system over an explicitly patched
walk matrix instead of iterating with the dangling mass folded in, and the
degree oracle and the exact stationary solve work in rational arithmetic
straight from the raw binary matrix.
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


def exact_stationary(raw_matrix, alpha: float) -> list:
    """Exact stationary distribution of the teleported walk, as Fractions.

    Gauss-Jordan elimination in rational arithmetic on
    (I - alpha * W^T) x = (1 - alpha) / n, where W is the row-normalized raw
    0/1 matrix with each dangling (all-zero) row set to 1/n, and alpha is
    the exact value of the given float. The system is nonsingular for
    alpha < 1, since alpha * W^T has spectral radius below 1.
    """
    n = len(raw_matrix)
    alpha = Fraction(alpha)
    walk = []
    for row in raw_matrix:
        endorsements = sum(int(cell) for cell in row)
        if endorsements == 0:
            walk.append([Fraction(1, n)] * n)
        else:
            walk.append([Fraction(int(cell), endorsements) for cell in row])
    rhs = (1 - alpha) / n
    # the augmented rows [I - alpha * W^T | rhs]
    system = [
        [int(i == j) - alpha * walk[j][i] for j in range(n)] + [rhs] for i in range(n)
    ]
    for col in range(n):
        pivot = next(row for row in range(col, n) if system[row][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        head = system[col]
        scale = head[col]
        head[:] = [entry / scale for entry in head]
        for row in range(n):
            factor = system[row][col]
            if row != col and factor != 0:
                system[row] = [a - factor * b for a, b in zip(system[row], head)]
    return [row[n] for row in system]


def random_binary_matrix(rng, n: int, density: float = 0.5) -> np.ndarray:
    """Random zero-diagonal 0/1 matrix with at least one endorsement."""
    matrix = (rng.random((n, n)) < density).astype(int)
    np.fill_diagonal(matrix, 0)
    if not matrix.any():
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        matrix[i, j] = 1
    return matrix


# the unit roundoff of a float64
UNIT_ROUNDOFF = Fraction(1, 2**53)


def inner_product_error(value: float, weights, values) -> tuple[Fraction, Fraction]:
    """How far ``value`` lies from the exact sum of ``weights[i] *
    values[i]``, and the bound gamma_n * sum|w_i y_i| on that distance for
    any floating-point order of the n products and their sum, with
    gamma_n = n u / (1 - n u) (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., §3.1 and §4.2). Both are exact Fractions over the
    exact values of the given floats.
    """
    products = [Fraction(w) * Fraction(y) for w, y in zip(weights, values)]
    n_u = len(products) * UNIT_ROUNDOFF
    bound = n_u / (1 - n_u) * sum(map(abs, products))
    return abs(Fraction(value) - sum(products)), bound
