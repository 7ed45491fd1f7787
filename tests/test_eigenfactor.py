import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from classrank import (
    DegenerateNetwork,
    DimensionMismatch,
    NoConvergence,
    degree_weights,
    eigenfactor_weights,
    stationary_distribution,
    validate_survey,
)
from goldens import (
    RATING_TOL,
    S3_EIGEN_RATING_TOL,
    S3_EIGEN_WEIGHT_TOL,
    SCENARIO_EXPECTED,
    WEIGHT_TOL,
)
from oracles import (
    dense_normalized,
    exact_stationary,
    materialize_transition,
    random_binary_matrix,
    stationary_oracle,
    walk_matrix,
)


def _competence(matrix):
    return validate_survey([3.0] * len(matrix), matrix).competence


def test_build_stochastic_patches_dangling_row(scenario_by_id, scenario_matrices):
    # the solver folds dangling mass into each step; its result must be the
    # stationary distribution of the walk whose dangling row 7 is uniform
    competence = scenario_by_id[1].survey.competence
    assert competence.dangling == frozenset({7})
    dense = dense_normalized(scenario_matrices[1])
    walk = walk_matrix(dense)
    assert np.allclose(walk[7], 0.1, atol=1e-15)
    # non-dangling rows pass through untouched
    mask = np.ones(10, dtype=bool)
    mask[7] = False
    assert np.array_equal(walk[mask], dense[mask])
    for alpha in (0.5, 0.85, 0.99):
        iterated = stationary_distribution(competence, alpha, max_iter=5000)
        direct = stationary_oracle(walk, alpha)
        assert np.abs(iterated.values - direct).sum() <= 1e-12


def test_build_stochastic_identity_when_no_dangling(scenario_by_id, scenario_matrices):
    # with no dangling row the walk is the normalized matrix itself
    competence = scenario_by_id[2].survey.competence
    assert competence.dangling == frozenset()
    dense = dense_normalized(scenario_matrices[2])
    assert np.array_equal(walk_matrix(dense), dense)
    for alpha in (0.5, 0.85, 0.99):
        iterated = stationary_distribution(competence, alpha, max_iter=5000)
        direct = stationary_oracle(dense, alpha)
        assert np.abs(iterated.values - direct).sum() <= 1e-12


def test_dangling_rows_match_the_patched_walk():
    # random networks with forced dangling rows against the patched-walk oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        matrix = random_binary_matrix(rng, n)
        forced = rng.choice(n, int(rng.integers(1, n)), replace=False)
        matrix[forced] = 0
        if not matrix.any():
            keep = int(rng.choice(np.setdiff1d(np.arange(n), forced)))
            matrix[keep, (keep + 1) % n] = 1
        competence = _competence(matrix)
        for alpha in (0.5, 0.85, 0.99):
            iterated = stationary_distribution(competence, alpha, max_iter=5000)
            direct = stationary_oracle(walk_matrix(dense_normalized(matrix)), alpha)
            assert np.abs(iterated.values - direct).sum() <= 1e-12


def test_stated_accuracy_bound(scenario_matrices):
    # the map contracts by alpha in L1, so the distance to the fixed point
    # is at most alpha / (1 - alpha) times the last step's change
    rng = np.random.default_rng(17)
    raws = list(scenario_matrices.values())
    raws += [random_binary_matrix(rng, int(rng.integers(2, 30))) for _ in range(20)]
    for raw in raws:
        competence = _competence(raw)
        for alpha in (0.5, 0.85, 0.99):
            result = stationary_distribution(competence, alpha, max_iter=5000)
            direct = stationary_oracle(walk_matrix(dense_normalized(raw)), alpha)
            error = np.abs(result.values - direct).sum()
            assert error <= alpha / (1 - alpha) * result.residual + 1e-14


def test_stated_accuracy_bound_against_exact_reference():
    # the docstring's promise, checked exactly: the L1 distance to the exact
    # stationary distribution at the float alpha the solver ran with
    rng = np.random.default_rng(23)
    for _ in range(20):
        raw = random_binary_matrix(rng, int(rng.integers(2, 8)))
        competence = _competence(raw)
        for alpha in (0.5, 0.85, 0.99):
            result = stationary_distribution(competence, alpha)
            exact = exact_stationary(raw.tolist(), alpha)
            error = sum(abs(Fraction(x) - y) for x, y in zip(result.values, exact))
            bound = Fraction(alpha) / (1 - Fraction(alpha)) * Fraction(1e-12)
            assert error <= bound, (raw.tolist(), alpha)


def test_single_node_walk():
    result = stationary_distribution(_competence([[0]]))
    assert result.values.tolist() == [1.0]
    assert result.iterations == 1


def test_alpha_range_enforced():
    competence = _competence([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        stationary_distribution(competence, alpha=1.0)
    with pytest.raises(ValueError):
        stationary_distribution(competence, alpha=-0.05)
    with pytest.raises(ValueError):
        stationary_distribution(competence, alpha=float("nan"))
    stationary_distribution(competence, alpha=0.0)


def test_uniform_network_has_uniform_influence():
    for n in (2, 5, 8):
        matrix = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        result = stationary_distribution(_competence(matrix))
        assert np.allclose(result.values, 1.0 / n, atol=1e-12)


def test_stationarity_of_the_result(scenario_by_id, scenario_matrices):
    competence = scenario_by_id[1].survey.competence
    result = stationary_distribution(competence, 0.85, tol=1e-12)
    walk = walk_matrix(dense_normalized(scenario_matrices[1]))
    dense = materialize_transition(walk, 0.85)
    assert np.abs(dense @ result.values - result.values).sum() <= 1e-11


def test_materialized_transition_is_column_stochastic(
    scenario_by_id, scenario_matrices
):
    for sid in (1, 3, 5):
        walk = walk_matrix(dense_normalized(scenario_matrices[sid]))
        dense = materialize_transition(walk, 0.85)
        assert np.allclose(dense.sum(axis=0), 1.0, atol=1e-12)
        result = stationary_distribution(scenario_by_id[sid].survey.competence, 0.85)
        assert np.abs(dense @ result.values - result.values).max() <= 1e-11


def test_influence_meets_teleportation_floor():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        alpha = float(rng.choice([0.5, 0.85, 0.99]))
        competence = _competence(random_binary_matrix(rng, n))
        result = stationary_distribution(competence, alpha, max_iter=5000)
        assert np.all(result.values >= (1.0 - alpha) / n - 1e-12)
        assert abs(result.values.sum() - 1.0) <= 1e-12


def test_power_iteration_matches_dense_solve():
    rng = np.random.default_rng(3)
    matrices = [random_binary_matrix(rng, int(rng.integers(2, 9))) for _ in range(50)]
    # and one network of a large class, sparse, with dangling rows
    large = random_binary_matrix(rng, 400, density=0.02)
    large[rng.choice(400, 40, replace=False)] = 0
    for matrix in matrices + [large]:
        iterated = stationary_distribution(_competence(matrix), 0.85).values
        direct = stationary_oracle(walk_matrix(dense_normalized(matrix)), 0.85)
        assert np.abs(iterated - direct).sum() <= 1e-9


def test_deterministic_reruns(scenario_by_id):
    competence = scenario_by_id[1].survey.competence
    first = stationary_distribution(competence, 0.85)
    second = stationary_distribution(competence, 0.85)
    assert np.array_equal(first.values, second.values)
    assert first.iterations == second.iterations
    assert first.residual == second.residual


def test_no_convergence_guard(scenario_by_id):
    competence = scenario_by_id[1].survey.competence
    with pytest.raises(NoConvergence):
        stationary_distribution(competence, 0.85, tol=1e-12, max_iter=2)


def test_solver_parameter_validation(scenario_by_id):
    competence = scenario_by_id[1].survey.competence
    for tol in (0.0, -1e-12, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            stationary_distribution(competence, tol=tol)
    with pytest.raises(ValueError):
        stationary_distribution(competence, max_iter=0)
    # a float failed inside range() with a TypeError, and True ran one step
    for max_iter in (2.5, 1000.0, True, np.True_, "1000", None):
        with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
            stationary_distribution(competence, max_iter=max_iter)
    # numpy integers are integers
    for max_iter in (np.int64(1000), np.uint16(1000)):
        exact = stationary_distribution(competence, max_iter=1000)
        result = stationary_distribution(competence, max_iter=max_iter)
        assert result.iterations == exact.iterations
        assert np.array_equal(result.values, exact.values)



def _perfbench_spans():
    """perfbench/spans.py, loaded by path: it imports only the stdlib."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_result_keeps_the_facts_the_benchmark_traces(scenario_by_id):
    # the traced benchmark reads n and the step count off the solver's
    # return value by attribute name; a return type without them would read
    # 0 iterations in every traced run instead of failing
    spans = _perfbench_spans()
    for sid in (1, 2):
        competence = scenario_by_id[sid].survey.competence
        result = stationary_distribution(competence, 0.85)
        assert result.iterations >= 1
        assert spans._solver_facts((), {}, result) == {
            "n": competence.n,
            "iterations": result.iterations,
        }
        values, iterations, residual = result
        assert values is result.values
        assert iterations == result.iterations
        assert residual == result.residual


def test_solver_settings_must_be_real_numbers(scenario_by_id):
    # a string raised a bare TypeError, and False or True ran as 0 or 1
    competence = scenario_by_id[1].survey.competence
    # nor is a real number whose nearest float leaves the range
    for alpha in ("0.5", False, None, 0.5j, 1 - Fraction(1, 10**400)):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\), got "):
            stationary_distribution(competence, alpha=alpha)
    for tol in ("1e-3", True, None, Fraction(1, 10**400)):
        with pytest.raises(ValueError, match="^tol must be positive and finite, got "):
            stationary_distribution(competence, tol=tol)
    # numpy scalars are numbers
    exact = stationary_distribution(competence, alpha=0.5, tol=1e-9)
    result = stationary_distribution(
        competence, alpha=np.float64(0.5), tol=np.float32(1e-9)
    )
    assert result.iterations == exact.iterations
    assert stationary_distribution(competence, alpha=np.float32(0.5)).iterations
    # so are a Fraction and a longdouble, which bincount would not cast to
    # float64: they run as Python floats
    for alpha, tol in (
        (Fraction(1, 2), Fraction(1, 10**9)),
        (np.longdouble(0.5), 1e-9),
    ):
        result = stationary_distribution(competence, alpha=alpha, tol=tol)
        assert result.iterations == exact.iterations

def test_golden_weights_most_scenarios(result_by_id):
    for sid, expected in SCENARIO_EXPECTED.items():
        if sid == 3:
            continue
        weights = result_by_id[sid].eigenfactor.weights
        assert np.max(np.abs(weights - expected["eigenfactor_weights"])) <= WEIGHT_TOL


def test_golden_weights_scenario_3_documented_slack(result_by_id):
    # the printed reference column for this scenario is internally
    # inconsistent (sums to 1.0001), see data/NOTES.md; the matrix is pinned
    # by the degree column, which matches to 4e-5
    expected = SCENARIO_EXPECTED[3]["eigenfactor_weights"]
    weights = result_by_id[3].eigenfactor.weights
    assert np.max(np.abs(weights - expected)) <= S3_EIGEN_WEIGHT_TOL


def test_golden_ratings(result_by_id):
    for sid, expected in SCENARIO_EXPECTED.items():
        tol = S3_EIGEN_RATING_TOL if sid == 3 else RATING_TOL
        assert result_by_id[sid].eigenfactor.rating == pytest.approx(
            expected["eigenfactor_rating"], abs=tol
        )


def test_unendorsed_student_gets_exact_zero(result_by_id):
    for sid in (4, 5, 6):
        assert result_by_id[sid].eigenfactor.weights[7] == 0.0


def test_near_zero_alpha_recovers_degree_weights(scenario_by_id):
    # with a nearly uniform influence vector the incoming-mass weighting
    # collapses to the degree one
    competence = scenario_by_id[1].survey.competence
    influence = stationary_distribution(competence, alpha=1e-6)
    eigen = eigenfactor_weights(influence.values, competence)
    degree = degree_weights(competence)
    assert np.max(np.abs(eigen - degree)) <= 1e-4


def test_degenerate_network_raises():
    # a network without edges: the solver still returns the uniform float
    # distribution, and both weightings refuse it
    for n in (1, 2, 5, 30):
        competence = _competence(np.zeros((n, n), dtype=int))
        assert competence.targets.size == 0
        influence = stationary_distribution(competence, 0.85)
        assert influence.values.dtype == np.float64
        assert np.allclose(influence.values, 1.0 / n, rtol=0, atol=1e-15)
        assert influence.iterations == 1
        with pytest.raises(DegenerateNetwork):
            eigenfactor_weights(influence.values, competence)
        with pytest.raises(DegenerateNetwork):
            degree_weights(competence)


def _per_edge_reference(matrix, alpha, tol, max_iter):
    """The solve and both weightings with one stored share per edge, straight
    from a zero-diagonal 0/1 matrix: every step multiplies ``x[sources]`` by
    ``alpha * shares`` edge by edge. Returns (influence, iterations,
    residual, degree weights, eigenfactor weights), a weighting None where
    the network has no edges."""
    n = len(matrix)
    sources, targets = np.nonzero(matrix)
    shares = 1.0 / matrix.sum(axis=1)[sources]
    alpha_shares = alpha * shares
    current = np.full(n, 1.0 / n)
    for iteration in range(1, max_iter + 1):
        advanced = np.bincount(targets, current[sources] * alpha_shares, n)
        advanced = advanced + (1.0 - np.add.reduce(advanced)) / n
        residual = float(np.add.reduce(np.abs(advanced - current)))
        current = advanced
        if residual <= tol:
            break
    if not sources.size:
        return current, iteration, residual, None, None
    degree = np.bincount(targets, shares, n)
    eigen = np.bincount(targets, current[sources] * shares, n)
    return current, iteration, residual, degree / degree.sum(), eigen / eigen.sum()


def _bit_identity_cases():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        matrix = random_binary_matrix(rng, n, float(rng.uniform(0.05, 0.6)))
        matrix[rng.random(n) < 0.25] = 0  # dangling rows
        raw = matrix.copy()
        if rng.random() < 0.5:
            # self-endorsements, which validation coerces away
            loops = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
            raw[loops, loops] = 1
        yield raw, matrix
    # class sizes of 40 to 100, and one of 600 that validation scans on two
    # threads (more than one block of rows)
    for n in rng.integers(40, 101, 6).tolist() + [600]:
        density = 0.02 if n == 600 else float(rng.uniform(0.05, 0.6))
        matrix = random_binary_matrix(rng, n, density)
        matrix[rng.random(n) < 0.25] = 0
        raw = matrix.copy()
        loops = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        raw[loops, loops] = 1
        yield raw, matrix
    # either side of the switch from uint8 to uint16 targets (n = 256, 257)
    # and past it
    for n in (256, 257, 300):
        matrix = random_binary_matrix(rng, n, float(rng.uniform(0.02, 0.1)))
        matrix[rng.random(n) < 0.25] = 0
        raw = matrix.copy()
        loops = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        raw[loops, loops] = 1
        yield raw, matrix
    one_edge = np.zeros((6, 6), dtype=int)
    one_edge[4, 1] = 1
    yield one_edge, one_edge
    for n in (1, 7):
        yield np.eye(n, dtype=int), np.zeros((n, n), dtype=int)


def test_compressed_rows_solve_bit_identical_to_per_edge_shares():
    # the survey keeps one share per student, not per edge, yet every edge
    # still gets the same two IEEE multiplies in the same order, so every
    # value, iteration count and residual is equal, not merely close
    for raw, matrix in _bit_identity_cases():
        competence = _competence(raw)
        for alpha in (0.0, 0.5, 0.85, 0.99):
            influence = stationary_distribution(competence, alpha, max_iter=5000)
            values, iterations, residual, degree, eigen = _per_edge_reference(
                matrix, alpha, 1e-12, 5000
            )
            assert np.array_equal(influence.values, values)
            assert influence.iterations == iterations
            assert influence.residual == residual
            if degree is None:
                with pytest.raises(DegenerateNetwork):
                    degree_weights(competence)
                with pytest.raises(DegenerateNetwork):
                    eigenfactor_weights(influence.values, competence)
            else:
                assert np.array_equal(degree_weights(competence), degree)
                assert np.array_equal(
                    eigenfactor_weights(influence.values, competence), eigen
                )


def test_unit_visits_give_the_degree_weights_bit_for_bit():
    # degree centrality is eigenfactor with every endorser visited once
    for raw, _ in _bit_identity_cases():
        competence = _competence(raw)
        unit = np.ones(competence.n)
        if competence.targets.size == 0:
            with pytest.raises(DegenerateNetwork):
                degree_weights(competence)
            with pytest.raises(DegenerateNetwork):
                eigenfactor_weights(unit, competence)
        else:
            assert np.array_equal(
                eigenfactor_weights(unit, competence), degree_weights(competence)
            )


@pytest.mark.parametrize("size", [1, 9, 11])
def test_influence_of_the_wrong_length_raises(size):
    competence = _competence(random_binary_matrix(np.random.default_rng(3), 10))
    influence = np.full(size, 1.0 / size)
    message = rf"^influence must have shape \(10,\), got \({size},\)$"
    with pytest.raises(DimensionMismatch, match=message):
        eigenfactor_weights(influence, competence)


@pytest.mark.parametrize("shape", [(10, 1), (1, 10)])
def test_influence_of_another_shape_raises(shape):
    competence = _competence(random_binary_matrix(np.random.default_rng(3), 10))
    influence = np.full(shape, 0.1)
    with pytest.raises(DimensionMismatch) as excinfo:
        eigenfactor_weights(influence, competence)
    assert str(excinfo.value) == f"influence must have shape (10,), got {shape}"


def test_influence_that_is_not_an_array_raises():
    competence = _competence(random_binary_matrix(np.random.default_rng(3), 10))
    with pytest.raises(
        DimensionMismatch, match="^influence must be a numpy array, got list$"
    ):
        eigenfactor_weights([0.1] * 10, competence)
