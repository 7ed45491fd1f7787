import importlib
import re
from itertools import product

import numpy as np
import pytest

import classrank.degree
from classrank import (
    DegenerateNetwork,
    DimensionMismatch,
    RatingVector,
    degree_weights,
    validate_survey,
    weighted_rating,
)
from classrank.report import METHODS, score_method
from goldens import RATING_TOL, SCENARIO_EXPECTED, WEIGHT_TOL
from oracles import degree_oracle


def test_golden_weights_all_scenarios(result_by_id):
    for sid, expected in SCENARIO_EXPECTED.items():
        weights = result_by_id[sid].degree.weights
        assert np.max(np.abs(weights - expected["degree_weights"])) <= WEIGHT_TOL


def test_golden_ratings_all_scenarios(result_by_id):
    for sid, expected in SCENARIO_EXPECTED.items():
        assert result_by_id[sid].degree.rating == pytest.approx(
            expected["degree_rating"], abs=RATING_TOL
        )


def test_unendorsed_student_gets_exact_zero(result_by_id):
    for sid in (4, 5, 6):
        assert result_by_id[sid].degree.weights[7] == 0.0


def test_uniform_matrix_gives_uniform_weights():
    for n in (2, 5, 9):
        survey = validate_survey(
            [3.0] * n, np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        )
        weights = degree_weights(survey.competence)
        assert np.allclose(weights, 1.0 / n, atol=1e-12)


def test_uniform_weights_reproduce_the_mean():
    survey = validate_survey(
        [4, 2, 5, 3], np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    )
    weights = degree_weights(survey.competence)
    rating = weighted_rating(survey.ratings, weights)
    assert rating == pytest.approx(3.5, abs=1e-12)


def test_degenerate_network_raises():
    survey = validate_survey([4, 5], [[0, 0], [0, 0]])
    with pytest.raises(DegenerateNetwork):
        degree_weights(survey.competence)


def test_score_method_rejects_an_unknown_method():
    # no name other than the two methods falls through to eigenfactor
    survey = validate_survey([4, 5], [[0, 1], [1, 0]])
    for method in ("pagerank", "Degree", ""):
        message = re.escape(f"unknown weighting method {method!r}")
        with pytest.raises(ValueError, match=message):
            score_method(survey, method)
    for method in METHODS:
        assert score_method(survey, method).rating == pytest.approx(4.5, abs=1e-12)
    degree = score_method(survey, "degree")
    assert (degree.influence, degree.iterations, degree.residual) == (None, None, None)
    eigen = score_method(survey, "eigenfactor")
    assert eigen.influence.shape == (2,) and not eigen.influence.flags.writeable
    assert eigen.iterations >= 1
    assert eigen.residual <= 1e-12


def test_single_student_is_degenerate():
    survey = validate_survey([4.0], [[0]])
    with pytest.raises(DegenerateNetwork):
        degree_weights(survey.competence)


def test_length_mismatch_rejected():
    survey = validate_survey([4, 5], [[0, 1], [1, 0]])
    weights = degree_weights(survey.competence)
    with pytest.raises(DimensionMismatch):
        weighted_rating(RatingVector([4, 5, 3]), weights)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3)])
def test_weights_of_another_shape_rejected(shape):
    with pytest.raises(DimensionMismatch) as excinfo:
        weighted_rating(RatingVector([4, 5, 3]), np.full(shape, 1 / 3))
    assert str(excinfo.value) == f"weights must have shape (3,), got {shape}"


def test_weights_that_are_not_an_array_rejected():
    with pytest.raises(DimensionMismatch) as excinfo:
        weighted_rating(RatingVector([4, 5, 3]), [0.2, 0.5, 0.3])
    assert str(excinfo.value) == "weights must be a numpy array, got list"


def test_degree_imports_on_a_numpy_without_the_bincount_implementation(monkeypatch):
    matrix = [[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, 0]]
    competence = validate_survey([4, 5, 3, 2], matrix).competence
    expected = degree_weights(competence)
    bincount = np.bincount

    def wrapper(*args, **kwargs):
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", wrapper)
    # the module's own objects, which the package has cached under its names
    namespace = dict(vars(classrank.degree))
    try:
        reloaded = importlib.reload(classrank.degree)
        assert reloaded._bincount is wrapper
        assert reloaded.degree_weights(competence).tobytes() == expected.tobytes()
    finally:
        monkeypatch.undo()
        importlib.reload(classrank.degree)
        vars(classrank.degree).update(namespace)
    assert classrank.degree._bincount is np.bincount._implementation


def test_rating_stays_within_bounds_even_when_all_equal():
    # weights summing to 1+ulp must not push the rating past the maximum
    survey = validate_survey([4, 4, 4], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    weights = degree_weights(survey.competence)
    rating = weighted_rating(survey.ratings, weights)
    assert rating == 4.0


def _check_against_oracle(matrix):
    expected = degree_oracle(matrix)
    survey_matrix = np.array(matrix)
    competence = validate_survey([3.0] * len(matrix), survey_matrix).competence
    if expected is None:
        with pytest.raises(DegenerateNetwork):
            degree_weights(competence)
        return
    weights = degree_weights(competence)
    deviation = max(
        abs(w - float(e)) for w, e in zip(weights, expected)
    )
    assert deviation <= 1e-12


def test_oracle_exhaustive_n3():
    # all 64 zero-diagonal binary 3x3 matrices against exact fractions
    positions = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    for bits in product((0, 1), repeat=6):
        matrix = [[0] * 3 for _ in range(3)]
        for (i, j), bit in zip(positions, bits):
            matrix[i][j] = bit
        _check_against_oracle(matrix)


def test_oracle_sampled_n4_to_n7():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(4, 8))
        matrix = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(matrix, 0)
        _check_against_oracle(matrix.tolist())
