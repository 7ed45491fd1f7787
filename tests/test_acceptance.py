"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; without ``-s`` pytest shows them only for failing tests.
"""

import json
import time

import numpy as np
import pytest

from classrank import (
    DegenerateNetwork,
    RatingVector,
    degree_weights,
    eigenfactor_weights,
    error_reduction_summary,
    inject_bias,
    rate_survey,
    read_dispersion_csv,
    run_scenario,
    stationary_distribution,
    validate_survey,
    weighted_rating,
    aggregate,
)
from classrank.cli import main
from classrank.data import clarity_counts_path, helpfulness_counts_path
from goldens import (
    CLARITY,
    HELPFULNESS,
    PCT_TOL,
    RATING_TOL,
    SCENARIO_EXPECTED,
    WEIGHT_TOL,
)
from oracles import (
    dense_normalized,
    random_binary_matrix,
    stationary_oracle,
    walk_matrix,
)


def _passed(number, message):
    print(f"criterion {number}: PASS ({message})")


def test_criterion_1_golden_reproduction(result_by_id):
    started = time.monotonic()
    for sid in (1, 4, 6):
        expected = SCENARIO_EXPECTED[sid]
        result = result_by_id[sid]
        assert result.arithmetic_mean == 3.7
        assert result.degree.rating == pytest.approx(
            expected["degree_rating"], abs=RATING_TOL
        )
        assert result.eigenfactor.rating == pytest.approx(
            expected["eigenfactor_rating"], abs=RATING_TOL
        )
        assert (
            np.max(np.abs(result.degree.weights - expected["degree_weights"]))
            <= WEIGHT_TOL
        )
        assert (
            np.max(
                np.abs(
                    result.eigenfactor.weights - expected["eigenfactor_weights"]
                )
            )
            <= WEIGHT_TOL
        )
    for sid in (4, 6):
        assert result_by_id[sid].degree.weights[7] == 0.0
        assert result_by_id[sid].eigenfactor.weights[7] == 0.0
    elapsed = time.monotonic() - started
    _passed(
        1,
        f"scenarios 1/4/6 match goldens, mean exactly 3.7, checked in "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_zero_weight_rule(scenario_by_id):
    checked = 0
    for sid in (4, 5, 6):
        scenario = scenario_by_id[sid]
        base = run_scenario(scenario)
        assert base.degree.weights[7] == 0.0
        assert base.eigenfactor.weights[7] == 0.0
        for value in (1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0):
            ratings = inject_bias(scenario.survey.ratings, 7, value)
            competence = scenario.survey.competence
            degree = degree_weights(competence)
            influence = stationary_distribution(competence, 0.85)
            eigen = eigenfactor_weights(influence.values, competence)
            assert weighted_rating(ratings, degree) == base.degree.rating
            assert weighted_rating(ratings, eigen) == base.eigenfactor.rating
            checked += 1
    _passed(
        2,
        f"perturbing the zero-weight rating left both ratings bit-identical "
        f"in {checked} checks across scenarios 4-6",
    )


def test_criterion_3_error_reduction(scenario_results):
    summary = error_reduction_summary(scenario_results)
    assert summary["degree"] >= 85.0
    assert summary["eigenfactor"] >= 85.0
    for result in scenario_results:
        assert result.error("eigenfactor") <= result.error("degree")
    _passed(
        3,
        f"mean error reduction degree {summary['degree']:.2f}% / "
        f"eigenfactor {summary['eigenfactor']:.2f}%, eigenfactor "
        f"error never larger",
    )


def test_criterion_4_dispersion_aggregates():
    help_rows, _ = read_dispersion_csv(helpfulness_counts_path())
    clarity_rows, _ = read_dispersion_csv(clarity_counts_path())
    pooled_help = aggregate(help_rows)
    pooled_clarity = aggregate(clarity_rows)
    assert pooled_help.total_n == 2224
    assert pooled_clarity.total_n == 2224
    assert pooled_help.pct_dev2 == pytest.approx(HELPFULNESS["pct_dev2"], abs=PCT_TOL)
    assert pooled_help.pct_dev3plus == pytest.approx(
        HELPFULNESS["pct_dev3plus"], abs=PCT_TOL
    )
    assert pooled_help.pct_dev2plus == pytest.approx(
        HELPFULNESS["pct_dev2plus"], abs=PCT_TOL
    )
    assert pooled_clarity.pct_dev2 == pytest.approx(CLARITY["pct_dev2"], abs=PCT_TOL)
    assert pooled_clarity.pct_dev3plus == pytest.approx(
        CLARITY["pct_dev3plus"], abs=PCT_TOL
    )
    assert pooled_clarity.pct_dev2plus == pytest.approx(
        CLARITY["pct_dev2plus"], abs=PCT_TOL
    )
    _passed(
        4,
        f"helpfulness {pooled_help.pct_dev2:.2f}/{pooled_help.pct_dev3plus:.2f} "
        f"(combined {pooled_help.pct_dev2plus:.2f}), clarity "
        f"{pooled_clarity.pct_dev2:.2f}/{pooled_clarity.pct_dev3plus:.2f} "
        f"(combined {pooled_clarity.pct_dev2plus:.2f}), all within 0.01 "
        f"points over n=2224",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(2024)
    alphas = (0.5, 0.85, 0.99)
    started = time.monotonic()
    worst = 0.0
    for index in range(200):
        n = int(rng.integers(2, 13))
        alpha = alphas[index % len(alphas)]
        matrix = random_binary_matrix(rng, n)
        survey = validate_survey([3.0] * n, matrix)
        # alpha = 0.99 on near-periodic walks needs more than the default
        # 1000 iterations to push the residual to 1e-12
        iterated = stationary_distribution(
            survey.competence, alpha, tol=1e-12, max_iter=5000
        )
        direct = stationary_oracle(walk_matrix(dense_normalized(matrix)), alpha)
        deviation = float(np.abs(iterated.values - direct).sum())
        worst = max(worst, deviation)
        assert deviation <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(
        5,
        f"200 matrices, worst L1 gap to the dense solve {worst:.2e}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_6_property_suite():
    rng = np.random.default_rng(20260816)
    surveys_checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        matrix = random_binary_matrix(rng, n)
        values = np.round(rng.uniform(1.0, 5.0, size=n), 3)
        survey = validate_survey(values, matrix)

        competence = survey.competence
        degree = degree_weights(competence)
        influence = stationary_distribution(competence, 0.85)
        eigen = eigenfactor_weights(influence.values, competence)

        for weights in (degree, eigen):
            assert np.all(weights >= 0.0)
            assert abs(weights.sum() - 1.0) <= 1e-9
            rating = weighted_rating(survey.ratings, weights)
            assert values.min() <= rating <= values.max()

        # uniform-matrix twin: both methods give back the arithmetic mean
        uniform = validate_survey(
            values, np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
        )
        report = rate_survey(uniform)
        assert abs(report.degree.rating - report.arithmetic_mean) <= 1e-12
        assert abs(report.eigenfactor.rating - report.arithmetic_mean) <= 1e-12

        # permutation equivariance
        perm = rng.permutation(n)
        permuted = validate_survey(values[perm], matrix[np.ix_(perm, perm)])
        competence_p = permuted.competence
        degree_p = degree_weights(competence_p)
        eigen_p = eigenfactor_weights(
            stationary_distribution(competence_p, 0.85).values, competence_p
        )
        assert np.max(np.abs(degree_p - degree[perm])) <= 1e-9
        assert np.max(np.abs(eigen_p - eigen[perm])) <= 1e-9
        assert (
            abs(
                weighted_rating(permuted.ratings, degree_p)
                - weighted_rating(survey.ratings, degree)
            )
            <= 1e-9
        )

        # affine equivariance
        factor = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
        shift = float(rng.uniform(-1.0, 1.0))
        low, high = sorted((factor * 1.0 + shift, factor * 5.0 + shift))
        moved = RatingVector(factor * values + shift, scale_min=low, scale_max=high)
        for weights in (degree, eigen):
            base = weighted_rating(survey.ratings, weights)
            shifted = weighted_rating(moved, weights)
            assert abs(shifted - (factor * base + shift)) <= 1e-9

        surveys_checked += 1
    assert surveys_checked == 1000
    _passed(
        6,
        "1000 random surveys: convex weights, bounded ratings, uniform-matrix "
        "mean identity, permutation and affine equivariance",
    )


def test_criterion_7_degenerate_handling(tmp_path, capsys):
    survey = validate_survey([4, 5, 3], np.zeros((3, 3), dtype=int))
    with pytest.raises(DegenerateNetwork):
        degree_weights(survey.competence)
    with pytest.raises(DegenerateNetwork):
        rate_survey(survey)

    doc = {"ratings": [4, 5, 3], "competence": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["rate", "--survey", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error" in captured.err
    _passed(
        7,
        "all-zero matrix raises DegenerateNetwork in the library and exits 3 "
        "at the CLI with no report emitted",
    )
