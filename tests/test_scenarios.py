import json
import math
import re
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np
import pytest

from classrank import (
    ClassrankError,
    DimensionMismatch,
    EmptyInput,
    IndexOutOfRange,
    MalformedInput,
    NonBinaryEntry,
    NonZeroDiagonal,
    RatingVector,
    ScaleViolation,
    Scenario,
    error_reduction_summary,
    inject_bias,
    load_scenarios,
    load_survey_json,
    rate_survey,
    run_scenario,
    validate_survey,
)
from classrank.report import METHODS
from goldens import (
    ARITHMETIC_MEAN,
    ERR_MEAN,
    RATING_TOL,
    S3_EIGEN_RATING_TOL,
    SCENARIO_EXPECTED,
    UNBIASED_MEAN,
)
from oracles import degree_oracle


def test_bundle_shape(scenario_bundle):
    assert [scenario.id for scenario in scenario_bundle] == [1, 2, 3, 4, 5, 6]
    for scenario in scenario_bundle:
        assert scenario.survey.n == 10
        assert scenario.biased_index == 7
        assert scenario.survey.ratings.values[7] == 1.0


def test_means_are_exact(scenario_results):
    for result in scenario_results:
        assert result.arithmetic_mean == ARITHMETIC_MEAN
        assert result.unbiased_mean == UNBIASED_MEAN
        assert result.err_mean == pytest.approx(ERR_MEAN, abs=1e-12)


def test_golden_errors(result_by_id):
    for sid, expected in SCENARIO_EXPECTED.items():
        tol = S3_EIGEN_RATING_TOL if sid == 3 else RATING_TOL
        assert result_by_id[sid].error("degree") == pytest.approx(
            expected["err_degree"], abs=RATING_TOL
        )
        assert result_by_id[sid].error("eigenfactor") == pytest.approx(
            expected["err_eigenfactor"], abs=tol
        )


# printed figures that do not reproduce to the digit: scenario 3's
# eigenfactor column, rating and error (data/NOTES.md caveat 3), which stay
# on S3_EIGEN_*_TOL
S3_EIGENFACTOR = ("eigenfactor_weights", "eigenfactor_rating", "err_eigenfactor")


def _printed(value) -> Decimal:
    """``value`` as the paper prints it, rounded half-up to 4 decimals: a
    float from its repr, a Fraction from its exact value."""
    if isinstance(value, Fraction):
        return Decimal(math.floor(value * 10_000 + Fraction(1, 2))) / 10_000
    return Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)


def _figures(values) -> list:
    return [Decimal(repr(value)) for value in values]


def test_every_reproducible_figure_is_printed_to_the_digit(
    result_by_id, scenario_matrices
):
    checked = 0
    for sid, expected in SCENARIO_EXPECTED.items():
        result = result_by_id[sid]
        computed = {
            "degree_weights": result.degree.weights.tolist(),
            "eigenfactor_weights": result.eigenfactor.weights.tolist(),
            "degree_rating": [result.degree.rating],
            "eigenfactor_rating": [result.eigenfactor.rating],
            "err_degree": [result.error("degree")],
            "err_eigenfactor": [result.error("eigenfactor")],
        }
        for key, values in computed.items():
            if sid == 3 and key in S3_EIGENFACTOR:
                continue
            figures = expected[key] if key.endswith("weights") else [expected[key]]
            assert list(map(_printed, values)) == _figures(figures), (sid, key)
            checked += len(figures)
        # the exact degree weights print the same digits as their floats
        exact = degree_oracle(scenario_matrices[sid].tolist())
        assert list(map(_printed, exact)) == _figures(expected["degree_weights"]), sid
    assert checked == 132


@pytest.mark.parametrize("sid", [1, 2, 3, 4, 5, 6])
def test_error_splits_into_the_outlier_term_and_the_honest_terms(
    scenario_by_id, result_by_id, sid
):
    # the weights sum to 1, so r - u = w_b (y_b - u) + sum_{i != b} w_i (y_i - u):
    # the outlier's own weight, then the re-weighting of everyone else.
    # Nobody endorses the outlier in scenarios 4-6, so its weight is 0 there.
    scenario = scenario_by_id[sid]
    b, u = scenario.biased_index, scenario.unbiased_mean
    deviations = scenario.survey.ratings.values - u
    for method in METHODS:
        scored = getattr(result_by_id[sid], method)
        if sid >= 4:
            assert scored.weights[b] == 0.0
        else:
            assert scored.weights[b] > 0.0
        outlier = scored.weights[b] * deviations[b]
        honest = np.delete(scored.weights, b) @ np.delete(deviations, b)
        assert abs(scored.rating - u - (outlier + honest)) <= 1e-12


def test_eigenfactor_beats_degree_everywhere(scenario_results):
    for result in scenario_results:
        assert result.error("eigenfactor") <= result.error("degree")


def test_reduction_summary(scenario_results):
    summary = error_reduction_summary(scenario_results)
    # one mean a method, keyed and ordered as METHODS
    assert list(summary) == list(METHODS)
    assert summary["degree"] >= 85.0
    assert summary["eigenfactor"] >= 85.0
    assert summary["eigenfactor"] > summary["degree"]
    for result in scenario_results:
        assert result.winner == "eigenfactor"
        assert not result.zero_baseline
        assert result.reduction("eigenfactor") >= result.reduction("degree")


def test_reduction_handles_zero_baseline():
    # identical ratings: excluding one changes nothing, so the baseline
    # error is zero and the scenario cannot be scored as a ratio
    survey = validate_survey([4, 4, 4], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    result = run_scenario(Scenario(id=9, survey=survey, biased_index=0))
    assert result.err_mean == 0.0
    summary = error_reduction_summary([result])
    assert result.zero_baseline
    assert result.reduction("degree") is None
    assert summary["degree"] is None


# students 1 and 2 endorse student 0 only, so both weightings rate the
# course at student 0's rating
TO_FIRST = [[0, 0, 0], [1, 0, 0], [1, 0, 0]]


def test_reduction_past_the_float_range_is_none():
    # a subnormal baseline error: the ratio overflows, where the report
    # wrote -Infinity
    survey = validate_survey([5, -5, 1e-323], TO_FIRST, scale=(-5, 5))
    result = run_scenario(Scenario(id=1, survey=survey, biased_index=2))
    assert (result.err_mean, result.error("degree")) == (5e-324, 5.0)
    assert not result.zero_baseline
    assert result.reduction("degree") is None
    assert result.reduction("eigenfactor") is None
    assert error_reduction_summary([result]) == {"degree": None, "eigenfactor": None}


def test_summary_mean_of_reductions_summing_past_the_float_range():
    # two finite reductions of -1e308 sum to -Infinity: the mean was None
    survey = validate_survey([2, -2, 6e-306], TO_FIRST, scale=(-5, 5))
    results = [
        run_scenario(Scenario(id=k, survey=survey, biased_index=2)) for k in (1, 2)
    ]
    assert [r.reduction("degree") for r in results] == [-1e308, -1e308]
    assert error_reduction_summary(results) == {"degree": -1e308, "eigenfactor": -1e308}


def test_scenario_scale_wider_than_the_largest_float_rejected():
    # a score is a distance between two points of the scale, which would
    # overflow; rate_survey takes no such distance and accepts the survey
    scale = (-1.7e308, 1.7e308)
    survey = validate_survey([1.7e308, -1.7e308, 0], TO_FIRST, scale=scale)
    message = r"^scale \[-1\.7e\+308, 1\.7e\+308\] is wider than the largest float$"
    with pytest.raises(ScaleViolation, match=message):
        Scenario(id=1, survey=survey, biased_index=0)
    assert rate_survey(survey).degree.rating == 1.7e308


def test_reduction_empty_rejected():
    with pytest.raises(EmptyInput):
        error_reduction_summary([])


def test_unbiased_survey_measures_against_leave_one_out():
    survey = validate_survey(
        [4, 2, 5, 3], np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    )
    result = run_scenario(Scenario(id=1, survey=survey, biased_index=2))
    assert result.unbiased_mean == pytest.approx(3.0, abs=1e-12)
    assert result.err_mean == pytest.approx(0.5, abs=1e-12)
    # uniform network: both methods reproduce the arithmetic mean
    assert result.degree.rating == pytest.approx(3.5, abs=1e-12)
    assert result.eigenfactor.rating == pytest.approx(3.5, abs=1e-12)


def test_degenerate_scenario_records_failures_without_aborting():
    survey = validate_survey([4, 5], [[0, 0], [0, 0]])
    result = run_scenario(Scenario(id=2, survey=survey, biased_index=1))
    # no weights, rating or influence for either method
    assert result.degree is None and result.error("degree") is None
    assert result.eigenfactor is None and result.error("eigenfactor") is None
    assert result.degree_failure == "no student endorses any other"
    assert result.eigenfactor_failure == "no student endorses any other"
    assert (result.arithmetic_mean, result.unbiased_mean) == (4.5, 4.0)
    summary = error_reduction_summary([result])
    assert result.winner is None
    assert summary == {"degree": None, "eigenfactor": None}


def test_single_rating_scenario_rejected():
    # the leave-one-out mean is taken when the Scenario is built, so a
    # survey with no second rating is refused there, not by run_scenario
    survey = validate_survey([4.0], [[0]])
    with pytest.raises(EmptyInput, match="^cannot exclude the only rating$"):
        Scenario(id=1, survey=survey, biased_index=0)


def test_single_rating_scenario_checks_its_index_first():
    survey = validate_survey([4.0], [[0]])
    with pytest.raises(IndexOutOfRange, match=r"^biased index 5 outside 0\.\.0$"):
        Scenario(id=1, survey=survey, biased_index=5)


def test_scenario_unbiased_mean_is_the_leave_one_out_mean_bit_for_bit(
    scenario_bundle,
):
    # the fixture's pinned leave-one-out mean, copied as is into the result;
    # at every other index, the pairwise sum and division of ndarray.mean
    for scenario in scenario_bundle:
        assert scenario.unbiased_mean == UNBIASED_MEAN
        assert run_scenario(scenario).unbiased_mean == scenario.unbiased_mean
        values = scenario.survey.ratings.values
        for i in range(values.size):
            moved = Scenario(id=scenario.id, survey=scenario.survey, biased_index=i)
            kept = np.add.reduce(np.concatenate((values[:i], values[i + 1 :])))
            assert moved.unbiased_mean == float(kept / (values.size - 1))


def test_scenario_index_validated():
    survey = validate_survey([4, 5], [[0, 1], [1, 0]])
    with pytest.raises(IndexOutOfRange):
        Scenario(id=1, survey=survey, biased_index=2)


def test_inject_bias():
    ratings = RatingVector([4, 4, 4])
    biased = inject_bias(ratings, 2, 1)
    assert biased.values.tolist() == [4.0, 4.0, 1.0]
    assert ratings.values.tolist() == [4.0, 4.0, 4.0]


def test_inject_bias_reproduces_fixture_ratings(scenario_bundle):
    base = RatingVector([4, 4, 3, 4, 5, 4, 3, 4, 5, 4])
    biased = inject_bias(base, 7, 1)
    assert np.array_equal(biased.values, scenario_bundle[0].survey.ratings.values)


def test_inject_existing_value_changes_nothing():
    ratings = RatingVector([4, 2, 5])
    same = inject_bias(ratings, 1, 2)
    assert np.array_equal(same.values, ratings.values)


def test_inject_bias_validation():
    ratings = RatingVector([4, 2, 5])
    with pytest.raises(IndexOutOfRange):
        inject_bias(ratings, 3, 1)
    with pytest.raises(ScaleViolation, match=r"^ratings must lie in \[1\.0, 5\.0\]$"):
        inject_bias(ratings, 0, 9)


@pytest.mark.parametrize("index", [True, False, np.True_, 1.0, 2.0, "1", None])
def test_scenario_index_must_be_an_integer(index):
    # True was accepted and scored as index 1, and 2.0 passed the range
    # check to fail in run_scenario with a bare TypeError
    survey = validate_survey([4, 5, 3], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(IndexOutOfRange, match="^biased index must be an integer, got "):
        Scenario(id=1, survey=survey, biased_index=index)


@pytest.mark.parametrize("index", [True, False, np.True_, 0.0, 1.0, "0", None])
def test_inject_bias_index_must_be_an_integer(index):
    # numpy read True as a mask and overwrote every rating, and 0.0 raised
    # its bare IndexError
    with pytest.raises(IndexOutOfRange, match="^index must be an integer, got "):
        inject_bias(RatingVector([3, 4]), index, 5)


@pytest.mark.parametrize("value", [True, False, np.True_, "4", None, 4 + 0j])
def test_inject_bias_value_must_be_a_real_number(value):
    # True was injected as 1.0, and "4" raised a bare TypeError; the value is
    # checked with the other ratings, by RatingVector's own rule
    message = f"^ratings must be real numbers: found {re.escape(repr(value))}$"
    with pytest.raises(ScaleViolation, match=message):
        inject_bias(RatingVector([3, 4]), 0, value)


def test_numpy_integer_indices_and_real_values_still_work():
    survey = validate_survey([4, 5, 1], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    for index in (np.int64(2), np.int32(2), np.uint8(2)):
        scenario = Scenario(id=1, survey=survey, biased_index=index)
        assert run_scenario(scenario).unbiased_mean == 4.5
        biased = inject_bias(survey.ratings, index, np.float64(2.5))
        assert biased.values.tolist() == [4.0, 5.0, 2.5]
    with pytest.raises(IndexOutOfRange, match=r"^biased index 3 outside 0\.\.2$"):
        Scenario(id=1, survey=survey, biased_index=np.int64(3))
    with pytest.raises(IndexOutOfRange, match=r"^index -1 outside 0\.\.2$"):
        inject_bias(survey.ratings, np.int64(-1), 3)


def test_run_scenario_is_deterministic(scenario_bundle):
    first = run_scenario(scenario_bundle[0])
    second = run_scenario(scenario_bundle[0])
    assert np.array_equal(first.eigenfactor.weights, second.eigenfactor.weights)
    assert first.eigenfactor.rating == second.eigenfactor.rating
    assert first.eigenfactor.iterations == second.eigenfactor.iterations


TRIANGLE = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def _sources(competence):
    return np.arange(competence.n).repeat(competence.row_sums)


def _bundle(**change):
    doc = {
        "ratings": [4, 5, 3],
        "biased_index": 0,
        "scenarios": [{"id": 1, "competence": TRIANGLE}],
    }
    return {**doc, **change}


def test_loader_validates_document(tmp_path):
    with pytest.raises(MalformedInput):
        load_scenarios({"ratings": [1, 2]})
    with pytest.raises(MalformedInput):
        load_scenarios({"ratings": [1, 2], "biased_index": 0, "scenarios": []})
    with pytest.raises(
        IndexOutOfRange, match="^biased index must be an integer, got '0'$"
    ):
        load_scenarios(
            {"ratings": [1, 2], "biased_index": "0", "scenarios": [{"competence": [[0, 1], [1, 0]]}]}
        )
    path = tmp_path / "broken.json"
    path.write_text("[1,2", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_scenarios(path)
    with pytest.raises(
        ScaleViolation, match="^scale must be two numbers, low and high: got 5$"
    ):
        load_scenarios(_bundle(scale=5))
    with pytest.raises(
        ScaleViolation,
        match=r"^ratings must be real numbers: found \{'a': 4, 'b': 5, 'c': 3\}$",
    ):
        load_scenarios(_bundle(ratings={"a": 4, "b": 5, "c": 3}))
    for rating in ("4", True):
        message = f"^ratings must be real numbers: found {rating!r}$"
        with pytest.raises(ScaleViolation, match=message):
            load_scenarios(_bundle(ratings=[rating, 5, 3]))
    twice = [{"id": 1, "competence": TRIANGLE}, {"id": 1, "competence": TRIANGLE}]
    with pytest.raises(MalformedInput, match="repeats id 1"):
        load_scenarios(_bundle(scenarios=twice))



@pytest.mark.parametrize("sid", ["a", True, 1.0, None])
def test_loader_rejects_a_scenario_id_that_is_not_an_integer(sid):
    scenarios = [{"id": sid, "competence": TRIANGLE}]
    with pytest.raises(MalformedInput, match="^scenario #1 id must be an integer$"):
        load_scenarios(_bundle(scenarios=scenarios))

def test_loader_rejects_non_number_cells_and_scale():
    for cell in (True, "1"):
        scenarios = [{"id": 1, "competence": [[0, 1, cell], [1, 0, 1], [1, 1, 0]]}]
        with pytest.raises(MalformedInput, match="competence cells are not numeric"):
            load_scenarios(_bundle(scenarios=scenarios))
    with pytest.raises(
        ScaleViolation, match=r"^scale \[True, '5'\] must be two real numbers$"
    ):
        load_scenarios(_bundle(scale=[True, "5"]))


@pytest.mark.parametrize("label", [None, [1, {}], 7])
def test_loader_rejects_non_string_labels(label):
    with pytest.raises(MalformedInput, match="label must be a string"):
        load_scenarios(_bundle(label=label))


def test_loader_labels_scenarios_by_bundle_label():
    assert load_scenarios(_bundle())[0].survey.label == "scenario-1"
    assert load_scenarios(_bundle(label="week 3"))[0].survey.label == "week 3-1"


def test_loader_orders_by_id():
    doc = {
        "ratings": [4, 5],
        "biased_index": 0,
        "scenarios": [
            {"id": 2, "competence": [[0, 1], [1, 0]]},
            {"id": 1, "competence": [[0, 1], [0, 0]]},
        ],
    }
    bundle = load_scenarios(doc)
    assert [scenario.id for scenario in bundle] == [1, 2]


def test_loader_counts_null_cells_as_zero_like_the_survey_loader():
    competence = [[0, 1, None], [1, 0, 1], [None, 1, 0]]
    scenarios = [{"id": 1, "competence": competence}]
    (scenario,) = load_scenarios(_bundle(scenarios=scenarios))
    survey = load_survey_json({"ratings": [4, 5, 3], "competence": competence})
    # the sources follow from row_sums
    for name in ("targets", "row_shares", "row_sums"):
        assert np.array_equal(
            getattr(scenario.survey.competence, name),
            getattr(survey.competence, name),
        )
    # the null cells (0, 2) and (2, 0) are no endorsements
    edges = zip(
        _sources(survey.competence).tolist(), survey.competence.targets.tolist()
    )
    assert list(edges) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_bundle_shares_one_rating_vector(scenario_bundle):
    shared = scenario_bundle[0].survey.ratings
    assert all(scenario.survey.ratings is shared for scenario in scenario_bundle)
    # the vector is checked by the first scenario listed, whatever its id
    listed = [{"id": sid, "competence": TRIANGLE} for sid in (3, 1, 2)]
    bundle = load_scenarios(_bundle(scenarios=listed))
    assert all(scenario.survey.ratings is bundle[0].survey.ratings for scenario in bundle)


def test_first_scenario_reports_ragged_rows_before_out_of_scale_ratings():
    ragged = [{"id": 1, "competence": [[0, 1, 0], [1, 0], [0, 1, 0]]}]
    with pytest.raises(MalformedInput) as excinfo:
        load_scenarios(_bundle(ratings=[4, 9, 3], scenarios=ragged))
    assert str(excinfo.value) == "scenario 1 competence rows are ragged"


def test_boolean_rating_is_reported_by_the_first_scenario():
    # validate_survey checks the shared ratings when the first scenario is
    # built, after that scenario's grid checks
    listed = [{"id": 1, "competence": TRIANGLE}, {"id": 2, "competence": TRIANGLE}]
    with pytest.raises(ScaleViolation) as excinfo:
        load_scenarios(_bundle(ratings=[4, True, 3], scenarios=listed))
    assert str(excinfo.value) == "ratings must be real numbers: found True"
    ragged = [{"id": 1, "competence": [[0, 1, 0], [1, 0], [0, 1, 0]]}]
    with pytest.raises(MalformedInput) as excinfo:
        load_scenarios(_bundle(ratings=[4, True, 3], scenarios=ragged))
    assert str(excinfo.value) == "scenario 1 competence rows are ragged"


# Each fact of the input is checked by one function, so it raises the same
# error from the library and from either JSON loader.
@pytest.mark.parametrize(
    "change, error, message",
    [
        (
            {"scale": [True, "5"]},
            ScaleViolation,
            "scale [True, '5'] must be two real numbers",
        ),
        ({"scale": [1, 10**400]}, ScaleViolation, f"scale [1, {10**400}] must be finite"),
        ({"ratings": [4, "5"]}, ScaleViolation, "ratings must be real numbers: found '5'"),
        ({"ratings": [4, 10**400]}, ScaleViolation, "ratings must be finite numbers"),
        (
            {"ratings": [4, [5, [6]]]},
            DimensionMismatch,
            "ratings must form a nonempty 1-d sequence",
        ),
        (
            {"biased_index": "0"},
            IndexOutOfRange,
            "biased index must be an integer, got '0'",
        ),
    ],
    ids=[
        "non-real-scale",
        "huge-int-scale",
        "non-real-rating",
        "huge-int-rating",
        "nested-rating",
        "non-integer-biased-index",
    ],
)
def test_same_fact_gives_the_same_error_from_every_entry_point(change, error, message):
    competence = [[0, 1], [1, 0]]
    doc = {"ratings": [4, 5], "scale": [1, 5], "biased_index": 0, **change}
    bundle = {**doc, "scenarios": [{"id": 1, "competence": competence}]}

    def library():
        survey = validate_survey(doc["ratings"], competence, doc["scale"])
        return Scenario(id=1, survey=survey, biased_index=doc["biased_index"])

    calls = [library, lambda: load_scenarios(bundle)]
    if "biased_index" not in change:  # a survey document has no biased index
        calls.append(lambda: load_survey_json({**doc, "competence": competence}))
    raised = []
    for call in calls:
        with pytest.raises(ClassrankError) as excinfo:
            call()
        raised.append((type(excinfo.value), str(excinfo.value)))
    assert raised == [(error, message)] * len(calls)


@pytest.mark.parametrize(
    "matrix, policy, error, message",
    [
        (
            [[0, 1], [1, 0]],
            "coerce",
            DimensionMismatch,
            "scenario 2: 3 ratings vs 2 students",
        ),
        ([[0, 1], [1]], "coerce", MalformedInput, "scenario 2 competence rows are ragged"),
        (
            [[0, 1], [1, 2]],
            "coerce",
            NonBinaryEntry,
            "scenario 2: matrix entries must be 0 or 1, found 2",
        ),
        (
            [[0, 1]],
            "coerce",
            DimensionMismatch,
            "scenario 2: competence matrix must be square",
        ),
        # packed as a 1-d array, which was called non-square
        (
            [],
            "coerce",
            DimensionMismatch,
            "scenario 2: competence matrix must be nonempty",
        ),
        (
            [[1, 1], [1, 0]],
            "reject",
            NonZeroDiagonal,
            "scenario 2: self-endorsement at index [0]",
        ),
    ],
    ids=["size", "ragged", "non-binary", "not-square", "empty", "self-endorsement"],
)
def test_later_scenario_of_another_size_fails_after_its_matrix_checks(
    matrix, policy, error, message
):
    # the shared ratings fit the first scenario; the second's size is
    # checked only once its own matrix has passed every check
    listed = [{"id": 1, "competence": TRIANGLE}, {"id": 2, "competence": matrix}]
    with pytest.raises(error) as excinfo:
        load_scenarios(_bundle(scenarios=listed), diagonal_policy=policy)
    assert str(excinfo.value) == message


SQUARE = [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]


@pytest.mark.parametrize(
    "matrix, policy, error, message",
    [
        (
            [[0, 1, 0, 0], [1, 0, 2, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
            "coerce",
            NonBinaryEntry,
            "scenario 3: matrix entries must be 0 or 1, found 2",
        ),
        (
            [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1], [0, 0, 1, 0]],
            "reject",
            NonZeroDiagonal,
            "scenario 3: self-endorsement at index [2]",
        ),
        (TRIANGLE, "coerce", DimensionMismatch, "scenario 3: 4 ratings vs 3 students"),
    ],
    ids=["non-binary", "self-endorsement", "size"],
)
def test_bad_network_of_a_bundle_names_its_scenario(matrix, policy, error, message):
    # the error of one network among many says which scenario to fix,
    # keeps its class, and so its exit code
    listed = [
        {"id": 1, "competence": SQUARE},
        {"id": 2, "competence": SQUARE},
        {"id": 3, "competence": matrix},
    ]
    bundle = _bundle(ratings=[4, 5, 3, 2], scenarios=listed)
    with pytest.raises(error) as excinfo:
        load_scenarios(bundle, diagonal_policy=policy)
    assert str(excinfo.value) == message
    assert type(excinfo.value) is error
