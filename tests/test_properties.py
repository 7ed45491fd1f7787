"""Property-based checks over randomly generated surveys."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from classrank import (
    ClassrankError,
    MalformedInput,
    NonBinaryEntry,
    RatingVector,
    Scenario,
    degree_weights,
    dispersion_row,
    eigenfactor_weights,
    error_reduction_summary,
    load_scenarios,
    load_survey_json,
    rate_survey,
    read_dispersion_csv,
    run_scenario,
    stationary_distribution,
    validate_survey,
    weighted_rating,
)
from classrank.report import METHODS, scenario_report_dict
from oracles import inner_product_error

ratings_values = st.floats(min_value=1.0, max_value=5.0, allow_nan=False)


@st.composite
def networks(draw, min_n=2, max_n=8):
    """Ratings and a zero-diagonal 0/1 matrix with at least one endorsement."""
    n = draw(st.integers(min_n, max_n))
    cells = draw(
        st.lists(st.booleans(), min_size=n * (n - 1), max_size=n * (n - 1))
    )
    assume(any(cells))
    matrix = np.zeros((n, n), dtype=int)
    index = 0
    for i in range(n):
        for j in range(n):
            if i != j:
                matrix[i, j] = int(cells[index])
                index += 1
    ratings = draw(st.lists(ratings_values, min_size=n, max_size=n))
    return ratings, matrix


# Strategies draw raw (ratings, matrix) data and each test validates it
# itself: hypothesis prints a falsifying example through its dataclass
# fields, and CompetenceMatrix's init-only ``entries`` field is not an
# attribute, so a drawn survey would hide the counterexample.
@st.composite
def networks_with_permutations(draw):
    ratings, matrix = draw(networks())
    perm = draw(st.permutations(range(len(ratings))))
    return ratings, matrix, list(perm)


@st.composite
def competence_documents(draw, max_n=8):
    """Ratings and a grid of JSON cells: 0, 1, null or 1.0.

    The diagonal is drawn from the same cells, so most grids plant at least
    one self-endorsement for the default policy to zero. Also draws one cell
    position.
    """
    n = draw(st.integers(1, max_n))
    cell = st.sampled_from([0, 1, None, 1.0])
    grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    ratings = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    position = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    return ratings, grid, position


@given(competence_documents())
@settings(deadline=None)
def test_document_loader_matches_validation_of_a_float_array(document):
    # the packed uint8 path (and its np.asarray fallback for 1.0 cells) gives
    # the edge list and warnings of a plain float array with nulls read as 0
    ratings, grid, (i, j) = document
    loaded = load_survey_json({"ratings": ratings, "competence": grid})
    dense = np.array([[0 if c is None else c for c in row] for row in grid], dtype=float)
    expected = validate_survey(ratings, dense)
    # the sources follow from row_sums
    for name in ("targets", "row_shares", "row_sums"):
        got, want = getattr(loaded.competence, name), getattr(expected.competence, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert loaded.competence.dangling == expected.competence.dangling
    assert loaded.warnings == expected.warnings
    # a fractional cell anywhere, the diagonal too, is rejected, not
    # truncated or zeroed
    grid[i][j] = 0.5
    with pytest.raises(NonBinaryEntry, match="found 0.5$"):
        load_survey_json({"ratings": ratings, "competence": grid})


# the slack of the perturbation bounds below: the degree bound is attained
BOUND_SLACK = 1e-12


@st.composite
def rewirings(draw, max_rows=None):
    """A network and a copy of its matrix whose rows in a set S are redrawn.

    The new rows keep a zero diagonal and may endorse nobody. Returns
    (ratings, matrix, rewired, rows).
    """
    ratings, matrix = draw(networks(max_n=10))
    n = len(ratings)
    rows = draw(
        st.lists(
            st.integers(0, n - 1), min_size=1, max_size=max_rows or n, unique=True
        )
    )
    rewired = matrix.copy()
    for i in rows:
        row = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rewired[i] = row
        rewired[i, i] = 0
    return ratings, matrix, rewired, rows


@given(rewirings(), st.sampled_from([0.5, 0.85, 0.95]))
@settings(deadline=None)
def test_rewiring_moves_influence_at_most_by_the_bound(case, alpha):
    # ||x' - x||_1 <= 2 alpha / (1 - alpha) * sum of x_i over the rewired
    # rows (Ng, Zheng & Jordan, SIGIR 2001; the dangling patch keeps the
    # walk stochastic). tol=1e-14 keeps both solver errors, each within
    # alpha / (1 - alpha) * tol, below the slack.
    ratings, matrix, rewired, rows = case
    before = validate_survey(ratings, matrix).competence
    after = validate_survey(ratings, rewired).competence
    x = stationary_distribution(before, alpha, tol=1e-14).values
    moved = stationary_distribution(after, alpha, tol=1e-14).values
    bound = 2 * alpha / (1 - alpha) * x[rows].sum()
    assert np.abs(moved - x).sum() <= bound + BOUND_SLACK


@given(rewirings(max_rows=1))
@settings(deadline=None)
def test_rewiring_one_row_moves_degree_weights_at_most_by_the_bound(case):
    # ||w' - w||_1 <= 2 / min(T, T'), T counting the endorsing students;
    # the bound is attained, so the slack is additive only
    ratings, matrix, rewired, _ = case
    assume(rewired.any())
    before = validate_survey(ratings, matrix).competence
    after = validate_survey(ratings, rewired).competence
    endorsing = min(np.count_nonzero(c.row_sums) for c in (before, after))
    moved = np.abs(degree_weights(after) - degree_weights(before)).sum()
    assert moved <= 2 / endorsing + BOUND_SLACK


@st.composite
def added_endorsements(draw):
    """A network and one off-diagonal cell (i, j) of its matrix that is 0."""
    ratings, matrix = draw(networks())
    n = len(ratings)
    absent = [(i, j) for i in range(n) for j in range(n) if i != j and not matrix[i, j]]
    assume(absent)
    i, j = draw(st.sampled_from(absent))
    return ratings, matrix, i, j


@given(added_endorsements(), st.sampled_from([0.5, 0.85, 0.95]))
@settings(deadline=None)
def test_adding_an_endorsement_never_lowers_its_target(case, alpha):
    # adding i -> j never lowers j's influence (Chien, Dwork, Kumar, Simon &
    # Sivakumar, Internet Math. 2004), eigenfactor weight or degree weight;
    # tol=1e-14 keeps both solver errors below the slack
    ratings, matrix, i, j = case
    added = matrix.copy()
    added[i, j] = 1
    before = validate_survey(ratings, matrix).competence
    after = validate_survey(ratings, added).competence
    x = stationary_distribution(before, alpha, tol=1e-14)
    moved = stationary_distribution(after, alpha, tol=1e-14)
    assert moved.values[j] >= x.values[j] - BOUND_SLACK
    eigen = eigenfactor_weights(x.values, before)[j]
    assert eigenfactor_weights(moved.values, after)[j] >= eigen - BOUND_SLACK
    assert degree_weights(after)[j] >= degree_weights(before)[j] - BOUND_SLACK


@given(networks(max_n=12), st.data())
@settings(deadline=None)
def test_unbiased_mean_is_the_leave_one_out_mean_bit_for_bit(network, data):
    ratings, matrix = network
    biased = data.draw(st.integers(0, len(ratings) - 1))
    survey = validate_survey(ratings, matrix)
    result = run_scenario(Scenario(id=1, survey=survey, biased_index=biased))
    kept = np.delete(np.asarray(ratings, dtype=float), biased)
    assert result.unbiased_mean.hex() == float(kept.mean()).hex()


# the edges of the float range, where sums, distances and ratios overflow
# or vanish
magnitudes = st.sampled_from([0.0, 5e-324, 1.0, 1e308, 1.7976931348623157e308])
float_edges = st.builds(float.__mul__, magnitudes, st.sampled_from([-1.0, 1.0]))


@st.composite
def float_range_bundles(draw):
    """Scenario bundles of 1 to 3 scenarios of 2 or 3 students, whose scale
    ends lie at the edges of the float range (zero, the smallest subnormal,
    one, 1e308 and the largest float, either sign) and whose ratings lie
    anywhere on that scale, subnormals included, or at any edge."""
    n = draw(st.integers(2, 3))
    scale = st.lists(float_edges, min_size=2, max_size=2, unique=True)
    low, high = sorted(draw(scale))
    rating = st.sampled_from([low, high]) | float_edges | st.floats(low, high)
    # a star, where everyone else endorses student k, puts each weighted
    # rating at k's rating; or any 0/1 grid, self-endorsements included
    star = st.integers(0, n - 1).map(
        lambda k: [[int(j == k != i) for j in range(n)] for i in range(n)]
    )
    grid = star | st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    return {
        "scale": [low, high],
        "ratings": draw(st.lists(rating, min_size=n, max_size=n)),
        "biased_index": draw(st.integers(0, n - 1)),
        "scenarios": [
            {"competence": competence}
            for competence in draw(st.lists(grid, min_size=1, max_size=3))
        ],
    }


@given(float_range_bundles())
@settings(deadline=None)
def test_scenario_report_is_strict_json_over_the_whole_float_range(bundle):
    # a bundle is refused while loading, or every score, reduction and
    # summary mean it reports is finite
    try:
        scenarios = load_scenarios(bundle)
    except ClassrankError:
        return
    results = [run_scenario(scenario) for scenario in scenarios]
    report = scenario_report_dict(results, error_reduction_summary(results), {})
    json.dumps(report, allow_nan=False)


def both_weightings(survey):
    degree = degree_weights(survey.competence)
    influence = stationary_distribution(survey.competence, 0.85)
    eigen = eigenfactor_weights(influence.values, survey.competence)
    return degree, eigen


@given(networks())
@settings(deadline=None)
def test_weights_are_convex_coefficients(network):
    survey = validate_survey(*network)
    influence = stationary_distribution(survey.competence, 0.85)
    assert np.all(influence.values > 0)
    assert abs(influence.values.sum() - 1.0) <= 1e-12
    assert not influence.values.flags.writeable
    for weights in (
        degree_weights(survey.competence),
        eigenfactor_weights(influence.values, survey.competence),
    ):
        assert np.all(weights >= 0)
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert not weights.flags.writeable


@given(networks())
@settings(deadline=None)
def test_weighted_ratings_stay_in_bounds(network):
    survey = validate_survey(*network)
    low = survey.ratings.values.min()
    high = survey.ratings.values.max()
    for weights in both_weightings(survey):
        rating = weighted_rating(survey.ratings, weights)
        assert low <= rating <= high


@given(networks(max_n=30))
@settings(deadline=None)
def test_rating_is_within_the_inner_product_bound(network):
    survey = validate_survey(*network)
    for weights in both_weightings(survey):
        rating = weighted_rating(survey.ratings, weights)
        error, bound = inner_product_error(rating, weights, survey.ratings.values)
        assert error <= bound, float(error / bound)


@given(networks(max_n=30), st.data())
@settings(deadline=None)
def test_error_splits_into_the_outlier_term_and_the_honest_terms(network, data):
    # the weights sum to 1, so r - u = w_b (y_b - u) + sum_{i != b} w_i (y_i - u)
    # for the leave-b-out mean u, as on the fixture in test_scenarios.py
    survey = validate_survey(*network)
    b = data.draw(st.integers(0, survey.n - 1), label="biased index")
    scenario = Scenario(id=1, survey=survey, biased_index=b)
    result = run_scenario(scenario)
    u = scenario.unbiased_mean
    deviations = survey.ratings.values - u
    for method in METHODS:
        scored = getattr(result, method)
        outlier = scored.weights[b] * deviations[b]
        honest = np.delete(scored.weights, b) @ np.delete(deviations, b)
        assert abs(scored.rating - u - (outlier + honest)) <= 1e-12


@given(networks_with_permutations())
@settings(deadline=None)
def test_permutation_equivariance(network_and_perm):
    ratings, matrix, perm = network_and_perm
    survey = validate_survey(ratings, matrix)
    permuted = validate_survey(
        survey.ratings.values[perm],
        matrix[np.ix_(perm, perm)],
    )
    base_degree, base_eigen = both_weightings(survey)
    perm_degree, perm_eigen = both_weightings(permuted)
    assert np.max(np.abs(perm_degree - base_degree[perm])) <= 1e-9
    assert np.max(np.abs(perm_eigen - base_eigen[perm])) <= 1e-9
    assert abs(
        weighted_rating(permuted.ratings, perm_degree)
        - weighted_rating(survey.ratings, base_degree)
    ) <= 1e-9
    assert abs(
        weighted_rating(permuted.ratings, perm_eigen)
        - weighted_rating(survey.ratings, base_eigen)
    ) <= 1e-9


@given(
    networks(),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.booleans(),
)
@settings(deadline=None)
def test_affine_equivariance(network, scale_factor, shift, negate):
    survey = validate_survey(*network)
    if negate:
        scale_factor = -scale_factor
    degree, eigen = both_weightings(survey)
    bounds = sorted(
        (
            scale_factor * survey.ratings.scale_min + shift,
            scale_factor * survey.ratings.scale_max + shift,
        )
    )
    transformed = RatingVector(
        scale_factor * survey.ratings.values + shift,
        scale_min=bounds[0],
        scale_max=bounds[1],
    )
    for weights in (degree, eigen):
        base = weighted_rating(survey.ratings, weights)
        moved = weighted_rating(transformed, weights)
        assert abs(moved - (scale_factor * base + shift)) <= 1e-9


@st.composite
def networks_with_unendorsed_student(draw):
    ratings, matrix = draw(networks(min_n=2, max_n=8))
    target = draw(st.integers(0, len(ratings) - 1))
    matrix[:, target] = 0
    assume(matrix.any())
    replacement = draw(ratings_values)
    return ratings, matrix, target, replacement


@given(networks_with_unendorsed_student())
@settings(deadline=None)
def test_unendorsed_student_rating_is_irrelevant(case):
    ratings, matrix, target, replacement = case
    survey = validate_survey(ratings, matrix)
    degree, eigen = both_weightings(survey)
    assert degree[target] == 0.0
    assert eigen[target] == 0.0

    values = np.array(survey.ratings.values)
    values[target] = replacement
    perturbed = RatingVector(values)
    for weights in (degree, eigen):
        base = weighted_rating(survey.ratings, weights)
        moved = weighted_rating(perturbed, weights)
        assert abs(moved - base) <= 1e-12


@given(st.lists(ratings_values, min_size=2, max_size=9))
@settings(deadline=None)
def test_uniform_network_reproduces_the_mean(values):
    n = len(values)
    survey = validate_survey(
        values, np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    )
    report = rate_survey(survey)
    assert abs(report.degree.rating - report.arithmetic_mean) <= 1e-12
    assert abs(report.eigenfactor.rating - report.arithmetic_mean) <= 1e-12


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40))
@settings(deadline=None)
def test_mode_bounds_and_membership(values):
    anchor = dispersion_row("x", values).mode
    largest = dispersion_row("x", values, tiebreak="largest").mode
    assert anchor in values
    assert largest in values
    assert anchor <= largest


@st.composite
def list_and_shuffle(draw):
    values = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40))
    shuffled = draw(st.permutations(values))
    return values, shuffled


@given(list_and_shuffle())
@settings(deadline=None)
def test_mode_is_permutation_invariant(case):
    values, shuffled = case
    assert dispersion_row("x", shuffled).mode == dispersion_row("x", values).mode


padding = st.sampled_from(["", " ", "  "])
long_form_lines = st.one_of(
    # blank lines, skipped whatever their width
    st.sampled_from(["", " ", ",", " , "]),
    # labels recur out of order, padded or not; ratings may be negative or long
    st.builds(
        "{}{}{},{}{}{}".format,
        padding,
        st.sampled_from(["a", "b", "c", "dd"]),
        padding,
        padding,
        st.integers(-12, 12) | st.integers(-(10**6), 10**6),
        padding,
    ),
)


def _dispersion_oracle(lines, min_n, tiebreak):
    """Rows and exclusions of a long-form CSV, counted with sorted and count."""
    pairs = []
    for line in lines:
        if line.strip(" ,"):
            label, rating = line.split(",")
            pairs.append((label.strip(), int(rating)))
    labels = []
    for label, _ in pairs:
        if label not in labels:
            labels.append(label)
    rows, excluded = [], []
    for label in labels:
        values = sorted(rating for other, rating in pairs if other == label)
        if len(values) < min_n:
            excluded.append(label)
            continue
        top = max(values.count(value) for value in values)
        tied = [value for value in values if values.count(value) == top]
        mode = tied[0] if tiebreak == "smallest" else tied[-1]
        deviations = [abs(value - mode) for value in values]
        dev3plus = sum(1 for deviation in deviations if deviation >= 3)
        rows.append((label, len(values), mode, deviations.count(2), dev3plus))
    return rows, excluded


@given(
    st.lists(long_form_lines, max_size=40),
    st.integers(1, 6),
    st.sampled_from(["smallest", "largest"]),
)
@settings(deadline=None)
def test_long_form_reader_matches_an_independent_count(
    tmp_path_factory, lines, min_n, tiebreak
):
    path = tmp_path_factory.getbasetemp() / "long_form.csv"
    path.write_text("label,rating\n" + "\n".join(lines) + "\n", encoding="utf-8")
    expected_rows, expected_excluded = _dispersion_oracle(lines, min_n, tiebreak)
    if not expected_rows and not expected_excluded:
        with pytest.raises(MalformedInput, match="no data rows"):
            read_dispersion_csv(path, min_n=min_n, tiebreak=tiebreak)
        return
    rows, excluded = read_dispersion_csv(path, min_n=min_n, tiebreak=tiebreak)
    assert [
        (row.label, row.n, row.mode, row.dev2, row.dev3plus) for row in rows
    ] == expected_rows
    assert excluded == expected_excluded
