import json
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classrank import (
    CompetenceMatrix,
    DimensionMismatch,
    MalformedInput,
    NonBinaryEntry,
    NonZeroDiagonal,
    RatingVector,
    ScaleViolation,
    SurveyInstance,
    load_scenarios,
    load_survey_json,
    validate_survey,
)
from classrank.report import rate_survey, rating_report_dict
from classrank.survey import load_competence_csv, load_ratings_csv
from oracles import dense_normalized, random_binary_matrix


def _load_survey_csv(matrix_path, ratings_path, **options):
    # the CSV API: the matrix is read first, then the ratings
    matrix = load_competence_csv(matrix_path)
    return validate_survey(load_ratings_csv(ratings_path), matrix, **options)


def _shares(competence):
    return competence.row_shares.repeat(competence.row_sums)


def _sources(competence):
    return np.arange(competence.n).repeat(competence.row_sums)


def _edges(competence):
    return sorted(
        zip(
            _sources(competence).tolist(),
            competence.targets.tolist(),
            _shares(competence).tolist(),
        )
    )


def _pairs(competence):
    return [(i, j) for i, j, _ in _edges(competence)]


def test_validate_accepts_fixture_shapes(scenario_bundle):
    for scenario in scenario_bundle:
        assert scenario.survey.n == 10
        assert scenario.survey.warnings == ()


def test_single_student_survey_is_valid():
    survey = validate_survey([3.0], [[0]])
    assert survey.n == 1
    assert survey.competence.dangling == frozenset({0})


def test_reject_policy_raises_on_self_endorsement():
    with pytest.raises(NonZeroDiagonal):
        validate_survey([4, 4], [[1, 1], [0, 0]], diagonal_policy="reject")


def test_reject_error_lists_ten_self_endorsers_and_counts_the_rest():
    # one short error line for a looped class of thousands
    with pytest.raises(NonZeroDiagonal) as excinfo:
        CompetenceMatrix(np.eye(2000, dtype=np.uint8), "reject")
    assert str(excinfo.value) == (
        "self-endorsement at index [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] and 1990 more"
    )
    # ten or fewer are all listed, as before
    with pytest.raises(NonZeroDiagonal) as excinfo:
        CompetenceMatrix(np.eye(10, dtype=np.uint8), "reject")
    assert str(excinfo.value) == (
        "self-endorsement at index [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]"
    )


def test_coerce_policy_zeroes_diagonal_and_warns(monkeypatch):
    survey = validate_survey([4, 4], [[1, 1], [0, 0]], diagonal_policy="coerce")
    # the self-endorsement (0, 0) is dropped, (0, 1) is kept
    assert _pairs(survey.competence) == [(0, 1)]
    assert len(survey.warnings) == 1
    assert "0" in survey.warnings[0]
    # the same edges and warning whatever the dtype or layout of the matrix,
    # scanned one row, two rows or all three rows at a time
    grid = [[1, 1, 0], [0, 0, 1], [1, 0, 1]]
    for rows in (1, 2, 3):
        monkeypatch.setattr("classrank.survey._BLOCK_CELLS", rows * 3)
        for dtype in (np.uint8, np.int64, bool, np.float64, object):
            for transposed in (False, True):
                matrix = np.array(grid, dtype=dtype)
                if transposed:
                    matrix = matrix.T
                survey = validate_survey([4, 4, 4], matrix)
                cells = matrix.tolist()
                edges = [(i, j) for i in range(3) for j in range(3) if cells[i][j]]
                assert _pairs(survey.competence) == [(i, j) for i, j in edges if i != j]
                assert survey.competence.self_endorsers == (0, 2)
                assert survey.warnings == ("zeroed diagonal entries at indices [0, 2]",)


def test_non_binary_entry_rejected_under_both_policies():
    # the 0/1 check comes before the self-endorsement check under both
    for policy in ("coerce", "reject"):
        for matrix in ([[0, 2], [1, 0]], [[1, 2], [1, 0]]):
            with pytest.raises(NonBinaryEntry, match="found 2$"):
                validate_survey([4, 4], matrix, diagonal_policy=policy)


@pytest.mark.parametrize("policy", ["coerce", "reject"])
@pytest.mark.parametrize("cell, found", [(2, "2"), (0.5, "0.5"), (np.nan, "nan")])
def test_non_binary_diagonal_cell_rejected_under_both_policies(policy, cell, found):
    # a diagonal cell other than 0 or 1 is no self-endorsement to zero or to
    # report: it is a bad cell like any other, in arrays and in documents
    message = f"matrix entries must be 0 or 1, found {found}"
    with pytest.raises(NonBinaryEntry) as excinfo:
        validate_survey([4, 4], [[0, 1], [1, cell]], diagonal_policy=policy)
    assert str(excinfo.value) == message
    doc = {"ratings": [4, 5], "competence": [[cell, 1], [1, 0]]}
    with pytest.raises(NonBinaryEntry) as excinfo:
        load_survey_json(doc, diagonal_policy=policy)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("policy", ["coerce", "reject"])
def test_non_binary_diagonal_cell_beside_a_self_endorsement(policy):
    # the 1 at (0, 0) is neither zeroed nor reported: the first cell other
    # than 0 or 1 in row-major order is named, here one off the diagonal
    matrix = [[1, 1, 0], [0, 0, 3], [1, 0, 2]]
    with pytest.raises(NonBinaryEntry, match="found 3$"):
        validate_survey([4, 4, 4], matrix, diagonal_policy=policy)


def _two_mask_outcome(entries, policy):
    """What validating ``entries`` under ``policy`` gave when the 0/1 check
    built two n x n masks and the diagonal was zeroed in a dense copy: the
    error type and message, or the edge fields."""
    nonzero = entries != 0
    invalid = nonzero & (entries != 1)
    if invalid.any():
        bad = entries[invalid][:1].tolist()[0]
        return NonBinaryEntry, f"matrix entries must be 0 or 1, found {bad!r}"
    loops = np.flatnonzero(np.diagonal(nonzero)).tolist()
    if loops and policy == "reject":
        return NonZeroDiagonal, f"self-endorsement at index {loops}"
    nonzero = nonzero.copy()
    np.fill_diagonal(nonzero, False)
    sources, targets = np.nonzero(nonzero)
    counts = nonzero.sum(axis=1)
    return {
        "sources": sources,
        "targets": targets,
        "shares": 1.0 / counts[sources],
        "row_sums": counts,
        "dangling": frozenset(np.flatnonzero(counts == 0).tolist()),
        "self_endorsers": tuple(loops),
    }


# per dtype, the cells planted into a zero-diagonal 0/1 grid
PLANTED_CELLS = {
    "uint8": (np.uint8, [0, 1, 2, 255]),
    "int8": (np.int8, [0, 1, -1, 2, -128]),
    "int64": (np.int64, [0, 1, -1, 2, 2**40]),
    "bool": (bool, [False, True]),
    "float64": (np.float64, [0.0, 1.0, np.nan, -0.0, np.inf, 0.5]),
    "object": (object, [0, 1, None, {}, Fraction(1), Fraction(0)]),
    "str": (str, ["", "0", "1"]),
}


@pytest.mark.parametrize("kind", PLANTED_CELLS)
@given(data=st.data())
@settings(deadline=None)
def test_accepted_cells_match_the_two_mask_check(kind, data):
    # the 0/1 check reads only the cells that are not 0, yet accepts and
    # rejects exactly what the two full-size masks did, and drops or reports
    # self-endorsements as the dense diagonal pass did, for every dtype and
    # every block size of the scan: one row (also when a block holds fewer
    # cells than a row), a few rows with a shorter last block, or all rows
    dtype, cells = PLANTED_CELLS[kind]
    policy = data.draw(st.sampled_from(["coerce", "reject"]))
    n = data.draw(st.integers(1, 6))
    block_cells = data.draw(st.integers(1, n * n))
    grid = [
        [0 if i == j else data.draw(st.sampled_from([0, 1])) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, n - 1))
        # every other planted cell on the diagonal: 1, True, Fraction(1) there
        # are self-endorsements
        j = i if data.draw(st.booleans()) else data.draw(st.integers(0, n - 1))
        grid[i][j] = data.draw(st.sampled_from(cells))
    entries = np.array(grid, dtype=dtype)
    if data.draw(st.booleans()):
        # a transposed view, F-ordered: cells still go in row-major order
        entries = entries.T
    expected = _two_mask_outcome(entries, policy)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("classrank.survey._BLOCK_CELLS", block_cells)
            competence = CompetenceMatrix(entries, policy)
    except (NonBinaryEntry, NonZeroDiagonal) as exc:
        assert (type(exc), str(exc)) == expected
        return
    assert isinstance(expected, dict)
    for name in ("targets", "row_sums"):
        assert np.array_equal(getattr(competence, name), expected[name])
    assert np.array_equal(_sources(competence), expected["sources"])
    assert np.array_equal(_shares(competence), expected["shares"])
    assert competence.dangling == expected["dangling"]
    assert competence.self_endorsers == expected["self_endorsers"]


class _UnreadableCell:
    """An object cell whose comparison with 0 fails, noting the thread."""

    def __init__(self):
        self.threads = []

    def __ne__(self, other):
        self.threads.append(threading.current_thread())
        raise RuntimeError("this cell cannot be compared")


def test_helper_failure_reaches_the_caller(monkeypatch):
    # eight rows in half blocks of one row: the caller scans rows 0-3 and a
    # helper thread rows 4-7, where the unreadable cell is. Its error reaches
    # the caller as it does from a one-block scan, and the helper is gone.
    n = 8
    cell = _UnreadableCell()
    matrix = np.zeros((n, n), dtype=object)
    matrix[6, 2] = cell
    monkeypatch.setattr("classrank.survey._BLOCK_CELLS", n * n)
    with pytest.raises(RuntimeError) as one_block:
        CompetenceMatrix(matrix)
    assert cell.threads == [threading.main_thread()]
    before = threading.active_count()
    monkeypatch.setattr("classrank.survey._BLOCK_CELLS", 2 * n)
    with pytest.raises(RuntimeError) as two_scanners:
        CompetenceMatrix(matrix)
    assert cell.threads[1] is not threading.main_thread()
    assert (type(two_scanners.value), str(two_scanners.value)) == (
        type(one_block.value),
        str(one_block.value),
    )
    assert threading.active_count() == before



def test_caller_failure_joins_the_helper(monkeypatch):
    # the unreadable cell in the caller's own half, rows 0-3: its error
    # reaches the caller unchanged, and only after the helper has finished
    # rows 4-7 and been joined
    n = 8
    cell = _UnreadableCell()
    matrix = np.zeros((n, n), dtype=object)
    matrix[1, 5] = cell
    monkeypatch.setattr("classrank.survey._BLOCK_CELLS", n * n)
    with pytest.raises(RuntimeError) as one_block:
        CompetenceMatrix(matrix)
    before = threading.active_count()
    monkeypatch.setattr("classrank.survey._BLOCK_CELLS", 2 * n)
    with pytest.raises(RuntimeError) as two_scanners:
        CompetenceMatrix(matrix)
    assert cell.threads == [threading.main_thread()] * 2
    assert (type(two_scanners.value), str(two_scanners.value)) == (
        type(one_block.value),
        str(one_block.value),
    )
    assert threading.active_count() == before

def test_only_a_matrix_of_several_blocks_starts_a_thread(monkeypatch):
    # one block, n <= 512 at the default 2^18 cells, is scanned by the caller
    # alone; at n = 513 one helper thread scans half of the blocks and is
    # joined before validation returns
    started = []
    thread = threading.Thread

    def counted(*args, **kwargs):
        started.append(thread(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(threading, "Thread", counted)
    for n, threads in ((512, 0), (513, 1)):
        matrix = np.zeros((n, n), dtype=np.uint8)
        matrix[n - 1, 0] = matrix[0, n - 1] = 1
        competence = CompetenceMatrix(matrix)
        assert competence.targets.tolist() == [n - 1, 0]
        assert len(started) == threads
        assert not any(helper.is_alive() for helper in started)


@pytest.mark.parametrize("transposed", [False, True])
def test_validation_allocates_no_full_size_mask(transposed):
    # a sparse network, ~8 endorsements a row as in the surveys: the 0/1
    # check allocates a bool mask of one block of rows (2^18 cells, and a
    # C-ordered copy of it for a transposed, F-ordered view) plus O(nnz)
    # arrays; one n x n bool mask (n^2 bytes), let alone an int or float
    # copy, would break the bound. So does validate_survey under the default
    # coerce policy with one self-endorsement planted: it drops an edge and
    # copies no matrix.
    n = 1500
    rng = np.random.default_rng(0)
    matrix = (rng.random((n, n)) < 8 / n).astype(np.int64)
    np.fill_diagonal(matrix, 0)
    self_endorsed = matrix.copy()
    self_endorsed[n // 2, n // 2] = 1
    ratings = np.full(n, 3.0)
    if transposed:
        matrix, self_endorsed = matrix.T, self_endorsed.T
    for validate in (
        lambda: CompetenceMatrix(matrix),
        lambda: validate_survey(ratings, self_endorsed),
    ):
        tracemalloc.start()
        try:
            validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n


def test_validated_network_keeps_one_edge_array():
    # compressed rows: the targets (uint16 at this n, 2 bytes an edge) and
    # two n-length arrays, row_sums and row_shares (the dangling set is
    # derived from row_sums when read); a second edge array, or int64
    # targets (8 bytes an edge) kept beside them, would break the bound
    n = 1500
    rng = np.random.default_rng(1)
    matrix = (rng.random((n, n)) < 8 / n).astype(np.uint8)
    np.fill_diagonal(matrix, 0)
    nnz = int(np.count_nonzero(matrix))
    # a first call imports the two-scanner executor, which stays held
    CompetenceMatrix(matrix)
    tracemalloc.start()
    try:
        competence = CompetenceMatrix(matrix)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    targets = competence.targets
    assert targets.size == nnz
    assert targets.dtype == np.uint16
    assert held < targets.itemsize * nnz + 4 * 8 * n + 4096


@pytest.mark.parametrize("n", [1, 2, 256, 257])
def test_targets_take_the_narrowest_index_type(n):
    # one byte an edge up to 256 students, two from 257
    matrix = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(matrix, 0)
    targets = CompetenceMatrix(matrix).targets
    assert targets.dtype == np.min_scalar_type(n - 1)
    assert targets.size == n * (n - 1)
    assert not targets.flags.writeable


@pytest.mark.parametrize(
    "cell, first",
    [(2, (0, 1)), (0.5, (0, 1)), (float("nan"), (0, 1)), ({}, (0, 1)), ("1", (0, 0))],
)
def test_non_binary_entry_names_the_first_bad_cell(cell, first):
    # a string anywhere makes every cell a string, so the first cell is bad
    matrix = np.array([[0, cell], [1, 0]])
    with pytest.raises(NonBinaryEntry) as excinfo:
        CompetenceMatrix(matrix)
    # named as a plain Python value under every numpy: found 2, found 0.5,
    # found nan, found {}, found '0'; never np.int64(2) or np.str_('0')
    i, j = first
    expected = f"matrix entries must be 0 or 1, found {matrix.tolist()[i][j]!r}"
    assert str(excinfo.value) == expected


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("policy", ["coerce", "reject"])
def test_first_bad_cell_in_a_later_block_is_named(monkeypatch, policy, transposed):
    # one row per block: the self-endorsement at (0, 0) is in the first
    # block and the bad cells in the third and fourth; the first in
    # row-major order, (2, 3), is named, not (3, 0), the first in column
    # order, and no self-endorsement is reported or dropped
    monkeypatch.setattr("classrank.survey._BLOCK_CELLS", 4)
    grid = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 2], [5, 0, 1, 0]])
    matrix = np.asfortranarray(grid) if transposed else grid
    with pytest.raises(NonBinaryEntry) as excinfo:
        CompetenceMatrix(matrix, policy)
    assert str(excinfo.value) == "matrix entries must be 0 or 1, found 2"


@pytest.mark.parametrize(
    "cell, found", [(2, "2"), (300, "300"), (0.5, "0.5"), (-1, "-1")]
)
def test_load_survey_json_names_the_first_bad_cell(cell, found):
    # 2 is packed into the uint8 buffer; 300, 0.5 and -1 are not
    doc = {"ratings": [4, 5], "competence": [[0, cell], [1, 0]]}
    with pytest.raises(NonBinaryEntry) as excinfo:
        load_survey_json(doc)
    assert str(excinfo.value) == f"matrix entries must be 0 or 1, found {found}"


def test_unknown_diagonal_policy():
    with pytest.raises(ValueError):
        validate_survey([4, 4], [[0, 1], [1, 0]], diagonal_policy="ignore")


def test_loaders_report_an_unknown_diagonal_policy_as_such():
    # a bad option, not bad content: a ValueError, not MalformedInput
    survey = {"ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    bundle = {"ratings": [4, 5], "biased_index": 0, "scenarios": [survey]}
    for load, document in ((load_survey_json, survey), (load_scenarios, bundle)):
        with pytest.raises(ValueError) as excinfo:
            load(document, diagonal_policy="ignore")
        assert str(excinfo.value) == "unknown diagonal policy 'ignore'"


def test_rating_outside_scale_rejected():
    with pytest.raises(ScaleViolation):
        validate_survey([0.5, 4], [[0, 1], [1, 0]])
    with pytest.raises(ScaleViolation):
        RatingVector([1, 6])
    # an infinite bound is no scale, and a report would write it as Infinity,
    # which is not JSON
    with pytest.raises(ScaleViolation, match="must be finite"):
        RatingVector([3], scale_max=np.inf)
    # nor is an int past the float range, which raised a bare TypeError
    message = rf"^scale \[0, {10**400}\] must be finite$"
    with pytest.raises(ScaleViolation, match=message):
        validate_survey([3, 3], [[0, 1], [1, 0]], scale=(0, 10**400))


@pytest.mark.parametrize(
    "scale",
    [(1, 5, 9), (1,), (), 5, "15", b"15", bytearray(b"15"), {"a": 1, "b": 5}]
    + [{5, 1}, frozenset((5, 1)), {1: "a", 5: "b"}.keys()],
)
def test_scale_of_other_than_two_numbers_rejected(tmp_path, scale):
    # a third number was ignored and a single one raised IndexError; "15"
    # was read as ['1', '5'], a mapping as its keys and b"15" as [49, 53];
    # a set, unordered, was read in its iteration order
    message = f"^scale must be two numbers, low and high: got {re.escape(repr(scale))}$"
    with pytest.raises(ScaleViolation, match=message):
        validate_survey([4, 4], [[0, 1], [1, 0]], scale=scale)
    with pytest.raises(ScaleViolation, match=message):
        validate_survey(RatingVector([4, 4]), [[0, 1], [1, 0]], scale=scale)
    matrix_path, ratings_path = tmp_path / "matrix.csv", tmp_path / "ratings.csv"
    matrix_path.write_text("0,1\n1,0\n", encoding="utf-8")
    ratings_path.write_text("4\n4\n", encoding="utf-8")
    with pytest.raises(ScaleViolation, match=message):
        _load_survey_csv(matrix_path, ratings_path, scale=scale)



@pytest.mark.parametrize(
    "scale", [("1", "5"), (1, None), (False, True), (np.False_, 5), (1, 5j), (True, 5)]
)
def test_scale_entries_must_be_real_numbers(tmp_path, scale):
    # a string or None raised a bare TypeError, and (False, True) was taken
    # as the scale [0, 1] and written to the report as [false, true]
    message = f"^scale {re.escape(repr(list(scale)))} must be two real numbers$"
    with pytest.raises(ScaleViolation, match=message):
        RatingVector([1, 1], *scale)
    with pytest.raises(ScaleViolation, match=message):
        validate_survey([1, 1], [[0, 1], [1, 0]], scale=scale)
    matrix_path, ratings_path = tmp_path / "matrix.csv", tmp_path / "ratings.csv"
    matrix_path.write_text("0,1\n1,0\n", encoding="utf-8")
    ratings_path.write_text("1\n1\n", encoding="utf-8")
    with pytest.raises(ScaleViolation, match=message):
        _load_survey_csv(matrix_path, ratings_path, scale=scale)


def test_numpy_scale_entries_are_accepted():
    for scale in ((np.int64(1), np.float32(5)), (np.float64(1), np.uint8(5))):
        survey = validate_survey([1, 5], [[0, 1], [1, 0]], scale=scale)
        ratings = survey.ratings
        assert (ratings.scale_min, ratings.scale_max) == (1, 5)
        # the scale and alpha are kept as Python floats: a report holding an
        # int64 or a float32 was no JSON
        assert type(ratings.scale_min) is type(ratings.scale_max) is float
        report = rating_report_dict(rate_survey(survey, alpha=np.float32(0.5)), {})
        assert type(report["eigenfactor"]["alpha"]) is float
        decoded = json.loads(json.dumps(report))
        assert (decoded["scale"], decoded["eigenfactor"]["alpha"]) == ([1.0, 5.0], 0.5)


@pytest.mark.parametrize("scale", [(5, 1), (3, 3)])
def test_scale_that_is_not_an_interval_rejected(scale):
    message = rf"^scale \[{scale[0]}, {scale[1]}\] is not an interval$"
    with pytest.raises(ScaleViolation, match=message):
        RatingVector([3, 3], *scale)
    with pytest.raises(ScaleViolation, match=message):
        validate_survey([3, 3], [[0, 1], [1, 0]], scale=scale)


def test_empty_competence_matrix_rejected():
    # no cell at all is emptiness before it is a shape: a 0 x 3 array, and
    # a JSON grid of no rows (packed as a 1-d array) or of one empty row,
    # were called non-square
    message = "^competence matrix must be nonempty$"
    for load in (
        lambda: CompetenceMatrix(np.zeros((0, 0))),
        lambda: CompetenceMatrix(np.zeros((0, 3))),
        lambda: load_survey_json({"ratings": [4], "competence": []}),
        lambda: load_survey_json({"ratings": [4], "competence": [[]]}),
    ):
        with pytest.raises(DimensionMismatch, match=message):
            load()

def test_non_finite_rating_rejected():
    with pytest.raises(ScaleViolation):
        RatingVector([4, float("nan")])


OVERFLOWING_MEAN = "^the mean of the ratings overflows the float range$"


def test_overflowing_mean_rejected_without_a_warning():
    # finite ratings on a finite scale can sum past the float range: to inf,
    # or to inf - inf = NaN when numpy's pairwise sum meets both signs. No
    # RuntimeWarning is emitted and no infinite mean is kept.
    big = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raw, scale in (
            ([big, big], (0, big)),
            ([big, big, 0, 0, -big, -big, 0, 0] * 2, (-big, big)),
        ):
            with pytest.raises(ScaleViolation, match=OVERFLOWING_MEAN):
                RatingVector(raw, *scale)
        # a mean near the top of the float range that fits is kept
        assert RatingVector([8.9e307, 8.9e307], 0, big).mean == 8.9e307
    # the finite and scale checks come first, with their messages unchanged
    with pytest.raises(ScaleViolation, match="^ratings must be finite numbers$"):
        RatingVector([big, big, np.inf], 0, big)
    with pytest.raises(ScaleViolation, match=r"^ratings must lie in \[0, 1.7e\+308\]$"):
        RatingVector([big, big, -1.0], 0, big)
    doc = {"scale": [0, big], "ratings": [big, big], "competence": [[0, 1], [1, 0]]}
    with pytest.raises(ScaleViolation, match=OVERFLOWING_MEAN):
        load_survey_json(doc)


def _rating_check_by_masks(values, scale):
    """The message of the first failing rating check, each made as a mask
    over every rating, in the order the checks are made; None if all pass."""
    if not np.all(np.isfinite(values)):
        return "ratings must be finite numbers"
    if np.any(values < scale[0]) or np.any(values > scale[1]):
        return f"ratings must lie in [{scale[0]}, {scale[1]}]"
    return None


@given(
    st.lists(
        st.one_of(
            st.floats(1.0, 5.0),
            st.floats(-1e300, 1e300),
            st.floats(),
            st.sampled_from([np.nan, np.inf, -np.inf]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from([(1.0, 5.0), (-1e300, 1e300)]),
)
@settings(deadline=None)
def test_rating_extremes_and_mean_are_numpys_bit_for_bit(raw, scale):
    # NaN, +-inf and out-of-scale ratings fail with the message of the mask
    # checks; an accepted vector keeps numpy's min, max and mean exactly
    values = np.array(raw, dtype=float)
    message = _rating_check_by_masks(values, scale)
    if message is not None:
        with pytest.raises(ScaleViolation) as excinfo:
            RatingVector(raw, *scale)
        assert str(excinfo.value) == message
        return
    ratings = RatingVector(raw, *scale)
    for kept, expected in (
        (ratings.low, values.min()),
        (ratings.high, values.max()),
        (ratings.mean, values.mean()),
    ):
        assert type(kept) is float and kept.hex() == float(expected).hex()


@given(
    st.lists(
        st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=300,
    ),
    st.sampled_from(["list", "tuple", "array"]),
)
@settings(deadline=None)
def test_rating_vector_keeps_numpys_mean_and_extremes_bit_for_bit(raw, form):
    # the mean is numpy's own sum and division, also past the 128 entries
    # where its pairwise sum splits, for a list, a tuple or an array (an
    # int64 array when every entry is an int)
    given_as = {"list": raw, "tuple": tuple(raw), "array": np.array(raw)}[form]
    ratings = RatingVector(given_as, -1e6, 1e6)
    values = np.asarray(raw, dtype=float)
    for kept, expected in (
        (ratings.mean, values.mean()),
        (ratings.low, values.min()),
        (ratings.high, values.max()),
    ):
        assert type(kept) is float and kept.hex() == float(expected).hex()


@pytest.mark.parametrize(
    "raw, found",
    [
        (["4", 3], "'4'"),
        (["4", True], "'4'"),
        ([True, 3], "True"),
        ([3, None], "None"),
        ([3, 4 + 0j], "(4+0j)"),
        (np.array([True, False]), "True"),
        (np.array(["4", "3"]), "'4'"),
        (np.array([3, "4"], dtype=object), "'4'"),
        (np.array([1, 2], dtype="m8[s]"), "datetime.timedelta(seconds=1)"),
    ],
)
def test_ratings_that_are_not_real_numbers_rejected(raw, found):
    # numpy read "4" as 4.0 and True as 1.0, where a scale holding the same
    # values is rejected; the first entry that is no real number is named
    message = f"^ratings must be real numbers: found {re.escape(found)}$"
    with pytest.raises(ScaleViolation, match=message):
        RatingVector(raw)
    with pytest.raises(ScaleViolation, match=message):
        validate_survey(raw, [[0, 1], [1, 0]])


def test_integer_rating_past_the_float_range_rejected():
    # float() of the int raised a bare OverflowError
    for raw in ([10**400, 3], np.array([10**400, 3], dtype=object)):
        with pytest.raises(ScaleViolation, match="^ratings must be finite numbers$"):
            RatingVector(raw)


@pytest.mark.parametrize(
    "raw",
    [
        np.array([2, 5]),
        np.array([2, 5], dtype=np.uint8),
        np.array([2, 5], dtype=np.float32),
        [Fraction(2), Fraction(5)],
        np.array([Fraction(2), 5], dtype=object),
        (np.int64(2), np.float64(5)),
    ],
)
def test_real_ratings_of_every_kind_accepted(raw):
    ratings = RatingVector(raw)
    assert ratings.values.dtype == np.float64
    assert ratings.values.tolist() == [2.0, 5.0]
    assert (ratings.low, ratings.high, ratings.mean) == (2.0, 5.0, 3.5)


def test_nested_ratings_are_a_dimension_error():
    deep = [6]
    for _ in range(99):
        deep = [deep]
    message = "^ratings must form a nonempty 1-d sequence$"
    for raw in ([[4, 5]], [[4, 5], [3]], [4, [5]], [4, [5, [6]]], [4, deep]):
        with pytest.raises(DimensionMismatch, match=message):
            RatingVector(raw)
        with pytest.raises(DimensionMismatch, match=message):
            validate_survey(raw, [[0, 1], [1, 0]])
        with pytest.raises(DimensionMismatch, match=message):
            load_survey_json({"ratings": raw, "competence": [[0, 1], [1, 0]]})
    # a 0-d array is no sequence, and no real number either
    with pytest.raises(
        ScaleViolation, match=r"^ratings must be real numbers: found array\(5\.\)$"
    ):
        RatingVector([4, np.array(5.0)])


def test_checked_ratings_pair_with_a_matrix_through_survey_instance():
    # validate_survey takes raw ratings only: a RatingVector is not a rating
    ratings = RatingVector([4, 5])
    m = [[0, 1], [1, 0]]
    message = rf"^ratings must be real numbers: found {re.escape(repr(ratings))}$"
    with pytest.raises(ScaleViolation, match=message):
        validate_survey(ratings, m)
    assert SurveyInstance(ratings, CompetenceMatrix(m, "coerce")).ratings is ratings


@pytest.mark.parametrize("scale", ["15", {"a": 1, "b": 5}], ids=repr)
def test_document_scale_that_is_a_string_or_object_rejected(scale):
    message = f"^scale must be two numbers, low and high: got {re.escape(repr(scale))}$"
    doc = {"scale": scale, "ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    with pytest.raises(ScaleViolation, match=message):
        load_survey_json(doc)
    bundle = {"scale": scale, "ratings": [4, 5], "biased_index": 0}
    with pytest.raises(ScaleViolation, match=message):
        load_scenarios({**bundle, "scenarios": [{"competence": [[0, 1], [1, 0]]}]})


def test_survey_instance_built_directly_tells_its_zeroed_diagonal():
    # the warnings are derived from the matrix: a survey built without
    # validate_survey wrote "warnings": [] beside a zeroed self-endorsement
    competence = CompetenceMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 0]], "coerce")
    survey = SurveyInstance(RatingVector([3, 4, 5]), competence)
    assert survey.warnings == ("zeroed diagonal entries at indices [0]",)
    report = rating_report_dict(rate_survey(survey), {})
    assert report["warnings"] == ["zeroed diagonal entries at indices [0]"]
    # and no text can be handed in beside them
    with pytest.raises(TypeError):
        SurveyInstance(RatingVector([3, 4, 5]), competence, warnings=("made up",))


def test_strict_likert_flag():
    with pytest.raises(ScaleViolation):
        validate_survey([3.5, 4], [[0, 1], [1, 0]], strict_likert=True)
    survey = validate_survey([3.5, 4], [[0, 1], [1, 0]], strict_likert=False)
    assert survey.ratings.values[0] == 3.5


def test_strict_likert_keeps_the_rating_checks_of_the_default():
    # a 2-d or non-finite rating vector fails as it does without the flag,
    # with the same message; the flag only adds the integer check
    for raw, error in (([[4, 5]], DimensionMismatch), ([4, np.nan], ScaleViolation)):
        messages = set()
        for strict in (False, True):
            with pytest.raises(error) as excinfo:
                validate_survey(raw, [[0, 1], [1, 0]], strict_likert=strict)
            messages.add(str(excinfo.value))
        assert len(messages) == 1
    with pytest.raises(
        ScaleViolation, match=r"^non-integer rating 4\.5 with strict_likert enabled$"
    ):
        validate_survey([4.5, 5], [[0, 1], [1, 0]], strict_likert=True)


@pytest.mark.parametrize("flag", ["no", 0.0, 1, None, np.True_])
def test_strict_likert_must_be_a_bool(flag):
    # "no" switched the check on by its truth, and 0.0 switched it off
    message = f"^strict_likert must be True or False, got {re.escape(repr(flag))}$"
    doc = {"ratings": [4.5, 5], "competence": [[0, 1], [1, 0]]}
    with pytest.raises(ValueError, match=message):
        validate_survey(doc["ratings"], doc["competence"], strict_likert=flag)
    with pytest.raises(ValueError, match=message):
        load_survey_json(doc, strict_likert=flag)


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        validate_survey([4, 4, 4], [[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        validate_survey([4, 4], [[0, 1, 1], [1, 0, 1]])
    with pytest.raises(DimensionMismatch):
        RatingVector([])


def test_validation_is_idempotent(scenario_bundle, scenario_matrices):
    scenario = scenario_bundle[0]
    survey = scenario.survey
    again = validate_survey(
        survey.ratings.values,
        scenario_matrices[scenario.id],
        scale=(survey.ratings.scale_min, survey.ratings.scale_max),
        label=survey.label,
    )
    assert np.array_equal(again.ratings.values, survey.ratings.values)
    # the sources follow from row_sums
    for name in ("targets", "row_shares", "row_sums"):
        assert np.array_equal(
            getattr(again.competence, name), getattr(survey.competence, name)
        )
    assert again.competence.dangling == survey.competence.dangling
    assert again.warnings == ()


def test_arrays_are_frozen(scenario_bundle):
    survey = scenario_bundle[0].survey
    competence = survey.competence
    for array in (
        competence.targets,
        competence.row_sums,
        competence.row_shares,
    ):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(ValueError):
        survey.ratings.values[0] = 2.0


def test_normalize_uniform_matrix():
    n = 4
    competence = CompetenceMatrix(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    assert _pairs(competence) == pairs
    assert np.allclose(_shares(competence), 1.0 / (n - 1), atol=1e-15)
    assert competence.dangling == frozenset()
    assert _shares(competence).sum() == pytest.approx(n, abs=1e-12)


def test_normalize_rows_sum_to_one_or_zero(scenario_bundle):
    for scenario in scenario_bundle:
        competence = scenario.survey.competence
        sums = np.bincount(_sources(competence), _shares(competence), competence.n)
        for i, total in enumerate(sums):
            if i in competence.dangling:
                assert total == 0.0
            else:
                assert abs(total - 1.0) <= 1e-12
        assert 0 < _shares(competence).sum() <= scenario.survey.n


def test_normalize_three_endorsements_gives_thirds(scenario_bundle):
    # row 6 (0-based 5) endorses exactly three students
    competence = scenario_bundle[0].survey.competence
    row = _shares(competence)[_sources(competence) == 5]
    assert competence.row_sums[5] == 3
    assert np.allclose(row, 1 / 3, atol=1e-15)
    assert row.size == 3


def test_normalize_keeps_dangling_row_zero(scenario_bundle):
    competence = scenario_bundle[0].survey.competence
    assert competence.dangling == frozenset({7})
    assert 7 not in _sources(competence)


def test_normalize_permutation_equivariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        matrix = (rng.random((n, n)) < 0.5).astype(int)
        np.fill_diagonal(matrix, 0)
        perm = rng.permutation(n)
        base = _edges(CompetenceMatrix(matrix))
        permuted = CompetenceMatrix(matrix[np.ix_(perm, perm)])
        relabelled = sorted(
            (int(perm[i]), int(perm[j]), share) for i, j, share in _edges(permuted)
        )
        assert relabelled == base


def test_normalize_edge_list_scatters_to_the_dense_oracle(scenario_matrices):
    rng = np.random.default_rng(13)
    raws = list(scenario_matrices.values())
    for _ in range(20):
        matrix = random_binary_matrix(rng, int(rng.integers(2, 12)))
        matrix[rng.random(len(matrix)) < 0.3] = 0  # dangling rows
        raws.append(matrix)
    raws += [np.zeros((1, 1), dtype=int), np.zeros((5, 5), dtype=int)]
    for raw in raws:
        competence = CompetenceMatrix(raw)
        n = len(raw)
        assert _sources(competence).size == np.count_nonzero(raw)  # no repeats
        assert _shares(competence).dtype == np.float64
        for array in (competence.targets, competence.row_shares):
            assert not array.flags.writeable
        assert np.array_equal(competence.row_sums, raw.sum(axis=1))
        dense = np.zeros((n, n))
        dense[_sources(competence), competence.targets] = _shares(competence)
        assert np.array_equal(dense, dense_normalized(raw))


def test_load_survey_json_roundtrip(tmp_path):
    doc = {
        "label": "tiny",
        "scale": [1, 5],
        "ratings": [4, 2, 5],
        "competence": [[0, 1, 1], [1, 0, None], [0, 1, 0]],
    }
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    survey = load_survey_json(path)
    assert survey.label == "tiny"
    assert survey.n == 3
    # null cells count as "not competent": no edge (1, 2)
    assert _pairs(survey.competence) == [(0, 1), (0, 2), (1, 0), (2, 1)]


@pytest.mark.parametrize("label", [None, [1, {}], 3, True, {"name": "x"}])
def test_load_survey_json_rejects_non_string_labels(label):
    # a label that is present must be a JSON string, not its repr
    doc = {"label": label, "ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    with pytest.raises(MalformedInput, match="label must be a string"):
        load_survey_json(doc)


def test_load_survey_json_label_defaults_to_empty():
    doc = {"ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    assert load_survey_json(doc).label == ""
    assert load_survey_json({**doc, "label": ""}).label == ""


def test_load_survey_json_defaults_scale():
    survey = load_survey_json({"ratings": [1, 5], "competence": [[0, 1], [1, 0]]})
    assert survey.ratings.scale_min == 1.0
    assert survey.ratings.scale_max == 5.0


@pytest.mark.parametrize(
    "rating, error, message",
    [
        pytest.param("4", ScaleViolation, "ratings must be real numbers: found '4'", id="4"),
        pytest.param(True, ScaleViolation, "ratings must be real numbers: found True", id="True"),
        pytest.param(None, ScaleViolation, "ratings must be real numbers: found None", id="None"),
        pytest.param(
            [4], DimensionMismatch, "ratings must form a nonempty 1-d sequence", id="rating3"
        ),
        pytest.param(
            {"value": 4},
            ScaleViolation,
            "ratings must be real numbers: found {'value': 4}",
            id="rating4",
        ),
    ],
)
def test_load_survey_json_rejects_non_number_ratings(rating, error, message):
    # a JSON string or boolean is not silently read as a number
    doc = {"ratings": [rating, 5], "competence": [[0, 1], [1, 0]]}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        load_survey_json(doc)
    with pytest.raises(
        ScaleViolation, match="^ratings must be real numbers: found '45'$"
    ):
        load_survey_json({**doc, "ratings": "45"})


@pytest.mark.parametrize("cell", [True, False, "1", [1], {"value": 1}])
def test_load_survey_json_rejects_non_number_cells(cell):
    # a boolean or a string cell is not silently read as 0 or 1
    doc = {"ratings": [4, 5], "competence": [[0, cell], [1, 0]]}
    with pytest.raises(MalformedInput, match="competence cells are not numeric"):
        load_survey_json(doc)


@pytest.mark.parametrize("scale", [[True, "5"], [1, "5"], [None, 5], [1, [5]]])
def test_load_survey_json_rejects_non_number_scale(scale):
    doc = {"scale": scale, "ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    low, high = scale
    message = f"scale [{low!r}, {high!r}] must be two real numbers"
    with pytest.raises(ScaleViolation, match=f"^{re.escape(message)}$"):
        load_survey_json(doc)


def test_load_survey_json_rejects_numbers_too_large_for_a_float():
    doc = {"ratings": [4, 5], "competence": [[0, 1], [1, 0]]}
    message = f"scale [1, {10**400}] must be finite"
    with pytest.raises(ScaleViolation, match=f"^{re.escape(message)}$"):
        load_survey_json({**doc, "scale": [1, 10**400]})
    with pytest.raises(ScaleViolation, match="^ratings must be finite numbers$"):
        load_survey_json({**doc, "ratings": [4, 10**400]})
    # a float literal too large for a double parses as inf
    text = '{"scale": [1, 1e400], "ratings": [4, 5], "competence": [[0, 1], [1, 0]]}'
    with pytest.raises(ScaleViolation, match=r"^scale \[1, inf\] must be finite$"):
        load_survey_json(json.loads(text))


def test_load_survey_json_missing_keys():
    with pytest.raises(MalformedInput):
        load_survey_json({"ratings": [1, 2]})
    with pytest.raises(MalformedInput):
        load_survey_json({"competence": [[0]]})


def test_load_survey_json_rejects_ragged_rows():
    document = {"ratings": [4, 5], "competence": [[0, 1], [1]]}
    with pytest.raises(MalformedInput, match="competence rows are ragged"):
        load_survey_json(document)


def test_load_survey_json_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_survey_json(path)


def test_load_survey_csv_blank_cells_count_as_zero(tmp_path):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text("0,1,1\n1,0,\n,1,0\n", encoding="utf-8")
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text("4\n2\n5\n", encoding="utf-8")
    survey = _load_survey_csv(matrix_path, ratings_path)
    # no edges (1, 2) and (2, 0)
    assert _pairs(survey.competence) == [(0, 1), (0, 2), (1, 0), (2, 1)]
    assert survey.ratings.values.tolist() == [4.0, 2.0, 5.0]


def test_csv_pair_carries_its_label_into_the_report(tmp_path):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text("0,1\n1,0\n", encoding="utf-8")
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text("4\n2\n", encoding="utf-8")
    survey = _load_survey_csv(matrix_path, ratings_path, label="week 3")
    assert rating_report_dict(rate_survey(survey), {})["label"] == "week 3"


@pytest.mark.parametrize(
    "matrix, ratings, bad, message",
    [
        ("0,1\n1\n", "4\n2\n", "matrix", "ragged matrix rows"),
        ("0,1\n1,0\n", "4\n2,3\n", "ratings", "expected one rating per line"),
    ],
    ids=["ragged-matrix", "two-cell-rating"],
)
def test_load_survey_csv_rejects_ragged_rows(tmp_path, matrix, ratings, bad, message):
    paths = {"matrix": tmp_path / "matrix.csv", "ratings": tmp_path / "ratings.csv"}
    paths["matrix"].write_text(matrix, encoding="utf-8")
    paths["ratings"].write_text(ratings, encoding="utf-8")
    exact = f"^{re.escape(f'{message} in {paths[bad]}')}$"
    with pytest.raises(MalformedInput, match=exact):
        _load_survey_csv(paths["matrix"], paths["ratings"])


@pytest.mark.parametrize("blank", ["", " , ", "\t"], ids=["empty", "comma", "tab"])
def test_load_survey_csv_skips_blank_lines(tmp_path, blank):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text(
        f"{blank}\n0,1,1\n{blank}\n1,0,0\n0,1,0\n{blank}\n", encoding="utf-8"
    )
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text(f"{blank}\n4\n{blank}\n2\n5\n{blank}\n", encoding="utf-8")
    survey = _load_survey_csv(matrix_path, ratings_path)
    assert _pairs(survey.competence) == [(0, 1), (0, 2), (1, 0), (2, 1)]
    assert survey.ratings.values.tolist() == [4.0, 2.0, 5.0]


def test_load_competence_csv_packs_plain_cells_into_bytes(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("0,1,1\n1,0,\n\n,1,0\n", encoding="utf-8")
    matrix = load_competence_csv(path)
    assert matrix.dtype == np.uint8 and not matrix.flags.writeable
    assert matrix.tolist() == [[0, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_load_survey_csv_spelled_out_cells_match_their_plain_twin(tmp_path):
    # 1.0, padded, exponent and whitespace-only cells take the float() path
    spelled = tmp_path / "spelled.csv"
    spelled.write_text("0, 1 ,1e0\n1.0,0,  \n0.0,1,0\n", encoding="utf-8")
    plain = tmp_path / "plain.csv"
    plain.write_text("0,1,1\n1,0,0\n0,1,0\n", encoding="utf-8")
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text("4\n2\n5\n", encoding="utf-8")
    spelled_survey = _load_survey_csv(spelled, ratings_path)
    plain_survey = _load_survey_csv(plain, ratings_path)
    assert load_competence_csv(spelled).dtype == np.float64
    assert _edges(spelled_survey.competence) == _edges(plain_survey.competence)
    assert np.array_equal(
        spelled_survey.competence.row_sums, plain_survey.competence.row_sums
    )


@pytest.mark.parametrize(
    "cell, error",
    [
        ("2", NonBinaryEntry),
        ("x", MalformedInput),
        # float() reads these as 1 and 4: a PEP 515 underscore, non-ASCII digits
        ("0_1", MalformedInput),
        ("\u0661", MalformedInput),
        ("\uff14", MalformedInput),
    ],
)
def test_load_survey_csv_rejects_bad_cells(tmp_path, cell, error):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text(f"0,{cell}\n1,0\n", encoding="utf-8")
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text("4\n2\n", encoding="utf-8")
    with pytest.raises(error) as excinfo:
        _load_survey_csv(matrix_path, ratings_path)
    if error is MalformedInput:  # the cell that is not a number, and its file
        message = f"non-numeric matrix cell {cell!r} in {matrix_path}"
        assert str(excinfo.value) == message


@pytest.mark.parametrize("rating", ["0_5", "\u0664", "\uff14"])
def test_load_survey_csv_rejects_underscored_or_non_ascii_ratings(tmp_path, rating):
    matrix_path = tmp_path / "matrix.csv"
    matrix_path.write_text("0,1\n1,0\n", encoding="utf-8")
    ratings_path = tmp_path / "ratings.csv"
    ratings_path.write_text(f"4\n{rating}\n", encoding="utf-8")
    message = f"non-numeric rating {rating!r} in {ratings_path}"
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        _load_survey_csv(matrix_path, ratings_path)
