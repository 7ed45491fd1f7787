import json
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from classrank import MalformedInput, rate_survey, read_dispersion_csv, validate_survey
from classrank.cli import main
from classrank.data import (
    clarity_counts_path,
    example_survey_path,
    helpfulness_counts_path,
    scenario_fixture_path,
)
from classrank.survey import load_competence_csv, load_ratings_csv
from goldens import PCT_TOL, RATING_TOL, SCENARIO_EXPECTED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``text`` parsed as JSON, which must hold no ``NaN`` or ``Infinity``."""

    def reject(constant):
        raise AssertionError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=reject)


def assert_input_error(result, message):
    """Exit 2, no report, and one ``error:`` line holding ``message``."""
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


SURVEY = str(example_survey_path())
EDGE_BUNDLE = str(Path(__file__).parent / "snapshots" / "edge_bundle.json")
CLARITY = str(clarity_counts_path())
METHODS = ("degree", "eigenfactor")
# a field past the csv module's default limit of 131072 characters
OVERLONG_FIELD = "1" * 200_000
# nesting far deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def write_csv_grid(path, matrix):
    """A square 0/1 matrix as CSV cells, one byte a digit."""
    text = np.full((len(matrix), 2 * len(matrix)), ord(","), dtype=np.uint8)
    text[:, ::2] = np.asarray(matrix) + ord("0")
    text[:, -1] = ord("\n")
    path.write_bytes(text.tobytes())


def write_csv_pair(folder, competence, ratings):
    """The matrix and ratings CSV files of a survey, in ``folder``."""
    matrix, ratings_csv = folder / "matrix.csv", folder / "ratings.csv"
    write_csv_grid(matrix, competence)
    ratings_csv.write_text("".join(f"{value}\n" for value in ratings), encoding="utf-8")
    return matrix, ratings_csv


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """Inputs the size of a real export, written once: a sparse 2000-student
    0/1 network as a CSV pair, with a copy in which every student endorses
    themselves; a 50-scenario bundle at n = 30 sharing one rating vector,
    every tenth network empty; and a long-form dispersion CSV of 3000
    instructors with 1-32 ratings each (~50k rows, ~1 MB), with the drawn
    counts."""
    folder = tmp_path_factory.mktemp("large")
    rng = np.random.default_rng(1)
    n = 2000
    matrix = (rng.random((n, n)) < 8 / n).astype(np.uint8)
    np.fill_diagonal(matrix, 0)
    write_csv_pair(folder, matrix, rng.integers(1, 6, n))
    np.fill_diagonal(matrix, 1)
    write_csv_grid(folder / "looped.csv", matrix)

    n = 30
    ratings = rng.integers(1, 6, n).tolist()
    ratings[4] = 1
    networks = [(rng.random((n, n)) < 0.2) * (k % 10 > 0) for k in range(50)]
    for network in networks:
        np.fill_diagonal(network, 0)
    scenarios = [
        {"id": k + 1, "competence": network.astype(int).tolist()}
        for k, network in enumerate(networks)
    ]
    bundle = {"ratings": ratings, "biased_index": 4, "scenarios": scenarios}
    (folder / "bundle.json").write_text(json.dumps(bundle), encoding="utf-8")

    counts = rng.integers(1, 33, 3000)
    with open(folder / "long.csv", "w", encoding="utf-8") as handle:
        handle.write("label,rating\n")
        for k, count in enumerate(counts):
            label = f"instructor-{k:05d}"
            handle.writelines(f"{label},{r}\n" for r in rng.integers(1, 6, count))
    return {path.name: str(path) for path in folder.iterdir()} | {"counts": counts}


def test_rate_survey_json(capsys):
    code, out, err = run_cli(capsys, "rate", "--survey", str(example_survey_path()))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["n"] == 10
    assert report["arithmetic_mean"] == 3.7
    assert report["degree"]["weighted_rating"] == pytest.approx(
        SCENARIO_EXPECTED[1]["degree_rating"], abs=RATING_TOL
    )
    assert report["eigenfactor"]["weighted_rating"] == pytest.approx(
        SCENARIO_EXPECTED[1]["eigenfactor_rating"], abs=RATING_TOL
    )
    assert report["eigenfactor"]["alpha"] == 0.85
    assert report["eigenfactor"]["iterations"] >= 1
    assert report["dangling"] == [7]
    assert report["config"]["command"] == "rate"
    assert "degree=" in err


def test_rate_csv_pair(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("0,1,1\n1,0,1\n1,1,0\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("4\n2\n5\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "rate", "--competence-csv", str(matrix), "--ratings-csv", str(ratings)
    )
    assert code == 0
    report = json.loads(out)
    # uniform network reproduces the mean
    mean = (4 + 2 + 5) / 3
    assert report["degree"]["weighted_rating"] == pytest.approx(mean, abs=1e-12)
    assert report["eigenfactor"]["weighted_rating"] == pytest.approx(mean, abs=1e-12)


def _wide_survey(n=300):
    """A sparse 0/1 survey past 256 students, where each endorsement's target
    is stored in two bytes, not one."""
    rng = np.random.default_rng(3)
    matrix = (rng.random((n, n)) < 8 / n).astype(int)
    np.fill_diagonal(matrix, 0)
    return {"ratings": rng.integers(1, 6, n).tolist(), "competence": matrix.tolist()}


@pytest.mark.parametrize(
    "doc",
    [json.loads(example_survey_path().read_text(encoding="utf-8")), _wide_survey()],
    ids=["example", "300-students"],
)
def test_csv_pair_gets_the_weights_of_its_survey_document(tmp_path, capsys, doc):
    survey = tmp_path / "survey.json"
    survey.write_text(json.dumps(doc), encoding="utf-8")
    matrix, ratings = write_csv_pair(tmp_path, doc["competence"], doc["ratings"])
    code, out, _ = run_cli(capsys, "rate", "--survey", str(survey))
    assert code == 0
    expected = strict_json(out)
    argv = ["rate", "--competence-csv", str(matrix), "--ratings-csv", str(ratings)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = strict_json(out)
    # weights, influence, ratings and the solver's figures alike
    for method in METHODS:
        assert report[method] == expected[method]


def test_rate_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "rate")
    assert code == 2 and "provide" in err
    extra = tmp_path / "extra.csv"
    extra.write_text("0\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "rate",
        "--survey",
        str(example_survey_path()),
        "--ratings-csv",
        str(extra),
    )
    assert code == 2


def test_rate_degenerate_network_exits_3(tmp_path, capsys):
    doc = {"ratings": [4, 5], "competence": [[0, 0], [0, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "rate", "--survey", str(path))
    assert code == 3
    assert out == ""
    assert "error" in err


def test_rate_no_convergence_exits_4(capsys):
    code, out, err = run_cli(
        capsys,
        "rate",
        "--survey",
        str(example_survey_path()),
        "--max-iter",
        "1",
    )
    assert code == 4
    assert out == ""


def test_rate_invalid_alpha_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "rate", "--survey", str(example_survey_path()), "--alpha", "1.0"
    )
    assert code == 2 and "alpha" in err


def test_rate_nan_tol_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "rate", "--survey", str(example_survey_path()), "--tol", "nan"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "tol" in err


@pytest.mark.parametrize("command", ["rate", "scenarios"])
def test_infinite_tol_exits_2(capsys, command):
    # an infinite tol states no accuracy, and would be reported as Infinity
    argv = [command, "--tol", "inf"]
    if command == "rate":
        argv += ["--survey", str(example_survey_path())]
    assert_input_error(run_cli(capsys, *argv), "tol must be positive and finite")


def test_rate_invalid_alpha_beats_degenerate_network(tmp_path, capsys):
    doc = {"ratings": [4, 5], "competence": [[0, 0], [0, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "rate", "--survey", str(path), "--alpha", "2")
    assert code == 2 and "alpha" in err


def test_rate_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "rate", "--survey", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize("rating", ["4", True])
def test_rate_non_number_rating_exits_2(tmp_path, capsys, rating):
    doc = {"ratings": [rating, 4], "competence": [[0, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "rate", "--survey", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: ratings must be real numbers: found {rating!r}\n"


@pytest.mark.parametrize("cell", [True, "1"])
def test_rate_non_number_cell_exits_2(tmp_path, capsys, cell):
    doc = {"ratings": [4, 4], "competence": [[0, cell], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli(capsys, "rate", "--survey", str(path))
    assert_input_error(result, "competence cells are not numeric")


@pytest.mark.parametrize("label", [None, [1, {}]])
def test_rate_non_string_label_exits_2(tmp_path, capsys, label):
    doc = {"label": label, "ratings": [4, 4], "competence": [[0, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli(capsys, "rate", "--survey", str(path))
    assert_input_error(result, "label must be a string")


def test_rate_out_of_range_rating_exits_2(tmp_path, capsys):
    doc = {"ratings": [4, 10**400], "competence": [[0, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "rate", "--survey", str(path))
    assert (code, out, err) == (2, "", "error: ratings must be finite numbers\n")
    # a float too large for a double parses as inf: no finite scale
    path.write_text(
        '{"scale": [1, 1e400], "ratings": [4, 5], "competence": [[0, 1], [1, 0]]}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "rate", "--survey", str(path))
    assert (code, out, err) == (2, "", "error: scale [1, inf] must be finite\n")


def test_rate_overflowing_mean_exits_2(tmp_path, capsys):
    # every rating is finite and on the scale, but their mean overflows: an
    # input error, not an "arithmetic_mean": Infinity report or a warning
    doc = {"scale": [0, 1.7e308], "ratings": [1.7e308, 1.7e308]}
    doc["competence"] = [[0, 1], [1, 0]]
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_cli(capsys, "rate", "--survey", str(path))
    assert_input_error(result, "the mean of the ratings overflows the float range")
    assert "Infinity" not in result[1]


@pytest.mark.parametrize("which", ["competence", "ratings"])
def test_rate_overlong_csv_field_exits_2(tmp_path, capsys, which):
    files = {"competence": "0\n", "ratings": "4\n"}
    files[which] = OVERLONG_FIELD + "\n"
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8")
    result = run_cli(
        capsys,
        "rate",
        "--competence-csv",
        str(paths["competence"]),
        "--ratings-csv",
        str(paths["ratings"]),
    )
    assert_input_error(result, "field larger than field limit")


# a survey document carries its own scale, so --scale would be ignored
@pytest.mark.parametrize(
    "flags",
    [["--scale", "0", "100"], ["--competence-csv", "m"], ["--ratings-csv", "r"]],
    ids=["scale", "competence-csv", "ratings-csv"],
)
def test_rate_survey_excludes_csv_flags(capsys, flags):
    result = run_cli(capsys, "rate", "--survey", SURVEY, *flags)
    assert_input_error(result, "--survey excludes")


def test_rate_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "survey.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    result = run_cli(capsys, "rate", "--survey", str(path))
    assert_input_error(result, "invalid JSON")


def test_rate_strict_likert_flag(tmp_path, capsys):
    doc = {"ratings": [3.5, 4], "competence": [[0, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run_cli(capsys, "rate", "--survey", str(path))
    assert code == 0
    code, _, err = run_cli(capsys, "rate", "--survey", str(path), "--strict-likert")
    assert code == 2
    assert err == "error: non-integer rating 3.5 with strict_likert enabled\n"


def test_rate_diagonal_policy_flag(tmp_path, capsys):
    doc = {"ratings": [4, 5], "competence": [[1, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "rate", "--survey", str(path))
    assert code == 0
    assert json.loads(out)["warnings"]
    code, _, _ = run_cli(
        capsys, "rate", "--survey", str(path), "--diagonal-policy", "reject"
    )
    assert code == 2


@pytest.mark.parametrize("policy", ["coerce", "reject"])
def test_rate_non_binary_diagonal_cell_exits_2(tmp_path, capsys, policy):
    # a 2 on the diagonal is no self-endorsement to zero: it is rejected
    doc = {"ratings": [4, 5], "competence": [[2, 1], [1, 0]]}
    path = tmp_path / "survey.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli(
        capsys, "rate", "--survey", str(path), "--diagonal-policy", policy
    )
    assert_input_error(result, "matrix entries must be 0 or 1, found 2")


def test_rate_output_file_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "rate",
        "--survey",
        str(example_survey_path()),
        "--output",
        str(out_path),
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    # serialized floats round-trip bit-exactly against a fresh computation
    from classrank import load_survey_json

    fresh = rate_survey(load_survey_json(example_survey_path()))
    assert report["degree"]["weighted_rating"] == fresh.degree.rating
    assert report["eigenfactor"]["weighted_rating"] == fresh.eigenfactor.rating
    assert report["eigenfactor"]["influence"] == [
        float(v) for v in fresh.eigenfactor.influence
    ]
    assert report["eigenfactor"]["residual"] == fresh.eigenfactor.residual


def same_report_both_ways(tmp_path, capsys, argv):
    """The report of ``argv``, after checking that stdout and an ``--output``
    file hold the same strict JSON text and that no thread is left running."""
    threads = threading.active_count()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    code, written, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0 and written == ""
    assert threading.active_count() == threads
    text = path.read_bytes().decode("utf-8")
    # floats round-trip exactly, so re-encoding the parsed report is the
    # reference
    report = strict_json(text)
    reference = json.dumps(report, indent=2) + "\n"
    # compared as lists of lines, which pytest explains by the first line
    # that differs; its diff of two texts this long can take minutes
    lines = [copy.splitlines(keepends=True) for copy in (out, text, reference)]
    assert lines[0] == lines[1] == lines[2]
    return report


@pytest.mark.parametrize(
    "name",
    [
        "rate",
        "scenarios",
        "dispersion-clarity",
        "dispersion-helpfulness",
        "scenarios-50-networks",
        "dispersion-long-form",
    ],
)
def test_stdout_and_output_file_hold_the_same_report(
    tmp_path, capsys, large_inputs, name
):
    argv = {
        "rate": ["rate", "--survey", SURVEY],
        "scenarios": ["scenarios"],
        "dispersion-clarity": ["dispersion", "--ratings-csv", CLARITY],
        "dispersion-helpfulness": [
            "dispersion",
            "--ratings-csv",
            str(helpfulness_counts_path()),
        ],
        "scenarios-50-networks": [
            "scenarios",
            "--scenario-file",
            large_inputs["bundle.json"],
        ],
        "dispersion-long-form": [
            "dispersion",
            "--ratings-csv",
            large_inputs["long.csv"],
        ],
    }[name]
    same_report_both_ways(tmp_path, capsys, argv)


def test_a_2000_student_csv_pair_and_its_self_endorsing_copy(
    tmp_path, capsys, large_inputs
):
    ratings = ["--ratings-csv", large_inputs["ratings.csv"]]
    # validated by two scanners, the caller and one pool worker
    clean = same_report_both_ways(
        tmp_path,
        capsys,
        ["rate", "--competence-csv", large_inputs["matrix.csv"], *ratings],
    )
    assert all(abs(sum(clean[method]["weights"]) - 1) <= 1e-9 for method in METHODS)
    # zeroed with one warning under the default policy
    looped = ["rate", "--competence-csv", large_inputs["looped.csv"], *ratings]
    code, out, _ = run_cli(capsys, *looped)
    assert code == 0
    report = strict_json(out)
    (warning,) = report["warnings"]
    assert warning.startswith("zeroed diagonal entries at indices [0, 1, ")
    for method in METHODS:
        assert report[method]["weights"] == clean[method]["weights"]
    # rejected with one short line: the first ten self-endorsers and a count
    # of the rest, not all 2000
    result = run_cli(capsys, *looped, "--diagonal-policy", "reject")
    assert_input_error(
        result, f"self-endorsement at index {list(range(10))} and 1990 more"
    )
    assert len(result[2]) < 200


@pytest.mark.parametrize("tiebreak", ["smallest", "largest"])
def test_dispersion_long_form_keeps_the_drawn_counts(capsys, large_inputs, tiebreak):
    counts = large_inputs["counts"]
    code, out, _ = run_cli(
        capsys,
        "dispersion",
        "--ratings-csv",
        large_inputs["long.csv"],
        "--mode-tiebreak",
        tiebreak,
    )
    assert code == 0
    report = strict_json(out)
    # the instructors below the default --min-n 5 are excluded
    assert report["aggregate"]["total_n"] == int(counts[counts >= 5].sum())
    excluded = [f"instructor-{k:05d}" for k in np.flatnonzero(counts < 5)]
    assert report["excluded"] == excluded


def test_dispersion_report_is_not_held_whole(tmp_path, capsys, large_inputs):
    # shaped like a ratings export, ~50k rows and a ~1 MB file; the peak is
    # the reader's lists plus the rows, not a copy of the ~300 KB report text
    report = tmp_path / "report.json"
    argv = ["dispersion", "--ratings-csv", large_inputs["long.csv"]]
    argv += ["--output", str(report)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert peak < 2 * 2**20


def test_dispersion_counted_fixture(capsys):
    code, out, err = run_cli(
        capsys, "dispersion", "--ratings-csv", str(helpfulness_counts_path())
    )
    assert code == 0
    report = json.loads(out)
    assert report["aggregate"]["total_n"] == 2224
    assert report["aggregate"]["pct_dev2plus"] == pytest.approx(29.18, abs=PCT_TOL)
    assert len(report["rows"]) == 91
    assert report["excluded"] == []
    assert "2224 ratings" in err


def test_dispersion_long_form_excludes_small_instructors(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "label,rating\na,4\na,4\na,4\na,1\na,4\nb,5\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert code == 0
    report = json.loads(out)
    assert [row["label"] for row in report["rows"]] == ["a"]
    assert report["excluded"] == ["b"]
    assert report["rows"][0]["dev3plus"] == 1


def test_dispersion_tiebreak_flag(tmp_path, capsys):
    path = tmp_path / "ratings.csv"
    rows = ["a,1", "a,1", "a,5", "a,5", "a,3"]
    path.write_text("label,rating\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert json.loads(out)["rows"][0]["mode"] == 1
    code, out, _ = run_cli(
        capsys,
        "dispersion",
        "--ratings-csv",
        str(path),
        "--mode-tiebreak",
        "largest",
    )
    assert json.loads(out)["rows"][0]["mode"] == 5


def test_dispersion_malformed_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("who,what\na,4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert code == 2


def test_dispersion_all_rows_filtered_exits_2(tmp_path, capsys):
    path = tmp_path / "small.csv"
    path.write_text("label,rating\na,4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "text, flags, message",
    [
        pytest.param(
            "label,n,mode,dev2,dev3plus\na,10,4,1,1\na,10,4,1,1\n",
            [],
            "repeated label 'a'",
            id="repeated-counted-label",
        ),
        pytest.param(
            "label,rating\na,4\n", ["--min-n", "0"], "min_n must be at least 1", id="min-n"
        ),
    ],
)
def test_dispersion_invalid_input_exits_2(tmp_path, capsys, text, flags, message):
    path = tmp_path / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    result = run_cli(capsys, "dispersion", "--ratings-csv", str(path), *flags)
    assert_input_error(result, message)


def test_dispersion_overlong_csv_field_exits_2(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text(f"label,rating\na,{OVERLONG_FIELD}\n", encoding="utf-8")
    result = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert_input_error(result, "field larger than field limit")


def _reader_runs(tmp_path):
    """Per reader, the argv of a run on valid input and the file in it that
    a test prefixes with a UTF-8 byte-order mark."""
    doc = json.loads(example_survey_path().read_text(encoding="utf-8"))
    matrix, ratings = write_csv_pair(tmp_path, doc["competence"], doc["ratings"])
    long = tmp_path / "long.csv"
    long.write_text("label,rating\na,4\na,4\na,1\nb,5\nb,3\n", encoding="utf-8")
    pair = ["rate", "--competence-csv", matrix, "--ratings-csv", ratings]
    return {
        "survey": (["rate", "--survey", example_survey_path()], example_survey_path()),
        "bundle": (
            ["scenarios", "--scenario-file", scenario_fixture_path()],
            scenario_fixture_path(),
        ),
        "competence-csv": (pair, matrix),
        "ratings-csv": (pair, ratings),
        "long-form": (["dispersion", "--ratings-csv", long, "--min-n", "1"], long),
        "counted-form": (
            ["dispersion", "--ratings-csv", clarity_counts_path()],
            clarity_counts_path(),
        ),
    }


@pytest.mark.parametrize(
    "reader",
    ["survey", "bundle", "competence-csv", "ratings-csv", "long-form", "counted-form"],
)
def test_every_reader_accepts_a_byte_order_mark(tmp_path, capsys, reader):
    # spreadsheets write "CSV UTF-8" with a leading U+FEFF, and a JSON
    # parser may ignore one (RFC 8259, section 8.1)
    argv, target = _reader_runs(tmp_path)[reader]
    bom = tmp_path / f"bom{target.suffix}"
    bom.write_bytes(b"\xef\xbb\xbf" + target.read_bytes())
    expected = run_cli(capsys, *map(str, argv))
    assert expected[0] == 0
    marked = [bom if arg == target else arg for arg in argv]
    assert run_cli(capsys, *map(str, marked)) == expected


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("competence-csv", "0,x\n1,0\n", "non-numeric matrix cell 'x'"),
        ("ratings-csv", "4\n4x\n", "non-numeric rating '4x'"),
        ("long-form", "label,rating\na,4\na,x\n", "non-integer rating 'x'"),
        (
            "counted-form",
            "label,n,mode,dev2,dev3plus\na,10,x,1,1\n",
            "non-integer mode 'x'",
        ),
    ],
    ids=["competence-csv", "ratings-csv", "long-form", "counted-form"],
)
def test_every_csv_reader_names_its_bad_cell_and_file(
    tmp_path, capsys, reader, text, message
):
    # the two survey readers named only the file
    argv, target = _reader_runs(tmp_path)[reader]
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    load = {"competence-csv": load_competence_csv, "ratings-csv": load_ratings_csv}
    with pytest.raises(MalformedInput, match=f"^{re.escape(f'{message} in {bad}')}$"):
        load.get(reader, read_dispersion_csv)(bad)
    argv = [bad if arg == target else arg for arg in argv]
    assert run_cli(capsys, *map(str, argv)) == (2, "", f"error: {message} in {bad}\n")


@pytest.mark.parametrize(
    "command, flag", [("rate", "--survey"), ("dispersion", "--ratings-csv")]
)
def test_invalid_utf8_after_a_byte_order_mark_is_an_input_error(
    tmp_path, capsys, command, flag
):
    path = tmp_path / "bad"
    path.write_bytes(b"\xef\xbb\xbf\xff")
    result = run_cli(capsys, command, flag, str(path))
    assert_input_error(result, "'utf-8' codec can't decode byte 0xff")


def test_dispersion_huge_counts_do_not_overflow(tmp_path, capsys):
    # percentages of counts too large for a float are still exact ratios
    huge = 10**400
    path = tmp_path / "huge.csv"
    path.write_text(
        f"label,n,mode,dev2,dev3plus\na,{huge},3,{huge // 4},0\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "dispersion", "--ratings-csv", str(path))
    assert code == 0
    assert json.loads(out)["aggregate"]["pct_dev2"] == 25.0


def test_scenarios_default_fixture(capsys):
    code, out, err = run_cli(capsys, "scenarios")
    assert code == 0
    report = json.loads(out)
    assert [row["id"] for row in report["results"]] == [1, 2, 3, 4, 5, 6]
    for row in report["results"]:
        assert row["winner"] == "eigenfactor"
        assert row["degree"]["failure"] is None
    assert report["summary"]["mean_degree_reduction_pct"] >= 85.0
    assert report["summary"]["mean_eigenfactor_reduction_pct"] >= 85.0
    assert "mean error reduction" in err


def test_scenarios_alpha_changes_the_walk(capsys):
    code, out, _ = run_cli(capsys, "scenarios", "--alpha", "0.5")
    assert code == 0
    report = json.loads(out)
    half = report["results"][0]["eigenfactor"]["weighted_rating"]
    code, out, _ = run_cli(capsys, "scenarios")
    default = json.loads(out)["results"][0]["eigenfactor"]["weighted_rating"]
    assert half != default
    assert abs(half - default) > 1e-4


def test_scenarios_explicit_file_matches_default(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "scenarios", "--scenario-file", str(scenario_fixture_path())
    )
    assert code == 0
    explicit = json.loads(out)
    code, out, _ = run_cli(capsys, "scenarios")
    assert json.loads(out)["results"] == explicit["results"]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            [],
            [
                "scenario 1: mean=3.7000 degree=3.9614 eigenfactor=3.9767 "
                "winner=eigenfactor",
                "scenario 2: mean=3.7000 degree=3.9653 eigenfactor=3.9774 "
                "winner=eigenfactor",
                "scenario 3: mean=3.7000 degree=3.9819 eigenfactor=3.9827 "
                "winner=eigenfactor",
                "scenario 4: mean=3.7000 degree=4.0529 eigenfactor=4.0420 "
                "winner=eigenfactor",
                "scenario 5: mean=3.7000 degree=4.0476 eigenfactor=4.0413 "
                "winner=eigenfactor",
                "scenario 6: mean=3.7000 degree=4.0643 eigenfactor=4.0436 "
                "winner=eigenfactor",
                "mean error reduction: degree 85.77%, eigenfactor 89.44%",
            ],
        ),
        (
            # every baseline error is zero, so no method has a mean and the
            # summary line is left out
            ["--scenario-file", EDGE_BUNDLE, "--max-iter", "1"],
            [
                "scenario 1: mean=3.0000",
                "scenario 2: mean=3.0000 degree=3.0000 eigenfactor=3.0000 winner=tie",
                "scenario 3: mean=3.0000 degree=2.8333 winner=degree",
            ],
        ),
    ],
    ids=["default", "edge-bundle"],
)
def test_scenarios_stderr_lines(capsys, argv, lines):
    code, _, err = run_cli(capsys, "scenarios", *argv)
    assert code == 0
    assert err.splitlines() == lines


def test_scenarios_tell_zeroed_self_endorsements_on_stderr(tmp_path, capsys):
    # the scenario report has no warnings field: a zeroed self-endorsement
    # is told on stderr, and the report is that of the zeroed bundle
    bundle = json.loads(scenario_fixture_path().read_text(encoding="utf-8"))
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(bundle), encoding="utf-8")
    bundle["scenarios"][0]["competence"][3][3] = 1
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(bundle), encoding="utf-8")
    code, expected, err = run_cli(capsys, "scenarios", "--scenario-file", str(clean))
    assert code == 0 and "zeroed" not in err
    code, out, err = run_cli(capsys, "scenarios", "--scenario-file", str(planted))
    assert code == 0 and out == expected
    assert "scenario 1: zeroed diagonal entries at indices [3]\n" in err
    assert err.count("zeroed") == 1
    assert_input_error(
        run_cli(
            capsys,
            "scenarios",
            "--scenario-file",
            str(planted),
            "--diagonal-policy",
            "reject",
        ),
        "self-endorsement at index [3]",
    )


def test_scenarios_failing_after_a_zeroed_self_endorsement_print_one_error_line(
    tmp_path, capsys
):
    # the warning used to be printed before the scenarios ran, so a run that
    # then failed wrote two stderr lines
    doc = {"ratings": [1], "biased_index": 0, "scenarios": [{"competence": [[1]]}]}
    bundle = tmp_path / "one.json"
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "scenarios", "--scenario-file", str(bundle))
    assert (code, out, err) == (2, "", "error: cannot exclude the only rating\n")


def test_scenarios_records_per_method_failures(tmp_path, capsys):
    doc = {
        "ratings": [4, 5],
        "biased_index": 1,
        "scenarios": [{"id": 1, "competence": [[0, 0], [0, 0]]}],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "scenarios", "--scenario-file", str(path))
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["degree"]["failure"]
    assert row["eigenfactor"]["failure"]
    assert row["winner"] is None


def test_scenarios_summary_skips_a_method_that_always_failed(tmp_path, capsys):
    # one step is too few for the eigenfactor solver; degree still scores
    doc = {
        "ratings": [1, 2],
        "biased_index": 0,
        "scenarios": [{"competence": [[0, 0], [1, 0]]}],
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "scenarios", "--scenario-file", str(path), "--max-iter", "1"
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["mean_eigenfactor_reduction_pct"] is None
    assert err.splitlines()[-1] == "mean error reduction: degree -100.00%"


# students 1 and 2 endorse student 0 only, so both weightings rate the
# course at student 0's rating
TO_FIRST = [[0, 0, 0], [1, 0, 0], [1, 0, 0]]
LEAVE_ONE_OUT_GRID = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
REDUCTIONS = [f"mean_{method}_reduction_pct" for method in METHODS]


@pytest.mark.parametrize(
    "doc, expected",
    [
        pytest.param(
            {
                "scale": [-1e308, 7e307],
                "ratings": [7e307, -1e308, 7e307, 7e307],
                "biased_index": 1,
                "scenarios": [{"id": 1, "competence": LEAVE_ONE_OUT_GRID}],
            },
            "the mean of the ratings other than the biased one overflows the "
            "float range",
            id="leave-one-out-sum-overflows",
        ),
        pytest.param(
            {
                "scale": [-1.7e308, 1.7e308],
                "ratings": [1.7e308, -1.7e308, 0],
                "biased_index": 0,
                "scenarios": [{"id": 1, "competence": TO_FIRST}],
            },
            "scale [-1.7e+308, 1.7e+308] is wider than the largest float",
            id="scale-wider-than-floats",
        ),
        pytest.param(
            {
                "scale": [-5, 5],
                "ratings": [5, -5, 1e-323],
                "biased_index": 2,
                "scenarios": [{"id": 1, "competence": TO_FIRST}],
            },
            # the baseline error is subnormal, so no reduction is a float
            dict.fromkeys(REDUCTIONS),
            id="tiny-baseline",
        ),
        pytest.param(
            {
                "scale": [-5, 5],
                "ratings": [2, -2, 6e-306],
                "biased_index": 2,
                "scenarios": [{"id": k, "competence": TO_FIRST} for k in (1, 2)],
            },
            # two reductions of -1e308 whose sum overflows
            dict.fromkeys(REDUCTIONS, -1e308),
            id="summary-mean-overflows",
        ),
    ],
)
def test_scenarios_past_the_float_range_keep_the_report_strict(
    tmp_path, capsys, doc, expected
):
    # each ran with exit 0 and wrote Infinity or NaN into its report, the
    # first with a numpy RuntimeWarning on the way; ``expected`` is the
    # error line or the report's summary
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "scenarios", "--scenario-file", str(path))
    if isinstance(expected, str):
        assert (code, out, err) == (2, "", f"error: {expected}\n")
    else:
        assert code == 0
        assert strict_json(out)["summary"] == expected


@pytest.mark.parametrize(
    "command, doc, lines",
    [
        pytest.param(
            ["rate", "--survey"],
            {
                "scale": [0, 1.7e308],
                "ratings": [1e308, 5e307],
                "competence": [[0, 1], [1, 0]],
            },
            [
                "survey: n=2 mean=7.5000e+307 degree=7.5000e+307 "
                "eigenfactor=7.5000e+307 (1 iterations)"
            ],
            id="rate",
        ),
        pytest.param(
            ["scenarios", "--scenario-file"],
            {
                "scale": [-5, 5],
                "ratings": [2, -2, 6e-306],
                "biased_index": 2,
                "scenarios": [{"id": k, "competence": TO_FIRST} for k in (1, 2)],
            },
            [
                "scenario 1: mean=0.0000 degree=2.0000 eigenfactor=2.0000 winner=tie",
                "scenario 2: mean=0.0000 degree=2.0000 eigenfactor=2.0000 winner=tie",
                "mean error reduction: degree -1.00e+308%, eigenfactor -1.00e+308%",
            ],
            id="scenarios-summary",
        ),
    ],
)
def test_stderr_numbers_near_the_float_range_use_e_notation(
    tmp_path, capsys, command, doc, lines
):
    # fixed point printed every digit: a 993-byte rate line and two summary
    # means of 309 digits each
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 0
    assert err.splitlines() == lines
    # and the report beside them is strict JSON
    strict_json(out)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"scale": 5}, "scale must be two numbers, low and high: got 5"),
        (
            {"ratings": {"a": 4, "b": 5}},
            "ratings must be real numbers: found {'a': 4, 'b': 5}",
        ),
        (
            {"scenarios": [{"id": 1, "competence": [[0, 1], [1, 0]]}] * 2},
            "scenario #2 repeats id 1",
        ),
        ({"ratings": ["4", 5]}, "ratings must be real numbers: found '4'"),
        ({"ratings": [4, True]}, "ratings must be real numbers: found True"),
        (
            {"scenarios": [{"competence": [[0, True], [1, 0]]}]},
            "scenario 1 competence cells are not numeric: found True",
        ),
        ({"scale": [True, "5"]}, "scale [True, '5'] must be two real numbers"),
        ({"ratings": [4, 10**400]}, "ratings must be finite numbers"),
        (
            {"scenarios": [{"competence": [[0, 1], [1]]}]},
            "scenario 1 competence rows are ragged",
        ),
        ({"label": None}, "label must be a string: found None"),
        ({"label": [1, {}]}, "label must be a string: found [1, {}]"),
        ({"scale": [1, 1e400]}, "scale [1, inf] must be finite"),
        ({"scale": "15"}, "scale must be two numbers, low and high: got '15'"),
        (
            {"scale": {"a": 1, "b": 5}},
            "scale must be two numbers, low and high: got {'a': 1, 'b': 5}",
        ),
    ],
    ids=[
        "scalar-scale",
        "object-ratings",
        "duplicate-id",
        "string-rating",
        "bool-rating",
        "bool-cell",
        "non-number-scale",
        "huge-rating",
        "ragged-rows",
        "null-label",
        "list-label",
        "infinite-scale",
        "string-scale",
        "object-scale",
    ],
)
def test_scenarios_malformed_bundle_exits_2(tmp_path, capsys, change, message):
    doc = {
        "ratings": [4, 5],
        "biased_index": 1,
        "scenarios": [{"id": 1, "competence": [[0, 1], [1, 0]]}],
        **change,
    }
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "scenarios", "--scenario-file", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    if "scenarios" not in change:
        # a survey document of the same fields gets the same line
        del doc["biased_index"], doc["scenarios"]
        path.write_text(json.dumps({**doc, "competence": [[0, 1], [1, 0]]}), "utf-8")
        result = run_cli(capsys, "rate", "--survey", str(path))
        assert result == (2, "", f"error: {message}\n")


def test_scenarios_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(DEEP_JSON, encoding="utf-8")
    result = run_cli(capsys, "scenarios", "--scenario-file", str(path))
    assert_input_error(result, "invalid JSON")


# numeric flags take plain ASCII numbers only, as CSV cells do: no PEP 515
# underscores, no fullwidth or Arabic-Indic digits; argparse rejects the
# rest with SystemExit(2) before any command runs
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rate", "--no-such-flag"], id="unknown-flag"),
        pytest.param(
            ["rate", "--survey", SURVEY, "--max-iter", "1_000"], id="max-iter"
        ),
        pytest.param(["rate", "--survey", SURVEY, "--alpha", "0_8"], id="alpha"),
        pytest.param(["rate", "--survey", SURVEY, "--tol", "\uff15e-3"], id="tol"),
        pytest.param(
            ["rate", "--competence-csv", "m.csv", "--ratings-csv", "r.csv"]
            + ["--scale", "\u0661", "\u0665"],
            id="scale",
        ),
        pytest.param(
            ["dispersion", "--ratings-csv", CLARITY, "--min-n", "\u0665"], id="min-n"
        ),
    ],
)
def test_unknown_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag, text, value",
    [("--alpha", " 0.9 ", 0.9), ("--max-iter", "2000", 2000)],
    ids=["alpha", "max-iter"],
)
def test_plain_number_flags_are_read(capsys, flag, text, value):
    code, out, _ = run_cli(capsys, "rate", "--survey", SURVEY, flag, text)
    assert code == 0
    assert json.loads(out)["config"][flag[2:].replace("-", "_")] == value


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "classrank.cli", "scenarios"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == 1
