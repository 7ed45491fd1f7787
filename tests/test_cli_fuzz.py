"""Fuzzing the command line with arbitrary documents.

Whatever the input file holds, ``classrank`` must end with one of the
documented exit codes (0 ok, 2 invalid input, 3 degenerate network, 4 no
convergence), never with a traceback, and every failure must be reported
on exactly one ``error:`` line. A report must be strict JSON, with no
``NaN`` or ``Infinity``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classrank.cli import main

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

numbers = st.one_of(
    st.integers(-3, 7),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
cells = st.sampled_from([0, 1, None]) | json_values
walk_flags = st.sampled_from(
    [
        [],
        ["--max-iter", "1"],
        ["--alpha", "1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
        ["--alpha", "0"],
    ]
)
# CSV text: anything writable as UTF-8, or rows of numbers and words under
# one of the two dispersion headers or a matrix row
writable = st.characters(blacklist_categories=("Cs",))
csv_cells = numbers.map(str) | st.text(writable, max_size=4)
csv_text = st.text(writable) | st.builds(
    lambda header, rows: "\n".join([header] + [",".join(row) for row in rows]),
    st.sampled_from(["label,rating", "label,n,mode,dev2,dev3plus", "0,1"]),
    st.lists(st.lists(csv_cells, max_size=6), max_size=6),
)


def matrices(n):
    """Mostly square 0/1/null matrices, sometimes ragged or not a matrix."""
    binary = st.sampled_from([0, 1, None])
    return st.one_of(
        st.lists(st.lists(binary, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(cells, max_size=n + 1), max_size=n + 1),
        json_values,
    )


def ratings(n):
    return st.lists(st.integers(0, 6) | numbers, min_size=n, max_size=n) | json_values


optional_keys = {
    "scale": st.just([1, 5]) | st.lists(numbers, min_size=2, max_size=2) | json_values,
    "label": json_values,
}


def survey_document(n):
    return st.fixed_dictionaries(
        {"ratings": ratings(n), "competence": matrices(n)}, optional=optional_keys
    )


def scenario_document(n):
    entry = st.fixed_dictionaries(
        {"competence": matrices(n)}, optional={"id": st.integers(0, 3) | json_values}
    )
    return st.fixed_dictionaries(
        {
            "ratings": ratings(n),
            "biased_index": st.integers(-1, n) | json_values,
            "scenarios": st.lists(entry | json_values, max_size=3) | json_values,
        },
        optional=optional_keys,
    )


# class sizes 1 to 4, or any JSON value at all
survey_documents = st.one_of([survey_document(n) for n in range(1, 5)] + [json_values])
scenario_documents = st.one_of(
    [scenario_document(n) for n in range(1, 5)] + [json_values]
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


def check_outcome(code, out, err):
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code == 0:
        json.loads(out, parse_constant=reject_constant)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def write_json(path, document):
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


@FUZZ
@given(document=survey_documents, flags=walk_flags)
def test_rate_survey_document(workdir, document, flags):
    survey = write_json(workdir / "survey.json", document)
    check_outcome(*run(["rate", "--survey", survey, *flags]))


@FUZZ
@given(document=scenario_documents, flags=walk_flags)
def test_scenarios_document(workdir, document, flags):
    bundle = write_json(workdir / "bundle.json", document)
    check_outcome(*run(["scenarios", "--scenario-file", bundle, *flags]))


@FUZZ
@given(matrix=csv_text, ratings_text=csv_text, flags=walk_flags)
def test_rate_csv_pair(workdir, matrix, ratings_text, flags):
    matrix_path = workdir / "matrix.csv"
    matrix_path.write_text(matrix, encoding="utf-8")
    ratings_path = workdir / "ratings.csv"
    ratings_path.write_text(ratings_text, encoding="utf-8")
    argv = ["rate", "--competence-csv", str(matrix_path)]
    check_outcome(*run([*argv, "--ratings-csv", str(ratings_path), *flags]))


@FUZZ
@given(text=csv_text | st.binary())
def test_dispersion_csv(workdir, text):
    path = workdir / "dispersion.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    check_outcome(*run(["dispersion", "--ratings-csv", str(path)]))
