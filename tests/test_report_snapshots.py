"""The default reports against committed snapshots of their schema and values.

``tests/snapshots/`` holds the stdout of ``classrank rate --survey
<example_survey.json>``, of ``classrank scenarios``, of ``classrank
scenarios --scenario-file edge_bundle.json --max-iter 1`` and of
``classrank dispersion`` on three CSVs: the two bundled ones, in the
counted form, and ``dispersion_long.csv``, in the long form. That bundle's
ratings give every scenario a zero baseline error, and its three networks
make one scenario degenerate, one fail to converge within one iteration
(eigenfactor only) and one a tie. The long-form CSV has a mode tie, a label
with surrounding spaces and a label below the default ``--min-n``. Report
changes that are not a ``SCHEMA_VERSION`` bump show up here.

Key order and every value that is not a float must match exactly. Floats may
move by a few units in the last place between numpy builds, since BLAS dot
kernels round differently, but never by more: a float on the rating scale or
below it (ratings, means, errors, weights, influence, residual) must lie
within ``ULPS`` ulp of the scale's top, 5.0, of its snapshot. A reduction
percentage is ``100 * (1 - error / err_mean)``, so its bound is that one
scaled by ``100 / err_mean``, using the smallest nonzero ``err_mean`` of the
snapshot.
"""

import json
import math
from pathlib import Path

import pytest

from classrank.cli import main
from classrank.data import (
    clarity_counts_path,
    example_survey_path,
    helpfulness_counts_path,
)

SNAPSHOTS = Path(__file__).parent / "snapshots"
ULPS = 4
RATING_TOL = ULPS * math.ulp(5.0)


def assert_matches(actual, expected, pct_tol, path="report"):
    if isinstance(expected, float):
        tol = pct_tol if path.endswith("_pct") else RATING_TOL
        assert isinstance(actual, float), path
        assert abs(actual - expected) <= tol, (path, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_matches(actual[key], value, pct_tol, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for index, value in enumerate(expected):
            assert_matches(actual[index], value, pct_tol, f"{path}[{index}]")
    else:
        # bool before int: True == 1, but the types differ
        assert type(actual) is type(expected) and actual == expected, path


@pytest.mark.parametrize(
    "snapshot, argv",
    [
        ("rate_example_survey.json", ["rate", "--survey", str(example_survey_path())]),
        ("scenarios_default.json", ["scenarios"]),
        (
            "scenarios_edge_bundle.json",
            [
                "scenarios",
                "--scenario-file",
                str(SNAPSHOTS / "edge_bundle.json"),
                "--max-iter",
                "1",
            ],
        ),
        (
            "dispersion_clarity.json",
            ["dispersion", "--ratings-csv", str(clarity_counts_path())],
        ),
        (
            "dispersion_helpfulness.json",
            ["dispersion", "--ratings-csv", str(helpfulness_counts_path())],
        ),
        (
            "dispersion_long.json",
            ["dispersion", "--ratings-csv", str(SNAPSHOTS / "dispersion_long.csv")],
        ),
    ],
)
def test_report_matches_snapshot(capsys, snapshot, argv):
    assert main(argv) == 0
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((SNAPSHOTS / snapshot).read_text(encoding="utf-8"))
    baselines = [row["err_mean"] for row in expected.get("results", ())]
    smallest = min((err for err in baselines if err > 0), default=math.inf)
    assert_matches(actual, expected, RATING_TOL * 100 / smallest)

