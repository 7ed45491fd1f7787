"""The default reports against committed snapshots of their exact bytes.

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

Each command's stdout must equal its snapshot byte for byte: no step from
validation to report calls BLAS (see ``weighted_rating``), so the report
bytes do not depend on which kernel the CPU selects, and
``test_blas_kernel.py`` holds that. After a deliberate change, regenerate
each snapshot from the repository root with its command from ``CASES``::

    classrank rate --survey src/classrank/data/example_survey.json \\
        > tests/snapshots/rate_example_survey.json
    classrank scenarios > tests/snapshots/scenarios_default.json
    classrank scenarios --scenario-file tests/snapshots/edge_bundle.json \\
        --max-iter 1 > tests/snapshots/scenarios_edge_bundle.json
    classrank dispersion --ratings-csv src/classrank/data/dispersion_clarity.csv \\
        > tests/snapshots/dispersion_clarity.json
    classrank dispersion --ratings-csv src/classrank/data/dispersion_helpfulness.csv \\
        > tests/snapshots/dispersion_helpfulness.json
    classrank dispersion --ratings-csv tests/snapshots/dispersion_long.csv \\
        > tests/snapshots/dispersion_long.json
"""

from pathlib import Path

import pytest

from classrank.cli import main
from classrank.data import (
    clarity_counts_path,
    example_survey_path,
    helpfulness_counts_path,
)

SNAPSHOTS = Path(__file__).parent / "snapshots"

# each snapshot file and the command line whose stdout it holds
CASES = {
    "rate_example_survey.json": ["rate", "--survey", str(example_survey_path())],
    "scenarios_default.json": ["scenarios"],
    "scenarios_edge_bundle.json": [
        "scenarios",
        "--scenario-file",
        str(SNAPSHOTS / "edge_bundle.json"),
        "--max-iter",
        "1",
    ],
    "dispersion_clarity.json": [
        "dispersion",
        "--ratings-csv",
        str(clarity_counts_path()),
    ],
    "dispersion_helpfulness.json": [
        "dispersion",
        "--ratings-csv",
        str(helpfulness_counts_path()),
    ],
    "dispersion_long.json": [
        "dispersion",
        "--ratings-csv",
        str(SNAPSHOTS / "dispersion_long.csv"),
    ],
}


@pytest.mark.parametrize("snapshot, argv", CASES.items())
def test_report_matches_snapshot(capsys, snapshot, argv):
    assert main(argv) == 0
    expected = (SNAPSHOTS / snapshot).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
