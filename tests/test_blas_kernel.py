"""The same report bytes under another BLAS kernel.

OpenBLAS picks its kernels by CPU, and the ``OPENBLAS_CORETYPE`` variable
overrides that choice when the library loads; kernels for different CPUs
round a dot product differently. This test renders the same inputs in this
process and in a child interpreter started with ``OPENBLAS_CORETYPE``
set to ``Prescott``, an old kernel that no current CPU selects by default,
and asserts byte equality. Where numpy's BLAS is not OpenBLAS the variable
is ignored, so the test passes trivially there.

Run as a script, this file writes the rendering to stdout.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from classrank import rate_survey, validate_survey
from classrank.cli import main
from classrank.data import example_survey_path, scenario_fixture_path
from classrank.report import rating_report_dict
from oracles import random_binary_matrix


def _surveys():
    """Seeded surveys: 200 classes of 10 to 100 students with Likert
    ratings, then one sparse class of 1500 with about four endorsements a
    row."""
    rng = np.random.default_rng(2013)
    for _ in range(200):
        n = int(rng.integers(10, 101))
        matrix = random_binary_matrix(rng, n, rng.uniform(0.05, 0.5))
        yield validate_survey(rng.integers(1, 6, n).tolist(), matrix)
    n = 1500
    yield validate_survey(
        rng.integers(1, 6, n).tolist(), random_binary_matrix(rng, n, 4 / n)
    )


def render() -> str:
    """One line an input: its name and the SHA-256 of its report bytes."""
    lines = []
    for argv in (
        ["rate", "--survey", str(example_survey_path())],
        ["scenarios", "--scenario-file", str(scenario_fixture_path())],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        lines.append(f"{argv[0]} {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    for index, survey in enumerate(_surveys()):
        report = json.dumps(rating_report_dict(rate_survey(survey), {})).encode()
        lines.append(f"survey {index} n={survey.n} {hashlib.sha256(report).hexdigest()}")
    return "\n".join(lines) + "\n"


def test_reports_keep_their_bytes_under_another_blas_kernel():
    proc = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == render().splitlines()


if __name__ == "__main__":
    sys.stdout.write(render())
