"""The package namespace, and which commands import numpy."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import classrank
from classrank import common, data
from classrank.data import (
    clarity_counts_path,
    example_survey_path,
    scenario_fixture_path,
)

CHECKOUT = Path(__file__).parents[1]


def fresh(script, *args):
    """The stdout of ``script`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NUMPY_FREE = {
    "import": "import classrank, classrank.cli",
    "dispersion": (
        "import sys\n"
        "from classrank.cli import main\n"
        "code = main(['dispersion', '--ratings-csv', sys.argv[1], "
        "'--output', sys.argv[2]])\n"
        "assert code == 0, code\n"
    ),
}


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_runs_without_importing_numpy(tmp_path, name):
    # nor dataclasses, which brings inspect, ast, dis and tokenize with it
    report = tmp_path / "report.json"
    script = NUMPY_FREE[name] + (
        "\nimport sys\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    assert fresh(script, clarity_counts_path(), report) == "[]\n"
    assert report.exists() == (name == "dispersion")


def test_cli_import_leaves_the_bundled_data_unloaded():
    # the --scenario-file default is looked up when scenarios runs
    script = "import sys, classrank.cli\nprint('classrank.data' in sys.modules)"
    assert fresh(script) == "False\n"



def test_rate_leaves_the_thread_pool_unloaded(tmp_path):
    # only a matrix of more than one block (n > 512) imports
    # concurrent.futures for its second scanner
    script = (
        "import sys\n"
        "from classrank.cli import main\n"
        "assert main(['rate', '--survey', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "print('concurrent.futures' in sys.modules)"
    )
    assert fresh(script, example_survey_path(), tmp_path / "report.json") == "False\n"


@pytest.mark.parametrize("command", ["rate", "scenarios"])
def test_numeric_commands_leave_the_dispersion_module_unloaded(tmp_path, command):
    # each command imports its own modules when it runs; the parser's
    # dispersion defaults live in common
    source = ["--survey", example_survey_path()] if command == "rate" else []
    script = (
        "import sys\n"
        "from classrank.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print('classrank.dispersion' in sys.modules)"
    )
    output = ["--output", tmp_path / "report.json"]
    assert fresh(script, command, *source, *output) == "False\n"


def test_scenarios_on_a_given_bundle_leaves_the_bundled_data_unloaded(tmp_path):
    # the bundled fixture is looked up only when --scenario-file is absent
    bundle = tmp_path / "bundle.json"
    bundle.write_text(scenario_fixture_path().read_text(encoding="utf-8"), "utf-8")
    script = (
        "import sys\n"
        "from classrank.cli import main\n"
        "assert main(['scenarios', '--scenario-file', sys.argv[1], "
        "'--output', sys.argv[2]]) == 0\n"
        "print('classrank.data' in sys.modules)"
    )
    assert fresh(script, bundle, tmp_path / "report.json") == "False\n"


def test_rate_on_a_survey_document_leaves_csv_unloaded(tmp_path):
    # only the CSV readers import csv
    survey = tmp_path / "survey.json"
    survey.write_text(example_survey_path().read_text(encoding="utf-8"), "utf-8")
    script = (
        "import sys\n"
        "from classrank.cli import main\n"
        "assert main(['rate', '--survey', sys.argv[1], "
        "'--output', sys.argv[2]]) == 0\n"
        "print('csv' in sys.modules)"
    )
    assert fresh(script, survey, tmp_path / "report.json") == "False\n"


def test_public_names_are_their_home_module_objects():
    for name in classrank.__all__:
        value = getattr(classrank, name)
        assert value.__module__.startswith("classrank.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_every_public_name():
    # in a fresh process, before any name is used and so cached
    script = "import classrank; print(set(classrank.__all__) - set(dir(classrank)))"
    assert fresh(script) == "set()\n"


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'classrank' has no attribute 'nope'"):
        classrank.nope


def test_csv_pair_has_no_wrapper_among_the_public_names():
    # the two CSV readers feed validate_survey, which takes the label too
    assert len(classrank.__all__) == 33
    with pytest.raises(AttributeError):
        classrank.load_survey_csv


def test_names_moved_to_common_keep_their_old_import_paths():
    from classrank import dispersion, eigenfactor, report, survey

    # the names each old home still uses itself
    olds = {
        survey: (
            "DEFAULT_SCALE",
            "DIAGONAL_POLICIES",
            "_csv_reader",
            "_records",
        ),
        eigenfactor: ("DEFAULT_ALPHA", "DEFAULT_MAX_ITER", "DEFAULT_TOL"),
        report: ("SCHEMA_VERSION",),
        dispersion: ("DEFAULT_MIN_N", "TIEBREAKS"),
    }
    for module, names in olds.items():
        for name in names:
            assert getattr(module, name) is getattr(common, name)
    # a module the package used to import eagerly is still its attribute
    assert fresh("import classrank; print(classrank.report.SCHEMA_VERSION)") == "1\n"


def test_package_data_ships_with_the_package():
    # run against an installed package, this is what pip must have copied
    pyproject = (CHECKOUT / "pyproject.toml").read_text(encoding="utf-8")
    globs = re.search(
        r"^\[tool\.setuptools\.package-data\]\nclassrank = (.*)$", pyproject, re.M
    )
    sources = CHECKOUT / "src" / "classrank"
    installed = Path(classrank.__file__).parent
    # a TOML array of double-quoted strings is a JSON one
    for pattern in json.loads(globs[1]):
        files = sorted(sources.glob(pattern))
        assert files, pattern
        for path in files:
            shipped = installed / path.relative_to(sources)
            assert shipped.read_bytes() == path.read_bytes(), shipped
    # and every bundled file loads through its library reader
    readers = {
        "scenario_fixture_path": classrank.load_scenarios,
        "example_survey_path": classrank.load_survey_json,
        "helpfulness_counts_path": classrank.read_dispersion_csv,
        "clarity_counts_path": classrank.read_dispersion_csv,
    }
    paths = {name for name in vars(data) if name.endswith("_path") and name[0] != "_"}
    assert paths == set(readers)
    for name, reader in readers.items():
        reader(getattr(data, name)())
