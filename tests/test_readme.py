"""README runs as written: every example in it, and every option it names.

Each fenced block says its language. A ``python`` block is executed, a
``classrank`` line of an ``sh`` block goes through ``cli.main``, a ``json``
block without an ellipsis is loaded as a survey document or a scenario
bundle, and a ``csv`` block is read as dispersion input. The examples run
in a scratch directory that holds every input file they name, written from
the bundled data; a ``src/classrank/data/`` path is read through its
``classrank.data`` function, so an installed package is checked on its
shipped copy.
"""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from classrank import data, load_scenarios, load_survey_json, read_dispersion_csv
from classrank.cli import build_parser, main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
SHIPPED = {
    path().name: path
    for path in (
        data.scenario_fixture_path,
        data.example_survey_path,
        data.helpfulness_counts_path,
        data.clarity_counts_path,
    )
}
COMMANDS = [
    line
    for language, body in BLOCKS
    if language == "sh"
    for line in body.splitlines()
    if line.startswith("classrank ")
]
FLAG = re.compile(r"--[a-z][a-z-]*")


def _blocks(language: str) -> list[str]:
    return [body for kind, body in BLOCKS if kind == language]


@pytest.fixture
def examples(tmp_path, monkeypatch):
    """A working directory holding the input files README's examples name."""
    survey = json.loads(data.example_survey_path().read_text(encoding="utf-8"))
    files = {
        "s.json": data.example_survey_path().read_text(encoding="utf-8"),
        "my_bundle.json": data.scenario_fixture_path().read_text(encoding="utf-8"),
        "matrix.csv": "".join(
            ",".join(map(str, row)) + "\n" for row in survey["competence"]
        ),
        "ratings.csv": "".join(f"{rating}\n" for rating in survey["ratings"]),
        "my_ratings.csv": "label,rating\n"
        + "".join(f"{survey['label']},{rating}\n" for rating in survey["ratings"]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_block_says_its_language():
    # an untagged block would be run by none of the tests below
    assert {language for language, _ in BLOCKS} == {"sh", "json", "csv", "python"}


def test_library_example_runs(examples, capsys):
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(block, {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_runs(examples, capsys, line):
    argv = [
        str(SHIPPED[Path(arg).name]()) if arg.startswith("src/classrank/data/") else arg
        for arg in shlex.split(line, comments=True)[1:]
    ]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        code = exc.code
    assert code == 0, capsys.readouterr().err


def test_every_subcommand_has_an_example():
    assert {line.split()[1] for line in COMMANDS} == {"rate", "dispersion", "scenarios"}


def test_json_examples_load():
    documents = [json.loads(body) for body in _blocks("json") if "..." not in body]
    assert documents
    for document in documents:
        load = load_scenarios if "scenarios" in document else load_survey_json
        load(document)


def test_csv_examples_read(tmp_path):
    for number, body in enumerate(_blocks("csv")):
        path = tmp_path / f"{number}.csv"
        path.write_text(body, encoding="utf-8")
        rows, excluded = read_dispersion_csv(path, min_n=1)
        assert rows and not excluded


def test_command_line_section_names_every_option():
    section = README.split("\n## Command line\n")[1].split("\n## ")[0]
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    assert set(FLAG.findall(section)) == options
    assert set(FLAG.findall(README)) <= options
