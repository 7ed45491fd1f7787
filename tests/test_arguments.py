"""One rule per argument kind, whichever entry point takes the argument:
integers, labels, ratings, the competence network of the weighting
functions, and the defaults the library and the parser share."""

import inspect
import re
from importlib import import_module

import numpy as np
import pytest

import classrank
from classrank import (
    CompetenceMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedInput,
    RatingVector,
    ScaleViolation,
    Scenario,
    SurveyInstance,
    degree_weights,
    dispersion_row,
    eigenfactor_weights,
    inject_bias,
    load_scenarios,
    load_survey_json,
    read_dispersion_csv,
    stationary_distribution,
    validate_survey,
)
from classrank.cli import REPORTED_SETTINGS
from classrank.data import clarity_counts_path

PAIR = [[0, 1], [1, 0]]


def _bundle(sid=1, **change):
    scenarios = [{"id": sid, "competence": PAIR}]
    return {"ratings": [4, 5], "biased_index": 0, "scenarios": scenarios, **change}


def _max_iter(value):
    return stationary_distribution(CompetenceMatrix(PAIR), max_iter=value)


def _min_n(value):
    return read_dispersion_csv(clarity_counts_path(), min_n=value)


def _biased_index(value):
    return Scenario(id=1, survey=validate_survey([4, 5], PAIR), biased_index=value)


def _bundle_id(value):
    return load_scenarios(_bundle(sid=value))


def _inject_bias_index(value):
    return inject_bias(RatingVector([3, 4]), value, 5)


# each integer argument: its entry point called with the value, a valid
# value, and the error class and message its refusal raises
INTEGERS = {
    "max_iter": (_max_iter, 1000, ValueError, "max_iter must be an integer, got {}"),
    "min_n": (_min_n, 5, ValueError, "min_n must be an integer, got {}"),
    "biased_index": (
        _biased_index,
        1,
        IndexOutOfRange,
        "biased index must be an integer, got {}",
    ),
    "bundle-id": (_bundle_id, 1, MalformedInput, "scenario #1 id must be an integer"),
    "inject_bias-index": (
        _inject_bias_index,
        0,
        IndexOutOfRange,
        "index must be an integer, got {}",
    ),
}


@pytest.mark.parametrize("name", INTEGERS)
def test_every_integer_argument_follows_one_rule(name):
    # min_n took np.array(5) through operator.index, which every other
    # integer argument refused
    call, valid, error, message = INTEGERS[name]
    assert call(np.int64(valid)) is not None
    for value in (np.array(valid), True, float(valid)):
        with pytest.raises(error, match=f"^{re.escape(message.format(repr(value)))}$"):
            call(value)


LABELLED = {
    "validate_survey": lambda: validate_survey([4, 5], PAIR, label=5),
    "SurveyInstance": lambda: SurveyInstance(
        RatingVector([4, 5]), CompetenceMatrix(PAIR), 5
    ),
    "load_survey_json": lambda: load_survey_json(
        {"label": 5, "ratings": [4, 5], "competence": PAIR}
    ),
    # outside the scenario <id>: prefix, since the bundle label is one
    "load_scenarios": lambda: load_scenarios(_bundle(label=5)),
}


@pytest.mark.parametrize("entry", LABELLED)
def test_every_entry_point_refuses_a_label_that_is_not_a_string(entry):
    # validate_survey and SurveyInstance wrote "label": 5 into the report
    with pytest.raises(MalformedInput, match="^label must be a string: found 5$"):
        LABELLED[entry]()


RATED = {
    "RatingVector": RatingVector,
    "dispersion_row": lambda ratings: dispersion_row("x", ratings),
}


@pytest.mark.parametrize(
    "ratings, message",
    [
        ([True, True, 3], "ratings must be real numbers: found True"),
        ([1, True], "ratings must be real numbers: found True"),
        ([4, "4"], "ratings must be real numbers: found '4'"),
        ([float("nan"), 4], "ratings must be finite numbers"),
        ([4, -float("inf")], "ratings must be finite numbers"),
    ],
    ids=["bools", "bool-after-one", "string", "nan", "infinity"],
)
@pytest.mark.parametrize("entry", RATED)
def test_every_entry_point_refuses_a_rating_that_is_not_a_finite_real(
    entry, ratings, message
):
    # dispersion_row took True as a mode, counted it as a 1, returned a NaN
    # mode or raised a bare TypeError
    with pytest.raises(ScaleViolation, match=f"^{re.escape(message)}$"):
        RATED[entry](ratings)


# each weighting function, called with what should be its CompetenceMatrix
WEIGHTINGS = {
    "degree_weights": degree_weights,
    "stationary_distribution": stationary_distribution,
    "eigenfactor_weights": lambda matrix: eigenfactor_weights(np.full(2, 0.5), matrix),
}


@pytest.mark.parametrize("name", WEIGHTINGS)
def test_every_weighting_function_refuses_a_raw_matrix(name):
    # each failed on a missing attribute with a bare AttributeError
    for matrix in (np.array(PAIR), PAIR):
        kind = type(matrix).__name__
        message = f"^competence must be a CompetenceMatrix, got {kind}$"
        with pytest.raises(DimensionMismatch, match=message):
            WEIGHTINGS[name](matrix)


def test_library_defaults_are_the_reported_settings():
    # the library's signatures and the parser take each default from one name;
    # CompetenceMatrix defaults to reject on purpose, and is not a function
    functions = [
        value
        for home in classrank._EXPORTS
        for value in vars(import_module(f"classrank.{home}")).values()
        if inspect.isfunction(value) and value.__module__ == f"classrank.{home}"
    ]
    defaults = {
        (function.__name__, parameter.name): parameter.default
        for function in functions
        for parameter in inspect.signature(function).parameters.values()
        if parameter.default is not parameter.empty
    }
    setting = {"tiebreak": "mode_tiebreak"}
    checked = set()
    for (function, name), default in defaults.items():
        reported = setting.get(name, name)
        if reported in REPORTED_SETTINGS:
            assert default == REPORTED_SETTINGS[reported], (function, name)
            checked.add((function, name))
    assert {
        ("validate_survey", "diagonal_policy"),
        ("load_survey_json", "diagonal_policy"),
        ("load_scenarios", "diagonal_policy"),
        ("dispersion_row", "tiebreak"),
        ("read_dispersion_csv", "tiebreak"),
    } <= checked
