"""Argument rules, defaults and plain-text readers shared across the package.

This module imports no numpy: the CLI parser and ``classrank dispersion``
need only what is here, so they run without loading the numeric pipeline.
It holds the one rule for each kind of numeric argument, ``_integer`` and
``_real`` (with ``_check_count`` for an integer of at least 1 and
``_unreal`` for the ratings of a list), the one rule for a CSV cell,
``_cell``, which every CSV reader parses its cells through, and every
default: those the parser shows, the dispersion ones too, so parsing
loads no command's module, and those the library's signatures take. A
module that uses one of these names also has it under its own name:
``survey`` the scale, policy and reader names, ``eigenfactor`` the solver
defaults, ``dispersion`` ``DEFAULT_MIN_N`` and ``TIEBREAKS``, and
``report`` ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from itertools import filterfalse

from .errors import MalformedInput

DEFAULT_SCALE = (1.0, 5.0)
DIAGONAL_POLICIES = ("coerce", "reject")
DEFAULT_DIAGONAL_POLICY = "coerce"
DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1000
SCHEMA_VERSION = 1
DEFAULT_MIN_N = 5
TIEBREAKS = ("smallest", "largest")
DEFAULT_TIEBREAK = "smallest"
# the types of Python numbers, matched exactly: bool is a subclass of int
_NUMBERS = frozenset((int, float))


# a Python int or float is matched by the tuple's first types, before the
# ABC check; numpy registers its integer and floating scalars with numbers
def _integer(value) -> bool:
    """Whether ``value`` is an integer (numpy's too), not a bool."""
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _real(value) -> bool:
    """Whether ``value`` is a real number (numpy's too), not a bool."""
    return isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)


def _unreal(values):
    """The entries of a list or tuple that are not real numbers (``_real``),
    lazily, in order. A list of Python ints and floats has none, which one
    C-level scan of its entries' types shows with no test of each entry."""
    return () if _NUMBERS.issuperset(map(type, values)) else filterfalse(_real, values)


def _check_count(value, name: str) -> None:
    """Raise ValueError unless ``value``, the ``name`` of the caller's
    argument, is an integer (``_integer``) of at least 1."""
    if not _integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


@contextmanager
def _csv_reader(path):
    """A csv reader over a UTF-8 file, closed on leaving the block. A
    leading byte-order mark, as spreadsheets write, is skipped.

    A file that is not UTF-8, or that the csv module cannot split (a field
    longer than its field size limit, say), raises MalformedInput.
    """
    # imported here: only the CSV readers need it, not rate --survey or
    # scenarios
    import csv

    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            yield csv.reader(handle)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise MalformedInput(f"unreadable CSV {path}: {exc}") from exc


def number(text: str, kind=float):
    """``kind(text)``, float by default, for a plain ASCII number.

    ``int()`` and ``float()`` also read ``0_1`` (PEP 515) and digits such
    as ``٤`` or ``４``. A number in a CSV file or a command-line flag is
    plain ASCII inside optional surrounding whitespace; anything else
    raises ValueError. As an argparse ``type`` its name makes the usage
    error read ``invalid number value: '٥'``.
    """
    if "_" in text or not (text.isascii() or text.strip().isascii()):
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def _cell(text: str, path, what: str, kind=float):
    """``number(text, kind)`` for a cell of the CSV file ``path``. A cell
    that is not a plain ASCII number raises MalformedInput naming ``what``
    the cell holds, the cell and the file: ``non-numeric rating '4x' in
    r.csv``, or ``non-integer rating 'x' in f.csv`` for ``kind=int``."""
    try:
        return number(text, kind)
    except ValueError as exc:
        adjective = "non-integer" if kind is int else "non-numeric"
        raise MalformedInput(f"{adjective} {what} {text!r} in {path}") from exc


def integer(text: str) -> int:
    """``number(text)`` read by ``int()``: a plain ASCII integer."""
    return number(text, int)


def _records(reader, path, width: int | None, ragged: str, empty: str):
    """The records of ``reader`` that are not blank, each ``width`` cells wide.

    A record whose cells hold only whitespace is skipped. When ``width`` is
    None the first record kept sets it. A record of another width raises
    MalformedInput ``f"{ragged} in {path}"``, and a reader that runs out
    with no record kept ``f"{empty} in {path}"``.
    """
    kept = 0
    for record in reader:
        if not "".join(record).strip():
            continue
        if width is None:
            width = len(record)
        if len(record) != width:
            raise MalformedInput(f"{ragged} in {path}")
        kept += 1
        yield record
    if not kept:
        raise MalformedInput(f"{empty} in {path}")
