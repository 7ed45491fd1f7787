"""Mode-anchored dispersion counts for per-course rating lists.

For each course the anchor is the modal rating; ratings are then bucketed by
their absolute deviation from it. The buckets of interest are deviation
exactly 2 and deviation 3 or more, aggregated across courses as percentages
of all ratings. A course's counts are a ``DispersionRow`` and the pooled
totals a ``DispersionAggregate``: both are named tuples, so the report takes
each one's fields, in declaration order, from its ``_asdict()``.
"""

import math
from collections import Counter, namedtuple

from .common import DEFAULT_MIN_N, DEFAULT_TIEBREAK, SCHEMA_VERSION, TIEBREAKS
from .common import _cell, _check_count, _csv_reader, _records, _unreal
from .errors import EmptyInput, MalformedInput, ScaleViolation

LONG_HEADER = ("label", "rating")
COUNT_HEADER = ("label", "n", "mode", "dev2", "dev3plus")


DispersionRow = namedtuple("DispersionRow", "label n mode dev2 dev3plus")
DispersionAggregate = namedtuple(
    "DispersionAggregate",
    "total_n total_dev2 total_dev3plus pct_dev2 pct_dev3plus pct_dev2plus",
)


def dispersion_row(
    label: str, ratings, tiebreak: str = DEFAULT_TIEBREAK
) -> DispersionRow:
    """Count ratings at deviation 2 and at deviation >= 3 from the mode.

    The mode is the most frequent rating, ties resolved to the smallest or
    the largest value by ``tiebreak``. One count per rating value gives n,
    the mode and both buckets.

    Every rating must be a real number (Python's or numpy's, not a bool)
    and finite, else ScaleViolation, as for a RatingVector. A list or tuple
    of Python ints and floats passes on one scan of its entries' types, and
    any other iterable is read into a list first; finiteness is checked on
    the distinct values. The checks come in this order: an unknown
    ``tiebreak`` (ValueError), a rating that is not a real number, no
    ratings at all (EmptyInput), a rating that is not finite.
    """
    if tiebreak not in TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    ratings = ratings if isinstance(ratings, (list, tuple)) else list(ratings)
    for rating in _unreal(ratings):
        raise ScaleViolation(f"ratings must be real numbers: found {rating!r}")
    counts = Counter(ratings)
    if not counts:
        raise EmptyInput(f"no ratings for {label!r}")
    # a comparison, not math.isfinite, which cannot convert a huge int
    if not all(-math.inf < value < math.inf for value in counts):
        raise ScaleViolation("ratings must be finite numbers")
    return _row_from_counts(label, counts, tiebreak)


def _row_from_counts(label: str, counts: Counter, tiebreak: str) -> DispersionRow:
    """``dispersion_row`` on the nonempty ``counts`` of finite real ratings,
    under a known ``tiebreak``, checking none of that again."""
    top = max(counts.values())
    tied = [value for value, count in counts.items() if count == top]
    anchor = min(tied) if tiebreak == "smallest" else max(tied)
    dev2 = counts[anchor - 2] + counts[anchor + 2]
    dev3plus = sum(count for value, count in counts.items() if abs(value - anchor) >= 3)
    return DispersionRow(label, sum(counts.values()), anchor, dev2, dev3plus)


def aggregate(rows) -> DispersionAggregate:
    """Pool rows into whole-corpus percentages of all ratings."""
    rows = list(rows)
    if not rows:
        raise EmptyInput("no dispersion rows to aggregate")
    total_n = sum(row.n for row in rows)
    if total_n <= 0:
        raise EmptyInput("dispersion rows hold no ratings")
    total_dev2 = sum(row.dev2 for row in rows)
    total_dev3plus = sum(row.dev3plus for row in rows)
    return DispersionAggregate(
        total_n=total_n,
        total_dev2=total_dev2,
        total_dev3plus=total_dev3plus,
        pct_dev2=100 * total_dev2 / total_n,
        pct_dev3plus=100 * total_dev3plus / total_n,
        pct_dev2plus=100 * (total_dev2 + total_dev3plus) / total_n,
    )


def read_dispersion_csv(
    path,
    min_n: int = DEFAULT_MIN_N,
    tiebreak: str = DEFAULT_TIEBREAK,
) -> tuple[list[DispersionRow], list[str]]:
    """Read either accepted CSV form and apply the minimum-count filter.

    The form is auto-detected from the header: ``label,rating`` holds one
    rating per line (long form), ``label,n,mode,dev2,dev3plus`` holds
    pre-counted rows, one per label. Returns the retained rows plus the
    labels excluded for having fewer than ``min_n`` ratings.

    ``min_n`` (an integer of at least 1, Python's or numpy's, not a bool)
    and ``tiebreak`` are checked before the file is opened. The long form
    is streamed into one list of ratings per label.
    """
    _check_count(min_n, "min_n")
    if tiebreak not in TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise MalformedInput(f"empty CSV {path}")
        header = tuple(cell.strip().lower() for cell in header)
        expected = f"expected {','.join(header)} rows"
        records = _records(reader, path, len(header), expected, "no data rows")
        if header == LONG_HEADER:
            rows = _long_rows(records, path, tiebreak)
        elif header == COUNT_HEADER:
            rows = _counted_rows(records, path)
        else:
            raise MalformedInput(
                f"unrecognized header {header!r} in {path}; expected "
                f"{','.join(LONG_HEADER)} or {','.join(COUNT_HEADER)}"
            )
    kept = [row for row in rows if row.n >= min_n]
    excluded = [row.label for row in rows if row.n < min_n]
    return kept, excluded


def _long_rows(records, path, tiebreak: str) -> list[DispersionRow]:
    """One row per stripped label, in first-appearance order.

    Each distinct rating cell is parsed once: a file repeats the same few on
    every line. Every rating read is held until the file ends, those of
    labels later excluded below ``min_n`` too; each label's list is released
    once its row is counted. Each list holds one or more ints, and
    ``read_dispersion_csv`` has checked the tiebreak, so the lists are
    counted with none of ``dispersion_row``'s checks.
    """
    groups = {}  # stripped label -> its ratings
    values = {}  # raw rating cell -> its value, for the cells that parsed
    for label, rating in records:
        value = values.get(rating)
        if value is None:
            value = values[rating] = _cell(rating.strip(), path, "rating", int)
        groups.setdefault(label.strip(), []).append(value)
    labels = list(groups)
    return [
        _row_from_counts(label, Counter(groups.pop(label)), tiebreak) for label in labels
    ]


def _counted_rows(records, path) -> list[DispersionRow]:
    rows = {}
    for record in records:
        label = record[0].strip()
        cells = zip(record[1:], ("count", "mode", "count", "count"))
        n, mode, dev2, dev3plus = (_cell(cell, path, what, int) for cell, what in cells)
        if n < 1 or dev2 < 0 or dev3plus < 0:
            raise MalformedInput(f"negative or empty counts for {label!r} in {path}")
        if dev2 + dev3plus > n:
            raise MalformedInput(
                f"deviation counts exceed n for {label!r} in {path}"
            )
        if label in rows:
            raise MalformedInput(f"repeated label {label!r} in {path}")
        rows[label] = DispersionRow(label, n, mode, dev2, dev3plus)
    return list(rows.values())


def dispersion_report_dict(rows, aggregate, excluded, config: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "rows": [row._asdict() for row in rows],
        "aggregate": aggregate._asdict(),
        "excluded": list(excluded),
        "config": config,
    }
