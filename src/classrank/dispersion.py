"""Mode-anchored dispersion counts for per-course rating lists.

For each course the anchor is the modal rating; ratings are then bucketed by
their absolute deviation from it. The buckets of interest are deviation
exactly 2 and deviation 3 or more, aggregated across courses as percentages
of all ratings.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass

from .errors import EmptyInput, MalformedInput
from .survey import _csv_reader

TIEBREAKS = ("smallest", "largest")
LONG_HEADER = ("label", "rating")
COUNT_HEADER = ("label", "n", "mode", "dev2", "dev3plus")

DEFAULT_MIN_N = 5


@dataclass(frozen=True)
class InstructorRecord:
    """All integer ratings received by one instructor."""

    label: str
    ratings: tuple[int, ...]

    def __post_init__(self):
        if len(self.ratings) == 0:
            raise EmptyInput(f"no ratings for {self.label!r}")

    @property
    def n(self) -> int:
        return len(self.ratings)


@dataclass(frozen=True)
class DispersionRow:
    label: str
    n: int
    mode: int
    dev2: int
    dev3plus: int


@dataclass(frozen=True)
class DispersionAggregate:
    total_n: int
    total_dev2: int
    total_dev3plus: int
    pct_dev2: float
    pct_dev3plus: float
    pct_dev2plus: float


def mode_of(ratings, tiebreak: str = "smallest") -> int:
    """Most frequent value; ties resolved to the smallest or largest value."""
    if tiebreak not in TIEBREAKS:
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    values = list(ratings)
    if not values:
        raise EmptyInput("mode of an empty rating list")
    counts = Counter(values)
    top = max(counts.values())
    tied = [value for value, count in counts.items() if count == top]
    return min(tied) if tiebreak == "smallest" else max(tied)


def dispersion_row(record: InstructorRecord, tiebreak: str = "smallest") -> DispersionRow:
    """Count ratings at deviation 2 and at deviation >= 3 from the mode."""
    anchor = mode_of(record.ratings, tiebreak=tiebreak)
    deviations = [abs(r - anchor) for r in record.ratings]
    return DispersionRow(
        label=record.label,
        n=record.n,
        mode=anchor,
        dev2=sum(1 for d in deviations if d == 2),
        dev3plus=sum(1 for d in deviations if d >= 3),
    )


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


def _parse_int(cell: str, what: str, path) -> int:
    try:
        return int(cell)
    except ValueError as exc:
        raise MalformedInput(f"non-integer {what} {cell!r} in {path}") from exc


def read_dispersion_csv(
    path,
    min_n: int = DEFAULT_MIN_N,
    tiebreak: str = "smallest",
) -> tuple[list[DispersionRow], list[str]]:
    """Read either accepted CSV form and apply the minimum-count filter.

    The form is auto-detected from the header: ``label,rating`` holds one
    rating per line (long form), ``label,n,mode,dev2,dev3plus`` holds
    pre-counted rows. Returns the retained rows plus the labels excluded for
    having fewer than ``min_n`` ratings.
    """
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInput(f"empty CSV {path}") from None
        header = tuple(cell.strip().lower() for cell in header)
        if header == LONG_HEADER:
            rows = _read_long_form(reader, path, tiebreak)
        elif header == COUNT_HEADER:
            rows = _read_counted_form(reader, path)
        else:
            raise MalformedInput(
                f"unrecognized header {header!r} in {path}; expected "
                f"{','.join(LONG_HEADER)} or {','.join(COUNT_HEADER)}"
            )
    kept = [row for row in rows if row.n >= min_n]
    excluded = [row.label for row in rows if row.n < min_n]
    return kept, excluded


def _read_long_form(reader, path, tiebreak) -> list[DispersionRow]:
    by_label: OrderedDict[str, list[int]] = OrderedDict()
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != 2:
            raise MalformedInput(f"expected label,rating rows in {path}")
        label = record[0].strip()
        rating = _parse_int(record[1].strip(), "rating", path)
        by_label.setdefault(label, []).append(rating)
    if not by_label:
        raise MalformedInput(f"no data rows in {path}")
    return [
        dispersion_row(
            InstructorRecord(label=label, ratings=tuple(values)),
            tiebreak=tiebreak,
        )
        for label, values in by_label.items()
    ]


def _read_counted_form(reader, path) -> list[DispersionRow]:
    rows = []
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != 5:
            raise MalformedInput(
                f"expected label,n,mode,dev2,dev3plus rows in {path}"
            )
        label = record[0].strip()
        n = _parse_int(record[1], "count", path)
        mode = _parse_int(record[2], "mode", path)
        dev2 = _parse_int(record[3], "count", path)
        dev3plus = _parse_int(record[4], "count", path)
        if n < 1 or dev2 < 0 or dev3plus < 0:
            raise MalformedInput(f"negative or empty counts for {label!r} in {path}")
        if dev2 + dev3plus > n:
            raise MalformedInput(
                f"deviation counts exceed n for {label!r} in {path}"
            )
        rows.append(
            DispersionRow(label=label, n=n, mode=mode, dev2=dev2, dev3plus=dev3plus)
        )
    if not rows:
        raise MalformedInput(f"no data rows in {path}")
    return rows
