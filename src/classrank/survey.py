"""Survey domain types and ingestion.

A survey couples one rating per student with an n x n binary matrix of
student-to-student competence perceptions: entry (i, j) is 1 when student i
considers student j competent to judge the course. The diagonal is zero and
blank answers count as "not competent". Validation checks that matrix once
and keeps only its row-normalized endorsements as compressed rows (each
endorsement's target, each student's endorsement count and share), the
shared input of both weighting methods; no n x n array outlives it.

The document and CSV loaders hand validation one byte per cell: a grid of
0/1 cells (JSON integers and nulls, or CSV ``0``, ``1`` and empty cells) is
packed into a single read-only uint8 buffer instead of being converted to
an n x n int64 or float64 array. Any other cell (``1.0``, ``2``, ``300``
and so on) sends its grid down the general path through ``np.asarray`` or
``float()``, so it is accepted or rejected as before, never truncated.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Set
from dataclasses import InitVar, dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .common import DEFAULT_DIAGONAL_POLICY, DEFAULT_SCALE, DIAGONAL_POLICIES
from .common import _NUMBERS, _cell, _csv_reader, _real, _records, _unreal
from .errors import (
    DimensionMismatch,
    MalformedInput,
    NonBinaryEntry,
    NonZeroDiagonal,
    ScaleViolation,
)

# the competence CSV cells packed as they are; any other cell is parsed
_CSV_CELLS = {"0": 0, "1": 1, "": 0}
# cells per block of whole rows in the competence matrix scan, one block for
# n <= 512: at n = 3000 on a 2-vCPU Xeon VM, blocks of 2^18 to 2^20 cells
# scan as fast as a mask of the whole matrix, 2^14 is slower and 2^22 holds
# a mask 16x larger. A matrix of more than one block is scanned by two
# threads in blocks of half this size, so the masks live at once still hold
# 2^18 cells (twice that for a transposed matrix).
_BLOCK_CELLS = 1 << 18


def _float_ratings(raw) -> np.ndarray:
    """``raw`` as a new float array, once every entry is known to be a real
    number. A bool, a string or any other entry that is not raises
    ScaleViolation naming the first one, where numpy would read True as 1.0
    and "4" as 4.0; an entry that is itself a sequence raises
    DimensionMismatch, and an int past the float range ScaleViolation.

    An array passes or fails on its dtype alone (kinds i, u and f pass),
    except an object array, whose entries are scanned like a list's. A list
    or tuple of Python floats and ints passes on one scan of its entries'
    types; only other entries (numpy scalars, Fractions) are tested one by
    one.
    """
    if isinstance(raw, (list, tuple)):
        entries = raw
    else:
        raw = np.asarray(raw)
        kind = raw.dtype.kind
        # bool, string, complex, time: no entry of such an array is real
        if kind not in "iufO" and raw.size:
            first = raw.ravel()[:1].tolist()[0]
            raise ScaleViolation(f"ratings must be real numbers: found {first!r}")
        entries = raw.ravel().tolist() if kind == "O" else ()
    # the first entry that is not a real number, if any, is refused
    for entry in _unreal(entries):
        # a list or tuple may be ragged, which np.ndim cannot read
        if isinstance(entry, (list, tuple)) or np.ndim(entry):
            raise DimensionMismatch("ratings must form a nonempty 1-d sequence")
        raise ScaleViolation(f"ratings must be real numbers: found {entry!r}")
    try:
        return np.array(raw, dtype=float)
    except OverflowError:  # an int past the float range
        raise ScaleViolation("ratings must be finite numbers") from None


def _mean(values: np.ndarray, what: str) -> float:
    """The mean of a nonempty float array, ``what`` naming it in the
    ScaleViolation raised when it is not finite: finite values can still
    sum past the float range, to an infinity or, both ways at once, to a
    NaN. The sum and division are ndarray.mean's own, without its Python
    wrapper, so the mean is bit for bit ndarray.mean's."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.add.reduce(values) / values.size)
    if not -np.inf < mean < np.inf:
        raise ScaleViolation(f"the mean of {what} overflows the float range")
    return mean


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _scan(entries: np.ndarray, start: int, stop: int, rows: int) -> list:
    """The flat indices of the nonzero cells of rows start..stop-1, one
    block of ``rows`` rows at a time, as a list of arrays in row order.
    ``stop - start`` is a multiple of ``rows`` unless ``stop`` is n."""
    n = entries.shape[1]
    blocks = []
    for first in range(start, stop, rows):
        cells = np.flatnonzero(entries[first : first + rows] != 0)
        if first:
            cells += first * n
        blocks.append(cells)
    return blocks


def _nonzero_cells(entries: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the cells of a square matrix that are not 0
    (every string cell), found one block of rows at a time so that no mask
    of the whole matrix is made, in either layout. A single block, every
    matrix up to n = 512, is returned as it is, with no offset, copy or
    thread.

    A larger matrix is split into two halves of blocks of ``_BLOCK_CELLS //
    2`` cells: the later half is a future of a one-worker ThreadPoolExecutor
    while the caller scans the first. Leaving the executor's block joins the
    helper whatever happens, and the future's result raises what the helper
    raised. numpy releases the GIL in both passes of a block (``!= 0`` and
    ``flatnonzero``) for every dtype but object, so the scan takes two
    cores; object cells give the same result on two threads, but no
    speed-up, since their comparisons hold the GIL.
    """
    n = entries.shape[0]
    rows = max(1, _BLOCK_CELLS // n)
    if rows >= n:
        return np.flatnonzero(entries != 0)
    rows = max(1, _BLOCK_CELLS // 2 // n)
    # the first half of the blocks, rounded up, stays with the caller; there
    # are at least two, so the helper gets at least one
    middle = (-(-n // rows) + 1) // 2 * rows
    # imported here: numpy does not load concurrent.futures, and a cold
    # import of it costs several ms that no one-block scan should pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="classrank-scan") as pool:
        later = pool.submit(_scan, entries, middle, n, rows)
        blocks = _scan(entries, 0, middle, rows)
    return np.concatenate(blocks + later.result())


@dataclass(frozen=True, eq=False)
class RatingVector:
    """Per-student ratings of one course on a finite, bounded scale.

    ``low``, ``high`` and ``mean`` are the smallest, largest and mean
    rating, taken once when the ratings are checked. A scale entry that is
    a bool, not a real number or past the float range, and ratings whose
    mean overflows the float range, raise ScaleViolation; the messages show
    the scale as given. So does a rating that is a bool, a string or any
    other value that is not a real number, or an int past the float range
    (see ``_float_ratings``). Once checked, the scale is kept as Python
    floats (a numpy scalar or an int too), which a report encodes as JSON.
    """

    values: np.ndarray
    scale_min: float = DEFAULT_SCALE[0]
    scale_max: float = DEFAULT_SCALE[1]
    low: float = field(init=False)
    high: float = field(init=False)
    mean: float = field(init=False)

    def __post_init__(self):
        values = _float_ratings(self.values)
        if values.ndim != 1 or values.size == 0:
            raise DimensionMismatch("ratings must form a nonempty 1-d sequence")
        if not (_real(self.scale_min) and _real(self.scale_max)):
            raise ScaleViolation(
                f"scale [{self.scale_min!r}, {self.scale_max!r}] must be two "
                "real numbers"
            )
        if not self.scale_min < self.scale_max:
            raise ScaleViolation(
                f"scale [{self.scale_min}, {self.scale_max}] is not an interval"
            )
        try:
            scale = float(self.scale_min), float(self.scale_max)
        except OverflowError:  # an int past the float range
            scale = (math.inf, math.inf)
        if not (math.isfinite(scale[0]) and math.isfinite(scale[1])):
            raise ScaleViolation(
                f"scale [{self.scale_min}, {self.scale_max}] must be finite"
            )
        # a NaN makes both extremes NaN and an infinity is an extreme, so the
        # two scalars decide both checks
        low, high = float(values.min()), float(values.max())
        if not -np.inf < low <= high < np.inf:
            raise ScaleViolation("ratings must be finite numbers")
        if low < self.scale_min or high > self.scale_max:
            raise ScaleViolation(
                f"ratings must lie in [{self.scale_min}, {self.scale_max}]"
            )
        mean = _mean(values, "the ratings")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "scale_min", scale[0])
        object.__setattr__(self, "scale_max", scale[1])
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "mean", mean)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class CompetenceMatrix:
    """Square 0/1 matrix of peer competence perceptions, kept as compressed rows.

    ``CompetenceMatrix(entries)`` checks the raw n x n matrix: nonempty and
    square, cells 0 or 1. It keeps only the endorsements, as compressed
    rows: ``targets`` lists whom each endorsement goes to, in row-major
    order, ``row_sums`` counts each student's endorsements, so student i's
    endorsements are the ``row_sums[i]`` targets after those of students
    0..i-1, and ``row_shares`` holds one over that count (0 for a student
    who endorses nobody, the dangling set): each endorsing student hands out
    a total of 1, and that is the row-normalized matrix. ``targets`` is the
    only array that grows with the number of endorsements; every sum over
    the matrix is a sum over them, O(nnz) rather than O(n^2). Its dtype is
    ``np.min_scalar_type(n - 1)``, the narrowest that holds an index: uint8
    (1 byte an endorsement) up to 256 students, uint16 (2 bytes) up to
    65 536, uint32 beyond. ``row_sums`` (intp) and ``row_shares`` (float64)
    are n wide and keep their dtypes.

    The source of each endorsement is ``np.arange(n).repeat(row_sums)`` and
    its share ``row_shares.repeat(row_sums)``, both in the order of
    ``targets``; no array of either is kept, nor the ``dangling`` set, which
    is read off ``row_sums`` on access.

    ``diagonal_policy`` decides the fate of self-endorsements, 1s on the
    diagonal, once every cell is 0 or 1: ``reject`` (the default) raises
    NonZeroDiagonal; ``coerce`` leaves their edges out, which copies nothing
    whatever the dtype, and lists their students in ``self_endorsers``.

    Validation reads the matrix once, in blocks of whole rows, to find the
    cells that are not 0, then checks only those cells to be 1. A matrix of
    more than one block (n > 512) is read by two scanners, the caller and
    the one worker of a ThreadPoolExecutor, each taking half of the blocks
    in blocks of half the size; object cells give the same edges that way
    but no speed-up, since their comparisons hold the GIL. Its scratch
    memory is the bool mask of one block, or of two half-size blocks (a
    matrix not in C order adds a C-ordered copy of each), plus O(nnz),
    whatever the layout: no n x n array of any dtype is made, and the
    worker is joined before validation returns or raises.
    """

    entries: InitVar[np.ndarray]
    diagonal_policy: InitVar[str] = "reject"
    targets: np.ndarray = field(init=False)
    row_sums: np.ndarray = field(init=False)
    row_shares: np.ndarray = field(init=False)
    self_endorsers: tuple[int, ...] = field(init=False)

    def __post_init__(self, entries, diagonal_policy):
        if diagonal_policy not in DIAGONAL_POLICIES:
            raise ValueError(f"unknown diagonal policy {diagonal_policy!r}")
        entries = np.asarray(entries)
        # first, so that [] (1-d) and [[]] are called empty, not non-square
        if entries.size == 0:
            raise DimensionMismatch("competence matrix must be nonempty")
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch("competence matrix must be square")
        n = entries.shape[0]
        # only the cells that are not 0 are read again, by a 2-d gather that
        # copies no transposed (F-ordered) matrix. The flat indices are a
        # temporary of divmod, so they are not live beside it.
        sources, targets = np.divmod(_nonzero_cells(entries), n)
        found = entries[sources, targets]
        invalid = found != 1
        if invalid.any():
            # the first bad cell as a plain Python value, whatever the dtype
            bad = found[invalid][:1].tolist()[0]
            raise NonBinaryEntry(f"matrix entries must be 0 or 1, found {bad!r}")
        # a target is an index below n: one byte up to 256 students, two up
        # to 65 536, not the eight of divmod's result, which is released here
        targets = targets.astype(np.min_scalar_type(n - 1))
        loops = sources == targets
        self_endorsers = sources[loops].tolist()
        if self_endorsers:
            if diagonal_policy == "reject":
                # the first ten, so that a looped class of thousands gives
                # one short error line
                more = len(self_endorsers) - 10
                raise NonZeroDiagonal(
                    f"self-endorsement at index {self_endorsers[:10]}"
                    + (f" and {more} more" if more > 0 else "")
                )
            sources, targets = sources[~loops], targets[~loops]
        counts = np.bincount(sources, minlength=n)
        # edges are in row-major order, so the sources are the run lengths
        # of counts: only the counts and one share a student outlive this call
        row_shares = np.divide(1.0, counts, out=np.zeros(n), where=counts > 0)
        object.__setattr__(self, "targets", _readonly(targets))
        object.__setattr__(self, "row_sums", _readonly(counts))
        object.__setattr__(self, "row_shares", _readonly(row_shares))
        object.__setattr__(self, "self_endorsers", tuple(self_endorsers))

    @property
    def n(self) -> int:
        return self.row_sums.size

    @property
    def dangling(self) -> frozenset[int]:
        """The students who endorse nobody, derived from ``row_sums``."""
        return frozenset(np.flatnonzero(self.row_sums == 0).tolist())


def _label(value) -> str:
    """``value``, once it is known to be a string: null, a number or a list
    raises MalformedInput, and is not turned into its repr."""
    if not isinstance(value, str):
        raise MalformedInput(f"label must be a string: found {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SurveyInstance:
    """A validated pair of ratings and competence matrix for one course.

    The label must be a string (``_label``), checked before the ratings
    count is matched with the matrix size.
    """

    ratings: RatingVector
    competence: CompetenceMatrix
    label: str = ""

    def __post_init__(self):
        _label(self.label)
        if self.ratings.n != self.competence.n:
            raise DimensionMismatch(
                f"{self.ratings.n} ratings vs {self.competence.n} students"
            )

    @property
    def n(self) -> int:
        return self.ratings.n

    @property
    def warnings(self) -> tuple[str, ...]:
        """One line naming the self-endorsements that were zeroed, if any
        (``competence.self_endorsers``)."""
        zeroed = list(self.competence.self_endorsers)
        return (f"zeroed diagonal entries at indices {zeroed}",) if zeroed else ()


def _rating_vector(raw_ratings, scale, strict_likert: bool = False) -> RatingVector:
    """The RatingVector of raw ratings on ``scale``, checked as
    validate_survey documents; a bundle calls it once for its shared
    ratings."""
    # a string or a number would switch the check on or off by its truth
    if not isinstance(strict_likert, bool):
        raise ValueError(f"strict_likert must be True or False, got {strict_likert!r}")
    try:
        # these unpack into characters, byte values, keys or an order that
        # is not the caller's, never a scale
        if isinstance(scale, (str, bytes, bytearray, Mapping, Set)):
            raise TypeError
        low, high = scale
    except (TypeError, ValueError):
        raise ScaleViolation(
            f"scale must be two numbers, low and high: got {scale!r}"
        ) from None
    ratings = RatingVector(raw_ratings, scale_min=low, scale_max=high)
    if strict_likert:
        fractional = ratings.values != np.floor(ratings.values)
        if fractional.any():
            raise ScaleViolation(
                f"non-integer rating {float(ratings.values[fractional][0])!r} "
                "with strict_likert enabled"
            )
    return ratings


def validate_survey(
    raw_ratings,
    raw_matrix,
    scale=DEFAULT_SCALE,
    diagonal_policy: str = DEFAULT_DIAGONAL_POLICY,
    strict_likert: bool = False,
    label: str = "",
) -> SurveyInstance:
    """Check raw survey arrays and build a SurveyInstance.

    ``diagonal_policy`` decides what happens to self-endorsements, the 1s on
    the diagonal: ``coerce`` zeroes them, which the survey's ``warnings``
    tell, ``reject`` raises NonZeroDiagonal; CompetenceMatrix applies it and
    makes every matrix check. ``strict_likert``, True or False, additionally
    requires every rating to be an integer. ``label`` must be a string.

    ``scale`` is exactly two real numbers (numpy's too, not bools), the
    lowest and the highest rating; any other length or entry raises
    ScaleViolation, and so does a string, bytes, a mapping or a set (the
    keys of a dict too), which are never unpacked into characters, byte
    values, keys or an unordered pair. ``_rating_vector`` is the only check
    of the scale and the ratings, whichever loader they come from.

    Errors come in this order: a ``strict_likert`` that is not a bool
    (ValueError), a scale that is not two values, the ratings' types and
    shape, the scale's entries, the ratings' values (finite, on the scale, a
    finite mean, ``strict_likert``), an unknown policy (ValueError), the
    matrix shape, its first cell other than 0 or 1 (NonBinaryEntry, under
    both policies), a self-endorsement under ``reject``, a label that is not
    a string (MalformedInput), and last a ratings count that does not match
    the matrix. The JSON loaders check the document's shape before they
    call this, so from them a bad scale or rating comes after the grid
    checks.

    Validation is idempotent: the zero-diagonal 0/1 matrix of a survey's
    edges validates again to the same edge list, with no warnings.
    """
    return SurveyInstance(
        _rating_vector(raw_ratings, scale, strict_likert),
        CompetenceMatrix(raw_matrix, diagonal_policy),
        label,
    )


def _read_document(source, kind: str, required: tuple[str, ...]) -> dict:
    """Parse a UTF-8 JSON document from a path, a leading byte-order mark
    skipped, or take an already-parsed dict.

    The document must be a JSON object holding every key in ``required``.
    """
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8-sig"))
        # decode errors are ValueErrors; nesting too deep for the parser
        # raises RecursionError
        except (ValueError, RecursionError) as exc:
            raise MalformedInput(f"invalid JSON in {source}: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise MalformedInput(f"{kind} document must be a JSON object")
    missing = [key for key in required if key not in data]
    if missing:
        raise MalformedInput(f"{kind} document lacks {missing}")
    return data


def _answers(row: list, kind: str) -> list:
    """A competence row with its null cells, "no answer", read as 0."""
    odd = [cell for cell in row if cell is not None and type(cell) not in _NUMBERS]
    if odd:
        raise MalformedInput(
            f"{kind} competence cells are not numeric: found {odd[0]!r}"
        )
    return [0 if cell is None else cell for cell in row]


def _packed(grid: list) -> np.ndarray:
    """A rectangular grid of numbers as a 2-d array for validation.

    Integer cells in 0..255, which hold the 0/1 answers of a survey, are
    packed by ``bytes`` into one read-only uint8 buffer, one byte a cell and
    no copy after the join; a row that is already ``bytes``, as the
    competence CSV reader makes, is joined as it is. ``bytes`` raises on a
    float cell and on any other integer; only then is the grid converted by
    ``np.asarray``, so a ``1.0`` cell is still accepted and a ``0.5`` or
    ``300`` cell rejected by CompetenceMatrix, never truncated.
    """
    try:
        cells = b"".join(map(bytes, grid))
        return np.frombuffer(cells, np.uint8).reshape(len(grid), -1)
    # a float or out-of-range cell; reshape of an empty grid is ambiguous
    except (TypeError, ValueError):
        return np.asarray(grid)


def _grid(competence, kind: str) -> np.ndarray:
    """A parsed JSON competence grid, its shape checked, as a 2-d array.

    Only the shape of the grid is checked here: a list of lists of equal
    length whose cells are JSON numbers (a string such as "1" or a boolean
    is not read as one) or nulls, which mean "no answer" and count as 0.
    Content that breaks this raises MalformedInput naming ``kind``; the
    cells' values are left to CompetenceMatrix.

    One type scan over all cells lets a grid of numbers through as it is;
    only a grid with null or other cells goes row by row through
    ``_answers``. The grid is then packed one byte a cell (``_packed``), so
    validation reads a uint8 buffer, not an n x n int64 array, and never
    copies it.
    """
    # a type set test over all cells at once is several times cheaper than a
    # Python-level test per cell or per row, and so are these C-level maps
    if not isinstance(competence, list) or not all(
        map(isinstance, competence, repeat(list))
    ):
        raise MalformedInput(f"{kind} competence must be a list of lists")
    if not _NUMBERS.issuperset(map(type, chain.from_iterable(competence))):
        competence = [_answers(row, kind) for row in competence]
    if len(set(map(len, competence))) > 1:
        raise MalformedInput(f"{kind} competence rows are ragged")
    return _packed(competence)


def load_survey_json(
    source,
    diagonal_policy: str = DEFAULT_DIAGONAL_POLICY,
    strict_likert: bool = False,
) -> SurveyInstance:
    """Load a survey document: label, scale, ratings, competence.

    ``source`` is a path or an already-parsed dict. ``scale`` defaults to
    [1, 5] and ``label`` to "" when absent. The competence grid's shape is
    checked first (``_grid``); the ratings, the scale and the label are left
    to validate_survey, so a bad one raises the library's own error, in its
    order: a label that is not a string after the matrix checks.
    """
    data = _read_document(source, "survey", ("ratings", "competence"))
    return validate_survey(
        data["ratings"],
        _grid(data["competence"], "survey document"),
        scale=data.get("scale", DEFAULT_SCALE),
        diagonal_policy=diagonal_policy,
        strict_likert=strict_likert,
        label=data.get("label", ""),
    )


def load_competence_csv(path) -> np.ndarray:
    """Read an n x n matrix of 0/1 cells; blank cells count as 0.

    With ``load_ratings_csv`` this is the CSV API: read the matrix, then the
    ratings, and hand both to ``validate_survey``, which makes every check
    of their values and takes the scale, policy and label, as
    ``classrank rate --competence-csv ... --ratings-csv ...`` does.

    A file of ``0``, ``1`` and empty cells only, as programs write it, is
    packed one byte a cell into a read-only uint8 array by ``_packed``, as
    a JSON grid is. Any other cell (``1.0``, `` 1 ``, ``1e0``, a
    whitespace-only cell) sends the whole file through ``_cell`` into a
    float array, which accepts the same cells as ever: a blank cell reads
    as 0, one that is not a number raises MalformedInput naming it without
    its surrounding whitespace, and a number other than 0 or 1 is left for
    validation to reject.
    """
    with _csv_reader(path) as reader:
        rows = [*_records(reader, path, None, "ragged matrix rows", "no matrix rows")]
    try:
        return _packed([bytes(map(_CSV_CELLS.__getitem__, row)) for row in rows])
    except KeyError:
        cells = chain.from_iterable(rows)
        values = [_cell(cell.strip() or "0", path, "matrix cell") for cell in cells]
        return np.array(values).reshape(len(rows), -1)


def load_ratings_csv(path) -> list[float]:
    """Read a single-column list of ratings, one per line.

    With ``load_competence_csv`` this is the CSV API: the list goes to
    ``validate_survey`` as its raw ratings, which it checks against the
    scale. A cell that is not a number raises MalformedInput naming it.
    """
    ragged = "expected one rating per line"
    with _csv_reader(path) as reader:
        records = _records(reader, path, 1, ragged, "no ratings")
        return [_cell(cell, path, "rating") for (cell,) in records]
