import re
import tracemalloc

import numpy as np
import pytest

from classrank import (
    DispersionAggregate,
    DispersionRow,
    EmptyInput,
    MalformedInput,
    aggregate,
    dispersion_row,
    read_dispersion_csv,
)
from classrank.data import clarity_counts_path, helpfulness_counts_path
from goldens import CLARITY, HELPFULNESS, PCT_TOL


def _mode(ratings, tiebreak="smallest"):
    return dispersion_row("x", ratings, tiebreak).mode


def test_mode_basic():
    assert _mode([4, 4, 3, 4, 5]) == 4
    assert _mode([3]) == 3


def test_mode_tiebreaks():
    assert _mode([1, 1, 5, 5]) == 1
    assert _mode([1, 1, 5, 5], tiebreak="largest") == 5
    with pytest.raises(ValueError):
        _mode([1, 2], tiebreak="median")


def test_mode_empty():
    with pytest.raises(EmptyInput, match="^no ratings for 'x'$"):
        _mode([])


def test_mode_is_order_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.integers(1, 6, size=int(rng.integers(1, 30))).tolist()
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert _mode(values) == _mode(shuffled)


def test_dispersion_row_counts():
    row = dispersion_row("a", (5, 5, 3, 1, 2))
    assert (row.mode, row.dev2, row.dev3plus) == (5, 1, 2)


def test_dispersion_row_all_identical():
    row = dispersion_row("b", (4,) * 12)
    assert (row.mode, row.dev2, row.dev3plus) == (4, 0, 0)


def test_dispersion_row_respects_tiebreak():
    ratings = (1, 1, 5, 5, 3)
    smallest = dispersion_row("c", ratings)
    largest = dispersion_row("c", ratings, tiebreak="largest")
    assert (smallest.mode, smallest.dev2, smallest.dev3plus) == (1, 1, 2)
    assert (largest.mode, largest.dev2, largest.dev3plus) == (5, 1, 2)


def test_deviation_buckets_partition_the_ratings():
    rng = np.random.default_rng(9)
    for _ in range(100):
        values = tuple(rng.integers(1, 6, size=int(rng.integers(1, 40))).tolist())
        row = dispersion_row("x", values)
        anchor = row.mode
        dev0 = sum(1 for v in values if v == anchor)
        dev1 = sum(1 for v in values if abs(v - anchor) == 1)
        assert dev0 + dev1 + row.dev2 + row.dev3plus == len(values)


def test_reflection_flips_the_anchor():
    rng = np.random.default_rng(13)
    for _ in range(100):
        values = tuple(rng.integers(1, 6, size=int(rng.integers(1, 25))).tolist())
        reflected = tuple(6 - v for v in values)
        # reflection maps a smallest-tied mode to a largest-tied one
        row = dispersion_row("x", values, tiebreak="smallest")
        mirrored = dispersion_row("x", reflected, tiebreak="largest")
        assert mirrored.mode == 6 - row.mode
        assert (mirrored.dev2, mirrored.dev3plus) == (row.dev2, row.dev3plus)


def test_aggregate_golden_helpfulness():
    rows, excluded = read_dispersion_csv(helpfulness_counts_path())
    assert len(rows) == 91 and excluded == []
    pooled = aggregate(rows)
    assert pooled.total_n == HELPFULNESS["total_n"]
    assert pooled.total_dev2 == HELPFULNESS["total_dev2"]
    assert pooled.total_dev3plus == HELPFULNESS["total_dev3plus"]
    assert pooled.pct_dev2 == pytest.approx(HELPFULNESS["pct_dev2"], abs=PCT_TOL)
    assert pooled.pct_dev3plus == pytest.approx(
        HELPFULNESS["pct_dev3plus"], abs=PCT_TOL
    )
    assert pooled.pct_dev2plus == pytest.approx(
        HELPFULNESS["pct_dev2plus"], abs=PCT_TOL
    )


def test_aggregate_golden_clarity():
    rows, _ = read_dispersion_csv(clarity_counts_path())
    pooled = aggregate(rows)
    assert pooled.total_n == CLARITY["total_n"]
    assert pooled.pct_dev2 == pytest.approx(CLARITY["pct_dev2"], abs=PCT_TOL)
    assert pooled.pct_dev3plus == pytest.approx(CLARITY["pct_dev3plus"], abs=PCT_TOL)
    assert pooled.pct_dev2plus == pytest.approx(CLARITY["pct_dev2plus"], abs=PCT_TOL)


def test_aggregate_single_row():
    row = dispersion_row("solo", (4, 4, 4, 4, 2, 1, 4, 4, 4, 4))
    pooled = aggregate([row])
    assert pooled.pct_dev2 == pytest.approx(10.0, abs=1e-12)
    assert pooled.pct_dev3plus == pytest.approx(10.0, abs=1e-12)


def test_aggregate_matches_count_weighted_rows():
    rng = np.random.default_rng(17)
    rows = [
        dispersion_row(
            f"i{k}",
            tuple(rng.integers(1, 6, size=int(rng.integers(5, 60))).tolist()),
        )
        for k in range(30)
    ]
    pooled = aggregate(rows)
    assert pooled.pct_dev2 == pytest.approx(
        100.0 * sum(r.dev2 for r in rows) / sum(r.n for r in rows), abs=1e-12
    )


def test_records_are_immutable_hashable_and_ordered():
    row = DispersionRow("a", 10, 4, 1, 2)
    cases = [
        (row, DispersionRow(label="a", n=10, mode=4, dev2=1, dev3plus=2)),
        (aggregate([row]), DispersionAggregate(10, 1, 2, 10.0, 20.0, 30.0)),
    ]
    names = [
        "label n mode dev2 dev3plus",
        "total_n total_dev2 total_dev3plus pct_dev2 pct_dev3plus pct_dev2plus",
    ]
    for (record, twin), fields in zip(cases, map(str.split, names)):
        with pytest.raises(AttributeError):
            setattr(record, fields[1], 0)
        assert record == twin and hash(record) == hash(twin)
        assert list(record._asdict()) == fields


def test_aggregate_empty_rejected():
    with pytest.raises(EmptyInput):
        aggregate([])



def test_aggregate_of_rows_without_ratings_rejected():
    with pytest.raises(EmptyInput, match="^dispersion rows hold no ratings$"):
        aggregate([DispersionRow("a", 0, 4, 0, 0), DispersionRow("b", 0, 3, 0, 0)])

def test_long_form_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "label,rating\n"
        + "\n".join(["a,4"] * 5 + ["a,1", "b,5", "b,5", "b,4", "b,5", "b,3"])
        + "\n",
        encoding="utf-8",
    )
    rows, excluded = read_dispersion_csv(path, min_n=5)
    assert [row.label for row in rows] == ["a", "b"]
    assert excluded == []
    a_row = rows[0]
    assert (a_row.n, a_row.mode, a_row.dev2, a_row.dev3plus) == (6, 4, 0, 1)


def test_long_form_min_n_filter(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "label,rating\na,4\na,4\na,4\na,4\na,4\nb,5\nb,5\n", encoding="utf-8"
    )
    rows, excluded = read_dispersion_csv(path, min_n=5)
    assert [row.label for row in rows] == ["a"]
    assert excluded == ["b"]


def test_counted_form_min_n_filter(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "label,n,mode,dev2,dev3plus\na,10,4,1,0\nb,3,5,0,0\n", encoding="utf-8"
    )
    rows, excluded = read_dispersion_csv(path, min_n=5)
    assert [row.label for row in rows] == ["a"]
    assert excluded == ["b"]
    # a numpy integer is an integer
    assert read_dispersion_csv(path, min_n=np.int64(5)) == (rows, excluded)


def test_malformed_csv_rejected(tmp_path):
    bad_header = tmp_path / "one.csv"
    bad_header.write_text("name,score\na,4\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        read_dispersion_csv(bad_header)

    bad_counts = tmp_path / "two.csv"
    bad_counts.write_text("label,n,mode,dev2,dev3plus\na,4,4,3,2\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        read_dispersion_csv(bad_counts)

    bad_value = tmp_path / "three.csv"
    bad_value.write_text("label,rating\na,excellent\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        read_dispersion_csv(bad_value)

    empty = tmp_path / "four.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(MalformedInput):
        read_dispersion_csv(empty)

    # int() reads these as numbers (PEP 515 underscores, non-ASCII digits)
    for name, text, message in [
        ("five.csv", "label,rating\na,0_4\n", "non-integer rating '0_4'"),
        ("six.csv", "label,rating\na,\u0664\n", "non-integer rating '\u0664'"),
        ("seven.csv", "label,rating\na,\uff14\n", "non-integer rating '\uff14'"),
        ("eight.csv", "label,n,mode,dev2,dev3plus\na,1_0,4,1,1\n", "count '1_0'"),
        ("nine.csv", "label,n,mode,dev2,dev3plus\na,10,\u0664,1,1\n", "mode '\u0664'"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedInput, match=message):
            read_dispersion_csv(path)



@pytest.mark.parametrize("row", ["a,0,4,0,0", "a,10,4,-1,0"], ids=["n=0", "dev2=-1"])
def test_counted_form_rejects_negative_or_empty_counts(tmp_path, row):
    path = tmp_path / "counts.csv"
    path.write_text(f"label,n,mode,dev2,dev3plus\n{row}\n", encoding="utf-8")
    with pytest.raises(MalformedInput, match="^negative or empty counts for 'a' in "):
        read_dispersion_csv(path)

def test_long_form_reads_each_repeated_cell_alike(tmp_path):
    # each distinct cell is parsed once: a cell seen before, good or bad,
    # is read the same way again, and the first bad one is the one named
    path = tmp_path / "ratings.csv"
    path.write_text(
        "label,rating\na,4\n a , 4\nb,4\nb,x\nc,y\nc,x\n", encoding="utf-8"
    )
    with pytest.raises(MalformedInput, match=f"^non-integer rating 'x' in {path}$"):
        read_dispersion_csv(path)
    path.write_text(
        "label,rating\n a ,4\nb, 4\na,4 \nb,4\n a ,5\na,44\n", encoding="utf-8"
    )
    rows, _ = read_dispersion_csv(path, min_n=1)
    assert [(row.label, row.n, row.mode, row.dev3plus) for row in rows] == [
        ("a", 4, 4, 1),
        ("b", 2, 4, 0),
    ]


def test_dispersion_row_reads_any_iterable_of_real_numbers():
    # the ratings' types are read before they are counted, so an iterator
    # is read into a list first; an int past the float range is finite
    expected = dispersion_row("x", [4, 4, 5])
    assert dispersion_row("x", iter([4, 4, 5])) == expected
    assert dispersion_row("x", np.array([4, 4, 5])) == expected
    assert dispersion_row("x", [4.0, np.int64(4), 5]) == expected
    assert dispersion_row("x", [10**400, 4]) == ("x", 2, 4, 0, 1)


def test_empty_record_rejected():
    with pytest.raises(EmptyInput):
        dispersion_row("empty", ())


def test_counted_form_rejects_a_repeated_label(tmp_path):
    # the long form merges a repeated label; a counted row is one label's
    # whole count, so a second one would count its ratings twice
    path = tmp_path / "counts.csv"
    path.write_text(
        "label,n,mode,dev2,dev3plus\na,10,4,1,1\nb,6,3,0,0\n a ,10,4,1,1\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedInput, match=f"repeated label 'a' in {path}"):
        read_dispersion_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        "label,rating\n\na,4\n , \nb\n",
        "label,n,mode,dev2,dev3plus\na,10,4,1,1\nb,6,3,0\n",
    ],
    ids=["long", "counted"],
)
def test_record_of_another_width_names_the_header(tmp_path, text):
    # blank records are skipped, every other one must be as wide as the header
    header = text.partition("\n")[0]
    path = tmp_path / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedInput, match=f"^expected {header} rows in {path}$"):
        read_dispersion_csv(path)


@pytest.mark.parametrize(
    "text",
    ["label,rating\na,4\n", "label,n,mode,dev2,dev3plus\na,10,4,1,1\n"],
    ids=["long", "counted"],
)
def test_options_are_checked_before_the_file_is_read(tmp_path, text):
    path = tmp_path / "ratings.csv"
    path.write_text(text, encoding="utf-8")
    for source in (path, tmp_path / "missing.csv"):
        with pytest.raises(ValueError, match="^min_n must be at least 1$"):
            read_dispersion_csv(source, min_n=0)
        with pytest.raises(ValueError, match="^unknown tiebreak 'median'$"):
            read_dispersion_csv(source, tiebreak="median")


@pytest.mark.parametrize("min_n", ["5", None, True, 2.5])
def test_min_n_must_be_an_integer(tmp_path, min_n):
    # "5" and None raised a bare TypeError; True and 2.5 were accepted
    message = f"^min_n must be an integer, got {re.escape(repr(min_n))}$"
    with pytest.raises(ValueError, match=message):
        read_dispersion_csv(tmp_path / "missing.csv", min_n=min_n)


def test_long_form_reader_memory_grows_with_the_ratings_kept(tmp_path):
    # one label, so one list of small ints: ~8 bytes a rating plus its
    # over-allocation; a copy of the ratings or a list of all records
    # would break the bound
    count = 50_000
    path = tmp_path / "ratings.csv"
    ratings = np.random.default_rng(3).integers(1, 6, count)
    path.write_text(
        "label,rating\n" + "".join(f"solo,{r}\n" for r in ratings), encoding="utf-8"
    )
    tracemalloc.start()
    try:
        rows, _ = read_dispersion_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows[0].n == count
    assert peak < 16 * count
