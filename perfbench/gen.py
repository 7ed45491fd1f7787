"""Seeded inputs for the benchmark workloads.

Every generator draws from the numpy Generator it is given, so one
``--seed`` fixes every input of a run. The program under test only ever
sees the generated documents, arrays and files.
"""

import numpy as np

MEAN_ENDORSEMENTS = 8  # Poisson mean of endorsements per endorsing row
DANGLING_SHARE = 0.10  # rows of students who endorse nobody
UNENDORSED_SHARE = 0.05  # students nobody endorses: their weight is exactly 0
SELF_ENDORSED_SHARE = 0.03  # documents carrying one self-endorsement
EMPTY_SHARE = 0.05  # scenario matrices with no endorsement at all
LIKERT = np.array([1, 2, 3, 4, 5])
LIKERT_P = np.array([0.05, 0.10, 0.25, 0.35, 0.25])


def competence(rng, n):
    """Zero-diagonal 0/1 int64 matrix with at least one endorsement."""
    unendorsed = rng.random(n) < UNENDORSED_SHARE
    unendorsed[rng.choice(n, 2, replace=False)] = False
    dangling = rng.random(n) < DANGLING_SHARE
    dangling[rng.integers(n)] = False
    keys = rng.random((n, n))
    keys[:, unendorsed] = 2.0
    np.fill_diagonal(keys, 2.0)
    candidates = (keys < 2.0).sum(axis=1)
    counts = np.clip(rng.poisson(MEAN_ENDORSEMENTS, n), 1, candidates)
    counts[dangling] = 0
    # each row endorses the `counts` candidates with the smallest keys
    kth = np.sort(keys, axis=1)[np.arange(n), np.maximum(counts - 1, 0)]
    return ((keys <= kth[:, None]) & (counts[:, None] > 0)).astype(np.int64)


def likert(rng, n):
    return rng.choice(LIKERT, size=n, p=LIKERT_P)


def log_uniform_sizes(rng, count, low, high):
    """Stratified log-uniform sizes, so the size mix barely moves with the seed."""
    u = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(u)
    return np.rint(np.exp(np.log(low) + u * np.log(high / low))).astype(int)


def class_documents(rng, count, low=10, high=100):
    """Survey documents as parsed JSON, plus what the checks need of each.

    Returns (documents, facts); a fact holds the ratings, the matrix after
    the diagonal is zeroed, and whether a self-endorsement was planted.
    """
    documents, facts = [], []
    for index, n in enumerate(log_uniform_sizes(rng, count, low, high)):
        matrix = competence(rng, n)
        ratings = likert(rng, n)
        planted = bool(rng.random() < SELF_ENDORSED_SHARE)
        raw = matrix.copy()
        if planted:
            student = rng.integers(n)
            raw[student, student] = 1
        documents.append(
            {
                "label": f"class-{index}",
                "scale": [1, 5],
                "ratings": ratings.tolist(),
                "competence": raw.tolist(),
            }
        )
        facts.append({"ratings": ratings, "matrix": matrix, "self_endorsed": planted})
    return documents, facts


def scenario_bundle(rng, count, n=30):
    """A bundle sharing one rating vector with a planted outlier.

    About EMPTY_SHARE of the competence matrices are all zero (at least
    one). Returns (bundle document, facts).
    """
    ratings = rng.choice(LIKERT[2:], size=n, p=[0.3, 0.4, 0.3])
    biased_index = int(rng.integers(n))
    ratings[biased_index] = 1
    empty = rng.choice(count, max(1, round(EMPTY_SHARE * count)), replace=False)
    empty_ids = {int(i) + 1 for i in empty}
    matrices = {}
    for sid in range(1, count + 1):
        matrices[sid] = (
            np.zeros((n, n), dtype=np.int64) if sid in empty_ids else competence(rng, n)
        )
    bundle = {
        "label": "generated",
        "scale": [1, 5],
        "ratings": ratings.tolist(),
        "biased_index": biased_index,
        "scenarios": [
            {"id": sid, "competence": matrix.tolist()}
            for sid, matrix in matrices.items()
        ],
    }
    facts = {
        "ratings": ratings,
        "biased_index": biased_index,
        "empty_ids": empty_ids,
        "matrices": matrices,
    }
    return bundle, facts


def dispersion_ratings(rng, instructors, max_count=35):
    """Integer ratings per instructor label, spread around a per-instructor
    centre; counts are uniform in 1..max_count, so some fall below --min-n."""
    counts = rng.integers(1, max_count + 1, instructors)
    centres = rng.integers(1, 6, instructors)
    by_label = {}
    for index, (count, centre) in enumerate(zip(counts, centres)):
        noise = np.rint(rng.normal(0.0, 1.1, count)).astype(int)
        by_label[f"instructor-{index:05d}"] = np.clip(centre + noise, 1, 5).tolist()
    return by_label


def dispersion_csv_text(by_label):
    lines = ["label,rating"]
    for label, values in by_label.items():
        lines.extend(f"{label},{value}" for value in values)
    return "\n".join(lines) + "\n"


def size_histogram(sizes):
    """Counts of n: per value when there are few, else in log-spaced bins."""
    distinct = sorted(set(sizes))
    if len(distinct) <= 8:
        return {str(n): sizes.count(n) for n in distinct}
    edges = np.unique(np.rint(np.geomspace(min(sizes), max(sizes) + 1, 5)).astype(int))
    counts = np.histogram(sizes, bins=edges)[0].tolist()
    return {f"{lo}-{hi - 1}": c for lo, hi, c in zip(edges, edges[1:], counts)}


def census(facts):
    """Input properties of survey facts: n histogram and the shares of
    dangling rows, unendorsed students and self-endorsed documents."""
    sizes = [len(fact["ratings"]) for fact in facts]
    students = sum(sizes)
    dangling = sum(int((f["matrix"].sum(axis=1) == 0).sum()) for f in facts)
    unendorsed = sum(int((f["matrix"].sum(axis=0) == 0).sum()) for f in facts)
    return {
        "surveys": len(facts),
        "n_histogram": size_histogram(sizes),
        "dangling_row_share": dangling / students,
        "unendorsed_student_share": unendorsed / students,
        "self_endorsed_document_share": sum(f["self_endorsed"] for f in facts)
        / len(facts),
    }
