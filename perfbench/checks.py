"""Correctness checks on the reports the benchmark collects.

Each check returns a list of problems (empty when the output is right).
The checks read the reports as a user would, from their JSON text, and
compare them against the generated inputs or an independent reference.
"""

from collections import Counter

import numpy as np

WEIGHT_SUM_TOL = 1e-9
ORACLE_L1_TOL = 1e-9
METHODS = ("degree", "eigenfactor")


def _weights(report, method, n, ratings, unendorsed):
    """Problems with one method's weights and weighted rating."""
    block = report[method]
    weights = np.asarray(block["weights"], dtype=float)
    if weights.shape != (n,):
        return [f"{method} weights have shape {weights.shape}, expected ({n},)"]
    problems = []
    if np.any(weights < 0):
        problems.append(f"{method} weights are negative")
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"{method} weights sum to {weights.sum()!r}")
    if np.any(weights[unendorsed] != 0.0):
        problems.append(f"{method} gives unendorsed students nonzero weight")
    rating = block["weighted_rating"]
    low, high = float(ratings.min()), float(ratings.max())
    if not low <= rating <= high:
        problems.append(f"{method} rating {rating!r} outside [{low}, {high}]")
    expected = min(max(float(weights @ ratings), low), high)
    if abs(rating - expected) > WEIGHT_SUM_TOL:
        problems.append(f"{method} rating {rating!r} is not the weighted mean")
    return problems


def rating_report(report, fact):
    """A `rate` report against the survey it was computed from."""
    ratings = np.asarray(fact["ratings"], dtype=float)
    matrix = fact["matrix"]
    n = ratings.size
    if report.get("n") != n:
        return [f"report n={report.get('n')!r}, survey n={n}"]
    unendorsed = matrix.sum(axis=0) == 0
    problems = []
    for method in METHODS:
        problems += _weights(report, method, n, ratings, unendorsed)
    if bool(report["warnings"]) != fact["self_endorsed"]:
        problems.append(
            f"warnings {report['warnings']!r} but self-endorsement planted: "
            f"{fact['self_endorsed']}"
        )
    return problems


def walk_matrix(matrix):
    """Row-normalized matrix with dangling rows replaced by the uniform row."""
    n = matrix.shape[0]
    counts = matrix.sum(axis=1)
    walk = matrix / np.where(counts == 0, 1, counts)[:, None]
    walk[counts == 0] = 1.0 / n
    return walk


def against_oracle(influence, eigen_weights, degree_weights, matrix, alpha, oracle):
    """Influence and both weight vectors against a dense linear solve of the
    same chain (``oracle`` is tests/oracles.py's stationary_oracle)."""
    exact = oracle(walk_matrix(matrix), alpha)
    counts = matrix.sum(axis=1)
    normalized = matrix / np.where(counts == 0, 1, counts)[:, None]
    mass = exact @ normalized
    column = normalized.sum(axis=0)
    problems = []
    for what, found, expected in (
        ("stationary distribution", influence, exact),
        ("eigenfactor weights", eigen_weights, mass / mass.sum()),
        ("degree weights", degree_weights, column / column.sum()),
    ):
        gap = np.abs(np.asarray(found, dtype=float) - expected).sum()
        if not gap <= ORACLE_L1_TOL:
            problems.append(f"{what} are {gap:.3e} (L1) from the dense solve")
    return problems


def scenario_report(report, facts):
    """A scenario report against its generated bundle: every scenario
    present, planted empty networks (and only those) failing in both
    methods, every other scenario scored correctly."""
    ratings = np.asarray(facts["ratings"], dtype=float)
    n = ratings.size
    unbiased = float(np.delete(ratings, facts["biased_index"]).mean())
    rows = {row["id"]: row for row in report["results"]}
    if sorted(rows) != sorted(facts["matrices"]):
        return [f"report holds scenarios {sorted(rows)[:5]}..., expected all"]
    problems = []
    for sid, row in rows.items():
        failures = [row[method]["failure"] for method in METHODS]
        if sid in facts["empty_ids"]:
            if None in failures or row["degree"]["weights"] is not None:
                problems.append(f"scenario {sid}: empty network did not fail in both methods")
            continue
        if failures != [None, None]:
            problems.append(f"scenario {sid}: unexpected failure {failures}")
            continue
        if abs(row["unbiased_mean"] - unbiased) > 1e-12:
            problems.append(f"scenario {sid}: unbiased mean {row['unbiased_mean']!r}")
        unendorsed = facts["matrices"][sid].sum(axis=0) == 0
        for method in METHODS:
            found = _weights(row, method, n, ratings, unendorsed)
            error = abs(row[method]["weighted_rating"] - unbiased)
            if abs(row[method]["error"] - error) > 1e-12:
                found.append(f"{method} error {row[method]['error']!r} != {error!r}")
            problems += [f"scenario {sid}: {p}" for p in found]
    return problems


def golden_fixture(report, goldens):
    """The bundled six-scenario fixture against tests/goldens.py."""
    problems = []
    rows = {row["id"]: row for row in report["results"]}
    if sorted(rows) != sorted(goldens.SCENARIO_EXPECTED):
        return [f"fixture report holds scenarios {sorted(rows)}"]
    for sid, expected in goldens.SCENARIO_EXPECTED.items():
        row = rows[sid]
        if row["arithmetic_mean"] != goldens.ARITHMETIC_MEAN:
            problems.append(f"fixture {sid}: mean {row['arithmetic_mean']!r}")
        if row["unbiased_mean"] != goldens.UNBIASED_MEAN:
            problems.append(f"fixture {sid}: unbiased mean {row['unbiased_mean']!r}")
        if abs(row["err_mean"] - goldens.ERR_MEAN) > 1e-12:
            problems.append(f"fixture {sid}: err_mean {row['err_mean']!r}")
        for method in METHODS:
            weight_tol, rating_tol = goldens.WEIGHT_TOL, goldens.RATING_TOL
            if sid == 3 and method == "eigenfactor":
                weight_tol = goldens.S3_EIGEN_WEIGHT_TOL
                rating_tol = goldens.S3_EIGEN_RATING_TOL
            block = row[method]
            if block["failure"] is not None:
                problems.append(f"fixture {sid}: {method} failed: {block['failure']}")
                continue
            gap = np.max(np.abs(np.asarray(block["weights"]) - expected[f"{method}_weights"]))
            if not gap <= weight_tol:
                problems.append(f"fixture {sid}: {method} weights off by {gap:.2e}")
            gap = max(
                abs(block["weighted_rating"] - expected[f"{method}_rating"]),
                abs(block["error"] - expected[f"err_{method}"]),
            )
            if not gap <= rating_tol:
                problems.append(f"fixture {sid}: {method} rating or error off by {gap:.2e}")
    return problems


def dispersion_report(report, by_label, min_n):
    """A dispersion report against counts made here from the raw ratings."""
    rows, excluded = [], []
    for label, values in by_label.items():
        if len(values) < min_n:
            excluded.append(label)
            continue
        counts = Counter(values)
        top = max(counts.values())
        mode = min(value for value, count in counts.items() if count == top)
        deviations = [abs(value - mode) for value in values]
        rows.append(
            {
                "label": label,
                "n": len(values),
                "mode": mode,
                "dev2": deviations.count(2),
                "dev3plus": sum(d >= 3 for d in deviations),
            }
        )
    problems = []
    if report["rows"] != rows:
        problems.append("dispersion rows differ from the independent count")
    if report["excluded"] != excluded:
        problems.append(
            f"{len(report['excluded'])} instructors excluded, expected {len(excluded)}"
        )
    total = sum(row["n"] for row in rows)
    dev2 = sum(row["dev2"] for row in rows)
    dev3 = sum(row["dev3plus"] for row in rows)
    expected = {
        "total_n": total,
        "total_dev2": dev2,
        "total_dev3plus": dev3,
        "pct_dev2": 100.0 * dev2 / total,
        "pct_dev3plus": 100.0 * dev3 / total,
        "pct_dev2plus": 100.0 * (dev2 + dev3) / total,
    }
    for key, value in expected.items():
        if not abs(report["aggregate"][key] - value) <= 1e-9:
            problems.append(f"aggregate {key} {report['aggregate'][key]!r} != {value!r}")
    return problems
