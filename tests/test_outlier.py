"""A single outlier: when weighting by endorsement discounts it.

Each class holds N = 30 students. Each endorses a Poisson(8) number of
classmates, or nobody at all (about one in ten), and rates the course 3 to
5. Then one student, drawn at random, rates it 1 instead and keeps the
endorsements drawn for it. A method's error is its weighted rating's
distance from the mean of the other students, the leave-the-outlier-out
mean; it reduces the error when that distance is below the plain mean's.

These tests pin how the outcome follows the outlier's in-degree, its count
of endorsers, against the class median: weighting discounts an outlier that
few endorse, and mostly fails to discount one that many endorse. Counts are
pinned, not medians. README "Limits" quotes the numbers.
"""

from functools import cache

import numpy as np
import pytest

from classrank import rate_survey, validate_survey

N = 30
SEEDS = range(600)
# by the outlier's in-degree against the class median: the classes in each
# group, and in how many of them each method reduces the error
COUNTS = {
    "at most half the median": (35, {"degree": 31, "eigenfactor": 32}),
    "at least the median": (346, {"degree": 104, "eigenfactor": 107}),
}


def _class(seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((N, N), dtype=np.uint8)
    for i in range(N):
        if rng.random() < 0.1:
            continue
        count = int(np.clip(rng.poisson(8), 1, N - 1))
        matrix[i, rng.choice(np.delete(np.arange(N), i), count, replace=False)] = 1
    ratings = rng.integers(3, 6, N).astype(float)
    biased = int(rng.integers(N))
    ratings[biased] = 1.0
    return ratings, matrix, biased


@cache
def _groups():
    """The class count of each COUNTS group, and how many of its classes
    each method reduces the error in."""
    classes = dict.fromkeys(COUNTS, 0)
    reduced = {group: {"degree": 0, "eigenfactor": 0} for group in COUNTS}
    for seed in SEEDS:
        ratings, matrix, biased = _class(seed)
        in_degree = matrix.sum(axis=0)
        median = np.median(in_degree)
        if in_degree[biased] <= median / 2:
            group = "at most half the median"
        elif in_degree[biased] >= median:
            group = "at least the median"
        else:
            continue
        report = rate_survey(validate_survey(ratings, matrix))
        others_mean = np.delete(ratings, biased).mean()
        plain = abs(report.arithmetic_mean - others_mean)
        classes[group] += 1
        for method in reduced[group]:
            error = abs(getattr(report, method).rating - others_mean)
            reduced[group][method] += bool(error < plain)
    return {group: (classes[group], reduced[group]) for group in COUNTS}


@pytest.mark.parametrize("group", COUNTS)
def test_outlier_in_degree_decides_whether_weighting_helps(group):
    # few endorsers: both methods reduce the error in ~90% of the classes;
    # at least the median count: in under a third, worse than a coin flip
    assert _groups()[group] == COUNTS[group]
