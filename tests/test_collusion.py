"""Collusion: what a clique of students who endorse only each other gets.

Each class holds N = 30 students. The first k students collude: they rate
the course 1 and endorse each other and nobody else. The others rate it 3 to
5 and each endorses a Poisson(8) number of classmates, or nobody at all
(about one in ten). Honest students either endorse colluders as drawn, or
not at all. A method's error is its weighted rating's distance from the
honest students' mean, the leave-the-clique-out mean, against the plain
mean's distance from it.

These tests pin the measured behaviour, which is not robustness: both
weightings hand a clique at least its head-count share k/N, and
eigenfactor, whose walk only teleports out of a closed group, hands it more
than degree does. README "Limits" quotes the numbers.
"""

import numpy as np
import pytest

from classrank import rate_survey, validate_survey

N = 30
CLIQUES = (2, 3, 5)
SEEDS = range(40)
# (seed, k) of the cases without honest endorsements where eigenfactor does
# not beat degree: nobody dangles, so the clique and the honest students are
# two closed groups, and each keeps exactly its teleport share of the walk
TIES = {(13, 2), (13, 3), (35, 2), (35, 3), (35, 5)}
# both clique weights are sums of floats, so k/N and k/E hold to rounding
ROUNDING = 1e-12


def _class(seed, k, honest_endorse):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((N, N), dtype=np.uint8)
    for i in range(k, N):
        if rng.random() < 0.1:
            continue
        count = int(np.clip(rng.poisson(8), 1, N - 1))
        matrix[i, rng.choice(np.delete(np.arange(N), i), count, replace=False)] = 1
    if not honest_endorse:
        matrix[:, :k] = 0
    matrix[:k, :k] = 1
    np.fill_diagonal(matrix, 0)
    ratings = np.concatenate([np.ones(k), rng.integers(3, 6, N - k)])
    return ratings, matrix


def _collusion(seed, k, honest_endorse):
    """The clique's weight and the rating error under each method, the plain
    mean's error, and E, the number of students who endorse anyone."""
    ratings, matrix = _class(seed, k, honest_endorse)
    report = rate_survey(validate_survey(ratings, matrix))
    honest_mean = ratings[k:].mean()
    weight, error = {}, {}
    for method in ("degree", "eigenfactor"):
        scored = getattr(report, method)
        weight[method] = float(scored.weights[:k].sum())
        error[method] = abs(scored.rating - honest_mean)
    endorsing = int(np.count_nonzero(matrix.sum(axis=1)))
    return weight, error, abs(report.arithmetic_mean - honest_mean), endorsing


@pytest.mark.parametrize("k", CLIQUES)
def test_endorsed_clique_takes_more_than_its_head_count(k):
    # honest students endorse colluders at the usual rate: eigenfactor gives
    # the clique more than degree, which gives it more than k/N, and both
    # move the rating further from the honest mean than the plain mean is
    for seed in SEEDS:
        weight, error, plain, _ = _collusion(seed, k, honest_endorse=True)
        assert weight["eigenfactor"] > weight["degree"] > k / N
        assert error["eigenfactor"] > error["degree"] > plain


@pytest.mark.parametrize("k", CLIQUES)
def test_unendorsed_clique_keeps_its_degree_share(k):
    # nobody outside the clique endorses it, yet its k members hand each
    # other k of the E units of endorsement mass: degree gives it exactly
    # k/E, at least its head-count share k/N
    for seed in SEEDS:
        weight, _, _, endorsing = _collusion(seed, k, honest_endorse=False)
        assert weight["degree"] == pytest.approx(k / endorsing, rel=ROUNDING)
        assert weight["degree"] >= k / N - ROUNDING


@pytest.mark.parametrize("k", CLIQUES)
def test_unendorsed_clique_under_eigenfactor(k):
    # eigenfactor beats degree whenever some honest student dangles: the
    # walk spreads that student's mass over the whole class and the clique
    # keeps its part. When nobody dangles (the TIES seeds) the two closed
    # groups each keep exactly their teleport share, so both weights are
    # k/N. Either way each method's median error is above the plain mean's.
    ties, ratios = set(), {"degree": [], "eigenfactor": []}
    for seed in SEEDS:
        weight, error, plain, endorsing = _collusion(seed, k, honest_endorse=False)
        if endorsing == N:
            ties.add((seed, k))
            assert weight["eigenfactor"] == pytest.approx(k / N, rel=ROUNDING)
            assert weight["degree"] == pytest.approx(k / N, rel=ROUNDING)
        else:
            assert weight["eigenfactor"] > weight["degree"]
        for method, ratio in ratios.items():
            ratio.append(error[method] / plain)
    assert ties == {case for case in TIES if case[1] == k}
    for ratio in ratios.values():
        assert np.median(ratio) > 1.0
