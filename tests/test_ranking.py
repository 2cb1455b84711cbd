import csv
import hashlib
import io
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseed import ranking
from seqseed.experiment import derive_rng
from seqseed.graphs import generate_ba, generate_er, load_edge_list
from seqseed.ranking import (PowerIterationResult, Ranking, RankingMethod,
                             eigenvector_scores, method_scores,
                             pagerank_scores, rank, write_ranking_csv)


def cycle(n):
    return load_edge_list("\n".join(f"{i} {(i + 1) % n}" for i in range(n)))


class TestRank:
    def test_star_degree_center_first(self, star5):
        r = rank(star5, RankingMethod.DEGREE, random.Random(0))
        assert r.order[0] == 0

    def test_degree2_path_hand_values(self):
        # P4: interior score 2 + (1+2) = 5, endpoint score 1 + 2 = 3
        g = load_edge_list("0 1\n1 2\n2 3")
        r = rank(g, RankingMethod.DEGREE2, random.Random(0))
        assert r.score[1] == r.score[2] == 5.0
        assert r.score[0] == r.score[3] == 3.0
        assert set(r.order[:2]) == {1, 2}

    def test_triangle_ties_random_permutation(self):
        g = load_edge_list("0 1\n1 2\n2 0")
        seen = set()
        for s in range(40):
            r = rank(g, RankingMethod.DEGREE, random.Random(s))
            assert len(r.order) == 3
            seen.add(tuple(r.order))
        assert len(seen) == 6  # all tie-break permutations occur

    def test_random_is_uniform_permutation(self):
        g = generate_er(6, 0.5, random.Random(3))
        r = rank(g, RankingMethod.RANDOM, random.Random(1))
        assert sorted(r.order) == list(range(6))

    def test_scores_nonincreasing_along_order(self):
        g = generate_er(25, 0.2, random.Random(8))
        for method in RankingMethod:
            r = rank(g, method, random.Random(2))
            scores = [r.score[v] for v in r.order]
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3).map(float) | st.floats(-1e3, 1e3)
                    | st.just(-0.0), min_size=1, max_size=60),
           st.integers(0, 10 ** 6))
    def test_order_is_score_then_shuffled_tiebreak(self, score, seed):
        # score descending, ties by a uniform shuffle drawn from the rng
        g = generate_er(len(score), 0.0, random.Random(0))
        tiebreak = list(range(len(score)))
        random.Random(seed).shuffle(tiebreak)
        expected = sorted(range(len(score)),
                          key=lambda v: (-score[v], tiebreak[v]))
        r = rank(g, RankingMethod.DEGREE, random.Random(seed), scores=score)
        assert r.order == expected

    def test_rerank_same_seed_identical(self):
        g = generate_er(30, 0.2, random.Random(4))
        for method in RankingMethod:
            a = rank(g, method, random.Random(11))
            b = rank(g, method, random.Random(11))
            assert a.order == b.order
            assert a.score == b.score

    def test_random_order_is_stdlib_shuffle(self):
        g = generate_er(50, 0.1, random.Random(3))
        for seed in range(20):
            expected = list(range(50))
            random.Random(seed).shuffle(expected)
            r = rank(g, RankingMethod.RANDOM, random.Random(seed))
            assert r.order == expected

    def test_tie_free_scores_draw_nothing(self):
        g = generate_er(30, 0.0, random.Random(0))
        score = [float(v * 7 % 30) for v in range(30)]
        rng = random.Random(5)
        before = rng.getstate()
        r = rank(g, RankingMethod.PAGERANK, rng, scores=score)
        assert r.order == sorted(range(30), key=lambda v: -score[v])
        assert rng.getstate() == before

    @pytest.mark.parametrize("scores, match", [
        ([1.0] * 4, "4 values for 5 nodes"),
        ([1.0] * 6, "6 values for 5 nodes"),
        ([1.0, 2.0, math.nan, 0.0, 3.0], "hold a NaN")])
    def test_bad_scores_raise_naming_the_method(self, scores, match):
        g = generate_er(5, 0.0, random.Random(0))
        with pytest.raises(ValueError, match=f"degree2 scores.*{match}"):
            rank(g, RankingMethod.DEGREE2, random.Random(0), scores=scores)


class TestRankingCsv:
    def test_ordinary_labels_bytes(self):
        g = load_edge_list("hub a\nhub b\na leaf")
        r = Ranking(RankingMethod.PAGERANK, [0, 1, 2, 3],
                    [0.2834031, 1 / 3, 2.0, 1e-7])
        buf = io.StringIO()
        write_ranking_csv(g, r, buf)
        assert buf.getvalue() == ("node_label,method,score,rank_position\n"
                                  "hub,pagerank,0.283403,0\n"
                                  "a,pagerank,0.333333,1\n"
                                  "b,pagerank,2,2\n"
                                  "leaf,pagerank,1e-07,3\n")

    def test_comma_label_roundtrips(self):
        g = load_edge_list('a,b c\nc "q"')
        r = rank(g, RankingMethod.DEGREE, random.Random(0))
        buf = io.StringIO()
        write_ranking_csv(g, r, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["node_label", "method", "score", "rank_position"]
        assert [row[0] for row in rows[1:]] == [g.labels[v] for v in r.order]
        assert {row[0] for row in rows[1:]} == {"a,b", "c", '"q"'}
        assert all(len(row) == 4 for row in rows)


class TestPagerank:
    def test_cycle_uniform(self):
        res = pagerank_scores(cycle(4))
        assert res.converged
        assert res.scores == pytest.approx([0.25] * 4, abs=1e-8)

    def test_star_center_beats_leaves_and_sums_to_one(self, star5):
        res = pagerank_scores(star5, damping=0.85)
        assert res.scores[0] > res.scores[1]
        assert sum(res.scores) == pytest.approx(1.0, abs=1e-9)

    def test_isolated_node_gets_teleport_mass(self):
        g = load_edge_list("0 1\n2 2")  # node 2 isolated after loop drop
        res = pagerank_scores(g)
        assert res.scores[2] > 0
        assert sum(res.scores) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        for seed in range(6):
            g = generate_er(6, 0.5, random.Random(seed))
            res = pagerank_scores(g, tol=1e-14)
            assert np.allclose(res.scores, dense_pagerank(g), atol=1e-8)


def dense_pagerank(g, damping=0.85, iters=5000):
    n = g.node_count
    a = np.zeros((n, n))
    for u, neigh in enumerate(g.adjacency):
        for v in neigh:
            a[v, u] = 1.0 / len(neigh)
    x = np.full(n, 1.0 / n)
    dangling = np.array([len(nb) == 0 for nb in g.adjacency], dtype=float)
    for _ in range(iters):
        x = (1 - damping) / n + damping * (a @ x + dangling @ x / n)
    return x


def dense_eigenvector(g, tol=1e-12, iters=100000):
    # same shifted power iteration, dense matrix route
    n = g.node_count
    a = np.zeros((n, n))
    for u, neigh in enumerate(g.adjacency):
        for v in neigh:
            a[u, v] = 1.0
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(iters):
        y = x + a @ x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < tol:
            return y
        x = y
    return x


class TestEigenvector:
    def test_cycle_uniform(self):
        res = eigenvector_scores(cycle(5))
        assert res.converged
        assert res.scores == pytest.approx([1 / np.sqrt(5)] * 5, abs=1e-8)

    def test_path_middle_highest(self, path3):
        res = eigenvector_scores(path3)
        assert res.scores[1] > res.scores[0]
        assert res.scores[1] > res.scores[2]

    def test_matches_dense_dominant_eigenvector(self):
        hits = 0
        for seed in range(10):
            g = generate_er(6, 0.5, random.Random(100 + seed))
            if g.edge_count == 0:
                continue
            res = eigenvector_scores(g, tol=1e-12, max_iter=200000)
            vals, vecs = np.linalg.eigh(dense_adj(g))
            dom = np.abs(vecs[:, -1])
            # compare only when the dominant eigenvalue is simple
            if vals[-1] - vals[-2] > 1e-9:
                assert np.allclose(res.scores, dom, atol=1e-6)
                hits += 1
        assert hits >= 5

    def test_edgeless_all_zero(self):
        g = load_edge_list("0 0\n1 1")
        res = eigenvector_scores(g)
        assert res.scores == [0.0, 0.0]


@pytest.mark.parametrize("method, scorer", [
    (RankingMethod.PAGERANK, "pagerank_scores"),
    (RankingMethod.EIGENVECTOR, "eigenvector_scores")])
def test_unconverged_power_iteration_warns(monkeypatch, method, scorer):
    g = cycle(4)
    monkeypatch.setattr(ranking, scorer,
                        lambda graph: PowerIterationResult([0.25] * 4, 1000, False))
    with pytest.warns(RuntimeWarning,
                      match=f"{method.value} power iteration did not "
                            f"converge in 1000 iterations"):
        assert method_scores(g, method) == [0.25] * 4


@pytest.mark.parametrize("method, scorer", [
    (RankingMethod.PAGERANK, "pagerank_scores"),
    (RankingMethod.EIGENVECTOR, "eigenvector_scores")])
def test_unconverged_ranking_keeps_it_and_warns(monkeypatch, method, scorer):
    g = cycle(4)
    monkeypatch.setattr(ranking, scorer,
                        lambda graph: PowerIterationResult([0.25] * 4, 1000, False))
    with pytest.warns(RuntimeWarning,
                      match=f"{method.value} power iteration did not "
                            f"converge in 1000 iterations"):
        r = rank(g, method, random.Random(0))
    assert (r.iterations, r.converged) == (1000, False)
    assert r.score == [0.25] * 4


def test_ranking_keeps_power_iteration_result():
    """A pagerank or eigenvector ranking carries its power iteration's count
    and convergence; the degree methods, random, and precomputed scores carry
    None."""
    g = generate_ba(60, 2, random.Random(4))
    for method, scorer in ((RankingMethod.PAGERANK, pagerank_scores),
                           (RankingMethod.EIGENVECTOR, eigenvector_scores)):
        result = scorer(g)
        r = rank(g, method, random.Random(0))
        assert (r.iterations, r.converged) == (result.iterations, True)
        assert r.score == result.scores
        given_scores = rank(g, method, random.Random(0), scores=result.scores)
        assert (given_scores.iterations, given_scores.converged) == (None, None)
        assert given_scores.order == r.order
    for method in (RankingMethod.DEGREE, RankingMethod.DEGREE2,
                   RankingMethod.RANDOM):
        r = rank(g, method, random.Random(0))
        assert (r.iterations, r.converged) == (None, None)


def test_converged_power_iteration_is_silent(recwarn):
    g = cycle(5)
    for method in (RankingMethod.PAGERANK, RankingMethod.EIGENVECTOR):
        method_scores(g, method)
    assert not [w for w in recwarn if w.category is RuntimeWarning]


# sha256 of the iteration count and the float.hex scores. From Python 3.12
# on, sum() of floats is compensated, which changes the eigenvector norms;
# its 3.12+ digests were computed with the same code under a pure-Python
# copy of 3.12's summation.
COMPENSATED_SUM = sys.version_info >= (3, 12)
PINNED_POWER_SHA256 = {
    ("ba", "pagerank_scores"):
        "e6d0856763356603c8b3924492aabaddeac043c2411ca02a22d1c8cbdd432113",
    ("er", "pagerank_scores"):
        "36f89a5374fa17a64275528a87bc1a4e17a5bbe8fb797723751b1f32c629dc4b",
    ("ba", "eigenvector_scores"): (
        "557fdd732a86bfb4a33ddb31591100bea860c84c95a0e2ce33ac4d51e5d24283"
        if COMPENSATED_SUM else
        "7488334d0c1dc99ee139e80d82ca531d38a0cd8521e14598ff5acc24859d5e13"),
    ("er", "eigenvector_scores"): (
        "ddb057ccc32fe39ad8e007b33034ffde5ae3397e852699f63c0bc825e1c696ff"
        if COMPENSATED_SUM else
        "8527305bb2614698d0701c0a55bba858c161f26d5f6c933089bd36eb194a6a51"),
}


@pytest.mark.parametrize("name, scorer", sorted(PINNED_POWER_SHA256))
def test_power_iteration_bits_pinned(name, scorer):
    # BA has no isolated node; this ER graph has 45, the dangling mass
    graph = (generate_ba(1000, 3, random.Random(1)) if name == "ba"
             else generate_er(1000, 0.003, random.Random(2)))
    res = getattr(ranking, scorer)(graph)
    assert res.converged
    text = "\n".join([str(res.iterations), *map(float.hex, res.scores)])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_POWER_SHA256[name, scorer]


# sha256 of the comma-joined order of each method's ranking, drawn from the
# grid's ranking stream. Degree and degree2 scores tie on both graphs, so
# their orders pin the tie-breaks; pagerank and eigenvector scores all
# differ, so theirs pin the tie-free sort. Computed on Python 3.11; a
# pure-Python copy of 3.12's compensated float sum gives the same orders.
PINNED_RANK_ORDER_SHA256 = {
    ("ba", "random"):
        "116cbc7c1486703bc8e660449a134282fdb070c9aae6d0d043f985a125e06535",
    ("ba", "degree"):
        "6d18bf561480251a2dbe00a66eacc0b3bc9d527d3ae3b15e4b57b674ba0221fe",
    ("ba", "degree2"):
        "0c5e7fa2d8d844dc3e99a3293aa4daddf870286110d20cb43b66f5828c9bb191",
    ("ba", "pagerank"):
        "3e6ede9619c072759c95195526ffe3a2601f9a112e038bdce7afc13e2510e396",
    ("ba", "eigenvector"):
        "ed3c07d9f76612857de0fdb8e0e66ac1809797559899ce8b614999a0db435c93",
    ("er", "random"):
        "d9d4cd652c743386ca00c0642c88722244172cef4912d26c6e0b5fd34d7c82c3",
    ("er", "degree"):
        "2b65a7f742a802c5f509b1f68bf25e4d69b929eced1c88d7b08fafd5ec056434",
    ("er", "degree2"):
        "d624816a38468c420068db3a56ecb8652d3858da39a2ea5d2ed575ed55fd0bcd",
    ("er", "pagerank"):
        "e5d6c338e12accc9c331a411cd67364db733b70d271abb5842c1911dbdea242a",
    ("er", "eigenvector"):
        "e77fbe7614285156eaf32e535c316dc2a63d6685b4f4802860c2c0a3492c8b59",
}


@pytest.mark.parametrize("name, method", sorted(PINNED_RANK_ORDER_SHA256))
def test_rank_order_pinned(name, method):
    graph = (generate_ba(1000, 3, random.Random(1)) if name == "ba"
             else generate_er(1000, 0.006, random.Random(2)))
    m = RankingMethod(method)
    order = rank(graph, m, derive_rng(7, name, m.value, "ranking")).order
    digest = hashlib.sha256(",".join(map(str, order)).encode()).hexdigest()
    assert digest == PINNED_RANK_ORDER_SHA256[name, method]


def dense_adj(g):
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 15), st.integers(0, 1000), st.integers(0, 1000))
def test_rank_order_is_permutation(n, gseed, rseed):
    g = generate_er(n, 0.3, random.Random(gseed))
    for method in (RankingMethod.DEGREE, RankingMethod.DEGREE2,
                   RankingMethod.RANDOM):
        r = rank(g, method, random.Random(rseed))
        assert sorted(r.order) == list(range(n))
