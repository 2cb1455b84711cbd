import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseed.graphs import generate_er, load_edge_list
from seqseed.ranking import (RankingMethod, eigenvector_scores, pagerank_scores,
                             rank)


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

    def test_rerank_same_seed_identical(self):
        g = generate_er(30, 0.2, random.Random(4))
        for method in RankingMethod:
            a = rank(g, method, random.Random(11))
            b = rank(g, method, random.Random(11))
            assert a.order == b.order
            assert a.score == b.score


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
