import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqseed.graphs import (Graph, GraphParseError, ParameterError, generate_ba,
                            generate_er, load_edge_list, serialize, skip_sample)

from conftest import components


class TestGraph:
    def test_adjacency_sorted_and_edge_count(self):
        g = Graph(4, [(2, 0), (0, 1), (3, 0)])
        assert g.adjacency == [[1, 2, 3], [0], [0], [0]]
        assert g.edge_count == 3
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("edges", [
        [(0, -1)], [(-3, 1)], [(0, 3)], [(3, 0)], [(1, 1)],
        [(0, 1), (0, 1)], [(0, 1), (1, 0)],
    ], ids=["negative", "negative-first", "above-n", "above-n-first",
            "self-loop", "repeated", "reversed"])
    def test_unclean_edges_rejected(self, edges):
        with pytest.raises(ValueError, match=r"simple edges between ids 0\.\.2"):
            Graph(3, edges)

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c", "d"], []],
                             ids=["short", "long", "empty"])
    def test_labels_of_wrong_length_rejected(self, labels):
        with pytest.raises(ValueError, match=f"3 labels, got {len(labels)}"):
            Graph(3, [(0, 1), (1, 2)], labels=labels)


class TestLoadEdgeList:
    def test_path_graph(self):
        g = load_edge_list("0 1\n1 2")
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_dedup_and_self_loops(self):
        g = load_edge_list("a b\nb a\na a")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.dropped_duplicates == 1
        assert g.dropped_self_loops == 1

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# header\n\n0 1\n# mid\n1 2\n")
        assert g.edge_count == 2

    def test_first_appearance_label_order(self):
        g = load_edge_list("x y\ny z")
        assert g.labels == ["x", "y", "z"]

    def test_byte_order_mark_dropped(self):
        """One leading U+FEFF, as a UTF-8 editor saves it, is no part of
        the first label."""
        g = load_edge_list("\ufeff1 2\n2 3\n3 1\n")
        assert g.labels == ["1", "2", "3"]
        assert g.edge_count == 3
        assert load_edge_list("\ufeff\ufeff1 2").labels == ["\ufeff1", "2"]

    def test_label_of_a_dropped_self_loop_kept(self):
        """A label seen only in a self-loop is still a node, with the id of
        its first appearance."""
        g = load_edge_list("a a\nb c\nc b\n")
        assert g.labels == ["a", "b", "c"]
        assert g.adjacency == [[], [2], [1]]
        assert (g.dropped_self_loops, g.dropped_duplicates) == (1, 1)

    def test_edge_order_does_not_reach_the_graph(self):
        g = load_edge_list("0 1\n0 2\n1 2\n")
        h = load_edge_list("0 1\n1 2\n0 2\n")
        assert g.labels == h.labels == ["0", "1", "2"]
        assert g.adjacency == h.adjacency == [[1, 2], [0, 2], [0, 1]]

    def test_malformed_line_names_line_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_edge_list("0 1\n0 1 2")

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            load_edge_list("# only comments\n")

    def test_roundtrip_identity_on_edge_set(self):
        text = "a b\nb c\nc a\nd a"
        g = load_edge_list(text)
        buf = io.StringIO()
        serialize(g, buf)
        g2 = load_edge_list(buf.getvalue())
        edges = {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges()}
        edges2 = {frozenset((g2.labels[u], g2.labels[v])) for u, v in g2.edges()}
        assert edges == edges2


def check_invariants(g):
    assert sum(len(a) for a in g.adjacency) == 2 * g.edge_count
    for u, neigh in enumerate(g.adjacency):
        assert len(set(neigh)) == len(neigh)
        for v in neigh:
            assert v != u
            assert u in g.adjacency[v]


class TestGenerateBA:
    def test_30_nodes_m2_edge_count(self):
        # triangle seed clique, then 2 edges per each of the 27 later nodes
        g = generate_ba(30, 2, random.Random(7))
        assert g.node_count == 30
        assert g.edge_count == 2 * 27 + 3
        check_invariants(g)

    def test_connected(self):
        g = generate_ba(200, 3, random.Random(0))
        assert len(components(g)) == 1

    def test_boundary_n_must_exceed_m(self):
        generate_ba(5, 4, random.Random(0))  # accepted
        with pytest.raises(ParameterError):
            generate_ba(4, 4, random.Random(0))

    def test_determinism(self):
        a = generate_ba(60, 2, random.Random(42))
        b = generate_ba(60, 2, random.Random(42))
        assert a.adjacency == b.adjacency


class TestGenerateER:
    def test_p_zero_edgeless(self):
        g = generate_er(50, 0.0, random.Random(1))
        assert g.edge_count == 0

    def test_p_one_complete(self):
        g = generate_er(20, 1.0, random.Random(1))
        assert g.edge_count == 20 * 19 // 2

    def test_edge_count_within_4_sigma(self):
        n, p = 1000, 0.01
        pairs = n * (n - 1) // 2
        mean = pairs * p
        sigma = math.sqrt(pairs * p * (1 - p))
        g = generate_er(n, p, random.Random(99))
        assert abs(g.edge_count - mean) < 4 * sigma

    def test_p_out_of_range(self):
        with pytest.raises(ParameterError):
            generate_er(10, 1.5, random.Random(0))

    def test_pair_frequency_close_to_p(self):
        # skip sampling over the pairs in row order keeps each pair ~ p
        n, p, trials = 8, 0.3, 4000
        rng = random.Random(17)
        counts = {}
        for _ in range(trials):
            for e in generate_er(n, p, rng).edges():
                counts[e] = counts.get(e, 0) + 1
        sd = math.sqrt(p * (1 - p) / trials)
        for u in range(n):
            for v in range(u + 1, n):
                assert abs(counts.get((u, v), 0) / trials - p) < 5 * sd


class CountingRng(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_skip_sample_one_draw_per_kept_index(p):
    rng = CountingRng(3)
    kept = list(skip_sample(1000, p, rng))
    assert kept == sorted(set(kept)) and all(0 <= i < 1000 for i in kept)
    if p in (0.0, 1.0):
        assert len(kept) == 1000 * p and rng.draws == 0
    else:
        assert rng.draws == len(kept) + 1


class TestComponents:
    def test_path_single_component(self):
        g = load_edge_list("0 1\n1 2")
        assert components(g) == [[0, 1, 2]]

    def test_two_triangles(self):
        g = load_edge_list("a b\nb c\nc a\nx y\ny z\nz x")
        comps = components(g)
        assert sorted(len(c) for c in comps) == [3, 3]

    def test_every_node_in_exactly_one_component(self):
        g = generate_er(40, 0.05, random.Random(5))
        comps = components(g)
        flat = sorted(v for c in comps for v in c)
        assert flat == list(range(40))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.floats(0, 1), st.integers(0, 10_000))
def test_er_invariants(n, p, seed):
    check_invariants(generate_er(n, p, random.Random(seed)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(0, 10_000),
       st.integers(1, 40))
def test_ba_invariants(m, seed, extra):
    n = m + extra
    check_invariants(generate_ba(n, m, random.Random(seed)))
