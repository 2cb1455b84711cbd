import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

from seqseed.diffusion import (UNTIL_STOP, DiffusionState, activate_seeds,
                               advance, run_until_stop, sample_world)
from seqseed.graphs import (Graph, ParameterError, generate_ba, generate_er,
                            load_edge_list)

from conftest import components, cumulative_at, expected_coverage_exact


class TestActivateSeeds:
    def test_inject_six_seeds(self):
        g = generate_er(30, 0.1, random.Random(1))
        st = DiffusionState(g)
        activate_seeds(st, list(range(6)))
        assert st.coverage == 6
        assert len(st.frontier) == 6

    def test_new_state_holds_step_zero(self, path3):
        st = DiffusionState(path3)
        assert st.cumulative == st.injected == [0] and st.seeds == []
        assert st.coverage == 0 and cumulative_at(st, 0) == 0

    def test_inject_nothing_is_noop(self, path3):
        st = DiffusionState(path3)
        activate_seeds(st, [])
        assert st == DiffusionState(path3)
        assert st.coverage == 0 and st.seeds == []

    def test_already_active_seed_rejected(self, path3):
        st = DiffusionState(path3)
        activate_seeds(st, [0])
        with pytest.raises(ValueError):
            activate_seeds(st, [0])

    def test_rejected_batch_leaves_state_unchanged(self, path3):
        st = DiffusionState(path3)
        activate_seeds(st, [1])
        with pytest.raises(ValueError, match="seed 1 is already active"):
            activate_seeds(st, [2, 1])
        with pytest.raises(ValueError, match="repeat a node"):
            activate_seeds(st, [0, 0])
        assert st.flags == bytearray([0, 1, 0])
        assert st.coverage == 1 and st.frontier == [1]
        assert st.seeds == [1] and st.cumulative == [1]

    def test_injections_at_one_step_share_its_entry(self, path3):
        st = DiffusionState(path3)
        activate_seeds(st, [0])
        activate_seeds(st, [2])
        assert st.seeds == [0, 2] and st.frontier == [0, 2]
        assert st.cumulative == [2] and st.injected == [2]


class TestAdvanceSeeds:
    def test_repeated_node_rejected_state_unchanged(self, path3):
        # left in, a repeat would count one node twice: [2, 2] gave
        # coverage 2 with one active flag
        st = DiffusionState(path3)
        live = [[1], [0, 2], [1]]
        with pytest.raises(ValueError, match=r"seeds repeat a node: \[2, 2\]"):
            advance(st, live, UNTIL_STOP, [2, 2])
        with pytest.raises(ValueError, match=r"seeds repeat a node: \[0, 2, 0\]"):
            advance(st, live, UNTIL_STOP, [0, 2, 0])
        assert st == DiffusionState(path3)


class TestSampleWorld:
    def test_bad_pp_rejected(self, star5):
        for pp in (-0.1, 1.5):
            with pytest.raises(ParameterError):
                sample_world(star5, pp, random.Random(0))

    def test_no_directed_edge_twice(self):
        # each directed edge has one coin per world, so a run tries it at
        # most once; every live list is a sorted subset of the adjacency
        for seed in range(20):
            g = generate_er(25, 0.15, random.Random(seed))
            live = sample_world(g, 0.5, random.Random(seed))
            for u, out in enumerate(live):
                assert list(out) == sorted(set(out))
                assert set(out) <= set(g.adjacency[u])

    def test_pp_zero_empty_pp_one_full(self):
        g = load_edge_list("0 1\n1 2\n2 0\n2 3\n4 5\n6 6")  # 6 isolated
        assert all(not out for out in sample_world(g, 0.0, random.Random(0)))
        full = sample_world(g, 1.0, random.Random(0))
        assert [list(out) for out in full] == g.adjacency

    def test_edge_frequency_close_to_pp(self):
        # every directed edge of a small BA graph is live ~ Binomial(T, pp)
        g = generate_ba(12, 2, random.Random(4))
        rng = random.Random(99)
        trials = 4000
        for pp in (0.1, 0.5, 0.9):
            counts = {}
            for _ in range(trials):
                for u, out in enumerate(sample_world(g, pp, rng)):
                    for v in out:
                        counts[u, v] = counts.get((u, v), 0) + 1
            sd = math.sqrt(pp * (1 - pp) / trials)
            for u, v in zip(*g.arcs):
                # 5 sd per edge keeps the family-wise false alarm rate tiny
                assert abs(counts.get((u, v), 0) / trials - pp) < 5 * sd


class TestIcStep:
    def test_pp_zero_stops(self, star5):
        st = DiffusionState(star5)
        activate_seeds(st, [0])
        advance(st, sample_world(star5, 0.0, random.Random(0)), 1)
        assert st.frontier == []

    def test_pp_one_activates_all_neighbors(self, star5):
        st = DiffusionState(star5)
        activate_seeds(st, [0])
        live = sample_world(star5, 1.0, random.Random(0))
        advance(st, live, 1)
        assert st.frontier == [1, 2, 3, 4]

    def test_star_binomial_mean(self, star5):
        # 4 leaves at pp=0.5: newly activated ~ Binomial(4, 0.5)
        rng = random.Random(123)
        trials = 10 ** 5
        total = 0
        for _ in range(trials):
            st = DiffusionState(star5)
            activate_seeds(st, [0])
            advance(st, sample_world(star5, 0.5, rng), 1)
            total += len(st.frontier)
        assert total / trials == pytest.approx(2.0, abs=0.05)

    def test_empty_frontier_takes_no_step(self, path3):
        st = DiffusionState(path3)
        advance(st, [[1], [0, 2], [1]], 1)
        assert st.frontier == [] and len(st.cumulative) - 1 == 0
        assert st == DiffusionState(path3)


class TestRunUntilStop:
    def test_pp_one_bfs_equivalence(self):
        g = generate_er(40, 0.08, random.Random(9))
        st = DiffusionState(g)
        activate_seeds(st, [0])
        run_until_stop(st, g, 1.0, random.Random(0))
        comp = next(c for c in components(g) if 0 in c)
        assert st.coverage == len(comp)
        assert st.duration == eccentricity(g, 0, comp)

    def test_pp_zero(self, path3):
        st = DiffusionState(path3)
        activate_seeds(st, [0, 2])
        run_until_stop(st, path3, 0.0, random.Random(0))
        assert st.coverage == 2
        assert st.duration == 0

    def test_path_expected_coverage_monte_carlo(self, path3):
        # seed {0}: 1 + 1/2 + 1/4 = 1.75 expected
        rng = random.Random(7)
        trials = 10 ** 5
        total = 0
        for _ in range(trials):
            st = DiffusionState(path3)
            activate_seeds(st, [0])
            run_until_stop(st, path3, 0.5, rng)
            total += st.coverage
        mean = total / trials
        se = math.sqrt(0.6875 / trials)  # Var = E[C^2]-E[C]^2 = 0.6875
        assert abs(mean - 1.75) < 3 * se

    def test_terminates_within_n_steps(self):
        g = generate_er(50, 0.1, random.Random(3))
        st = DiffusionState(g)
        activate_seeds(st, [0, 1])
        run_until_stop(st, g, 0.7, random.Random(2))
        assert len(st.cumulative) - 1 <= g.node_count

    def test_monotone_cumulative_coverage(self):
        g = generate_er(40, 0.1, random.Random(12))
        st = DiffusionState(g)
        activate_seeds(st, list(range(4)))
        run_until_stop(st, g, 0.4, random.Random(5))
        cums = st.cumulative
        steps = len(cums) - 1
        assert cums == sorted(cums)
        assert cums[-1] == st.coverage == sum(st.flags)
        assert st.injected == [4] + [0] * steps

    def test_determinism(self):
        g = generate_er(60, 0.06, random.Random(2))
        runs = []
        for _ in range(2):
            st = DiffusionState(g)
            activate_seeds(st, [3, 7, 11])
            run_until_stop(st, g, 0.3, random.Random(777))
            runs.append(st)
        a, b = runs
        assert (a.cumulative, a.injected, a.seeds, a.flags, a.coverage,
                a.duration) == (b.cumulative, b.injected, b.seeds, b.flags,
                                b.coverage, b.duration)
        assert a == b  # equality compares every field
        assert a.coverage > 3  # the run spread past its seeds


def last_active_step(cumulative):
    """Brute force: the last step whose count rose above the count before
    it (0 before step 0), or 0 if none did."""
    rose = [s for s, c in enumerate(cumulative)
            if c > (cumulative[s - 1] if s else 0)]
    return rose[-1] if rose else 0


class TestDuration:
    """`duration` is read off the counts: any sequence of `advance` calls
    leaves at most the last step quiet, so it is the last step or the one
    before it."""

    @settings(max_examples=300, deadline=None)
    @given(hst.data())
    def test_duration_is_last_active_step(self, data):
        size = data.draw(hst.integers(1, 8))
        pairs = list(itertools.combinations(range(size), 2))
        g = Graph(size, sorted(data.draw(
            hst.lists(hst.sampled_from(pairs), unique=True, max_size=12)
            if pairs else hst.just([]))))
        live = [[] for _ in range(size)]
        for u, v in zip(*g.arcs):
            if data.draw(hst.booleans()):
                live[u].append(v)
        state = DiffusionState(g)
        for _ in range(data.draw(hst.integers(1, 8))):
            steps = data.draw(hst.sampled_from([0, 1, 2, UNTIL_STOP]))
            inactive = [v for v in range(size) if not state.flags[v]]
            # a batch may land on a quiet last step, which it makes active
            batch = data.draw(hst.lists(hst.sampled_from(inactive),
                                        unique=True) if inactive
                              else hst.just([]))
            advance(state, live, steps, batch)
            cum = state.cumulative
            assert state.duration == last_active_step(cum)
            assert state.last_activity == state.duration
            assert all(cum[s] > (cum[s - 1] if s else 0)
                       for s in range(len(cum) - 1)), cum


def eccentricity(g, source, comp):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return max(dist[v] for v in comp)


class TestExactOracle:
    def test_pp_one_union_of_components(self):
        g = load_edge_list("0 1\n1 2\n3 4")
        assert expected_coverage_exact(g, [0], 1.0) == pytest.approx(3.0)
        assert expected_coverage_exact(g, [0, 3], 1.0) == pytest.approx(5.0)

    def test_pp_zero_counts_seeds(self, path3):
        assert expected_coverage_exact(path3, [0, 2], 0.0) == pytest.approx(2.0)

    def test_path_hand_enumeration(self, path3):
        assert expected_coverage_exact(path3, [0], 0.5) == pytest.approx(1.75)
        assert expected_coverage_exact(path3, [0], Fraction(1, 2)) == Fraction(7, 4)

    def test_refuses_large_graphs(self):
        g = generate_er(10, 1.0, random.Random(0))  # 45 edges
        with pytest.raises(ParameterError, match="too many edges"):
            expected_coverage_exact(g, [0], 0.5)

    def test_monte_carlo_agreement_small(self):
        # spot check ahead of the full acceptance sweep
        g = generate_er(7, 0.3, random.Random(21))
        exact = expected_coverage_exact(g, [0, 1], 0.4)
        rng = random.Random(5)
        trials = 20000
        vals = []
        for _ in range(trials):
            st = DiffusionState(g)
            activate_seeds(st, [0, 1])
            run_until_stop(st, g, 0.4, rng)
            vals.append(st.coverage)
        mean = sum(vals) / trials
        var = sum((v - mean) ** 2 for v in vals) / (trials - 1)
        assert abs(mean - exact) < 3 * math.sqrt(var / trials) + 1e-9
