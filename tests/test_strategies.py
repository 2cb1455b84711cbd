import random

import pytest

from seqseed.diffusion import DiffusionState, activate_seeds, run_until_stop
from seqseed.graphs import ParameterError, generate_ba, generate_er, load_edge_list
from seqseed.ranking import Ranking, RankingMethod, rank
from seqseed.strategies import (StrategySpec, run_sn, run_sq_kps, run_sq_kps_b,
                                run_sq_kps_r, run_sq_tsn, run_sq_tsn_r,
                                run_strategy, seed_count)

from conftest import ValueRng


def degree_ranking(g, seed=0):
    return rank(g, RankingMethod.DEGREE, random.Random(seed))


def fixed_ranking(g, order):
    score = [0.0] * g.node_count
    for pos, v in enumerate(order):
        score[v] = float(g.node_count - pos)
    return Ranking(RankingMethod.DEGREE, list(order), score)


class TestSeedCount:
    def test_paper_examples(self):
        g900 = generate_er(900, 0.0, random.Random(0))
        assert seed_count(g900, 0.01) == 9
        g30 = generate_er(30, 0.0, random.Random(0))
        assert seed_count(g30, 0.20) == 6

    def test_minimum_clamp(self):
        g = generate_er(10, 0.0, random.Random(0))
        assert seed_count(g, 0.01) == 1

    def test_sp_out_of_range(self):
        g = generate_er(10, 0.0, random.Random(0))
        with pytest.raises(ParameterError):
            seed_count(g, 0.0)


class TestStrategySpec:
    def test_inline_labels(self):
        s = StrategySpec.parse("SQ_2PS_R")
        assert s.kind == "SQ_kPS_R" and s.k == 2
        assert s.label == "SQ_2PS_R"

    def test_kps_requires_k(self):
        with pytest.raises(ParameterError):
            StrategySpec.parse("SQ_kPS")

    def test_sn_takes_no_params(self):
        with pytest.raises(ParameterError):
            StrategySpec("SN", k=2)


class TestRunSN:
    def test_pp_zero(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_sn(g, degree_ranking(g), 5, 0.0, random.Random(0))
        assert t.coverage == 5
        assert t.duration == 0

    def test_pp_one_connected_covers_all(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_sn(g, degree_ranking(g), 3, 1.0, random.Random(0))
        assert t.coverage == 40

    def test_budget_over_node_count_rejected(self, path3):
        with pytest.raises(ParameterError):
            run_sn(path3, degree_ranking(path3), 4, 0.5, random.Random(0))

    def test_worked_example_single_stage(self):
        # 30-node BA sample, 6 top-degree seeds, pp=0.5: under the pinned rng
        # this run activates 18 nodes in 2 diffusion steps
        g = generate_ba(30, 2, random.Random(7))
        r = rank(g, RankingMethod.DEGREE, random.Random(1))
        t = run_sn(g, r, 6, 0.5, random.Random(330))
        assert t.coverage == 18
        assert t.duration == 2


class TestRunSqKps:
    def test_k_equals_n_reduces_to_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        for seed in range(20):
            a = run_sn(g, r, 8, 0.3, random.Random(seed))
            b = run_sq_kps(g, r, 8, 8, 0.3, random.Random(seed))
            assert a == b

    def test_pp_zero_one_injection_per_step(self):
        g = generate_ba(30, 2, random.Random(1))
        t = run_sq_kps(g, degree_ranking(g), 6, 1, 0.0, random.Random(0))
        assert t.coverage == 6
        assert t.duration == 5  # injections at steps 0..5

    def test_worked_example_one_per_stage(self):
        # same 30-node BA sample, one seed per stage: 24 activated under the
        # pinned rng, via dynamically skipping diffusion-activated nodes
        g = generate_ba(30, 2, random.Random(7))
        r = rank(g, RankingMethod.DEGREE, random.Random(1))
        t = run_sq_kps(g, r, 6, 1, 0.5, random.Random(17))
        assert t.coverage == 24

    def test_saturation_forfeits_budget(self, path3):
        t = run_sq_kps(path3, degree_ranking(path3), 3, 1, 1.0, random.Random(0))
        assert t.coverage == 3
        assert t.forfeited > 0


class TestRunSqKpsR:
    def test_pp_zero_each_stage_one_step(self):
        g = generate_ba(30, 2, random.Random(1))
        t = run_sq_kps_r(g, degree_ranking(g), 6, 1, 0.0, random.Random(0))
        assert t.coverage == 6
        assert t.duration == 5

    def test_reseeds_only_after_stop(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4")
        r = fixed_ranking(g, [0, 4, 1, 2, 3])
        t = run_sq_kps_r(g, r, 2, 1, 1.0, random.Random(0))
        # seed 0 diffuses along the whole path before 4's turn; 4 is then
        # already active so the budget lands on no one (all active)
        assert t.coverage == 5


class TestRunSqKpsB:
    def test_pp_zero_identical_to_kps(self):
        g = generate_ba(30, 2, random.Random(1))
        r = degree_ranking(g)
        a = run_sq_kps(g, r, 6, 2, 0.0, random.Random(5))
        b = run_sq_kps_b(g, r, 6, 2, 0.0, random.Random(5))
        assert a == b

    def test_scripted_buffer_spend(self):
        # path 0-1-2-3, ranking [0,1,2,3], n=3, k=1.
        # step 0: inject 0; 0->1 succeeds, so entry 1 is banked next step.
        g = load_edge_list("0 1\n1 2\n2 3")
        r = fixed_ranking(g, [0, 1, 2, 3])
        rng = ValueRng([
            0.0,  # 0 -> 1 succeeds: node 1 activated by diffusion
            0.9,  # 1 -> 2 fails (scheduled entry 1 was banked this step)
            0.9,  # 2 -> 1? no, 2 -> 3 fails after injecting node 2
        ])
        t = run_sq_kps_b(g, r, 3, 1, 0.5, rng)
        # banked unit is spent on node 3, the best inactive node, after stop
        assert t.coverage == 4
        injected = [v for e in t.entries for v in e.injected]
        assert injected == [0, 2, 3]

    def test_budget_safety(self):
        g = generate_ba(60, 2, random.Random(2))
        r = degree_ranking(g)
        for seed in range(30):
            t = run_sq_kps_b(g, r, 9, 2, 0.4, random.Random(seed))
            injected = [v for e in t.entries for v in e.injected]
            # every budget unit is either spent on a distinct node or forfeited
            assert len(injected) + t.forfeited == 9
            assert len(injected) == len(set(injected))

    def test_duration_close_to_kps(self):
        # buffering is meant to keep the non-revival schedule's time scale
        g = generate_ba(300, 3, random.Random(4))
        r = degree_ranking(g)
        reps = 300
        t_kps = [run_sq_kps(g, r, 15, 1, 0.15, random.Random(s)).duration
                 for s in range(reps)]
        t_b = [run_sq_kps_b(g, r, 15, 1, 0.15, random.Random(10_000 + s)).duration
               for s in range(reps)]
        ratio = (sum(t_b) / reps) / (sum(t_kps) / reps)
        assert 0.8 <= ratio <= 1.5


class TestRunSqTsn:
    def test_stage_sizes_front_loaded(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_sq_tsn(g, degree_ranking(g), 10, 4, 0.0, random.Random(0))
        sizes = [len(e.injected) for e in t.entries if e.injected]
        assert sizes == [3, 3, 2, 2]

    def test_tsn_one_equals_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        for seed in range(20):
            a = run_sn(g, r, 6, 0.3, random.Random(seed))
            b = run_sq_tsn(g, r, 6, 1, 0.3, random.Random(seed))
            assert a == b

    def test_fallback_to_one_per_stage(self):
        g = generate_ba(40, 2, random.Random(1))
        r = degree_ranking(g)
        a = run_sq_tsn(g, r, 3, 5, 0.0, random.Random(0))
        b = run_sq_kps(g, r, 3, 1, 0.0, random.Random(0))
        assert a == b
        assert sum(1 for e in a.entries if e.injected) == 3


class TestRunSqTsnR:
    def test_pp_zero_stage_count_steps(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_sq_tsn_r(g, degree_ranking(g), 10, 4, 0.0, random.Random(0))
        stages = sum(1 for e in t.entries if e.injected)
        assert stages == 4
        assert t.entries[-1].step == 4  # each stage lasted exactly one step

    def test_tsn_one_equals_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        a = run_sn(g, r, 6, 0.3, random.Random(99))
        b = run_sq_tsn_r(g, r, 6, 1, 0.3, random.Random(99))
        assert a == b


class TestBudgetSafetyAcrossStrategies:
    def run_all(self, g, r, n, pp, seed):
        yield run_sn(g, r, n, pp, random.Random(seed))
        yield run_sq_kps(g, r, n, 2, pp, random.Random(seed))
        yield run_sq_kps_r(g, r, n, 2, pp, random.Random(seed))
        yield run_sq_kps_b(g, r, n, 2, pp, random.Random(seed))
        yield run_sq_tsn(g, r, n, 3, pp, random.Random(seed))
        yield run_sq_tsn_r(g, r, n, 3, pp, random.Random(seed))

    def test_injections_distinct_and_bounded(self):
        g = generate_er(50, 0.08, random.Random(6))
        r = degree_ranking(g)
        for seed in range(10):
            for pp in (0.1, 0.5, 0.9):
                for t in self.run_all(g, r, 8, pp, seed):
                    injected = [v for e in t.entries for v in e.injected]
                    assert len(injected) <= 8
                    assert len(injected) == len(set(injected))

    def test_injected_seed_was_best_inactive(self):
        # the i-th seed is the highest-ranked node inactive at injection time
        g = generate_er(40, 0.1, random.Random(8))
        r = degree_ranking(g)
        t = run_sq_kps_r(g, r, 6, 1, 0.5, random.Random(4))
        active = set()
        pos = {v: i for i, v in enumerate(r.order)}
        for e in t.entries:
            # within a step, diffusion activations land before the injection
            active.update(e.activated)
            for s in e.injected:
                best = min((v for v in range(40) if v not in active),
                           key=lambda v: pos[v])
                assert s == best
                active.add(s)


class TestRunStrategyDispatch:
    def test_tsn_needs_reference(self):
        g = generate_ba(30, 2, random.Random(1))
        spec = StrategySpec("SQ_TSN")
        with pytest.raises(ParameterError, match="t_sn"):
            run_strategy(g, degree_ranking(g), spec, 4, 0.2, random.Random(0))

    def test_dispatch_matches_direct_calls(self):
        g = generate_ba(30, 2, random.Random(1))
        r = degree_ranking(g)
        pairs = [
            (StrategySpec("SN"), run_sn(g, r, 4, 0.2, random.Random(1))),
            (StrategySpec("SQ_kPS", k=2),
             run_sq_kps(g, r, 4, 2, 0.2, random.Random(1))),
            (StrategySpec("SQ_TSN", t_sn=2),
             run_sq_tsn(g, r, 4, 2, 0.2, random.Random(1))),
        ]
        for spec, expect in pairs:
            got = run_strategy(g, r, spec, 4, 0.2, random.Random(1))
            assert got == expect
