import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from seqseed.diffusion import advance, sample_world
from seqseed.graphs import (Graph, ParameterError, generate_ba, generate_er,
                            load_edge_list)
from seqseed.ranking import Ranking, RankingMethod, rank
from seqseed.strategies import (StrategySpec, _plan, run_on_worlds,
                                run_strategy, seed_count)

from conftest import (cumulative_at, exact_process_expectation,
                      first_step_reaching, per_config_states)


def degree_ranking(g, seed=0):
    return rank(g, RankingMethod.DEGREE, random.Random(seed))


def run_on(g, r, spec, n, live, t_sn=None):
    """The one state that `run_on_worlds` returns for the single world
    `live` at budget n."""
    ((state,),) = run_on_worlds(g, r, spec, [n], [live], t_sn).values()
    return state


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

    @pytest.mark.parametrize("k", ["2", True, 2.0],
                             ids=["k-str", "k-bool", "k-float"])
    def test_non_int_parameter_rejected(self, k):
        with pytest.raises(ParameterError, match=f"k must be an int, got {k!r}"):
            StrategySpec("SQ_kPS", k=k)

    def test_sn_takes_no_params(self):
        with pytest.raises(ParameterError):
            StrategySpec("SN", k=2)

    def test_tsn_takes_no_k(self):
        for kind in ("SQ_TSN", "SQ_TSN_R"):
            with pytest.raises(ParameterError,
                               match=f"^{kind} takes no k parameter$"):
                StrategySpec(kind, k=2)

    @pytest.mark.parametrize("label, message", [
        ("SQ_QPS", "unknown strategy kind: 'SQ_QPS'"),
        ("SQ_0PS", "unknown strategy kind: 'SQ_0PS'"),
        ("SQ_02PS", "unknown strategy kind: 'SQ_02PS'"),
        ("SQ_2PS_X", "unknown strategy kind: 'SQ_2PS_X'"),
        ("SQ_2PS_R_B", "unknown strategy kind: 'SQ_2PS_R_B'"),
    ], ids=["unknown", "k-zero", "leading-zero", "bad-suffix", "two-suffixes"])
    def test_parse_rejects(self, label, message):
        """A label names k >= 1 without leading zeros, and one suffix at
        most; a kind name with no k is no label (`test_kps_requires_k`)."""
        with pytest.raises(ParameterError, match=f"^{message}$"):
            StrategySpec.parse(label)

    @pytest.mark.parametrize("label, spec", [
        ("SN", StrategySpec("SN")),
        ("SQ_TSN", StrategySpec("SQ_TSN")),
        ("SQ_TSN_R", StrategySpec("SQ_TSN_R")),
        ("SQ_1PS", StrategySpec("SQ_kPS", k=1)),
        ("SQ_3PS_R", StrategySpec("SQ_kPS_R", k=3)),
        ("SQ_12PS_B", StrategySpec("SQ_kPS_B", k=12)),
    ], ids=["SN", "TSN", "TSN_R", "kPS-k", "kPS_R-k", "kPS_B-k"])
    def test_parse_accepts(self, label, spec):
        """`parse` inverts `label` for every label form, and ignores the
        space around a label."""
        assert StrategySpec.parse(label) == spec
        assert spec.label == label
        assert StrategySpec.parse(f" {label} ") == spec


class TestRunSN:
    def test_pp_zero(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SN"),
                         5, 0.0, random.Random(0))
        assert t.coverage == 5
        assert t.duration == 0

    def test_pp_one_connected_covers_all(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SN"),
                         3, 1.0, random.Random(0))
        assert t.coverage == 40

    def test_budget_over_node_count_rejected(self, path3):
        with pytest.raises(ParameterError):
            run_strategy(path3, degree_ranking(path3), StrategySpec("SN"),
                         4, 0.5, random.Random(0))

    def test_worked_example_single_stage(self):
        # 30-node BA sample, 6 top-degree seeds, pp=0.5: on the world sampled
        # from the pinned rng this run activates 23 nodes in 2 diffusion steps
        g = generate_ba(30, 2, random.Random(7))
        r = rank(g, RankingMethod.DEGREE, random.Random(1))
        t = run_strategy(g, r, StrategySpec("SN"), 6, 0.5, random.Random(330))
        assert t.coverage == 23
        assert t.duration == 2


class TestRunSqKps:
    def test_k_equals_n_reduces_to_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        for seed in range(20):
            a = run_strategy(g, r, StrategySpec("SN"), 8, 0.3, random.Random(seed))
            b = run_strategy(g, r, StrategySpec("SQ_kPS", k=8),
                             8, 0.3, random.Random(seed))
            assert a == b

    def test_pp_zero_one_injection_per_step(self):
        g = generate_ba(30, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SQ_kPS", k=1),
                         6, 0.0, random.Random(0))
        assert t.coverage == 6
        assert t.duration == 5  # injections at steps 0..5

    def test_worked_example_one_per_stage(self):
        # same 30-node BA sample, one seed per stage: 28 activated on the
        # world of the pinned rng, via dynamically skipping
        # diffusion-activated nodes
        g = generate_ba(30, 2, random.Random(7))
        r = rank(g, RankingMethod.DEGREE, random.Random(1))
        t = run_strategy(g, r, StrategySpec("SQ_kPS", k=1),
                         6, 0.5, random.Random(17))
        assert t.coverage == 28

    def test_saturation_forfeits_budget(self, path3):
        t = run_strategy(path3, degree_ranking(path3), StrategySpec("SQ_kPS", k=1),
                         3, 1.0, random.Random(0))
        assert t.coverage == 3
        assert len(t.seeds) < 3  # the rest of the budget is forfeited


class TestRunSqKpsR:
    def test_pp_zero_each_stage_one_step(self):
        g = generate_ba(30, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SQ_kPS_R", k=1),
                         6, 0.0, random.Random(0))
        assert t.coverage == 6
        assert t.duration == 5

    def test_reseeds_only_after_stop(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4")
        r = fixed_ranking(g, [0, 4, 1, 2, 3])
        t = run_strategy(g, r, StrategySpec("SQ_kPS_R", k=1),
                         2, 1.0, random.Random(0))
        # seed 0 diffuses along the whole path before 4's turn; 4 is then
        # already active so the budget lands on no one (all active)
        assert t.coverage == 5


class TestRunSqKpsB:
    def test_pp_zero_identical_to_kps(self):
        g = generate_ba(30, 2, random.Random(1))
        r = degree_ranking(g)
        a = run_strategy(g, r, StrategySpec("SQ_kPS", k=2), 6, 0.0, random.Random(5))
        b = run_strategy(g, r, StrategySpec("SQ_kPS_B", k=2),
                         6, 0.0, random.Random(5))
        assert a == b

    def test_scripted_buffer_spend(self):
        # path 0-1-2-3, ranking [0,1,2,3], n=3, k=1.
        # step 0: inject 0; 0->1 succeeds, so entry 1 is banked next step.
        g = load_edge_list("0 1\n1 2\n2 3")
        r = fixed_ranking(g, [0, 1, 2, 3])
        live = [
            [1],  # 0 -> 1 succeeds: node 1 activated by diffusion
            [],   # 1 -> 2 fails (scheduled entry 1 was banked this step)
            [],   # 2 -> 3 fails after injecting node 2
            [],
        ]
        t = run_on(g, r, StrategySpec("SQ_kPS_B", k=1), 3, live)
        # banked unit is spent on node 3, the best inactive node, after stop
        assert t.coverage == 4
        assert t.seeds == [0, 2, 3]
        # step 1 banks entry 1; the bank is spent at step 3, after the stop
        assert t.injected == [1, 0, 1, 1, 0]
        assert t.cumulative == [1, 2, 3, 4, 4]

    def test_budget_safety(self):
        g = generate_ba(60, 2, random.Random(2))
        r = degree_ranking(g)
        for seed in range(30):
            t = run_strategy(g, r, StrategySpec("SQ_kPS_B", k=2),
                             9, 0.4, random.Random(seed))
            # no budget unit is spent twice or beyond the budget
            assert len(t.seeds) <= 9
            assert len(t.seeds) == len(set(t.seeds)) == sum(t.injected)

    def test_duration_close_to_kps(self):
        # buffering is meant to keep the non-revival schedule's time scale
        g = generate_ba(300, 3, random.Random(4))
        r = degree_ranking(g)
        reps = 300
        t_kps = [run_strategy(g, r, StrategySpec("SQ_kPS", k=1),
                              15, 0.15, random.Random(s)).duration
                 for s in range(reps)]
        t_b = [run_strategy(g, r, StrategySpec("SQ_kPS_B", k=1),
                            15, 0.15, random.Random(10_000 + s)).duration
               for s in range(reps)]
        ratio = (sum(t_b) / reps) / (sum(t_kps) / reps)
        assert 0.8 <= ratio <= 1.5


class TestRunSqTsn:
    def test_stage_sizes_front_loaded(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SQ_TSN"),
                         10, 0.0, random.Random(0), t_sn=4)
        sizes = [c for c in t.injected if c]
        assert sizes == [3, 3, 2, 2]

    def test_tsn_one_equals_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        for seed in range(20):
            a = run_strategy(g, r, StrategySpec("SN"), 6, 0.3, random.Random(seed))
            b = run_strategy(g, r, StrategySpec("SQ_TSN"),
                             6, 0.3, random.Random(seed), t_sn=1)
            assert a == b

    def test_fallback_to_one_per_stage(self):
        g = generate_ba(40, 2, random.Random(1))
        r = degree_ranking(g)
        a = run_strategy(g, r, StrategySpec("SQ_TSN"),
                         3, 0.0, random.Random(0), t_sn=5)
        b = run_strategy(g, r, StrategySpec("SQ_kPS", k=1), 3, 0.0, random.Random(0))
        assert a == b
        assert sum(1 for c in a.injected if c) == 3


class TestRunSqTsnR:
    def test_pp_zero_stage_count_steps(self):
        g = generate_ba(40, 2, random.Random(1))
        t = run_strategy(g, degree_ranking(g), StrategySpec("SQ_TSN_R"),
                         10, 0.0, random.Random(0), t_sn=4)
        stages = sum(1 for c in t.injected if c)
        assert stages == 4
        assert len(t.cumulative) - 1 == 4  # each stage lasted exactly one step

    def test_tsn_one_equals_sn(self):
        g = generate_ba(50, 2, random.Random(3))
        r = degree_ranking(g)
        a = run_strategy(g, r, StrategySpec("SN"), 6, 0.3, random.Random(99))
        b = run_strategy(g, r, StrategySpec("SQ_TSN_R"),
                         6, 0.3, random.Random(99), t_sn=1)
        assert a == b


class TestBudgetSafetyAcrossStrategies:
    def run_all(self, g, r, n, pp, seed):
        yield run_strategy(g, r, StrategySpec("SN"), n, pp, random.Random(seed))
        yield run_strategy(g, r, StrategySpec("SQ_kPS", k=2),
                           n, pp, random.Random(seed))
        yield run_strategy(g, r, StrategySpec("SQ_kPS_R", k=2),
                           n, pp, random.Random(seed))
        yield run_strategy(g, r, StrategySpec("SQ_kPS_B", k=2),
                           n, pp, random.Random(seed))
        yield run_strategy(g, r, StrategySpec("SQ_TSN"),
                           n, pp, random.Random(seed), t_sn=3)
        yield run_strategy(g, r, StrategySpec("SQ_TSN_R"),
                           n, pp, random.Random(seed), t_sn=3)

    def test_injections_distinct_and_bounded(self):
        g = generate_er(50, 0.08, random.Random(6))
        r = degree_ranking(g)
        for seed in range(10):
            for pp in (0.1, 0.5, 0.9):
                for t in self.run_all(g, r, 8, pp, seed):
                    assert len(t.seeds) <= 8
                    assert len(t.seeds) == len(set(t.seeds))

    def test_injected_seed_was_best_inactive(self):
        # the i-th seed is the highest-ranked node inactive at injection time
        # SQ_kPS_R injects once diffusion stops, so what is active then is
        # the live-edge closure of the earlier seeds
        g = generate_er(40, 0.1, random.Random(8))
        r = degree_ranking(g)
        live = sample_world(g, 0.5, random.Random(4))
        t = run_on(g, r, StrategySpec("SQ_kPS_R", k=1), 6, live)
        pos = {v: i for i, v in enumerate(r.order)}
        for i, s in enumerate(t.seeds):
            active = closure(live, t.seeds[:i])
            best = min((v for v in range(40) if v not in active),
                       key=lambda v: pos[v])
            assert s == best
        assert active_set(t) == closure(live, t.seeds)
        # budget is forfeited only once every node is active
        assert len(t.seeds) == 6 or len(active_set(t)) == 40


class TestRunStrategyDispatch:
    def test_tsn_needs_reference(self):
        g = generate_ba(30, 2, random.Random(1))
        spec = StrategySpec("SQ_TSN")
        with pytest.raises(ParameterError, match="t_sn"):
            run_strategy(g, degree_ranking(g), spec, 4, 0.2, random.Random(0))

    @pytest.mark.parametrize("label", ["SN", "SQ_2PS", "SQ_2PS_R", "SQ_2PS_B",
                                       "SQ_TSN", "SQ_TSN_R"])
    def test_empty_budget_list_rejected(self, label):
        """Every kind fails one way on no budgets, before any plan."""
        g = generate_ba(30, 2, random.Random(1))
        live = sample_world(g, 0.2, random.Random(0))
        with pytest.raises(ParameterError, match="at least one budget"):
            run_on_worlds(g, degree_ranking(g), StrategySpec.parse(label), [],
                          [live], 2)


class TestPlan:
    """`_plan`'s shared stage sizes and each budget's checkpoint `(q, n)`:
    after q shared stages, n's run spends what its budget has left."""

    @pytest.mark.parametrize("label, budgets, t_sn, plan", [
        # SN: every budget spends all of it at once, before any stage
        ("SN", [3, 5], None, ([], [(0, 3), (0, 5)])),
        # a budget that k divides ends after its last full stage; 5 ends
        # after its two full stages and places its fifth seed at the
        # checkpoint
        ("SQ_2PS", [2, 4, 5], None, ([2, 2], [(1, 2), (2, 4), (2, 5)])),
        # n >= t_sn: t_sn stages, front-loaded, the last at the checkpoint
        ("SQ_TSN", [10], 4, ([3, 3, 2], [(3, 10)])),
        # n < t_sn: one seed per stage, as SQ_1PS
        ("SQ_TSN_R", [3], 5, ([1, 1], [(2, 3)])),
    ], ids=["SN", "SQ_kPS", "TSN-front-loaded", "TSN-fallback"])
    def test_plan(self, label, budgets, t_sn, plan):
        assert _plan(StrategySpec.parse(label), budgets, t_sn) == plan


def all_kinds(k):
    return [StrategySpec("SN"), StrategySpec("SQ_kPS", k=k),
            StrategySpec("SQ_kPS_R", k=k), StrategySpec("SQ_kPS_B", k=k),
            StrategySpec("SQ_TSN"), StrategySpec("SQ_TSN_R")]


def active_set(trace):
    return {v for v, flag in enumerate(trace.flags) if flag}


def closure(live, seeds):
    """The nodes reachable from `seeds` over live edges, by BFS."""
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for v in live[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def world_from_coins(g, coins):
    """The live adjacency with arc i of `g.arcs` live iff coins[i]."""
    live = [[] for _ in range(g.node_count)]
    for u, v, coin in zip(*g.arcs, coins):
        if coin:
            live[u].append(v)
    return live


@st.composite
def world_cases(draw):
    """A small graph, any of its live-edge worlds, a ranking and a budget."""
    size = draw(st.integers(2, 10))
    pairs = list(itertools.combinations(range(size), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=18))
    g = Graph(size, sorted(edges))
    coins = draw(st.lists(st.booleans(), min_size=len(g.arcs[0]),
                          max_size=len(g.arcs[0])))
    order = draw(st.permutations(range(size)))
    n = draw(st.integers(1, size))
    return (g, world_from_coins(g, coins), fixed_ranking(g, order), n,
            draw(st.integers(1, n)), draw(st.integers(1, 5)))


class TestSharedWorlds:
    """The theorem SQ >= SN per realization: on a fixed world the final
    active set is the live-edge closure of the injected seeds, and every
    sequential kind seeds or finds active each of SN's top-n nodes."""

    @settings(max_examples=300, deadline=None)
    @given(world_cases())
    def test_every_kind_contains_sn(self, case):
        g, live, r, n, k, t_sn = case
        kinds = all_kinds(k)
        sn, *sequential = [active_set(run_on(g, r, spec, n, live, t_sn))
                           for spec in kinds]
        for spec, active in zip(kinds[1:], sequential):
            assert sn <= active, spec.label

    @settings(max_examples=300, deadline=None)
    @given(world_cases())
    def test_trace_arrays_consistent(self, case):
        g, live, r, n, k, t_sn = case
        for spec in all_kinds(k):
            t = run_on(g, r, spec, n, live, t_sn)
            cum = t.cumulative
            # one entry per step 0..last; the last step activates nothing,
            # so it is the step after the last activity
            assert len(cum) == len(t.injected) == t.duration + 2, spec.label
            assert cum[-1] == cum[-2] == t.coverage == sum(t.flags)
            assert all(a <= b for a, b in zip(cum, cum[1:]))
            # at most the budget is placed, and budget is forfeited only
            # once every node is active
            assert sum(t.injected) <= n
            assert sum(t.injected) == n or t.coverage == g.node_count
            assert sum(t.injected) == len(t.seeds) == len(set(t.seeds))
            assert active_set(t) == closure(live, t.seeds)
            for c in range(t.coverage + 2):
                reached = [s for s, cs in enumerate(cum) if cs >= c]
                assert first_step_reaching(t, c) == (
                    reached[0] if reached else None)
            assert [cumulative_at(t, s) for s in range(-1, len(cum) + 1)] == (
                [0] + cum + [cum[-1]])

    @pytest.mark.parametrize("edges, order, n", [
        ("0 1\n1 2", [0, 2, 1], 2),                       # path
        ("0 1\n0 2\n0 3\n0 4", [1, 2, 0, 3, 4], 3),        # star
        ("0 1\n1 2\n2 0\n2 3\n4 5", [0, 3, 1, 4, 2, 5], 3),  # triangle, tail, pair
        ("0 1\n1 2\n2 0\n2 3\n3 4\n4 2", [2, 0, 3, 1, 4], 3),  # bowtie, E = 6
    ], ids=["path3", "star5", "triangle-tail-pair", "bowtie"])
    def test_exhaustive_worlds_match_branching_oracle(self, edges, order, n):
        """Over all 2^(2E) directed coin vectors, weighted in Fraction
        arithmetic, each kind covers at least SN on every world, and its mean
        coverage equals the branching oracle's, which draws coins lazily per
        node and shares no code with the skip sampler."""
        g = load_edge_list(edges)
        r = fixed_ranking(g, order)
        pp = Fraction(1, 3)
        kinds = all_kinds(1)
        arcs = len(g.arcs[0])
        means = [Fraction(0)] * len(kinds)
        for coins in itertools.product((False, True), repeat=arcs):
            live = world_from_coins(g, coins)
            weight = pp ** sum(coins) * (1 - pp) ** (arcs - sum(coins))
            traces = [run_on(g, r, spec, n, live, 2) for spec in kinds]
            sn = active_set(traces[0])
            for i, t in enumerate(traces):
                assert sn <= active_set(t), kinds[i].label
                means[i] += weight * t.coverage
        for spec, mean in zip(kinds, means):
            oracle = exact_process_expectation(
                lambda w, spec=spec: run_on(g, r, spec, n, w, 2).coverage,
                g, pp)
            assert mean == oracle, spec.label


@st.composite
def budget_cases(draw):
    """A world case with a set of budgets, each at least its k."""
    g, live, r, n, k, _ = draw(world_cases())
    budgets = draw(st.lists(st.integers(k, g.node_count), max_size=4))
    return g, live, r, budgets + [n], k


@st.composite
def divided_budget_cases(draw):
    """A world case with a set of budgets, each a multiple of its k."""
    g, live, r, _, k, _ = draw(world_cases())
    multiples = draw(st.lists(st.integers(1, g.node_count // k), min_size=1,
                              max_size=4))
    return g, live, r, sorted({k * m for m in multiples}), k


def counted_run(g, r, spec, budgets, live):
    """The `(n, state)` that `run_on_worlds` returns for `budgets` on the
    one world `live`, with the number of `advance` and `_take` calls it
    made."""
    from seqseed import strategies

    with mock.patch.object(strategies, "advance",
                           wraps=strategies.advance) as advanced, \
            mock.patch.object(strategies, "_take",
                              wraps=strategies._take) as taken:
        got = [(n, state) for n, (state,)
               in run_on_worlds(g, r, spec, budgets, [live]).items()]
    return got, advanced.call_count, taken.call_count


class TestCheckpoints:
    """Every kind but TSN runs once at the largest budget; each smaller
    budget's final state is finished from a checkpoint of that run."""

    @settings(max_examples=300, deadline=None)
    @given(budget_cases())
    def test_checkpoints_equal_per_budget_runs(self, case):
        g, live, r, budgets, k = case
        for spec in (StrategySpec("SN"), StrategySpec("SQ_kPS", k=k),
                     StrategySpec("SQ_kPS_R", k=k),
                     StrategySpec("SQ_kPS_B", k=k)):
            # each state as returned, so a later change to one fails too
            got = run_on_worlds(g, r, spec, budgets, [live])
            assert list(got) == sorted(set(budgets))
            for n, (state,) in got.items():
                (want,) = per_config_states(g, r, spec, n, [live])
                assert state == want, (spec.label, n)

    @settings(max_examples=300, deadline=None)
    @given(divided_budget_cases())
    def test_one_take_per_stage_when_k_divides_every_budget(self, case):
        """Each budget that k divides ends right after its last full stage,
        so `_take` runs once per stage of the largest budget's run, plus
        once at each checkpoint; no checkpoint repeats a stage."""
        g, live, r, budgets, k = case
        for spec in (StrategySpec("SQ_kPS", k=k),
                     StrategySpec("SQ_kPS_R", k=k)):
            got, _, takes = counted_run(g, r, spec, budgets, live)
            assert takes == budgets[-1] // k + len(budgets), spec.label
            for n, state in got:
                assert [state] == list(
                    per_config_states(g, r, spec, n, [live])), (spec.label, n)

    @pytest.mark.parametrize("label, budgets, pp, advances, takes", [
        # one buffered injection per stage, and at each checkpoint one
        # `advance` for its bank and one `_take` and `advance` for what the
        # budget has left: on a pp = 0 world every position is inactive, so
        # both are empty
        ("SQ_2PS_B", [2, 4, 6], 0.0, 9, 3),
        # one batch per stage, and one `_take` and `advance` per checkpoint,
        # though every budget ends after a full stage with nothing to place
        ("SQ_1PS", [2, 4, 6], 0.0, 9, 9),
        ("SQ_1PS_R", [2, 4, 6], 0.0, 9, 9),
        # the first stage saturates the graph, so no later stage calls
        # `advance`, though each looks for a seed; each checkpoint calls both
        ("SQ_1PS_R", [2, 3, 4], 1.0, 4, 7),
    ], ids=["buffered-empty-bank", "one-per-stage", "one-per-stage-R",
            "saturated"])
    def test_kernel_calls_per_stage_and_checkpoint(
            self, label, budgets, pp, advances, takes):
        """A stage calls `advance` only with seeds to inject or a frontier
        to step, and a checkpoint calls `_take` and then `advance` once
        each; every yielded state is still the per-budget run's."""
        g = generate_ba(12, 2, random.Random(3))
        live = sample_world(g, pp, random.Random(0))
        r = degree_ranking(g)
        spec = StrategySpec.parse(label)
        want = {n: list(per_config_states(g, r, spec, n, [live]))
                for n in budgets}
        got, made, taken = counted_run(g, r, spec, budgets, live)
        assert (made, taken) == (advances, takes)
        assert [n for n, _ in got] == budgets
        for n, state in got:
            assert [state] == want[n], n

    def test_one_budget_kinds_reject_several(self):
        """TSN stage sizes depend on the budget, so no run serves two."""
        g = generate_ba(30, 2, random.Random(1))
        live = sample_world(g, 0.2, random.Random(0))
        for spec in (StrategySpec("SQ_TSN"), StrategySpec("SQ_TSN_R")):
            with pytest.raises(ParameterError, match="one budget at a time"):
                run_on_worlds(g, degree_ranking(g), spec, [3, 6], [live], 2)
