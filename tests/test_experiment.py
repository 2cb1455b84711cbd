import csv
import dataclasses
import hashlib
import io
import math
import multiprocessing
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from seqseed import experiment, ranking, strategies as strategy_module
from seqseed.experiment import (RECORD_COLUMNS, ComparisonSummary,
                                ConfigStrategyRow, GridError, GridSpec,
                                RunRecord, config_id, derive_rng, grid_ranking,
                                read_records_csv, run_block, run_grid,
                                summarize, write_records_csv,
                                write_scatter_csv, write_summary_csv)
from seqseed.graphs import (Graph, ParameterError, generate_ba, generate_er,
                            load_edge_list)
from seqseed.ranking import RankingMethod, rank
from seqseed.strategies import StrategySpec, seed_count

from conftest import LiveEdgeFails, configs, per_config_records, recast


def small_spec(strategies, replications=3, master_seed=11, pp_values=(0.2,)):
    g = generate_ba(60, 2, random.Random(5))
    return GridSpec(graphs=[("ba60", g)], pp_values=list(pp_values),
                    sp_values=[0.05],
                    rankings=[RankingMethod.DEGREE], strategies=strategies,
                    replications=replications, master_seed=master_seed)


def config_tsn(graph, pp, sp, scores=None):
    """t_sn of a one-config grid: the rounded mean of 5 SN durations, on
    the degree ranking from `scores` when given."""
    spec = GridSpec([("g", graph)], [pp], [sp], [RankingMethod.DEGREE],
                    [StrategySpec("SN")], replications=5, master_seed=2)
    if scores is None:
        ranking = grid_ranking(2, "g", graph, RankingMethod.DEGREE)
    else:
        ranking = rank(graph, RankingMethod.DEGREE, random.Random(0),
                       scores=scores)
    rankings = {("g", RankingMethod.DEGREE): ranking}
    cfg, *_ = next(run_block(spec, "g", graph, pp, rankings))
    return cfg.t_sn


class TestConfigTsn:
    def test_pp_zero_clamps_to_one(self):
        g = generate_ba(30, 2, random.Random(1))
        assert config_tsn(g, 0.0, 0.13) == 1

    def test_star_center_pp_one(self, star5):
        assert config_tsn(star5, 1.0, 0.2) == 1

    def test_path_end_seed_pp_one(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4")
        # precomputed scores that rank the end node 0 first
        assert config_tsn(g, 1.0, 0.2, [5.0, 4.0, 3.0, 2.0, 1.0]) == 4

    def test_cached_scores_of_wrong_length_name_the_method(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4")
        with pytest.raises(ValueError, match="degree scores: 3 values for 5"):
            config_tsn(g, 1.0, 0.2, [5.0, 4.0, 3.0])


class TestRunGrid:
    def test_record_count_sn_only(self):
        spec = small_spec([StrategySpec("SN")], replications=3)
        records = run_grid(spec)
        assert len(records) == 3
        assert all(r.strategy == "SN" for r in records)

    def test_paper_shaped_grid_config_count(self):
        # 15 x 5 x 5 x 5 enumerates 1,875 configurations
        spec = GridSpec(
            graphs=[(f"n{i}", generate_ba(10, 2, random.Random(i)))
                    for i in range(15)],
            pp_values=[0.05, 0.1, 0.15, 0.2, 0.25],
            sp_values=[0.01, 0.02, 0.03, 0.04, 0.05],
            rankings=list(RankingMethod),
            strategies=[StrategySpec("SN")],
            replications=1, master_seed=1)
        assert len(configs(spec)) == 1875

    def test_determinism(self):
        strategies = [StrategySpec("SN"), StrategySpec("SQ_kPS_R", k=1),
                      StrategySpec("SQ_TSN")]
        a = run_grid(small_spec(strategies))
        b = run_grid(small_spec(strategies))
        assert a == b

    def test_sequential_records_present_and_paired(self):
        strategies = [StrategySpec("SQ_kPS", k=2)]
        records = run_grid(small_spec(strategies, replications=4))
        by_strategy = {}
        for r in records:
            by_strategy.setdefault(r.strategy, []).append(r)
        assert set(by_strategy) == {"SN", "SQ_2PS"}
        assert len(by_strategy["SN"]) == len(by_strategy["SQ_2PS"]) == 4

    def test_run_block_yields_each_config_in_record_order(self):
        """Each (config, strategy) once, with one state per world, and
        within one config SN first and then the other strategies in spec
        order, whatever the order of sp and however budgets are shared."""
        g = generate_ba(60, 2, random.Random(5))
        labels = ["SQ_TSN_R", "SQ_2PS_B", "SN", "SQ_1PS"]
        # budgets 6, 3 and 3: out of ascending order, two sp share one
        spec = GridSpec([("ba60", g)], [0.2], [0.1, 0.042, 0.05],
                        [RankingMethod.DEGREE, RankingMethod.RANDOM],
                        [StrategySpec.parse(s) for s in labels],
                        replications=3, master_seed=11)
        assert [seed_count(g, sp) for sp in spec.sp_values] == [6, 3, 3]
        rankings = {("ba60", m): grid_ranking(11, "ba60", g, m)
                    for m in spec.rankings}
        yielded = {}
        for cfg, label, states in run_block(spec, "ba60", g, 0.2, rankings):
            assert len(states) == spec.replications
            yielded.setdefault(cfg.cid, []).append(label)
        assert sorted(yielded) == sorted(
            config_id("ba60", 0.2, sp, m)
            for sp in spec.sp_values for m in spec.rankings)
        expected = ["SN", "SQ_TSN_R", "SQ_2PS_B", "SQ_1PS"]
        assert all(order == expected for order in yielded.values())

    def test_metrics_within_bounds(self):
        records = run_grid(small_spec([StrategySpec("SQ_kPS_R", k=1)],
                                      replications=5))
        for r in records:
            assert 0 <= r.coverage <= 60
            assert r.duration >= 0
            assert r.coverage_at_tsn <= r.coverage
            if r.t_reach_csn is not None:
                assert r.t_reach_csn <= r.duration


class DegreeFails(Graph):
    """A graph whose degree and degree2 rankings raise."""

    def degree(self, v):
        raise RuntimeError("injected failure")


class RankLog(Graph):
    """A graph that appends a line to the file `log` each time degree(0) is
    read: once per degree or degree2 ranking, in whichever process ranks."""
    log = None

    def degree(self, v):
        if v == 0:
            with open(self.log, "a", encoding="utf-8") as fh:
                fh.write("rank\n")
        return super().degree(v)


def recast_graphs(spec, cls):
    """`spec` with each graph recast as `cls`."""
    return dataclasses.replace(spec, graphs=[(name, recast(g, cls))
                                             for name, g in spec.graphs])


class TestRunGridJobs:
    @pytest.mark.parametrize("jobs, graph_type, pp_values, pp", [
        # the worlds fail at pp = 0.3, not at pp = 0
        *(pytest.param(jobs, LiveEdgeFails, [0.0, 0.3], r"0\.3",
                       id=str(jobs)) for jobs in (1, 2)),
        # the ranking fails; its first config is at pp = 0.2
        *(pytest.param(jobs, DegreeFails, [0.2, 0.3], r"0\.2",
                       id=f"ranking-{jobs}") for jobs in (1, 2))])
    def test_failing_config_fails_grid(self, jobs, graph_type, pp_values, pp):
        spec = recast_graphs(small_spec(
            [StrategySpec("SN"), StrategySpec("SQ_TSN")],
            pp_values=pp_values), graph_type)
        with pytest.raises(GridError, match=rf"config ba60\|pp={pp}\|sp=0\.05"
                           r"\|degree failed: injected failure"):
            run_grid(spec, jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_rank_call_per_graph_and_method(self, tmp_path, jobs):
        """Each (graph, method) is ranked once per grid, at every job count:
        calls are counted across processes, one line each in a file."""
        log = tmp_path / "rank_calls"
        spec = recast_graphs(dataclasses.replace(pinned_grid(), rankings=[
            RankingMethod.DEGREE, RankingMethod.DEGREE2]), RankLog)
        for _, g in spec.graphs:
            g.log = str(log)
        run_grid(spec, jobs=jobs)
        calls = log.read_text(encoding="utf-8").split()
        assert len(calls) == len(spec.graphs) * len(spec.rankings)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(ParameterError, match="jobs"):
            run_grid(small_spec([StrategySpec("SN")]), jobs=jobs)

    def test_one_stream_per_config_and_world(self, monkeypatch):
        """Each (graph, method) derives one ranking stream that every pp and
        sp shares, and each (graph, pp, run) one world stream that every sp,
        ranking and strategy shares."""
        calls = []
        real = experiment.derive_rng

        def derive_rng(*keys):
            calls.append(keys)
            return real(*keys)

        monkeypatch.setattr(experiment, "derive_rng", derive_rng)
        spec = pinned_grid()
        run_grid(spec, jobs=1)
        worlds = len(spec.graphs) * len(spec.pp_values) * spec.replications
        assert len(calls) == len(spec.graphs) * len(spec.rankings) + worlds
        assert len(set(calls)) == len(calls)

    def test_one_plan_per_config_and_strategy(self, monkeypatch):
        """Each strategy checks its budgets and plans its stages once for
        all its worlds, whatever the replication count: every kind but TSN,
        SN among them, once per (graph, pp, ranking) for all its budgets,
        and TSN kinds once per distinct budget of each (graph, pp,
        ranking), also where two sp give one budget."""
        calls = []
        real = strategy_module._plan

        def plan(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(strategy_module, "_plan", plan)
        # the same-budget grid's sp 0.01 and 0.012 share n = 2
        for name, distinct in (("pinned", 4), ("same-budget", 3)):
            spec = oracle_grids()[name]
            shared = sum(1 for s in spec.strategies if s.shares_budgets)
            tsn = len(spec.strategies) - shared  # SN among the shared
            budgets = sum(len({seed_count(g, sp) for sp in spec.sp_values})
                          for _, g in spec.graphs)
            assert budgets == distinct
            per_graph = len(spec.pp_values) * len(spec.rankings)
            for replications in (1, spec.replications):
                calls.clear()
                run_grid(dataclasses.replace(spec, replications=replications),
                         jobs=1)
                assert len(calls) == per_graph * (
                    len(spec.graphs) * shared + budgets * tsn), name

    def test_one_world_list_per_block_and_one_ranking_per_method(
            self, monkeypatch):
        """At jobs=1 a grid samples each (graph, pp) block's worlds once and
        ranks each (graph, method) once, for every sp and pp."""
        worlds = Counter()
        ranks = Counter()
        real_sample, real_rank = experiment.sample_worlds, experiment.rank

        def sample_worlds(spec, name, graph, pp):
            worlds[name, pp] += 1
            return real_sample(spec, name, graph, pp)

        def rank(graph, method, *args, **kwargs):
            ranks[graph, method] += 1
            return real_rank(graph, method, *args, **kwargs)

        monkeypatch.setattr(experiment, "sample_worlds", sample_worlds)
        monkeypatch.setattr(experiment, "rank", rank)
        spec = pinned_grid()
        run_grid(spec, jobs=1)
        assert worlds == {(name, pp): 1 for name, _ in spec.graphs
                          for pp in spec.pp_values}
        assert ranks == {(g, m): 1 for _, g in spec.graphs
                         for m in spec.rankings}


    def test_one_score_order_per_graph_and_method(self, monkeypatch):
        """A grid process scores each (graph, method) once, for every pp and
        sp it ranks at, and never for the random ranking. `rank` scores
        through the helper `method_scores` shares, so that is counted."""
        calls = Counter()
        real = ranking._scores

        def scores(graph, method):
            calls[graph, method] += 1
            return real(graph, method)

        monkeypatch.setattr(ranking, "_scores", scores)
        spec = dataclasses.replace(pinned_grid(), rankings=[
            RankingMethod.RANDOM, RankingMethod.DEGREE, RankingMethod.PAGERANK])
        run_grid(spec, jobs=1)
        assert calls == {(g, m): 1 for _, g in spec.graphs
                         for m in (RankingMethod.DEGREE, RankingMethod.PAGERANK)}


class TestGridIdentity:
    """Values that would share a config id (and so an rng stream) or a
    strategy label are rejected, and so is an empty list, which would give
    no configs. Unchecked, pp 0.1234561 and 0.1234562 with SQ_1PS and
    SQ_kPS k=1 gave 18 records under one config id."""

    @pytest.mark.parametrize("field, values, message", [
        ("graphs", [("g", load_edge_list("0 1")), ("g", load_edge_list("0 2"))],
         "duplicate values in graphs"),
        ("pp_values", [0.2, 0.2], "duplicate values in pp"),
        ("sp_values", [0.05, 0.05], "duplicate values in sp"),
        ("rankings", [RankingMethod.DEGREE, RankingMethod.DEGREE],
         "duplicate values in rankings"),
        ("strategies", [StrategySpec.parse("SQ_1PS"),
                        StrategySpec("SQ_kPS", k=1)],
         "duplicate values in strategies"),
        ("pp_values", [0.1234561, 0.1234562], "0.1234561 is not exact"),
        ("sp_values", [0.0123456789], "0.0123456789 is not exact"),
        ("pp_values", [], "pp must not be empty"),
    ], ids=["graph", "pp", "sp", "ranking", "strategy", "pp-inexact",
            "sp-inexact", "pp-empty"])
    def test_collision_rejected(self, field, values, message):
        args = dict(graphs=[("ba60", generate_ba(60, 2, random.Random(5)))],
                    pp_values=[0.2], sp_values=[0.05],
                    rankings=[RankingMethod.DEGREE],
                    strategies=[StrategySpec("SN")], replications=3,
                    master_seed=11)
        args[field] = values
        with pytest.raises(ParameterError, match=message):
            GridSpec(**args)


def test_gain_decreases_with_pp_past_transition():
    # On sparse synthetic graphs the SQ_1PS_R advantage over SN is unimodal
    # in pp; once cascades are supercritical the relative gain shrinks as SN
    # saturates. Checked on the decreasing side of the curve.
    g = generate_ba(1000, 3, random.Random(101))
    spec = GridSpec(graphs=[("ba1000", g)], pp_values=[0.25, 0.5],
                    sp_values=[0.01, 0.03, 0.05],
                    rankings=[RankingMethod.DEGREE, RankingMethod.PAGERANK],
                    strategies=[StrategySpec("SN"), StrategySpec("SQ_kPS_R", k=1)],
                    replications=50, master_seed=8261)
    records = run_grid(spec)
    means = {}
    for r in records:
        means.setdefault((r.config_id, r.strategy), []).append(r.coverage)
    means = {k: sum(v) / len(v) for k, v in means.items()}

    def mean_gain(pp):
        cids = sorted({r.config_id for r in records if abs(r.pp - pp) < 1e-9})
        gains = [means[(c, "SQ_1PS_R")] / means[(c, "SN")] - 1 for c in cids]
        return sum(gains) / len(gains)

    assert mean_gain(0.25) > mean_gain(0.5)


# sha256 of the records CSV of pinned_grid(); a change of it is a change of
# the program's output bytes. Re-baselined when runs moved to shared
# live-edge worlds and the records gained the forfeited column, and again
# when the ranking stream became one per (graph, method).
PINNED_RECORDS_SHA256 = "c36e4abe2cea0cd6ae0f3508964ace917f47dca9c6a001091e50a6a44d28795b"
# sha256 of the summary and scatter CSVs of summarize(run_grid(pinned_grid())),
# re-baselined with the records
PINNED_SUMMARY_SHA256 = "bc90befc203be769b267fc7d081065ea1c733e15b018896426a4f135dd06e2f7"
PINNED_SCATTER_SHA256 = "67de54c60fb8a4e9e7e0fd68c162a501068758eafbb943dafd0da5ea893092f5"

def written(write, rows):
    buf = io.StringIO()
    write(rows, buf)
    return buf.getvalue()


def csv_sha256(write, rows):
    return hashlib.sha256(written(write, rows).encode()).hexdigest()


def records_sha256(records):
    return csv_sha256(write_records_csv, records)


def pinned_grid():
    return GridSpec(
        graphs=[("ba30", generate_ba(30, 2, random.Random(7))),
                ("er20", generate_er(20, 0.25, random.Random(3)))],
        pp_values=[0.3, 1.0], sp_values=[0.1, 0.25],
        rankings=[RankingMethod.DEGREE, RankingMethod.RANDOM],
        strategies=[StrategySpec.parse(s) for s in (
            "SN", "SQ_2PS", "SQ_2PS_R", "SQ_2PS_B", "SQ_TSN", "SQ_TSN_R")],
        replications=3, master_seed=2024)


def test_records_bytes_pinned():
    """All six kinds, with odd budgets (k = 2 does not divide n = 3 or 5),
    TSN with n < t_sn, buffering that banks, and saturated pp = 1 configs
    that forfeit budget."""
    spec = pinned_grid()
    rankings = {(name, method): grid_ranking(spec.master_seed, name, g, method)
                for name, g in spec.graphs for method in spec.rankings}
    runs = [(cfg, label, cfg.n - len(state.seeds)) for name, g in spec.graphs
            for pp in spec.pp_values
            for cfg, label, states in run_block(spec, name, g, pp, rankings)
            for state in states]
    assert any(cfg.n % 2 for cfg, _, _ in runs)
    assert any(cfg.n < cfg.t_sn for cfg, _, _ in runs)
    forfeits = {label for _, label, forfeited in runs if forfeited}
    # buffering forfeits only units it banked and could not spend
    assert {"SQ_2PS", "SQ_2PS_B", "SQ_TSN_R"} <= forfeits
    records = run_grid(spec)
    assert {r.strategy for r in records if r.forfeited} == forfeits
    assert records_sha256(records) == PINNED_RECORDS_SHA256


def test_records_bytes_pinned_two_jobs():
    assert records_sha256(run_grid(pinned_grid(), jobs=2)) == PINNED_RECORDS_SHA256


def test_summary_bytes_pinned():
    summary = summarize(run_grid(pinned_grid()))
    assert csv_sha256(write_summary_csv, summary) == PINNED_SUMMARY_SHA256
    assert csv_sha256(write_scatter_csv, summary) == PINNED_SCATTER_SHA256


def oracle_grids():
    """Grids whose checkpointed records must equal per-config runs."""
    g200 = generate_ba(200, 2, random.Random(9))
    kinds = [StrategySpec.parse(s) for s in (
        "SN", "SQ_1PS", "SQ_1PS_R", "SQ_2PS", "SQ_2PS_R", "SQ_3PS",
        "SQ_3PS_R", "SQ_TSN", "SQ_3PS_B")]
    return {
        "pinned": pinned_grid(),
        # sp out of order; k = 3 divides neither n = 2 (k = 1, 2) nor 6, 15
        "sp-unordered": GridSpec(
            [("er20", generate_er(20, 0.25, random.Random(3)))], [0.3, 1.0],
            [0.25, 0.15, 0.5, 0.7], [RankingMethod.DEGREE],
            [StrategySpec.parse(s) for s in ("SN", "SQ_1PS", "SQ_2PS_R",
                                             "SQ_3PS", "SQ_3PS_R")],
            replications=4, master_seed=5),
        # sp 0.01 and 0.012 both give n = 2 on 200 nodes
        "same-budget": GridSpec(
            [("ba200", g200)], [0.1, 1.0], [0.05, 0.012, 0.01, 0.03],
            [RankingMethod.PAGERANK, RankingMethod.RANDOM],
            kinds[:3] + [StrategySpec.parse(s) for s in (
                "SQ_2PS_R", "SQ_1PS_B", "SQ_2PS_B", "SQ_TSN", "SQ_TSN_R")],
            replications=3, master_seed=77),
        # k = 3 with n = 3, 5, 10: k divides one budget of three, and
        # SQ_3PS_B's last positions are 1, 2 or 3 of the order
        "k-not-dividing": GridSpec(
            [("ba30", generate_ba(30, 2, random.Random(7)))], [0.2, 0.6],
            [0.1, 0.17, 0.33], [RankingMethod.DEGREE2],
            [k for k in kinds if k.kind == "SN" or k.k != 2],
            replications=5, master_seed=31),
    }


@pytest.mark.parametrize("name", sorted(oracle_grids()))
def test_checkpointed_records_equal_per_config_runs(name):
    """Each strategy but TSN, SN among them, runs once per (graph, pp,
    ranking, world) with every budget a checkpoint; its records equal, byte
    for byte, those of running every configuration on its own."""
    spec = oracle_grids()[name]
    assert (records_sha256(run_grid(spec))
            == records_sha256(per_config_records(spec)))


def test_saturating_grid_forfeits_at_every_budget():
    """At pp = 1 on a connected graph SQ_kPS_R's first stage activates every
    node, so every later stage and checkpoint takes an empty batch, and each
    budget forfeits all but k seeds."""
    spec = dataclasses.replace(oracle_grids()["same-budget"], pp_values=[1.0])
    graph = dict(spec.graphs)["ba200"]
    k = {"SQ_1PS_R": 1, "SQ_2PS_R": 2}
    checked = [r for r in run_grid(spec) if r.strategy in k]
    assert len(checked) == len(k) * len(configs(spec)) * spec.replications
    for r in checked:
        assert r.coverage == 200
        assert r.forfeited == seed_count(graph, r.sp) - k[r.strategy], r


def make_record(cid, strategy, run_id, coverage, duration=3):
    return RunRecord(cid, "g", 0.1, 0.05, "degree", strategy, run_id,
                     coverage, duration, None, coverage, 0)


class TestSummarize:
    def test_missing_baseline_raises(self):
        records = [make_record("c1", "SQ_1PS", 0, 10)]
        with pytest.raises(ValueError, match="c1"):
            summarize(records)

    def test_no_config_with_sn_raises(self):
        records = [make_record(c, "SQ_1PS", 0, 10) for c in ("c1", "c2")]
        with pytest.raises(ValueError, match=re.escape(
                "missing rows: config c1 has no records of strategy SN")):
            summarize(records)

    def test_no_records_raises(self):
        with pytest.raises(ValueError, match="no records"):
            summarize([])

    def test_missing_strategy_raises(self):
        """Dropping one config's SQ_1PS_R rows would summarize SQ_1PS_R over
        the other config alone; the summary names the gap instead."""
        spec = dataclasses.replace(
            small_spec([StrategySpec.parse("SQ_1PS_R")], replications=10),
            sp_values=[0.05, 0.1])
        records = run_grid(spec)
        summarize(records)
        cid = config_id("ba60", 0.2, 0.1, RankingMethod.DEGREE)
        kept = [r for r in records
                if not (r.config_id == cid and r.strategy == "SQ_1PS_R")]
        assert len(kept) == len(records) - 10
        with pytest.raises(ValueError, match=re.escape(
                f"missing rows: config {cid} has no records of strategy "
                "SQ_1PS_R")):
            summarize(kept)

    def test_identical_to_sn_all_ties(self):
        records = []
        for cfg in ("c1", "c2"):
            for run in range(3):
                records.append(make_record(cfg, "SN", run, 10))
                records.append(make_record(cfg, "SQ_2PS", run, 10))
        s = summarize(records)
        row = s.per_strategy[0]
        assert row.win_fraction == 0.0          # strict wins, ties non-wins
        assert row.win_fraction_excl_ties == 0.5  # ties excluded convention
        assert all(r.coverage_ratio == pytest.approx(1.0)
                   for r in s.per_config)

    def test_uniform_plus_one_improvement(self):
        records = []
        for i in range(6):
            cid = f"c{i}"
            records.append(make_record(cid, "SN", 0, 10))
            records.append(make_record(cid, "SQ_1PS_R", 0, 11))
        s = summarize(records)
        row = s.per_strategy[0]
        assert row.win_fraction == 1.0
        assert row.hl_delta == pytest.approx(1.0)

    def test_order_independence(self):
        rng = random.Random(0)
        records = []
        for i in range(4):
            cid = f"c{i}"
            for run in range(5):
                records.append(make_record(cid, "SN", run, rng.randint(5, 15)))
                records.append(make_record(cid, "SQ_1PS", run, rng.randint(5, 15)))
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_repeated_record_raises(self):
        # every row of a 60-node BA grid's records, twice
        records = run_grid(small_spec([StrategySpec.parse("SQ_1PS_R")],
                                      replications=4))
        assert len(records) == 8
        summarize(records)
        with pytest.raises(ValueError, match=r"repeated record: config "
                           r"ba60\|pp=0\.2\|sp=0\.05\|degree, strategy SN, run 0"):
            summarize(records + records)
        with pytest.raises(ValueError, match="strategy SQ_1PS_R, run 3"):
            summarize(records + records[-1:])


    def test_unpaired_run_raises(self):
        """Dropping SQ_1PS_R's lowest-coverage run would raise its mean
        coverage; the summary names the run instead."""
        records = run_grid(small_spec([StrategySpec.parse("SQ_1PS_R")],
                                      replications=10))
        low = min((r for r in records if r.strategy == "SQ_1PS_R"),
                  key=lambda r: r.coverage)
        with pytest.raises(ValueError, match=r"unpaired runs: config "
                           r"ba60\|pp=0\.2\|sp=0\.05\|degree, strategy "
                           rf"SQ_1PS_R: runs \[{low.run_id}\] not in both"):
            summarize([r for r in records if r is not low])
        sn = next(r for r in records if r.strategy == "SN")
        with pytest.raises(ValueError, match=rf"runs \[{sn.run_id}\] not in"):
            summarize([r for r in records if r is not sn])


# printable text, with the CSV delimiter, the quote and the config id separator
GRAPH_NAMES = st.text(st.sampled_from(',"|')
                      | st.characters(blacklist_categories=("Cc", "Cs")))


@st.composite
def run_records(draw):
    name = draw(GRAPH_NAMES)
    pp = draw(st.integers(0, 100)) / 100  # exact in 6 significant digits
    sp = draw(st.integers(1, 100)) / 100
    method = draw(st.sampled_from(list(RankingMethod)))
    return RunRecord(
        config_id(name, pp, sp, method), name, pp, sp, method.value,
        draw(st.sampled_from(["SN", "SQ_2PS_R", "SQ_TSN"])),
        draw(st.integers(0, 99)), draw(st.integers(0, 10 ** 6)),
        draw(st.integers(0, 10 ** 4)), draw(st.none() | st.integers(0, 10 ** 4)),
        draw(st.integers(0, 10 ** 6)), draw(st.integers(0, 10 ** 4)))


def reference_csv(row_type, rows):
    """A table as a csv writer writes it, row by row: the header of
    `row_type`, then each row's fields, a float in 6 significant digits and
    None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f.name for f in dataclasses.fields(row_type)])
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v
                         for v in dataclasses.astuple(row)])
    return buf.getvalue()


# text that a csv writer quotes, doubles a quote in, or writes as it is
CSV_TEXTS = ["", 'a"b', '"', "a,b", "a\nb", " a", "a ", " ", "plain"]


def two_records_csv():
    """The header and two rows of a records CSV, as lines."""
    records = run_grid(small_spec([StrategySpec("SN")], replications=2))
    buf = io.StringIO()
    write_records_csv(records, buf)
    return buf.getvalue().splitlines()


class TestRecordsCsv:
    def test_roundtrip(self):
        records = run_grid(small_spec([StrategySpec("SQ_TSN")], replications=2))
        buf = io.StringIO()
        write_records_csv(records, buf)
        assert read_records_csv(buf.getvalue()) == records

    @given(st.lists(run_records(), max_size=6))
    def test_roundtrip_any_graph_name(self, records):
        buf = io.StringIO()
        write_records_csv(records, buf)
        assert read_records_csv(buf.getvalue()) == records

    @given(st.lists(run_records(), max_size=6))
    def test_bytes_equal_a_csv_writer(self, records):
        assert written(write_records_csv, records) == reference_csv(
            RunRecord, records)

    @pytest.mark.parametrize("name", CSV_TEXTS)
    def test_quoted_names_equal_a_csv_writer(self, name):
        records = [RunRecord(config_id(name, pp, 0.5, RankingMethod.DEGREE),
                             name, pp, 0.5, "degree", "SN", r, 3, 2, t, 3, 0)
                   for r, (pp, t) in enumerate([(0.1, None), (0.0, 1),
                                                (-0.0, None), (0.1, 2)])]
        text = written(write_records_csv, records)
        assert text == reference_csv(RunRecord, records)
        assert read_records_csv(text) == records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_records_csv("nope\n1,2,3\n")

    @pytest.mark.parametrize("header", [
        RECORD_COLUMNS.replace(",forfeited", ""),
        RECORD_COLUMNS + ",redirected",
        RECORD_COLUMNS.replace("pp,sp", "sp,pp")],
        ids=["one-fewer", "one-more", "swapped"])
    def test_header_other_than_the_record_fields_named(self, header):
        message = f"unexpected records header: {header!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records_csv(header + "\n")

    @pytest.mark.parametrize("width", [11, 13])
    def test_field_count_names_line(self, width):
        header, first, second = two_records_csv()
        row = (second.split(",") + ["0"])[:width]
        bad = "\n".join([header, first, ",".join(row)]) + "\n"
        message = f"line 3: expected 12 fields, got {width}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records_csv(bad)

    def test_repeated_fields_share_one_object(self):
        spec = small_spec([StrategySpec("SQ_TSN"), StrategySpec("SQ_kPS", k=1)],
                          pp_values=(0.1, 0.2))
        buf = io.StringIO()
        write_records_csv(run_grid(spec), buf)
        records = read_records_csv(buf.getvalue())
        for field in ("config_id", "graph", "pp", "sp", "ranking", "strategy"):
            values = [getattr(r, field) for r in records]
            assert len({id(v) for v in values}) == len(set(values)), field
        first = {}
        for r in records:
            config = first.setdefault(r.config_id, r)
            assert r.config_id is config.config_id
            assert r.graph is config.graph
            assert r.ranking is config.ranking
            same = first.setdefault((r.config_id, r.strategy), r)
            assert r.strategy is same.strategy

    def test_signed_zero_pp_roundtrips_byte_for_byte(self):
        def record(pp, run_id):
            cid = config_id("g", pp, 0.5, RankingMethod.DEGREE)
            return RunRecord(cid, "g", pp, 0.5, "degree", "SN", run_id,
                             1, 0, None, 1, 0)

        records = [record(0.0, 0), record(-0.0, 0), record(0.0, 1),
                   record(-0.0, 1)]
        buf = io.StringIO()
        write_records_csv(records, buf)
        text = buf.getvalue()
        assert [line.split(",")[2] for line in text.splitlines()[1:]] == [
            "0", "-0", "0", "-0"]
        read_back = read_records_csv(text)
        assert [math.copysign(1, r.pp) for r in read_back] == [1, -1, 1, -1]
        again = io.StringIO()
        write_records_csv(read_back, again)
        assert again.getvalue() == text

    @pytest.mark.parametrize("column, value, message", [
        ("pp", "x", "line 3: pp 'x' is not a number"),
        ("sp", "", "line 3: sp '' is not a number"),
        ("run_id", "x", "line 3: run_id 'x' is not an integer"),
        ("t_reach_csn", "1.5", "line 3: t_reach_csn '1.5' is not an integer"),
        ("forfeited", "-", "line 3: forfeited '-' is not an integer"),
        ("coverage", "1e3", "line 3: coverage '1e3' is not an integer"),
        ("duration", "2.0", "line 3: duration '2.0' is not an integer"),
        ("coverage_at_tsn", "x",
         "line 3: coverage_at_tsn 'x' is not an integer"),
        ("run_id", "", "line 3: run_id '' is not an integer")])
    def test_bad_number_names_line_and_column(self, column, value, message):
        header, first, second = two_records_csv()
        row = second.split(",")
        row[header.split(",").index(column)] = value
        bad = "\n".join([header, first, ",".join(row)]) + "\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_records_csv(bad)


# a mean or ratio, signed zeros among them; a ratio may also be None, when
# its SN mean is 0
SCATTER_NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, 1.0, 1e-05])


class TestScatterCsv:
    @given(st.lists(st.builds(
        ConfigStrategyRow, st.text(), st.text(), SCATTER_NUMBERS,
        SCATTER_NUMBERS, st.none() | SCATTER_NUMBERS,
        st.none() | SCATTER_NUMBERS), max_size=6))
    def test_bytes_equal_a_csv_writer(self, rows):
        assert written(write_scatter_csv, ComparisonSummary(rows, [])) == (
            reference_csv(ConfigStrategyRow, rows))

    @pytest.mark.parametrize("text", CSV_TEXTS)
    def test_quoted_ids_none_and_signed_zeros_equal_a_csv_writer(self, text):
        rows = [ConfigStrategyRow(text, "SN", 0.0, -0.0, None, None),
                ConfigStrategyRow(text, text, -0.0, 0.0, 0.0, -0.0),
                ConfigStrategyRow("c", text, 1.5, 2.0, None, 1.25),
                ConfigStrategyRow(text, "SQ_1PS", 0.0, 1.5, -0.0, None)]
        assert written(write_scatter_csv, ComparisonSummary(rows, [])) == (
            reference_csv(ConfigStrategyRow, rows))


class TestDeriveRng:
    def test_stable_across_calls(self):
        a = derive_rng(7, "cfg", "SN", 0).random()
        b = derive_rng(7, "cfg", "SN", 0).random()
        assert a == b

    def test_distinct_addresses_distinct_streams(self):
        vals = {derive_rng(7, "cfg", s, r).random()
                for s in ("SN", "SQ_1PS") for r in range(10)}
        assert len(vals) == 20
