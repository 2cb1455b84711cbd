import hashlib
import io
import random

import pytest

from seqseed.experiment import (GridSpec, RunRecord, config_id, derive_rng,
                                read_records_csv, run_config, run_grid,
                                summarize, write_records_csv)
from seqseed.graphs import generate_ba, generate_er, load_edge_list
from seqseed.ranking import RankingMethod
from seqseed.strategies import StrategySpec


def small_spec(strategies, replications=3, master_seed=11):
    g = generate_ba(60, 2, random.Random(5))
    return GridSpec(graphs=[("ba60", g)], pp_values=[0.2], sp_values=[0.05],
                    rankings=[RankingMethod.DEGREE], strategies=strategies,
                    replications=replications, master_seed=master_seed)


def config_tsn(graph, pp, sp, score_cache=None):
    """t_sn of a one-config grid: the rounded mean of 5 SN durations."""
    spec = GridSpec([("g", graph)], [pp], [sp], [RankingMethod.DEGREE],
                    [StrategySpec("SN")], replications=5, master_seed=2)
    return run_config(spec, "g", graph, pp, sp, RankingMethod.DEGREE,
                      score_cache).t_sn


class TestConfigTsn:
    def test_pp_zero_clamps_to_one(self):
        g = generate_ba(30, 2, random.Random(1))
        assert config_tsn(g, 0.0, 0.13) == 1

    def test_star_center_pp_one(self, star5):
        assert config_tsn(star5, 1.0, 0.2) == 1

    def test_path_end_seed_pp_one(self):
        g = load_edge_list("0 1\n1 2\n2 3\n3 4")
        # precomputed scores that rank the end node 0 first
        cache = {("g", RankingMethod.DEGREE): [5.0, 4.0, 3.0, 2.0, 1.0]}
        assert config_tsn(g, 1.0, 0.2, cache) == 4


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
        assert len(spec.configs()) == 1875

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

    def test_metrics_within_bounds(self):
        records = run_grid(small_spec([StrategySpec("SQ_kPS_R", k=1)],
                                      replications=5))
        for r in records:
            assert 0 <= r.coverage <= 60
            assert r.duration >= 0
            assert r.coverage_at_tsn <= r.coverage
            if r.t_reach_csn is not None:
                assert r.t_reach_csn <= r.duration


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
# the program's output bytes
PINNED_RECORDS_SHA256 = "ac1dec08b56ab19ef078d45c58f1a0d58efa6bf40fbe26732a65ce248fb0f894"


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
    graphs = dict(spec.graphs)
    outs = [run_config(spec, name, graphs[name], pp, sp, method)
            for name, pp, sp, method in spec.configs()]
    assert any(out.n % 2 for out in outs)
    assert any(out.n < out.t_sn for out in outs)
    forfeits = {label for out in outs for label, traces in out.runs
                if any(t.forfeited for t in traces)}
    # buffering forfeits only units it banked and could not spend
    assert {"SQ_2PS", "SQ_2PS_B", "SQ_TSN_R"} <= forfeits
    buf = io.StringIO()
    write_records_csv(run_grid(spec), buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED_RECORDS_SHA256


def make_record(cid, strategy, run_id, coverage, duration=3):
    return RunRecord(cid, "g", 0.1, 0.05, "degree", strategy, run_id,
                     coverage, duration, None, coverage)


class TestSummarize:
    def test_missing_baseline_raises(self):
        records = [make_record("c1", "SQ_1PS", 0, 10)]
        with pytest.raises(ValueError, match="c1"):
            summarize(records)

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


class TestRecordsCsv:
    def test_roundtrip(self):
        records = run_grid(small_spec([StrategySpec("SQ_TSN")], replications=2))
        buf = io.StringIO()
        write_records_csv(records, buf)
        assert read_records_csv(buf.getvalue()) == records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_records_csv("nope\n1,2,3\n")


class TestDeriveRng:
    def test_stable_across_calls(self):
        a = derive_rng(7, "cfg", "SN", 0).random()
        b = derive_rng(7, "cfg", "SN", 0).random()
        assert a == b

    def test_distinct_addresses_distinct_streams(self):
        vals = {derive_rng(7, "cfg", s, r).random()
                for s in ("SN", "SQ_1PS") for r in range(10)}
        assert len(vals) == 20
