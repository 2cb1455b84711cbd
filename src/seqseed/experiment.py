"""Experiment grid: N x PP x SP x S with replication, pairing, and summaries.

Every run gets its own rng stream derived from (master seed, config id,
strategy label, run id), so results are independent of execution order and
bit-reproducible. The SN baseline block runs first per configuration; its
rounded mean duration parameterizes the TSN strategies.
"""
from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple

from .diffusion import DiffusionTrace
from .graphs import Graph, ParameterError
from .ranking import Ranking, RankingMethod, method_scores, rank
from .stats import hodges_lehmann, wilcoxon_signed_rank
from .strategies import StrategySpec, run_strategy, seed_count


def derive_rng(master_seed: int, *keys) -> random.Random:
    """Deterministic, platform-independent stream for a (config, run) address."""
    tag = "/".join([str(master_seed)] + [str(k) for k in keys])
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass
class GridSpec:
    graphs: List[Tuple[str, Graph]]
    pp_values: List[float]
    sp_values: List[float]
    rankings: List[RankingMethod]
    strategies: List[StrategySpec]
    replications: int
    master_seed: int

    def __post_init__(self):
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        if not self.strategies:
            raise ParameterError("strategy list must not be empty")
        for pp in self.pp_values:
            if not 0.0 <= pp <= 1.0:
                raise ParameterError(f"pp {pp} outside [0, 1]")
        for sp in self.sp_values:
            if not 0.0 < sp <= 1.0:
                raise ParameterError(f"sp {sp} outside (0, 1]")

    def configs(self) -> List[Tuple[str, float, float, RankingMethod]]:
        return [(name, pp, sp, method)
                for name, _ in self.graphs
                for pp in self.pp_values
                for sp in self.sp_values
                for method in self.rankings]

    def check_budgets(self) -> None:
        """Reject an SQ_kPS* k above the seed budget of any configuration.

        Not done on construction: a spec may be built on stand-in graphs to
        validate a config's schema alone."""
        if not (self.graphs and self.sp_values):
            return
        n, name, sp = min((seed_count(g, sp), name, sp)
                          for name, g in self.graphs for sp in self.sp_values)
        for strat in self.strategies:
            if strat.k is not None and strat.k > n:
                raise ParameterError(
                    f"strategy {strat.label}: k={strat.k} exceeds the seed "
                    f"budget n={n} of graph {name} at sp={sp:g}")


def config_id(graph_name: str, pp: float, sp: float, method: RankingMethod) -> str:
    return f"{graph_name}|pp={pp:g}|sp={sp:g}|{method.value}"


@dataclass
class RunRecord:
    config_id: str
    graph: str
    pp: float
    sp: float
    ranking: str
    strategy: str
    run_id: int
    coverage: int
    duration: int
    t_reach_csn: Optional[int]
    coverage_at_tsn: int


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


_SN = StrategySpec("SN")  # built once for every SN block


@dataclass
class ConfigRuns:
    """One configuration's runs per strategy label, the SN block first.

    `t_sn` is the SN block's rounded mean duration, clamped to >= 1. The SN
    traces are a list; every other strategy's traces are computed as they
    are iterated, once, so a caller can drop each trace when done with it.
    """
    config_id: str
    n: int
    t_sn: int
    runs: List[Tuple[str, Iterable[DiffusionTrace]]]


def _replicate(spec: GridSpec, cid: str, graph: Graph, ranking: Ranking,
               strat: StrategySpec, n: int, pp: float,
               t_sn: Optional[int] = None) -> Iterator[DiffusionTrace]:
    for r in range(spec.replications):
        yield run_strategy(graph, ranking, strat, n, pp,
                           derive_rng(spec.master_seed, cid, strat.label, r),
                           t_sn=t_sn)


def run_config(spec: GridSpec, graph_name: str, graph: Graph, pp: float,
               sp: float, method: RankingMethod,
               score_cache: Optional[Dict] = None) -> ConfigRuns:
    """Rank, run the SN block, derive t_sn from it, then run the strategies."""
    cid = config_id(graph_name, pp, sp, method)
    n = seed_count(graph, sp)
    rank_rng = derive_rng(spec.master_seed, cid, "ranking")
    scores = None
    if score_cache is not None and method is not RankingMethod.RANDOM:
        # scores are rng-free for non-random methods; reuse across configs
        key = (graph_name, method)
        if key not in score_cache:
            score_cache[key] = method_scores(graph, method)
        scores = score_cache[key]
    ranking = rank(graph, method, rank_rng, scores=scores)

    sn_traces = list(_replicate(spec, cid, graph, ranking, _SN, n, pp))
    t_sn = max(1, _round_half_up(
        sum(t.duration for t in sn_traces) / len(sn_traces)))
    runs = [("SN", sn_traces)]
    for strat in spec.strategies:
        if strat.kind != "SN":  # the baseline block above
            runs.append((strat.label, _replicate(spec, cid, graph, ranking,
                                                 strat, n, pp, t_sn)))
    return ConfigRuns(cid, n, t_sn, runs)


def _run_config(spec: GridSpec, graph_name: str, graph: Graph, pp: float,
                sp: float, method: RankingMethod,
                score_cache: Optional[Dict] = None) -> List[RunRecord]:
    out = run_config(spec, graph_name, graph, pp, sp, method, score_cache)
    sn_traces = out.runs[0][1]
    mean_c_sn = sum(t.coverage for t in sn_traces) / len(sn_traces)
    return [RunRecord(out.config_id, graph_name, pp, sp, method.value, label,
                      r, trace.coverage, trace.duration,
                      trace.first_step_reaching(mean_c_sn),
                      trace.cumulative_at(out.t_sn))
            for label, traces in out.runs for r, trace in enumerate(traces)]


def run_grid(spec: GridSpec, jobs: int = 1,
             errstream: TextIO = sys.stderr) -> List[RunRecord]:
    """Run the full grid; a failing configuration is reported and skipped.

    A k that some configuration's budget cannot hold fails the whole grid
    before any run."""
    spec.check_budgets()
    graphs = dict(spec.graphs)
    records: List[RunRecord] = []
    score_cache: Dict = {}
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(
                _run_config,
                [(spec, name, graphs[name], pp, sp, method)
                 for name, pp, sp, method in spec.configs()])
        for chunk in results:
            records.extend(chunk)
        return records
    for name, pp, sp, method in spec.configs():
        try:
            records.extend(_run_config(spec, name, graphs[name], pp, sp,
                                       method, score_cache))
        except Exception as exc:  # noqa: BLE001 - grid keeps going
            print(f"config {config_id(name, pp, sp, method)} failed: {exc}",
                  file=errstream)
    return records


@dataclass
class ConfigStrategyRow:
    config_id: str
    strategy: str
    mean_coverage: float
    mean_duration: float
    coverage_ratio: Optional[float]
    duration_ratio: Optional[float]


@dataclass
class StrategyRow:
    strategy: str
    n_configs: int
    win_fraction: float          # strict mean improvement; ties are non-wins
    win_fraction_excl_ties: float  # ties dropped; 0.5 when everything tied
    run_win_fraction: float
    mean_coverage_ratio: Optional[float]
    mean_duration_ratio: Optional[float]
    hl_delta: float
    wilcoxon_p: float


@dataclass
class ComparisonSummary:
    per_config: List[ConfigStrategyRow]
    per_strategy: List[StrategyRow]


def summarize(records: Sequence[RunRecord]) -> ComparisonSummary:
    """Pair every sequential strategy against its config's SN baseline."""
    by_config: Dict[str, Dict[str, List[RunRecord]]] = {}
    for rec in records:
        by_config.setdefault(rec.config_id, {}).setdefault(rec.strategy, []).append(rec)

    per_config: List[ConfigStrategyRow] = []
    strat_diffs: Dict[str, List[float]] = {}
    strat_cov_ratios: Dict[str, List[float]] = {}
    strat_dur_ratios: Dict[str, List[float]] = {}
    strat_run_wins: Dict[str, List[int]] = {}

    for cid in sorted(by_config):
        block = by_config[cid]
        if "SN" not in block:
            raise ValueError(f"missing SN baseline for config {cid}")
        sn = block["SN"]
        mean_c_sn = sum(r.coverage for r in sn) / len(sn)
        mean_t_sn = sum(r.duration for r in sn) / len(sn)
        for strategy in sorted(block):
            runs = block[strategy]
            mean_c = sum(r.coverage for r in runs) / len(runs)
            mean_t = sum(r.duration for r in runs) / len(runs)
            cov_ratio = mean_c / mean_c_sn if mean_c_sn > 0 else None
            dur_ratio = mean_t / mean_t_sn if mean_t_sn > 0 else None
            per_config.append(ConfigStrategyRow(cid, strategy, mean_c, mean_t,
                                                cov_ratio, dur_ratio))
            if strategy == "SN":
                continue
            strat_diffs.setdefault(strategy, []).append(mean_c - mean_c_sn)
            if cov_ratio is not None:
                strat_cov_ratios.setdefault(strategy, []).append(cov_ratio)
            if dur_ratio is not None:
                strat_dur_ratios.setdefault(strategy, []).append(dur_ratio)
            strat_run_wins.setdefault(strategy, []).extend(
                1 if r.coverage > mean_c_sn else 0 for r in runs)

    per_strategy: List[StrategyRow] = []
    for strategy in sorted(strat_diffs):
        diffs = strat_diffs[strategy]
        wins = sum(1 for d in diffs if d > 0)
        nonties = sum(1 for d in diffs if d != 0)
        cov = strat_cov_ratios.get(strategy)
        dur = strat_dur_ratios.get(strategy)
        wil = wilcoxon_signed_rank(diffs)
        per_strategy.append(StrategyRow(
            strategy=strategy,
            n_configs=len(diffs),
            win_fraction=wins / len(diffs),
            win_fraction_excl_ties=(wins / nonties) if nonties else 0.5,
            run_win_fraction=(sum(strat_run_wins[strategy])
                              / len(strat_run_wins[strategy])),
            mean_coverage_ratio=(sum(cov) / len(cov)) if cov else None,
            mean_duration_ratio=(sum(dur) / len(dur)) if dur else None,
            hl_delta=hodges_lehmann(diffs),
            wilcoxon_p=wil.p,
        ))
    return ComparisonSummary(per_config, per_strategy)


# ---------------------------------------------------------------------------
# CSV emission / parsing (6 significant digits, fixed column order)

RECORD_COLUMNS = ("config_id,graph,pp,sp,ranking,strategy,run_id,"
                  "coverage,duration,t_reach_csn,coverage_at_tsn")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def write_records_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    out.write(RECORD_COLUMNS + "\n")
    for r in records:
        out.write(",".join([
            r.config_id, r.graph, _fmt(r.pp), _fmt(r.sp), r.ranking,
            r.strategy, str(r.run_id), str(r.coverage), str(r.duration),
            _fmt(r.t_reach_csn), str(r.coverage_at_tsn)]) + "\n")


def read_records_csv(lines) -> List[RunRecord]:
    if isinstance(lines, str):
        lines = lines.splitlines()
    it = iter(lines)
    header = next(it, "").strip()
    if header != RECORD_COLUMNS:
        raise ValueError(f"unexpected records header: {header!r}")
    records = []
    for lineno, line in enumerate(it, start=2):
        line = line.strip()
        if not line:
            continue
        f = line.split(",")
        if len(f) != 11:
            raise ValueError(f"line {lineno}: expected 11 fields, got {len(f)}")
        records.append(RunRecord(
            f[0], f[1], float(f[2]), float(f[3]), f[4], f[5], int(f[6]),
            int(f[7]), int(f[8]), int(f[9]) if f[9] else None, int(f[10])))
    return records


def write_summary_csv(summary: ComparisonSummary, out: TextIO) -> None:
    out.write("strategy,n_configs,win_fraction,win_fraction_excl_ties,"
              "run_win_fraction,mean_coverage_ratio,mean_duration_ratio,"
              "hl_delta,wilcoxon_p\n")
    for row in summary.per_strategy:
        out.write(",".join([
            row.strategy, str(row.n_configs), _fmt(row.win_fraction),
            _fmt(row.win_fraction_excl_ties), _fmt(row.run_win_fraction),
            _fmt(row.mean_coverage_ratio), _fmt(row.mean_duration_ratio),
            _fmt(row.hl_delta), _fmt(row.wilcoxon_p)]) + "\n")


def write_scatter_csv(summary: ComparisonSummary, out: TextIO) -> None:
    """Per-config coverage/duration ratios (Fig. 2(E)-style scatter data)."""
    out.write("config_id,strategy,mean_coverage,mean_duration,"
              "coverage_ratio,duration_ratio\n")
    for row in summary.per_config:
        out.write(",".join([
            row.config_id, row.strategy, _fmt(row.mean_coverage),
            _fmt(row.mean_duration), _fmt(row.coverage_ratio),
            _fmt(row.duration_ratio)]) + "\n")
