"""Experiment grid: N x PP x SP x S with replication, pairing, and summaries.

Run r of every configuration of one (graph, pp) traverses the same live-edge
world, sampled from the rng stream derived from (master seed, graph name,
pp, "world", r). Every sp, ranking and strategy, the SN baseline included,
is thus paired on common random numbers, and results are independent of
execution order and bit-reproducible. Each configuration's ranking draws
from its own stream (master seed, config id, "ranking"): a random ranking
its whole order, any other its tie-breaks, and nothing when no scores tie.
The SN baseline block runs first per configuration; its rounded mean
duration parameterizes the TSN strategies.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from .diffusion import DiffusionState, World, sample_world
from .graphs import Graph, ParameterError
from .ranking import RankingMethod, rank, score_order
from .stats import hodges_lehmann, wilcoxon_signed_rank
from .strategies import StrategySpec, run_on_worlds, seed_count


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
        for pp in self.pp_values:
            if not 0.0 <= pp <= 1.0:
                raise ParameterError(f"pp {pp} outside [0, 1]")
        for sp in self.sp_values:
            if not 0.0 < sp <= 1.0:
                raise ParameterError(f"sp {sp} outside (0, 1]")
        # config ids and CSV columns write pp and sp as :g, and the id keys
        # the rng streams, so a value must survive that form exactly
        for x in self.pp_values + self.sp_values:
            if float(f"{x:g}") != x:
                raise ParameterError(
                    f"pp or sp {x!r} is not exact in 6 significant digits")
        for field, values in (  # named as in the JSON config
                ("graphs", [name for name, _ in self.graphs]),
                ("pp", self.pp_values), ("sp", self.sp_values),
                ("rankings", [m.value for m in self.rankings]),
                ("strategies", [s.label for s in self.strategies])):
            if not values:
                raise ParameterError(f"{field} must not be empty")
            if len(set(values)) < len(values):
                raise ParameterError(f"duplicate values in {field}: {values}")

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
        n, name, sp = min((seed_count(g, sp), name, sp)
                          for name, g in self.graphs for sp in self.sp_values)
        for strat in self.strategies:
            if strat.k is not None and strat.k > n:
                raise ParameterError(
                    f"strategy {strat.label}: k={strat.k} exceeds the seed "
                    f"budget n={n} of graph {name} at sp={sp:g}")


def config_id(graph_name: str, pp: float, sp: float, method: RankingMethod) -> str:
    return f"{graph_name}|pp={pp:g}|sp={sp:g}|{method.value}"


@dataclass(slots=True)
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
    forfeited: int


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
    n: int
    t_sn: int
    runs: List[Tuple[str, Iterable[DiffusionState]]]


def sample_worlds(spec: GridSpec, graph_name: str, graph: Graph,
                  pp: float) -> List[World]:
    """The live-edge worlds of runs 0..replications-1 at (graph, pp)."""
    return [sample_world(graph, pp, derive_rng(spec.master_seed, graph_name,
                                               f"pp={pp:g}", "world", r))
            for r in range(spec.replications)]


def run_config(spec: GridSpec, graph_name: str, graph: Graph, pp: float,
               sp: float, method: RankingMethod,
               score_cache: Optional[Dict] = None,
               worlds: Optional[List[World]] = None) -> ConfigRuns:
    """Rank, run the SN block, derive t_sn from it, then run the strategies,
    all on `worlds` (sampled here when not given)."""
    cid = config_id(graph_name, pp, sp, method)
    if worlds is None:
        worlds = sample_worlds(spec, graph_name, graph, pp)
    n = seed_count(graph, sp)
    rank_rng = derive_rng(spec.master_seed, cid, "ranking")
    scores = None
    if score_cache is not None and method is not RankingMethod.RANDOM:
        # a non-random method's score order is rng-free: build it once per
        # (graph, method) and reuse it across configs
        key = (graph_name, method)
        if key not in score_cache:
            score_cache[key] = score_order(graph, method)
        scores = score_cache[key]
    ranking = rank(graph, method, rank_rng, scores=scores)

    sn_traces = list(run_on_worlds(graph, ranking, _SN, n, worlds))
    t_sn = max(1, _round_half_up(
        sum(t.duration for t in sn_traces) / len(sn_traces)))
    runs = [("SN", sn_traces)]
    for strat in spec.strategies:
        if strat.kind != "SN":  # the baseline block above
            runs.append((strat.label, run_on_worlds(graph, ranking, strat, n,
                                                    worlds, t_sn)))
    return ConfigRuns(n, t_sn, runs)


class GridError(RuntimeError):
    """A configuration failed while the grid ran; the message names its id."""


# One process's grid state: the spec, its graphs by name, the score order of
# each (graph, method) its configs rank by, and the worlds of the (graph, pp)
# it last ran. Configs come in (graph, pp)-major order, so keeping one key's
# worlds samples each world once per process at a bounded memory cost. Set
# by _start_worker, in each pool worker or, at jobs=1, in this process until
# the grid ends.
_grid: Dict = {}


def _start_worker(spec: GridSpec) -> None:
    _grid.update(spec=spec, graphs=dict(spec.graphs), scores={},
                 world_key=None, worlds=None)


def _config_records(config) -> List[RunRecord]:
    name, pp, sp, method = config
    cid = config_id(name, pp, sp, method)
    try:
        spec, graph = _grid["spec"], _grid["graphs"][name]
        if _grid["world_key"] != (name, pp):
            _grid["worlds"] = None  # free the old worlds before sampling
            _grid["worlds"] = sample_worlds(spec, name, graph, pp)
            _grid["world_key"] = (name, pp)
        out = run_config(spec, name, graph, pp, sp, method, _grid["scores"],
                         _grid["worlds"])
        sn_traces = out.runs[0][1]
        mean_c_sn = sum(t.coverage for t in sn_traces) / len(sn_traces)
        ranking, t_sn = method.value, out.t_sn
        return [RunRecord(cid, name, pp, sp, ranking, label,
                          r, trace.coverage, trace.duration,
                          trace.first_step_reaching(mean_c_sn),
                          trace.cumulative_at(t_sn), trace.forfeited)
                for label, traces in out.runs
                for r, trace in enumerate(traces)]
    except Exception as exc:
        raise GridError(f"config {cid} failed: {exc}") from exc


def run_grid(spec: GridSpec, jobs: int = 1) -> List[RunRecord]:
    """Run the full grid on `jobs` processes. A k above some configuration's
    seed budget fails the grid before any run; a configuration that fails
    while it runs fails the grid with a GridError."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    spec.check_budgets()
    if jobs == 1:
        _start_worker(spec)
        try:
            return [rec for chunk in map(_config_records, spec.configs())
                    for rec in chunk]
        finally:
            _grid.clear()
    import multiprocessing  # only here: it adds about 1 MB to a serial run

    with multiprocessing.Pool(jobs, _start_worker, (spec,)) as pool:
        chunks = pool.map(_config_records, spec.configs())
    return [rec for chunk in chunks for rec in chunk]


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
    """Pair every sequential strategy against its config's SN baseline.
    A repeated (config_id, strategy, run_id) raises ValueError."""
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
            if len({r.run_id for r in runs}) < len(runs):
                counts = Counter(r.run_id for r in runs)
                run = next(i for i, c in counts.items() if c > 1)
                raise ValueError(f"repeated record: config {cid}, "
                                 f"strategy {strategy}, run {run}")
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
                  "coverage,duration,t_reach_csn,coverage_at_tsn,forfeited")


def _fmt(x):
    """A float in 6 significant digits; csv writes None as empty, ints as is."""
    return f"{x:.6g}" if isinstance(x, float) else x


def write_records_csv(records: Sequence[RunRecord], out: TextIO) -> None:
    out.write(RECORD_COLUMNS + "\n")
    csv.writer(out, lineterminator="\n").writerows([
        r.config_id, r.graph, _fmt(r.pp), _fmt(r.sp), r.ranking, r.strategy,
        r.run_id, r.coverage, r.duration, r.t_reach_csn, r.coverage_at_tsn,
        r.forfeited]
        for r in records)


def read_records_csv(lines) -> List[RunRecord]:
    reader = csv.reader(io.StringIO(lines) if isinstance(lines, str) else lines)
    header = next(reader, [])
    if header != RECORD_COLUMNS.split(","):
        raise ValueError(f"unexpected records header: {','.join(header)!r}")
    records = []
    for f in reader:
        if not f:
            continue
        if len(f) != 12:
            raise ValueError(f"line {reader.line_num}: expected 12 fields, "
                             f"got {len(f)}")
        records.append(RunRecord(
            f[0], f[1], float(f[2]), float(f[3]), f[4], f[5], int(f[6]),
            int(f[7]), int(f[8]), int(f[9]) if f[9] else None, int(f[10]),
            int(f[11])))
    return records


def write_summary_csv(summary: ComparisonSummary, out: TextIO) -> None:
    out.write("strategy,n_configs,win_fraction,win_fraction_excl_ties,"
              "run_win_fraction,mean_coverage_ratio,mean_duration_ratio,"
              "hl_delta,wilcoxon_p\n")
    csv.writer(out, lineterminator="\n").writerows([
        row.strategy, row.n_configs, _fmt(row.win_fraction),
        _fmt(row.win_fraction_excl_ties), _fmt(row.run_win_fraction),
        _fmt(row.mean_coverage_ratio), _fmt(row.mean_duration_ratio),
        _fmt(row.hl_delta), _fmt(row.wilcoxon_p)] for row in summary.per_strategy)


def write_scatter_csv(summary: ComparisonSummary, out: TextIO) -> None:
    """Per-config coverage/duration ratios (Fig. 2(E)-style scatter data)."""
    out.write("config_id,strategy,mean_coverage,mean_duration,"
              "coverage_ratio,duration_ratio\n")
    csv.writer(out, lineterminator="\n").writerows([
        row.config_id, row.strategy, _fmt(row.mean_coverage),
        _fmt(row.mean_duration), _fmt(row.coverage_ratio),
        _fmt(row.duration_ratio)] for row in summary.per_config)
