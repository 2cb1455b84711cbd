"""Experiment grid: N x PP x SP x S with replication, pairing, and summaries.

Run r of every configuration of one (graph, pp) traverses the same live-edge
world, sampled from the rng stream derived from (master seed, graph name,
pp, "world", r). Every sp, ranking and strategy, the SN baseline included,
is thus paired on common random numbers, and results are independent of
execution order and bit-reproducible. Each (graph, method) has one ranking,
`grid_ranking`, drawn from the stream (master seed, graph name, method,
"ranking"): a random ranking its whole order, so one order per graph, any
other its tie-breaks, and nothing when no scores tie. The grid ranks each
once, before any block runs, and every sp and pp seeds from it, so each
budget's seeds are a prefix of one order.

The unit of work is a (graph, pp) block: every sp x ranking configuration
that shares its worlds. Per ranking, SN and then every other strategy run in
one loop; SN's runs fix each config's mean coverage and its rounded mean
duration `t_sn`, which parameterizes its TSN strategies. Every kind but TSN,
SN among them, runs once per (ranking, world) at the block's largest
budget, and each smaller budget's run is finished from a checkpoint of that
run; TSN kinds run once per distinct budget.
"""
from __future__ import annotations

import csv
import hashlib
import io
import random
from bisect import bisect_left
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, product
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    TextIO, Tuple)

from .diffusion import DiffusionState, World, sample_world
from .graphs import Graph, ParameterError
from .ranking import Ranking, RankingMethod, rank
from .stats import hodges_lehmann, wilcoxon_signed_rank
from .strategies import StrategySpec, round_half_up, run_on_worlds, seed_count


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
        # config ids and CSV columns write pp and sp as :g, and so does the
        # world stream's key for pp, so a value must survive that form exactly
        for x in self.pp_values + self.sp_values:
            if float(f"{x:g}") != x:
                raise ParameterError(
                    f"pp or sp {x!r} is not exact in 6 significant digits")
        # the records CSV writes a graph name as it is, and the csv module
        # leaves a field holding \r unquoted, so it would not read back
        for name, _ in self.graphs:
            if "\r" in name:
                raise ParameterError(
                    f"graph name {name!r} holds a carriage return")
        for field, values in (  # named as in the JSON config
                ("graphs", [name for name, _ in self.graphs]),
                ("pp", self.pp_values), ("sp", self.sp_values),
                ("rankings", [m.value for m in self.rankings]),
                ("strategies", [s.label for s in self.strategies])):
            if not values:
                raise ParameterError(f"{field} must not be empty")
            if len(set(values)) < len(values):
                raise ParameterError(f"duplicate values in {field}: {values}")

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


_SN = StrategySpec("SN")  # built once for every SN block


def sample_worlds(spec: GridSpec, graph_name: str, graph: Graph,
                  pp: float) -> List[World]:
    """The live-edge worlds of runs 0..replications-1 at (graph, pp)."""
    return [sample_world(graph, pp, derive_rng(spec.master_seed, graph_name,
                                               f"pp={pp:g}", "world", r))
            for r in range(spec.replications)]


class GridError(RuntimeError):
    """A configuration failed while the grid ran; the message names its id."""


@dataclass
class BlockConfig:
    """One configuration of a (graph, pp) block: its id, sp, ranking and
    seed budget n, and what its SN block fixes for the other strategies,
    the SN mean coverage and `t_sn`, the SN rounded mean duration clamped
    to >= 1."""
    cid: str
    sp: float
    method: RankingMethod
    n: int
    mean_c_sn: float = 0.0
    t_sn: int = 0


def grid_ranking(master_seed: int, graph_name: str, graph: Graph,
                 method: RankingMethod) -> Ranking:
    """The one ranking that every configuration of (graph, method) in a grid
    seeds from, drawn from the stream (master seed, graph name, method,
    "ranking"). `seqseed rank` and `seqseed simulate` draw the same."""
    return rank(graph, method, derive_rng(master_seed, graph_name,
                                          method.value, "ranking"))


def run_block(spec: GridSpec, graph_name: str, graph: Graph, pp: float,
              rankings: Dict[Tuple[str, RankingMethod], Ranking]
              ) -> Iterator[Tuple[BlockConfig, str, List[DiffusionState]]]:
    """Run every configuration of the (graph, pp) block on its worlds,
    yielding `(config, strategy label, final states)`, one state per world
    in run-id order. Each (config, strategy) is yielded once, and within
    one config SN comes first and then the other strategies in spec order:
    the records' order, stated only here, which `_block_records` keeps.

    Per ranking, read from `rankings` (keyed by (graph name, method), as
    `grid_ranking` builds them; never written), the configs are grouped by
    budget and one loop runs SN and then the other strategies in spec
    order. Every kind but TSN runs once for every budget, each a checkpoint
    of one run per world; TSN kinds run once per distinct budget, since
    configs of one budget share their SN runs and so their t_sn. SN's
    states fix each config's mean coverage and t_sn before they are
    yielded. A failure raises GridError naming the first config of the
    work that raised (worlds, or one strategy's call).
    """
    where = config_id(graph_name, pp, spec.sp_values[0], spec.rankings[0])
    strategies = [_SN] + [s for s in spec.strategies if s.kind != "SN"]
    try:
        worlds = sample_worlds(spec, graph_name, graph, pp)
        for method in spec.rankings:
            ranking = rankings[graph_name, method]
            by_budget: Dict[int, List[BlockConfig]] = {}
            for sp in spec.sp_values:
                n = seed_count(graph, sp)
                by_budget.setdefault(n, []).append(BlockConfig(
                    config_id(graph_name, pp, sp, method), sp, method, n))
            for strat in strategies:
                label = strat.label  # built once: each record keeps it
                for budgets in ([list(by_budget)] if strat.shares_budgets
                                else [[n] for n in by_budget]):
                    first = by_budget[budgets[0]][0]
                    where = first.cid
                    runs = run_on_worlds(graph, ranking, strat, budgets,
                                         worlds, first.t_sn)
                    for n, states in runs.items():
                        for cfg in by_budget[n]:
                            if strat is _SN:
                                cfg.mean_c_sn = sum(
                                    t.coverage for t in states) / len(states)
                                cfg.t_sn = max(1, round_half_up(sum(
                                    t.duration for t in states) / len(states)))
                            yield cfg, label, states
    except Exception as exc:
        raise GridError(f"config {where} failed: {exc}") from exc


def _ranking(spec: GridSpec, key: Tuple[str, RankingMethod]) -> Ranking:
    """`grid_ranking` of one (graph name, method) of the grid. A failure
    raises GridError naming the first config that seeds from it."""
    name, method = key
    try:
        return grid_ranking(spec.master_seed, name, dict(spec.graphs)[name],
                            method)
    except Exception as exc:
        where = config_id(name, spec.pp_values[0], spec.sp_values[0], method)
        raise GridError(f"config {where} failed: {exc}") from exc


def _block_records(spec: GridSpec,
                   rankings: Dict[Tuple[str, RankingMethod], Ranking],
                   block: Tuple[str, float]) -> List[RunRecord]:
    """The records of one (graph, pp) block, in config order: configs by
    sp, then ranking; within one, in the order `run_block` yields its
    strategies; within one, by run id. Each config's records gather in one
    list, keyed by its id beside its ranking name, and the lists are joined
    in config order.

    `t_reach_csn` and `coverage_at_tsn` are read straight off the state's
    `cumulative`: the first step whose count reaches SN's mean coverage, by
    bisection since the counts never fall, and the count at t_sn (t_sn >=
    1), the last count if the run ended before it. The coverage is the
    last count, and the duration the step before the last, since a final
    state ends with one quiet step; the forfeit is the budget less the
    seeds placed."""
    name, pp = block
    table = {config_id(name, pp, sp, method): (method.value, [])
             for sp, method in product(spec.sp_values, spec.rankings)}
    for cfg, label, states in run_block(spec, name, dict(spec.graphs)[name],
                                        pp, rankings):
        ranking, records = table[cfg.cid]
        for r, state in enumerate(states):
            cum = state.cumulative
            last = len(cum) - 1
            reach = bisect_left(cum, cfg.mean_c_sn)
            records.append(RunRecord(
                cfg.cid, name, pp, cfg.sp, ranking, label, r,
                cum[last], last - 1, reach if reach <= last else None,
                cum[cfg.t_sn if cfg.t_sn < last else last],
                cfg.n - len(state.seeds)))
    return [rec for _, records in table.values() for rec in records]


def grid_blocks(spec: GridSpec, jobs: int = 1) -> Iterator[List[RunRecord]]:
    """Run the full grid on `jobs` processes, yielding each (graph, pp)
    block's records as the block completes, in config order. Each (graph,
    method) is ranked once per grid, by `grid_ranking`, before any block
    runs; then each block is one task. At jobs > 1 the rankings and the
    blocks are tasks of one pool, with no more workers than the larger step
    has tasks, which hands back one block at a time, in order; closing the
    stream early terminates the pool.

    A jobs below 1, or a k above some configuration's seed budget, raises
    here, before the stream starts; a failing ranking fails the stream with
    a GridError before any block, and a configuration that fails while it
    runs fails it with a GridError."""
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    spec.check_budgets()
    return _blocks(spec, jobs)


def _blocks(spec: GridSpec, jobs: int) -> Iterator[List[RunRecord]]:
    """`grid_blocks`' stream, once its arguments are checked."""
    keys = [(name, method) for name, _ in spec.graphs for method in spec.rankings]
    blocks = [(name, pp) for name, _ in spec.graphs for pp in spec.pp_values]
    with ExitStack() as stack:
        tasks = map
        if jobs > 1:
            # only here: it adds about 1 MB to a serial run
            import multiprocessing

            pool = stack.enter_context(multiprocessing.Pool(
                min(jobs, max(len(keys), len(blocks)))))
            tasks = partial(pool.imap, chunksize=1)
        rankings = dict(zip(keys, tasks(partial(_ranking, spec), keys)))
        yield from tasks(partial(_block_records, spec, rankings), blocks)


def run_grid(spec: GridSpec, jobs: int = 1) -> List[RunRecord]:
    """`grid_blocks`' records as one list, in config order."""
    return list(chain.from_iterable(grid_blocks(spec, jobs)))


@dataclass(slots=True)
class ConfigStrategyRow:
    config_id: str
    strategy: str
    mean_coverage: float
    mean_duration: float
    coverage_ratio: Optional[float]
    duration_ratio: Optional[float]


@dataclass(slots=True)
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
    No records at all, a config lacking SN or a strategy that another config
    has, a repeated (config_id, strategy, run_id), or a (config_id,
    strategy) whose run ids differ from its SN block's, raises ValueError."""
    by_config: Dict[str, Dict[str, List[RunRecord]]] = {}
    for rec in records:
        by_config.setdefault(rec.config_id, {}).setdefault(
            rec.strategy, []).append(rec)
    if not by_config:
        raise ValueError("no records to summarize")
    # SN and every strategy that any config has: each config needs them all
    labels = {"SN"}.union(*by_config.values())

    per_config: List[ConfigStrategyRow] = []
    run_wins: Counter = Counter()  # runs above their config's SN mean
    sn_runs = 0  # by the pairing checks, every strategy's run count

    # each config's grouping is let go once its rows are built, so the
    # grouping and the rows are never both held whole
    for cid in sorted(by_config):
        block = by_config.pop(cid)
        missing = labels.difference(block)
        if missing:
            raise ValueError(f"missing rows: config {cid} has no records of "
                             f"strategy {', '.join(sorted(missing))}")
        sn = block["SN"]
        sn_ids = {r.run_id for r in sn}
        sn_runs += len(sn)
        mean_c_sn = sum(r.coverage for r in sn) / len(sn)
        mean_t_sn = sum(r.duration for r in sn) / len(sn)
        for strategy in sorted(block):
            runs = block[strategy]
            ids = {r.run_id for r in runs}
            if len(ids) < len(runs):
                counts = Counter(r.run_id for r in runs)
                run = next(i for i, c in counts.items() if c > 1)
                raise ValueError(f"repeated record: config {cid}, "
                                 f"strategy {strategy}, run {run}")
            if ids != sn_ids:
                raise ValueError(f"unpaired runs: config {cid}, strategy "
                                 f"{strategy}: runs {sorted(ids ^ sn_ids)} "
                                 f"not in both it and SN")
            mean_c = sum(r.coverage for r in runs) / len(runs)
            mean_t = sum(r.duration for r in runs) / len(runs)
            cov_ratio = mean_c / mean_c_sn if mean_c_sn > 0 else None
            dur_ratio = mean_t / mean_t_sn if mean_t_sn > 0 else None
            per_config.append(ConfigStrategyRow(cid, strategy, mean_c, mean_t,
                                                cov_ratio, dur_ratio))
            run_wins[strategy] += sum(1 for r in runs if r.coverage > mean_c_sn)

    # every config has every strategy, so each strategy's rows are in config
    # order, row for row beside SN's
    by_strategy: Dict[str, List[ConfigStrategyRow]] = {}
    for row in per_config:
        by_strategy.setdefault(row.strategy, []).append(row)
    sn_rows = by_strategy.pop("SN")
    per_strategy: List[StrategyRow] = []
    for strategy, rows in sorted(by_strategy.items()):
        diffs = [r.mean_coverage - sn.mean_coverage
                 for r, sn in zip(rows, sn_rows)]
        cov = [r.coverage_ratio for r in rows if r.coverage_ratio is not None]
        dur = [r.duration_ratio for r in rows if r.duration_ratio is not None]
        wins = sum(1 for d in diffs if d > 0)
        nonties = sum(1 for d in diffs if d != 0)
        wil = wilcoxon_signed_rank(diffs)
        per_strategy.append(StrategyRow(
            strategy=strategy,
            n_configs=len(diffs),
            win_fraction=wins / len(diffs),
            win_fraction_excl_ties=(wins / nonties) if nonties else 0.5,
            run_win_fraction=run_wins[strategy] / sn_runs,
            mean_coverage_ratio=(sum(cov) / len(cov)) if cov else None,
            mean_duration_ratio=(sum(dur) / len(dur)) if dur else None,
            hl_delta=hodges_lehmann(diffs),
            wilcoxon_p=wil.p,
        ))
    return ComparisonSummary(per_config, per_strategy)


# ---------------------------------------------------------------------------
# CSV emission / parsing (6 significant digits). Each table's header is its
# row type's field names, in field order.

def _header(row_type) -> str:
    return ",".join(f.name for f in fields(row_type))


RECORD_COLUMNS = _header(RunRecord)


def _fmt(x: Optional[float]) -> str:
    """A float in 6 significant digits; None as an empty field."""
    return "" if x is None else f"{x:.6g}"


class _Memo(dict):
    """Maps each distinct field value to parse(value), parsed once and then
    shared. A falsy key is parsed every time and not kept: 0.0 and -0.0 are
    equal keys but format as 0 and -0."""
    __slots__ = ("parse",)

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self.parse(key)
        if key:
            self[key] = value
        return value


def _csv_texts() -> _Memo:
    """A memo mapping each text to its form inside a row of the tables'
    csv dialect, as a csv writer writes it: the text itself when it needs
    no quoting, so the memo holds no copies."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def form(text):
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))  # not alone: csv quotes a lone ""
        quoted = buf.getvalue()[:-2]  # less the "," and "\n"
        return text if quoted == text else quoted
    return _Memo(form)


def _write_table(out: TextIO, row_type, lines: Iterable[str]) -> None:
    """Write the header of `row_type`, then `lines`, each a row ending in a
    newline, one at a time as they are made."""
    out.write(_header(row_type) + "\n")
    out.writelines(lines)


def write_records_csv(records: Iterable[RunRecord], out: TextIO) -> None:
    text, number = _csv_texts(), _Memo(_fmt)
    _write_table(out, RunRecord, (
        f"{text[r.config_id]},{text[r.graph]},{number[r.pp]},{number[r.sp]},"
        f"{text[r.ranking]},{text[r.strategy]},{r.run_id},{r.coverage},"
        f"{r.duration},{'' if r.t_reach_csn is None else r.t_reach_csn},"
        f"{r.coverage_at_tsn},{r.forfeited}\n" for r in records))


# how each numeric annotation of RunRecord parses, and what it must be
_NUMBERS = {"float": (float, "a number"), "int": (int, "an integer"),
            "Optional[int]": (lambda text: text and int(text), "an integer")}


def _raise_field_error(line: int, row: List[str]) -> None:
    """Raise ValueError naming the line and the first numeric column of a
    row that does not parse; an Optional one may be empty."""
    for field, text in zip(fields(RunRecord), row):
        parse, kind = _NUMBERS.get(field.type, (str, "text"))
        try:
            parse(text)
        except ValueError:
            raise ValueError(f"line {line}: {field.name} {text!r} "
                             f"is not {kind}") from None


def read_records_csv(lines) -> List[RunRecord]:
    """Parse a records CSV, as written by write_records_csv, into records
    equal field for field to the ones written.

    Each distinct text of a column is parsed once, and the one str, float or
    int made from it is shared by every row that repeats it. So the records
    read back take about as much memory as the grid's own: about 140 bytes
    a record. A row with the wrong field count, or a numeric field that does
    not parse, raises ValueError naming its line."""
    reader = csv.reader(io.StringIO(lines) if isinstance(lines, str) else lines)
    header = next(reader, [])
    if header != RECORD_COLUMNS.split(","):
        raise ValueError(f"unexpected records header: {','.join(header)!r}")
    width = len(header)
    name, number, integer = _Memo(str), _Memo(float), _Memo(int)
    records = []
    for f in reader:
        if not f:
            continue
        if len(f) != width:
            raise ValueError(f"line {reader.line_num}: expected {width} "
                             f"fields, got {len(f)}")
        try:
            records.append(RunRecord(
                name[f[0]], name[f[1]], number[f[2]], number[f[3]], name[f[4]],
                name[f[5]], integer[f[6]], integer[f[7]], integer[f[8]],
                integer[f[9]] if f[9] else None, integer[f[10]],
                integer[f[11]]))
        except ValueError:
            _raise_field_error(reader.line_num, f)
            raise
    return records


def write_summary_csv(summary: ComparisonSummary, out: TextIO) -> None:
    text, number = _csv_texts(), _Memo(_fmt)
    _write_table(out, StrategyRow, (
        f"{text[row.strategy]},{row.n_configs},{number[row.win_fraction]},"
        f"{number[row.win_fraction_excl_ties]},"
        f"{number[row.run_win_fraction]},{number[row.mean_coverage_ratio]},"
        f"{number[row.mean_duration_ratio]},{number[row.hl_delta]},"
        f"{number[row.wilcoxon_p]}\n" for row in summary.per_strategy))


def write_scatter_csv(summary: ComparisonSummary, out: TextIO) -> None:
    """Per-config coverage/duration ratios (Fig. 2(E)-style scatter data)."""
    text, number = _csv_texts(), _Memo(_fmt)
    _write_table(out, ConfigStrategyRow, (
        f"{text[row.config_id]},{text[row.strategy]},"
        f"{number[row.mean_coverage]},{number[row.mean_duration]},"
        f"{number[row.coverage_ratio]},{number[row.duration_ratio]}\n"
        for row in summary.per_config))


@dataclass(slots=True)
class TraceRow:
    run_id: int
    step: int
    seeds_injected: int
    activated: int
    cumulative_coverage: int


@dataclass(slots=True)
class MeanCurveRow:
    step: int
    mean_cumulative_coverage: float


def write_traces_csv(states: List[DiffusionState], out: TextIO) -> None:
    """One row per (run, step), from step 0 to the run's last, with run r
    read off `states[r]`, in run-id order."""
    _write_table(out, TraceRow, (
        f"{r},{step},{injected},{cum - before - injected},{cum}\n"
        for r, t in enumerate(states) for step, (before, cum, injected)
        in enumerate(zip([0] + t.cumulative, t.cumulative, t.injected))))


def write_mean_curve_csv(states: List[DiffusionState], out: TextIO) -> None:
    """The mean cumulative coverage of `states` at each step to the longest
    run's end; a run that has ended counts its final coverage."""
    last = max(len(t.cumulative) for t in states)
    steps = zip(*(t.cumulative + [t.coverage] * (last - len(t.cumulative))
                  for t in states))
    _write_table(out, MeanCurveRow, (
        f"{step},{_fmt(sum(counts) / len(states))}\n"
        for step, counts in enumerate(steps)))
