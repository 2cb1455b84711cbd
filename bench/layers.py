"""Spans and per-layer probes for the traced run.

`Tracer` keeps spans (id, parent, name, start, end) in memory; the benchmark
writes them once at the end. A span's name is `<module>.<call>`, so the
per-module table groups by the part before the first dot.

`probe_layers` calls each module's public functions on the workload's own
graphs, configurations and seeds, one span per call. It does not replay
`run_grid`'s internal order and compares nothing with its records, so it
keeps working when the grid is recomposed.
"""
from __future__ import annotations

import io
import json
import random
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

from seqseed.config import load_grid_config
from seqseed.diffusion import DiffusionState, activate_seeds, run_until_stop
from seqseed.experiment import config_id, derive_rng
from seqseed.graphs import generate_ba, generate_er, load_edge_list, serialize
from seqseed.ranking import (RankingMethod, eigenvector_scores, method_scores,
                             pagerank_scores, rank)
from seqseed.stats import hodges_lehmann, wilcoxon_signed_rank
from seqseed.strategies import STRATEGY_KINDS, StrategySpec, run_strategy, seed_count

from checks import check_graph, check_power_iteration

CONFIG_REPEATS = 9


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, parent, name, start, end)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def module_table(self) -> Dict[str, Dict[str, float]]:
        """Per module: span count, total time, and self time (total minus
        the time covered by child spans)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            row = table.setdefault(name.split(".", 1)[0],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return table

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class CountingRng:
    """Counts `random()` draws; other methods pass through uncounted."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self._rng.random()

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _build(params: dict, entry: dict, base_dir: str, tracer: Tracer):
    """Rebuild one configured graph with the public generator or loader."""
    if entry["type"] == "edgelist":
        with tracer.span("graphs.load_edge_list"):
            with open(f"{base_dir}/{entry['path']}", encoding="utf-8") as fh:
                return load_edge_list(fh), True
    rng = random.Random(entry["seed"])
    if entry["type"] == "ba":
        with tracer.span("graphs.generate_ba"):
            return generate_ba(params["n"], params["m"], rng), False
    with tracer.span("graphs.generate_er"):
        return generate_er(params["n"], params["p"], rng), False


def probe_layers(workload, base_dir: str, summary, tracer: Tracer):
    """Time each layer's public calls; returns (metrics, {graph: problem})."""
    metrics: Dict[str, float] = {}
    failed: Dict[str, str] = {}
    metrics["config.load_s"] = _probe_config(workload, tracer)
    graphs = _probe_graphs(workload, base_dir, tracer, metrics, failed)
    scores = _probe_scores(workload, graphs, tracer, metrics, failed)
    _probe_runs(workload, graphs, scores, tracer, metrics, failed)
    _probe_stats(summary, tracer, metrics)
    return metrics, failed


def _probe_config(workload, tracer: Tracer) -> float:
    """Median load_grid_config on the workload's config with every graph
    swapped for a 4-node one: parsing and validation, net of graph building."""
    skeleton = dict(workload.config, graphs=[
        {"name": e["name"], "type": "ba", "n": 4, "m": 1, "seed": 0}
        for e in workload.config["graphs"]])
    text = json.dumps(skeleton)
    with tracer.span("bench.probe_config"):
        for _ in range(CONFIG_REPEATS):
            with tracer.span("config.load_grid_config"):
                load_grid_config(text)
    return statistics.median(tracer.durations("config.load_grid_config"))


def _probe_graphs(workload, base_dir, tracer, metrics, failed) -> Dict[str, object]:
    """Build every graph as the config does; reload generated ones from
    their serialized form; check edge counts."""
    graphs = {}
    with tracer.span("bench.probe_graphs"):
        for entry in workload.config["graphs"]:
            name = entry["name"]
            params = workload.graph_params[name]
            g, loaded = _build(params, entry, base_dir, tracer)
            graphs[name] = g
            problem = check_graph(params, g.edge_count)
            if not loaded:
                text = _serialized(g, tracer)
                with tracer.span("graphs.load_edge_list"):
                    back = load_edge_list(text)
                if back.edge_count != g.edge_count:
                    problem = problem or (f"serialized graph reloads with "
                                          f"{back.edge_count} edges")
            if problem:
                failed[name] = problem
    metrics["graphs.generate_s"] = (tracer.total("graphs.generate_ba")
                                    + tracer.total("graphs.generate_er"))
    metrics["graphs.load_s"] = tracer.total("graphs.load_edge_list")
    metrics["graphs.edges"] = float(sum(g.edge_count for g in graphs.values()))
    return graphs


def _probe_scores(workload, graphs, tracer, metrics, failed) -> dict:
    """Scores per graph x non-random method. For pagerank and eigenvector,
    the power-iteration call method_scores makes is called directly, to read
    its iteration count and convergence."""
    power = {RankingMethod.PAGERANK: pagerank_scores,
             RankingMethod.EIGENVECTOR: eigenvector_scores}
    methods = [RankingMethod.from_string(r) for r in workload.config["rankings"]]
    scores = {}
    iterations = 0
    with tracer.span("bench.probe_ranking"):
        for name, g in graphs.items():
            for m in methods:
                if m is RankingMethod.RANDOM:
                    continue
                if m not in power:
                    with tracer.span("ranking.method_scores"):
                        scores[name, m] = method_scores(g, m)
                    continue
                with tracer.span(f"ranking.{power[m].__name__}"):
                    result = power[m](g)
                scores[name, m] = result.scores
                iterations += result.iterations
                problem = check_power_iteration(m.value, result)
                if problem:
                    failed.setdefault(name, problem)
    metrics["ranking.scores_s"] = sum(
        tracer.total(f"ranking.{name}") for name in
        ("method_scores", "pagerank_scores", "eigenvector_scores"))
    metrics["ranking.power_iterations"] = float(iterations)
    return scores


def _probe_runs(workload, graphs, scores, tracer, metrics, failed) -> None:
    """Per config: rank, one SN cascade, and run 0 of each strategy kind
    (k = 1), timed with a plain rng and replayed with a counting one."""
    master = workload.master_seed
    kinds = {kind: StrategySpec(kind, k=1) if kind.startswith("SQ_kPS")
             else StrategySpec(kind) for kind in STRATEGY_KINDS}
    draws: List[int] = []
    with tracer.span("bench.probe_runs"):
        for gname, pp, sp, rname in workload.configs():
            g = graphs[gname]
            method = RankingMethod.from_string(rname)
            cid = config_id(gname, pp, sp, method)
            with tracer.span("experiment.derive_rng"):
                rank_rng = derive_rng(master, cid, "ranking")
            with tracer.span("ranking.rank"):
                ranking = rank(g, method, rank_rng, scores=scores.get((gname, method)))
            n = seed_count(g, sp)
            with tracer.span("experiment.derive_rng"):
                rng = derive_rng(master, cid, "SN", 0)
            state = DiffusionState(g)
            with tracer.span("diffusion.cascade"):
                activate_seeds(state, ranking.order[:n])
                run_until_stop(state, g, pp, rng)
            t_sn = max(1, state.last_activity)
            for kind, spec in kinds.items():
                with tracer.span("experiment.derive_rng"):
                    rng = derive_rng(master, cid, spec.label, 0)
                with tracer.span(f"strategies.run_strategy.{kind}"):
                    timed = run_strategy(g, ranking, spec, n, pp, rng, t_sn=t_sn)
                counter = CountingRng(derive_rng(master, cid, spec.label, 0))
                again = run_strategy(g, ranking, spec, n, pp, counter, t_sn=t_sn)
                draws.append(counter.draws)
                if (again.coverage, again.duration) != (timed.coverage, timed.duration):
                    failed.setdefault(gname, f"{kind} on {cid} does not replay "
                                      f"from the same rng stream")
    metrics["ranking.rank_s"] = tracer.total("ranking.rank")
    metrics["diffusion.cascade_us"] = _mean_us(tracer.durations("diffusion.cascade"))
    metrics["diffusion.draws_per_run"] = sum(draws) / len(draws)
    for kind in STRATEGY_KINDS:
        metrics[f"strategies.us_per_run.{kind}"] = _mean_us(
            tracer.durations(f"strategies.run_strategy.{kind}"))
    metrics["experiment.derive_rng_us"] = _mean_us(
        tracer.durations("experiment.derive_rng"))


def _probe_stats(summary, tracer, metrics) -> None:
    """hodges_lehmann and wilcoxon_signed_rank on every strategy's vector of
    per-config mean-coverage differences, taken from the summary."""
    sn_mean = {row.config_id: row.mean_coverage
               for row in summary.per_config if row.strategy == "SN"}
    diffs: Dict[str, List[float]] = {}
    for row in summary.per_config:
        if row.strategy != "SN":
            diffs.setdefault(row.strategy, []).append(
                row.mean_coverage - sn_mean[row.config_id])
    with tracer.span("bench.probe_stats"):
        for d in diffs.values():
            with tracer.span("stats.hodges_lehmann"):
                hodges_lehmann(d)
            with tracer.span("stats.wilcoxon_signed_rank"):
                wilcoxon_signed_rank(d)
    metrics["stats.hodges_lehmann_s"] = tracer.total("stats.hodges_lehmann")
    metrics["stats.wilcoxon_s"] = tracer.total("stats.wilcoxon_signed_rank")


def _serialized(g, tracer: Tracer) -> str:
    buf = io.StringIO()
    with tracer.span("graphs.serialize"):
        serialize(g, buf)
    return buf.getvalue()


def _mean_us(durations: List[float]) -> float:
    return 1e6 * sum(durations) / len(durations)
