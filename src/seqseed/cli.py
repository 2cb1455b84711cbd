"""Command line surface: gen, rank, simulate, grid, summarize.

All randomness defaults to a fixed master seed so repeated invocations are
byte-identical; pass --entropy to opt into OS randomness. Data goes to files
or stdout, diagnostics to stderr, exit status is nonzero on any error.
"""
from __future__ import annotations

import argparse
import os
import random
import sys

from .config import ConfigError, load_grid_config_file
from .diffusion import DiffusionTrace
from .experiment import (GridSpec, read_records_csv, run_config, run_grid,
                         summarize, write_records_csv, write_scatter_csv,
                         write_summary_csv)
from .graphs import (GraphParseError, ParameterError, generate_ba, generate_er,
                     load_edge_list, serialize)
from .ranking import RankingMethod, rank, write_ranking_csv
from .strategies import StrategySpec

DEFAULT_SEED = 1729


def _load_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        g = load_edge_list(fh)
    if g.dropped_self_loops or g.dropped_duplicates:
        print(f"warning: dropped {g.dropped_self_loops} self-loops and "
              f"{g.dropped_duplicates} duplicate edges", file=sys.stderr)
    return g


def _seed_from(args) -> int:
    if getattr(args, "entropy", False):
        return int.from_bytes(os.urandom(8), "big")
    return args.seed


def cmd_gen(args) -> int:
    rng = random.Random(_seed_from(args))
    if args.kind == "ba":
        if args.m is None:
            raise ParameterError("ba generator requires --m")
        g = generate_ba(args.n, args.m, rng)
    else:
        if args.p is None:
            raise ParameterError("er generator requires --p")
        g = generate_er(args.n, args.p, rng)
    with open(args.out, "w", encoding="utf-8") as fh:
        serialize(g, fh)
    print(f"{g.node_count} nodes, {g.edge_count} edges -> {args.out}")
    return 0


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    method = RankingMethod.from_string(args.method)
    ranking = rank(g, method, random.Random(_seed_from(args)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_ranking_csv(g, ranking, fh)
    else:
        write_ranking_csv(g, ranking, sys.stdout)
    return 0


def _trace_csv(trace: DiffusionTrace, out) -> None:
    out.write("step,seeds_injected,activated,cumulative_coverage\n")
    for e in trace.entries:
        out.write(f"{e.step},{len(e.injected)},{len(e.activated)},{e.cumulative}\n")


def cmd_simulate(args) -> int:
    """Run one configuration as a one-config grid, so its runs are the grid's
    records for the graph named after the file's stem."""
    g = _load_graph(args.graph)
    spec = StrategySpec.parse(args.strategy, k=args.k, t_sn=args.t_sn)
    method = RankingMethod.from_string(args.ranking)
    name = os.path.splitext(os.path.basename(args.graph))[0]
    grid = GridSpec([(name, g)], [args.pp], [args.sp], [method], [spec],
                    args.runs, _seed_from(args))
    out = run_config(grid, name, g, args.pp, args.sp, method)
    if spec.kind.startswith("SQ_TSN") and spec.t_sn is None:
        print(f"derived t_sn = {out.t_sn} from {args.runs} SN reference runs")

    traces = list(out.runs[-1][1])
    os.makedirs(args.out_dir, exist_ok=True)
    for run_id, trace in enumerate(traces):
        with open(os.path.join(args.out_dir, f"trace_{run_id:04d}.csv"),
                  "w", encoding="utf-8") as fh:
            _trace_csv(trace, fh)
    max_step = max(t.entries[-1].step if t.entries else 0 for t in traces)
    with open(os.path.join(args.out_dir, "mean_curve.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("step,mean_cumulative_coverage\n")
        for step in range(max_step + 1):
            mean = sum(t.cumulative_at(step) for t in traces) / len(traces)
            fh.write(f"{step},{mean:.6g}\n")
    mean_c = sum(t.coverage for t in traces) / len(traces)
    mean_t = sum(t.duration for t in traces) / len(traces)
    print(f"{spec.label} on {args.graph}: n={out.n}, pp={args.pp:g}, "
          f"runs={args.runs}")
    print(f"mean coverage {mean_c:.6g}, mean duration {mean_t:.6g}")
    return 0


def cmd_grid(args) -> int:
    spec = load_grid_config_file(args.config)
    jobs = args.jobs or int(os.environ.get("SEQSEED_JOBS", "1"))
    records = run_grid(spec, jobs=jobs)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "records.csv")
    with open(path, "w", encoding="utf-8") as fh:
        write_records_csv(records, fh)
    print(f"{len(records)} run records -> {path}")
    return 0


def cmd_summarize(args) -> int:
    with open(args.records, encoding="utf-8") as fh:
        records = read_records_csv(fh)
    summary = summarize(records)
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = os.path.join(args.out_dir, "summary.csv")
    scatter_path = os.path.join(args.out_dir, "ratio_scatter.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        write_summary_csv(summary, fh)
    with open(scatter_path, "w", encoding="utf-8") as fh:
        write_scatter_csv(summary, fh)
    print(f"summary -> {summary_path}")
    print(f"ratio scatter -> {scatter_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqseed",
        description="Sequential seeding simulation lab (IC diffusion model)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic graph edge list")
    p.add_argument("kind", choices=["ba", "er"])
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--m", type=int, help="edges per new node (ba)")
    p.add_argument("--p", type=float, help="edge probability (er)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--entropy", action="store_true",
                   help="seed from OS randomness instead of --seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rank", help="rank nodes and dump scores as CSV")
    p.add_argument("--graph", required=True, help="edge list path")
    p.add_argument("--method", required=True,
                   help="random|degree|degree2|pagerank|eigenvector (or R/D/D2/PR/EV)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--entropy", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", help="run one configuration, emit traces")
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", required=True,
                   help="SN, SQ_kPS[_R|_B] (+--k), SQ_TSN[_R], or inline SQ_2PS_R")
    p.add_argument("--k", type=int)
    p.add_argument("--t-sn", type=int, dest="t_sn",
                   help="reference duration; derived from SN runs if omitted")
    p.add_argument("--ranking", required=True)
    p.add_argument("--sp", type=float, required=True)
    p.add_argument("--pp", type=float, required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--entropy", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grid", help="run a full experiment grid from JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int,
                   help="parallel workers (default $SEQSEED_JOBS or 1)")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("summarize", help="aggregate a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GraphParseError, ParameterError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
