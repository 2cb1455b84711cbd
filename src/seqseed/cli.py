"""Command line surface: gen, rank, simulate, grid, summarize.

All randomness defaults to a fixed master seed so repeated invocations are
byte-identical; pass --entropy to draw the seed from OS randomness and
print it on stderr. Data goes to files or stdout, diagnostics to stderr,
exit status is nonzero on any error.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from contextlib import closing
from functools import partial

from .config import load_grid_config_file
from .experiment import (GridError, GridSpec, grid_blocks, grid_ranking,
                         read_records_csv, run_block, summarize,
                         write_mean_curve_csv, write_records_csv,
                         write_scatter_csv, write_summary_csv,
                         write_traces_csv)
from .graphs import (GraphParseError, ParameterError, generate_ba, generate_er,
                     load_edge_list, serialize)
from .ranking import RankingMethod, write_ranking_csv
from .strategies import StrategySpec

DEFAULT_SEED = 1729


def _warn_dropped(g, where: str) -> None:
    """Say on stderr what lines the edge list of `g` dropped, if any."""
    if g.dropped_self_loops or g.dropped_duplicates:
        print(f"warning: {where}: dropped {g.dropped_self_loops} self-loops "
              f"and {g.dropped_duplicates} duplicate edges", file=sys.stderr)


def _load_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            g = load_edge_list(fh)
        except (GraphParseError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"{path}: {exc}") from None
    _warn_dropped(g, path)
    return g


def _naming(path: str, call, *args, **kwargs):
    """`call(*args, **kwargs)`, whose OSError names the table at `path`, not
    its temp file."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        exc.filename = path
        del exc.filename2  # a failed rename names both of its paths
        raise


def _write_tables(tables) -> None:
    """The tables of one command, each `(path, write, table)` written by
    `write(table, fh)` to a temp file beside its path, and renamed only once
    every one is complete: a failed write leaves no partial table to be read
    as a smaller one, no table beside an earlier command's, and no temp
    file."""
    try:
        for path, write, table in tables:
            with _naming(path, open, path + ".tmp", "w", encoding="utf-8",
                         newline="") as fh:
                write(table, fh)
        for path, _, _ in tables:
            _naming(path, os.replace, path + ".tmp", path)
    except BaseException:
        for path, _, _ in tables:
            if os.path.exists(path + ".tmp"):
                os.remove(path + ".tmp")
        raise


def _seed_from(args) -> int:
    """The master seed: --seed, or under --entropy one drawn from the OS and
    printed on stderr, so that --seed can rerun it."""
    if args.entropy:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed {seed} (from --entropy)", file=sys.stderr)
        return seed
    return args.seed


def cmd_gen(args) -> int:
    rng = random.Random(_seed_from(args))
    own, other = ("m", "p") if args.kind == "ba" else ("p", "m")
    if getattr(args, own) is None:
        raise ParameterError(f"{args.kind} generator requires --{own}")
    if getattr(args, other) is not None:
        raise ParameterError(f"{args.kind} generator takes no --{other}")
    generate = generate_ba if args.kind == "ba" else generate_er
    g = generate(args.n, getattr(args, own), rng)
    _write_tables([(args.out, serialize, g)])
    print(f"{g.node_count} nodes, {g.edge_count} edges -> {args.out}")
    return 0


def _graph_name(path: str) -> str:
    """The name a grid gives the graph in `path`: the file's stem."""
    return os.path.splitext(os.path.basename(path))[0]


def cmd_rank(args) -> int:
    """Rank as the grid does: the grid's ranking of the graph named after
    the file's stem. A pagerank or eigenvector ranking says on stderr how
    its power iteration ended."""
    g = _load_graph(args.graph)
    method = RankingMethod.from_string(args.method)
    ranking = grid_ranking(_seed_from(args), _graph_name(args.graph), g, method)
    if args.out:
        _write_tables([(args.out, partial(write_ranking_csv, g), ranking)])
    else:
        write_ranking_csv(g, ranking, sys.stdout)
    if ranking.iterations is not None:
        ended = "converged" if ranking.converged else "did not converge"
        print(f"{method.value}: {ended} in {ranking.iterations} iterations",
              file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    """Run one configuration as a one-config grid block, on the grid's
    ranking, so its runs are the grid's records for the graph named after
    the file's stem."""
    g = _load_graph(args.graph)
    spec = StrategySpec.parse(args.strategy)
    method = RankingMethod.from_string(args.ranking)
    name = _graph_name(args.graph)
    grid = GridSpec([(name, g)], [args.pp], [args.sp], [method], [spec],
                    args.runs, _seed_from(args))
    grid.check_budgets()
    rankings = {(name, method): grid_ranking(grid.master_seed, name, g, method)}
    for cfg, label, states in run_block(grid, name, g, args.pp, rankings):
        if label == spec.label:
            traces = states
    if spec.kind.startswith("SQ_TSN"):
        print(f"derived t_sn = {cfg.t_sn} from {args.runs} SN reference runs")

    os.makedirs(args.out_dir, exist_ok=True)
    path = partial(os.path.join, args.out_dir)
    _write_tables([(path("traces.csv"), write_traces_csv, traces),
                   (path("mean_curve.csv"), write_mean_curve_csv, traces)])
    mean_c = sum(t.coverage for t in traces) / len(traces)
    mean_t = sum(t.duration for t in traces) / len(traces)
    print(f"{spec.label} on {args.graph}: n={cfg.n}, pp={args.pp:g}, "
          f"runs={args.runs}")
    print(f"mean coverage {mean_c:.6g}, mean duration {mean_t:.6g}")
    return 0


def cmd_grid(args) -> int:
    spec = load_grid_config_file(args.config)
    for name, g in spec.graphs:
        _warn_dropped(g, f"graph {name!r}")
    blocks = grid_blocks(spec, jobs=args.jobs)  # a bad --jobs or k fails here
    count = 0

    def records():
        """The stream's records, each block counted as it passes."""
        nonlocal count
        for block in blocks:
            count += len(block)
            yield from block

    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "records.csv")
    with closing(blocks):  # a failed write stops the grid and its pool
        _write_tables([(path, write_records_csv, records())])
    print(f"{count} run records -> {path}")
    return 0


def cmd_summarize(args) -> int:
    # utf-8-sig drops a leading byte-order mark, as the config loader does
    with open(args.records, encoding="utf-8-sig", newline="") as fh:
        records = read_records_csv(fh)
    summary = summarize(records)
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = os.path.join(args.out_dir, "summary.csv")
    scatter_path = os.path.join(args.out_dir, "ratio_scatter.csv")
    _write_tables([(summary_path, write_summary_csv, summary),
                   (scatter_path, write_scatter_csv, summary)])
    print(f"summary -> {summary_path}")
    print(f"ratio scatter -> {scatter_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqseed",
        description="Sequential seeding simulation lab (IC diffusion model)")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seed = seeded.add_mutually_exclusive_group()
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed.add_argument("--entropy", action="store_true",
                      help="seed from OS randomness; prints the seed drawn")

    p = sub.add_parser("gen", parents=[seeded],
                       help="generate a synthetic graph edge list")
    p.add_argument("kind", choices=["ba", "er"])
    p.add_argument("--n", type=int, required=True, help="node count")
    p.add_argument("--m", type=int, help="edges per new node (ba)")
    p.add_argument("--p", type=float, help="edge probability (er)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("rank", parents=[seeded],
                       help="rank nodes and dump scores as CSV")
    p.add_argument("--graph", required=True, help="edge list path")
    p.add_argument("--method", required=True,
                   help="random|degree|degree2|pagerank|eigenvector (or R/D/D2/PR/EV)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run one configuration, emit traces")
    p.add_argument("--graph", required=True)
    p.add_argument("--strategy", required=True,
                   help="label: SN, SQ_TSN[_R] or SQ_<k>PS[_R|_B], e.g. SQ_2PS_R")
    p.add_argument("--ranking", required=True)
    p.add_argument("--sp", type=float, required=True)
    p.add_argument("--pp", type=float, required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("grid", help="run a full experiment grid from JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
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
    except (GridError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
