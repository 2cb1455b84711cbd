#!/usr/bin/env python3
"""seqseed benchmark: one grid workload, end to end, optionally traced.

    python3 bench/run.py --workload desk-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; seqseed is imported from ./src.
Each round drives the calls `seqseed grid` and `seqseed summarize` make:
load_grid_config_file -> run_grid(jobs=1) -> write_records_csv ->
read_records_csv -> summarize -> write_summary_csv / write_scatter_csv.
Rounds repeat until the next one would end after --seconds. runs_per_s and
wall_s are taken at the 90th percentile of the round times (see
slow_rounds), setup_s at the median of its samples. Outputs are checked by
the benchmark's own code (checks.py); configurations and the summary are
the operations counted in `attempted` and `failed`.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds for half the time, then probes each module's public calls
(layers.py) and reports the per-layer metrics; its spans go to
.bench_out/<workload>/spans.json. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_ROUND_S = 0.1

END_TO_END = {"setup_s": "s", "runs_per_s": "1/s", "wall_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.load_s": "s", "graphs.generate_s": "s", "graphs.load_s": "s",
    "graphs.edges": "edges", "ranking.scores_s": "s",
    "ranking.power_iterations": "iterations", "ranking.rank_s": "s",
    "diffusion.cascade_us": "us", "diffusion.draws_per_run": "draws",
    **{f"strategies.us_per_run.{k}": "us" for k in
       ("SN", "SQ_kPS", "SQ_kPS_R", "SQ_kPS_B", "SQ_TSN", "SQ_TSN_R")},
    "experiment.derive_rng_us": "us", "experiment.run_grid_s": "s",
    "experiment.write_records_s": "s", "experiment.read_records_s": "s",
    "experiment.records_bytes": "bytes", "experiment.summarize_s": "s",
    "stats.hodges_lehmann_s": "s", "stats.wilcoxon_s": "s",
    "bench.trace_overhead_s": "s", "bench.ref_loop_s": "s",
}


def _import_program():
    """Import seqseed from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "seqseed", "__init__.py")):
        sys.exit(f"bench: no seqseed sources under {SRC}")
    sys.path.insert(0, SRC)
    import seqseed

    if os.path.dirname(os.path.abspath(seqseed.__file__)) != os.path.join(SRC, "seqseed"):
        sys.exit(f"bench: seqseed imported from {seqseed.__file__}, not {SRC}")


def ref_loop() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not seqseed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) & 0xFFFFF
    return time.perf_counter() - start


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


class Pipeline:
    """One round of grid + summary through the CLI's public calls."""

    def __init__(self, workload, out_dir: str):
        self.workload = workload
        self.records_path = os.path.join(out_dir, "records.csv")
        self.summary_path = os.path.join(out_dir, "summary.csv")
        self.scatter_path = os.path.join(out_dir, "ratio_scatter.csv")

    def setup(self):
        return load_grid_config_file(self.workload.config_path)

    def run(self, tracer=None) -> dict:
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        clock = time.perf_counter
        t0 = clock()
        with span("config.load_grid_config_file"):
            spec = load_grid_config_file(self.workload.config_path)
        t1 = clock()
        with span("experiment.run_grid"):
            records = run_grid(spec, jobs=1)
        t2 = clock()
        with span("experiment.write_records_csv"):
            with open(self.records_path, "w", encoding="utf-8") as fh:
                write_records_csv(records, fh)
        with span("experiment.read_records_csv"):
            with open(self.records_path, encoding="utf-8") as fh:
                read_back = read_records_csv(fh)
        with span("experiment.summarize"):
            summary = summarize(read_back)
        with span("experiment.write_summary_csv"):
            with open(self.summary_path, "w", encoding="utf-8") as fh:
                write_summary_csv(summary, fh)
        with span("experiment.write_scatter_csv"):
            with open(self.scatter_path, "w", encoding="utf-8") as fh:
                write_scatter_csv(summary, fh)
        t3 = clock()
        return {"setup_s": t1 - t0, "grid_s": t2 - t1, "wall_s": t3 - t0,
                "n_records": len(records),
                "records": records, "read_back": read_back, "summary": summary}

    def outputs(self):
        """(records digest, records bytes, summary CSV, scatter CSV)."""
        with open(self.records_path, "rb") as fh:
            data = fh.read()
        with open(self.summary_path, encoding="utf-8") as fh:
            summary_text = fh.read()
        with open(self.scatter_path, encoding="utf-8") as fh:
            scatter_text = fh.read()
        return hashlib.sha256(data).hexdigest(), len(data), summary_text, scatter_text


def run_rounds(pipeline, checker, deadline, tracer=None, min_rounds=1):
    """Rounds until the next would end after the deadline. With a tracer,
    rounds alternate untraced / traced and at least one of each runs.

    Each round also repeats set-up alone until the round holds SETUP_ROUND_S
    of set-up samples, so a short set-up gets many samples, spread over the
    whole run like the other metrics. Only timings outlive a round (and,
    when tracing, the last summary for the probes).
    """
    plain, traced, setups = [], [], []
    while True:
        start = time.perf_counter()
        use = tracer if tracer is not None and len(traced) < len(plain) else None
        summary = None  # let the last round's summary go before this one
        result = pipeline.run(use)
        # the high-water mark so far: after the first round, that of one
        # grid + summary in a fresh process, before the checks allocate
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest, _, summary_text, scatter_text = pipeline.outputs()
        checker.check(result.pop("records"), result.pop("read_back"),
                      (digest, summary_text, scatter_text))
        summary = result.pop("summary")
        if tracer is None:
            summary = None
        (traced if use else plain).append(result)
        print(f"round {len(plain) + len(traced)}{' traced' if use else ''}: "
              f"setup {result['setup_s']:.4f} s, grid {result['grid_s']:.4f} s "
              f"({result['n_records']} records), wall {result['wall_s']:.4f} s, "
              f"peak RSS {result['peak_rss_mb']:.1f} MB")
        del result
        spent = [plain[-1]["setup_s"]] if not use else []
        while sum(spent) < SETUP_ROUND_S and len(spent) < 30:
            t = time.perf_counter()
            pipeline.setup()
            spent.append(time.perf_counter() - t)
        setups += spent
        last = time.perf_counter() - start
        if (len(plain) + len(traced) >= min_rounds
                and time.perf_counter() + last > deadline):
            return plain, traced, setups, summary


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def slow_rounds(times) -> float:
    """The 90th percentile of a run's round times.

    The shared host holds a steady contended state and faster spells for
    tens of seconds to minutes, and round times within a fast spell spread
    widely. A run's median or mean moves with the share of the run each
    state held; the slow tail stays near the contended state, which recurs
    in nearly every run and which the fast spells' slowest rounds approach.
    """
    times = list(times)
    if len(times) == 1:
        return times[0]
    # inclusive: interpolate between samples, never beyond the slowest
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one directory per run, so that runs in the same checkout never share
    # output files
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}-pid{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    info = machine()
    ref = [ref_loop()]
    workload = workloads.build(args.workload, args.seed, out_dir)
    pipeline = Pipeline(workload, out_dir)
    checker = checks.RoundChecker(workload)
    print(f"machine: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(workload.configs())} configs x {len(workload.strategies)} "
          f"strategies x {workload.replications} replications")

    start = time.perf_counter()
    deadline = start + args.seconds * (0.5 if args.trace else 1.0)
    tracer = layers.Tracer() if args.trace else None
    plain, traced, setups, summary = run_rounds(
        pipeline, checker, deadline, tracer, min_rounds=2 if args.trace else 1)
    e2e = {"setup_s": statistics.median(setups),
           "runs_per_s": plain[0]["n_records"] / slow_rounds(r["grid_s"] for r in plain),
           "wall_s": slow_rounds(r["wall_s"] for r in plain),
           "peak_rss_mb": plain[0]["peak_rss_mb"]}
    rounds = len(plain) + len(traced)
    checker.check_stats(rounds)

    metrics = dict(e2e)
    if args.trace:
        probe, failed_graphs = layers.probe_layers(
            workload, out_dir, summary, tracer)
        checker.add_probe(failed_graphs)
        metrics.update(probe)
        metrics["experiment.run_grid_s"] = statistics.median(tracer.durations("experiment.run_grid"))
        metrics["experiment.write_records_s"] = statistics.median(
            tracer.durations("experiment.write_records_csv"))
        metrics["experiment.read_records_s"] = statistics.median(
            tracer.durations("experiment.read_records_csv"))
        metrics["experiment.summarize_s"] = statistics.median(tracer.durations("experiment.summarize"))
        metrics["experiment.records_bytes"] = float(os.path.getsize(pipeline.records_path))
        metrics["bench.trace_overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
    ref.append(ref_loop())
    metrics["bench.ref_loop_s"] = statistics.median(ref)

    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; "
          f"set-up samples: {len(setups)}; measured {time.perf_counter() - start:.1f} s")
    for name, unit in list(END_TO_END.items()) + (list(PER_LAYER.items()) if args.trace
                                                  else [("bench.ref_loop_s", "s")]):
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        print(f"  {'module':12s} {'spans':>8s} {'total_s':>10s} {'self_s':>10s}")
        for module, row in sorted(tracer.module_table().items()):
            print(f"  {module:12s} {row['count']:>8d} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        tracer.write(os.path.join(out_dir, "spans.json"))
    digest, nbytes, _, _ = pipeline.outputs()
    os.remove(pipeline.records_path)  # the largest output; its digest stays
    print(f"records: {nbytes} bytes, sha256 {digest}; outputs in {out_dir}")
    for message in checker.messages[:20]:
        print(f"CHECK FAILED {message}")
    print(f"operations: attempted {checker.attempted} failed {checker.failed}")

    names = PER_LAYER if args.trace else END_TO_END
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in names.items()}}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "machine": info, **result,
                   "all_metrics": metrics}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _import_program()
    from seqseed.config import load_grid_config_file
    from seqseed.experiment import (read_records_csv, run_grid, summarize,
                                    write_records_csv, write_scatter_csv,
                                    write_summary_csv)

    import checks
    import layers
    import workloads

    sys.exit(main())
