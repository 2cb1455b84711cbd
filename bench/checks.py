"""Output checks, computed from the workload description and the written
outputs with the benchmark's own code.

Operations are the workload's configurations plus the summary. Each check
names the operation it fails: a configuration key (graph, pp, sp, ranking)
or SUMMARY. Records are read by attribute and CSVs by column name, so extra
columns do not break the checks.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

SUMMARY = "summary"
# values are written with 6 significant digits: rounding moves them by at
# most 5e-6 relative
WRITTEN_REL = 6e-6


@dataclass
class CheckReport:
    failed: Set = field(default_factory=set)  # config keys and/or SUMMARY
    messages: List[str] = field(default_factory=list)

    def fail(self, op, message: str) -> None:
        self.failed.add(op)
        self.messages.append(f"{op}: {message}")

    def merge(self, other: "CheckReport") -> None:
        self.failed |= other.failed
        self.messages += other.messages


def seed_budget(sp: float, nodes: int) -> int:
    return max(1, math.floor(sp * nodes + 0.5))


def matches_written(written: str, value: Optional[float]) -> bool:
    """Does a CSV cell hold `value` at the written precision?"""
    if value is None:
        return written == ""
    if written == "":
        return False
    return abs(float(written) - value) <= WRITTEN_REL * abs(value) + 1e-12


def _key(rec) -> Tuple[str, float, float, str]:
    return (rec.graph, rec.pp, rec.sp, rec.ranking)


def group_records(records) -> Dict[tuple, Dict[str, list]]:
    by_key: Dict[tuple, Dict[str, list]] = {}
    for rec in records:
        by_key.setdefault(_key(rec), {}).setdefault(rec.strategy, []).append(rec)
    return by_key


def check_records(workload, records) -> CheckReport:
    """Counts, SN rows, coverage bounds and the t_reach_csn rule per config."""
    rep = CheckReport()
    expected = workload.configs()
    labels = workload.strategies
    reps = workload.replications
    if len(records) != len(expected) * len(labels) * reps:
        rep.fail(SUMMARY, f"{len(records)} records, expected "
                 f"{len(expected)} x {len(labels)} x {reps}")
    by_key = group_records(records)
    for key in set(by_key) - set(expected):
        rep.fail(SUMMARY, f"records for unexpected config {key}")
    ids: Dict[str, tuple] = {}
    for key in expected:
        block = by_key.get(key)
        if not block:
            rep.fail(key, "no records")
            continue
        if "SN" not in block:
            rep.fail(key, "no SN rows")
            continue
        cids = {r.config_id for runs in block.values() for r in runs}
        if len(cids) != 1 or ids.setdefault(next(iter(cids)), key) != key:
            rep.fail(key, f"config ids {sorted(cids)} not unique to the config")
        for label in labels:
            got = sorted(r.run_id for r in block.get(label, []))
            if got != list(range(reps)):
                rep.fail(key, f"{label}: run ids {got}, expected 0..{reps - 1}")
        for label in set(block) - set(labels):
            rep.fail(key, f"unexpected strategy {label}")
        nodes = workload.node_count(key[0])
        n = seed_budget(key[2], nodes)
        sn = block["SN"]
        mean_sn = sum(r.coverage for r in sn) / len(sn)
        for runs in block.values():
            for r in runs:
                where = f"{r.strategy} run {r.run_id}"
                if not n <= r.coverage <= nodes:
                    rep.fail(key, f"{where}: coverage {r.coverage} outside "
                             f"[{n}, {nodes}]")
                if r.coverage_at_tsn > r.coverage:
                    rep.fail(key, f"{where}: coverage_at_tsn "
                             f"{r.coverage_at_tsn} > coverage {r.coverage}")
                if (r.t_reach_csn is None) != (r.coverage < mean_sn):
                    rep.fail(key, f"{where}: t_reach_csn {r.t_reach_csn} with "
                             f"coverage {r.coverage}, mean SN {mean_sn}")
                elif r.t_reach_csn is not None and not 0 <= r.t_reach_csn <= r.duration:
                    rep.fail(key, f"{where}: t_reach_csn {r.t_reach_csn} > "
                             f"duration {r.duration}")
    return rep


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def check_summary(workload, records, summary_text: str,
                  scatter_text: str) -> Tuple[CheckReport, Dict[str, List[float]]]:
    """Recompute per-config means/ratios and per-strategy win fractions and
    mean ratios from the records, compare them and n_configs (against the
    workload's config count) with the CSVs. Also returns each strategy's
    per-config differences, mean coverage minus mean SN coverage, for
    check_stats."""
    rep = CheckReport()
    by_key = group_records(records)
    key_of = {runs[0].config_id: key for key, block in by_key.items()
              for runs in block.values()}
    scatter = {}
    for row in csv.DictReader(io.StringIO(scatter_text)):
        scatter[(row["config_id"], row["strategy"])] = row
    expected_rows = set()
    diffs: Dict[str, List[float]] = {}
    cov_ratios: Dict[str, List[float]] = {}
    dur_ratios: Dict[str, List[float]] = {}
    run_wins: Dict[str, List[int]] = {}
    for cid in sorted(key_of):
        key = key_of[cid]
        block = by_key[key]
        if "SN" not in block:
            continue  # already failed by check_records
        c_sn = _mean([r.coverage for r in block["SN"]])
        t_sn = _mean([r.duration for r in block["SN"]])
        for label, runs in block.items():
            c = _mean([r.coverage for r in runs])
            t = _mean([r.duration for r in runs])
            cov = c / c_sn if c_sn > 0 else None
            dur = t / t_sn if t_sn > 0 else None
            expected_rows.add((cid, label))
            row = scatter.get((cid, label))
            if row is None:
                rep.fail(key, f"no scatter row for {label}")
            else:
                for col, value in (("mean_coverage", c), ("mean_duration", t),
                                   ("coverage_ratio", cov),
                                   ("duration_ratio", dur)):
                    if not matches_written(row[col], value):
                        rep.fail(key, f"{label} {col} {row[col]!r}, "
                                 f"recomputed {value!r}")
            if label == "SN":
                continue
            diffs.setdefault(label, []).append(c - c_sn)
            if cov is not None:
                cov_ratios.setdefault(label, []).append(cov)
            if dur is not None:
                dur_ratios.setdefault(label, []).append(dur)
            run_wins.setdefault(label, []).extend(
                1 if r.coverage > c_sn else 0 for r in runs)
    for extra in set(scatter) - expected_rows:
        rep.fail(SUMMARY, f"scatter row {extra} matches no records")

    rows: Dict[str, Dict[str, Optional[float]]] = {}
    for label, d in diffs.items():
        wins = sum(1 for x in d if x > 0)
        nonties = sum(1 for x in d if x != 0)
        cov, dur = cov_ratios.get(label), dur_ratios.get(label)
        rows[label] = {
            "win_fraction": wins / len(d),
            "win_fraction_excl_ties": wins / nonties if nonties else 0.5,
            "run_win_fraction": _mean(run_wins[label]),
            "mean_coverage_ratio": _mean(cov) if cov else None,
            "mean_duration_ratio": _mean(dur) if dur else None,
        }
    written = {row["strategy"]: row
               for row in csv.DictReader(io.StringIO(summary_text))}
    want = [s for s in workload.strategies if s != "SN"]
    if sorted(written) != sorted(want):
        rep.fail(SUMMARY, f"summary strategies {sorted(written)}, "
                 f"expected {sorted(want)}")
    n_configs = len(workload.configs())
    for label, row in written.items():
        mine = rows.get(label)
        if mine is None:
            continue
        if row["n_configs"] != str(n_configs):
            rep.fail(SUMMARY, f"{label} n_configs {row['n_configs']}, "
                     f"expected {n_configs}")
        for col, value in mine.items():
            if not matches_written(row[col], value):
                rep.fail(SUMMARY, f"{label} {col} {row[col]!r}, "
                         f"recomputed {value!r}")
    return rep, diffs


def check_roundtrip(records, read_back) -> CheckReport:
    rep = CheckReport()
    if list(read_back) != list(records):
        bad = next((i for i, (a, b) in enumerate(zip(records, read_back))
                    if a != b), min(len(records), len(read_back)))
        rep.fail(SUMMARY, f"records CSV does not round-trip (first difference "
                 f"at record {bad})")
    return rep


# -- checks that use numpy / scipy ------------------------------------------

def hodges_lehmann_np(d: Sequence[float]) -> float:
    import numpy as np

    a = np.asarray(d, dtype=float)
    i, j = np.triu_indices(len(a))
    return float(np.median((a[i] + a[j]) / 2.0))


def wilcoxon_p_np(d: Sequence[float], exact_limit: int = 25) -> float:
    """Two-sided signed-rank p: exact null distribution of the doubled
    midrank sum when at most exact_limit differences are nonzero, else
    scipy's tie-corrected normal approximation with continuity correction."""
    import numpy as np
    from scipy import stats

    a = np.asarray(d, dtype=float)
    nz = a[a != 0]
    if len(nz) == 0:
        return 1.0
    if len(nz) > exact_limit:
        p = stats.wilcoxon(nz, zero_method="wilcox", correction=True,
                           method="approx").pvalue
        return float(min(max(p, 1e-300), 1.0))
    r2 = np.rint(2 * stats.rankdata(np.abs(nz))).astype(np.int64)
    w2 = int(r2[nz > 0].sum())
    counts = np.zeros(int(r2.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in r2:
        counts[r:] = counts[r:] + counts[:-r].copy()
    tail = min(int(counts[:w2 + 1].sum()), int(counts[w2:].sum()))
    return min(1.0, 2.0 * tail / 2.0 ** len(r2))


def check_stats(diffs: Dict[str, List[float]], summary_text: str) -> CheckReport:
    """Hodges-Lehmann and Wilcoxon p of every strategy, with numpy/scipy."""
    rep = CheckReport()
    for row in csv.DictReader(io.StringIO(summary_text)):
        d = diffs.get(row["strategy"])
        if d is None:
            continue
        hl = hodges_lehmann_np(d)
        if not matches_written(row["hl_delta"], hl):
            rep.fail(SUMMARY, f"{row['strategy']} hl_delta {row['hl_delta']!r},"
                     f" numpy gives {hl!r}")
        p = wilcoxon_p_np(d)
        if not matches_written(row["wilcoxon_p"], p):
            rep.fail(SUMMARY, f"{row['strategy']} wilcoxon_p "
                     f"{row['wilcoxon_p']!r}, recomputed {p!r}")
    return rep


# -- input checks of the traced run ------------------------------------------

def check_graph(params: dict, edge_count: int) -> Optional[str]:
    """BA: exactly m0(m0-1)/2 + m(n-m0) edges; ER: within 5 sigma of p n(n-1)/2."""
    n = params["n"]
    if params["type"] == "ba":
        m = params["m"]
        m0 = min(max(m, 3), n)
        want = m0 * (m0 - 1) // 2 + m * (n - m0)
        if edge_count != want:
            return f"BA edge count {edge_count}, expected {want}"
        return None
    pairs = n * (n - 1) / 2
    p = params["p"]
    mean, sigma = p * pairs, math.sqrt(pairs * p * (1 - p))
    if abs(edge_count - mean) > 5 * sigma:
        return f"ER edge count {edge_count} not within 5 sigma of {mean:.1f}"
    return None


def check_power_iteration(method: str, result) -> Optional[str]:
    """PageRank sums to 1, eigenvector has unit norm; both converged."""
    if not result.converged:
        return f"{method} did not converge in {result.iterations} iterations"
    if method == "pagerank":
        total = math.fsum(result.scores)
        if abs(total - 1.0) > 1e-6:
            return f"pagerank sums to {total!r}"
    else:
        norm = math.sqrt(math.fsum(x * x for x in result.scores))
        if abs(norm - 1.0) > 1e-9:
            return f"eigenvector norm {norm!r}"
    return None


class RoundChecker:
    """Counts operations over rounds. A round whose records digest and
    summary CSVs equal the first round's shares its verdict; any difference
    is checked anew and also fails the summary, since outputs must repeat."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = len(workload.configs()) + 1
        self.first = None  # (outputs, CheckReport, diffs, summary CSV)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, records, read_back, outputs: Tuple[str, str, str]) -> None:
        """outputs: (records digest, summary CSV, scatter CSV)."""
        if self.first is not None and self.first[0] == outputs:
            report = self.first[1]
        else:
            _, summary_text, scatter_text = outputs
            report = check_records(self.workload, records)
            report.merge(check_roundtrip(records, read_back))
            sub, diffs = check_summary(self.workload, records,
                                       summary_text, scatter_text)
            report.merge(sub)
            if self.first is None:
                self.first = (outputs, report, diffs, summary_text)
            else:
                report.fail(SUMMARY, "outputs differ from the first round's")
            self.messages += report.messages
        self.attempted += self.ops
        self.failed += len(report.failed)

    def check_stats(self, rounds: int) -> None:
        """numpy/scipy recomputation of Hodges-Lehmann and Wilcoxon p, once
        for the first round's outputs; a failure repeats in every round."""
        _, report, diffs, summary_text = self.first
        stats_report = check_stats(diffs, summary_text)
        if stats_report.failed - report.failed:
            self.failed += rounds
        self.messages += stats_report.messages

    def add_probe(self, failed_graphs: Dict[str, str]) -> None:
        """The traced probe counts as one more pass over every config; a
        failed input check fails each config on that graph."""
        self.attempted += self.ops
        for graph, problem in failed_graphs.items():
            self.failed += sum(1 for c in self.workload.configs() if c[0] == graph)
            self.messages.append(f"{graph}: {problem}")
