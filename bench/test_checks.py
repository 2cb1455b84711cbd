"""Self-test of the benchmark's output checks: every check passes on the real
outputs of a small grid and fails on a deliberately corrupted copy.

    python3 -m pytest -q bench/test_checks.py
    python3 bench/test_checks.py
"""
from __future__ import annotations

import dataclasses
import functools
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from seqseed.config import load_grid_config  # noqa: E402
from seqseed.experiment import (read_records_csv, run_grid, summarize,  # noqa: E402
                                write_records_csv, write_scatter_csv,
                                write_summary_csv)
from seqseed.ranking import PowerIterationResult  # noqa: E402

import checks  # noqa: E402
from workloads import Workload  # noqa: E402

PARAMS = {"ba60": {"type": "ba", "n": 60, "m": 2},
          "er60": {"type": "er", "n": 60, "p": 0.08}}
CONFIG = {
    "master_seed": 5, "replications": 3,
    "graphs": [dict(name=k, seed=i + 1, **v) for i, (k, v) in enumerate(PARAMS.items())],
    "pp": [0.1, 0.3], "sp": [0.05, 0.1], "rankings": ["degree", "random"],
    "strategies": ["SN", "SQ_1PS", "SQ_2PS_R", "SQ_1PS_B", "SQ_TSN"],
}
WORKLOAD = Workload("tiny", 0, CONFIG, "", PARAMS)


@functools.lru_cache(maxsize=None)
def outputs():
    """(records, read_back, records CSV, summary CSV, scatter CSV)."""
    records = run_grid(load_grid_config(CONFIG))
    buf = io.StringIO()
    write_records_csv(records, buf)
    read_back = read_records_csv(buf.getvalue())
    summary = summarize(read_back)
    s, c = io.StringIO(), io.StringIO()
    write_summary_csv(summary, s)
    write_scatter_csv(summary, c)
    return records, read_back, buf.getvalue(), s.getvalue(), c.getvalue()


def _replace(records, i, **changes):
    out = list(records)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def _edit_csv(text, row_index, column, value):
    """Set one cell (row_index counts data rows from 0)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row_index + 1].split(",")
    cells[header.index(column)] = value
    lines[row_index + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _key(rec):
    return (rec.graph, rec.pp, rec.sp, rec.ranking)


def _fails(report, op=None):
    return bool(report.failed) if op is None else op in report.failed


def _index(records, pred):
    return next(i for i, r in enumerate(records) if pred(r))


# -- clean outputs pass ------------------------------------------------------

def test_clean_outputs_pass_every_check():
    records, read_back, _, summary, scatter = outputs()
    assert not _fails(checks.check_records(WORKLOAD, records))
    assert not _fails(checks.check_roundtrip(records, read_back))
    rep, diffs = checks.check_summary(WORKLOAD, records, summary, scatter)
    assert not _fails(rep), rep.messages
    assert not _fails(checks.check_stats(diffs, summary))


# -- records -----------------------------------------------------------------

def test_missing_record_fails_count_and_its_config():
    records = outputs()[0]
    rep = checks.check_records(WORKLOAD, records[1:])
    assert _fails(rep, checks.SUMMARY) and _fails(rep, _key(records[0]))


def test_missing_sn_rows_fail_their_config():
    records = outputs()[0]
    key = _key(records[0])
    rep = checks.check_records(
        WORKLOAD, [r for r in records if not (_key(r) == key and r.strategy == "SN")])
    assert _fails(rep, key)


def test_coverage_outside_budget_and_graph_fails():
    records = outputs()[0]
    i = 0
    n = checks.seed_budget(records[i].sp, 60)
    for bad in (n - 1, 61):
        rep = checks.check_records(WORKLOAD, _replace(records, i, coverage=bad))
        assert _fails(rep, _key(records[i]))


def test_coverage_at_tsn_above_coverage_fails():
    records = outputs()[0]
    rep = checks.check_records(
        WORKLOAD, _replace(records, 0, coverage_at_tsn=records[0].coverage + 1))
    assert _fails(rep, _key(records[0]))


def test_t_reach_csn_rule_fails_both_ways():
    records = outputs()[0]
    i = _index(records, lambda r: r.t_reach_csn is not None)
    assert _fails(checks.check_records(WORKLOAD, _replace(records, i, t_reach_csn=None)))
    late = records[i].duration + 1
    assert _fails(checks.check_records(WORKLOAD, _replace(records, i, t_reach_csn=late)))
    j = _index(records, lambda r: r.t_reach_csn is None)
    assert _fails(checks.check_records(WORKLOAD, _replace(records, j, t_reach_csn=0)))


def test_changed_config_id_fails():
    records = outputs()[0]
    rep = checks.check_records(
        WORKLOAD, _replace(records, 0, config_id=records[0].config_id + "x"))
    assert _fails(rep, _key(records[0]))


def test_roundtrip_difference_fails():
    records, read_back = outputs()[:2]
    rep = checks.check_roundtrip(records, _replace(read_back, 3, duration=99))
    assert _fails(rep, checks.SUMMARY)


# -- summary -----------------------------------------------------------------

def test_corrupted_scatter_row_fails_its_config():
    records, _, _, summary, scatter = outputs()
    for column in ("mean_coverage", "mean_duration", "coverage_ratio", "duration_ratio"):
        bad = _edit_csv(scatter, 4, column, "1.5")
        rep, _ = checks.check_summary(WORKLOAD, records, summary, bad)
        cid = scatter.splitlines()[5].split(",")[0]
        key = _key(next(r for r in records if r.config_id == cid))
        assert _fails(rep, key), column


def test_missing_scatter_row_fails():
    records, _, _, summary, scatter = outputs()
    lines = scatter.splitlines()
    bad = "\n".join(lines[:3] + lines[4:]) + "\n"
    rep, _ = checks.check_summary(WORKLOAD, records, summary, bad)
    assert rep.failed


def test_corrupted_summary_row_fails_summary():
    records, _, _, summary, scatter = outputs()
    for column, value in (("n_configs", "7"), ("win_fraction", "0.123"),
                          ("win_fraction_excl_ties", "0.123"),
                          ("run_win_fraction", "0.123"),
                          ("mean_coverage_ratio", "0.5"),
                          ("mean_duration_ratio", "0.5")):
        bad = _edit_csv(summary, 1, column, value)
        rep, _ = checks.check_summary(WORKLOAD, records, bad, scatter)
        assert _fails(rep, checks.SUMMARY), column


def test_corrupted_hodges_lehmann_and_wilcoxon_fail():
    records, _, _, summary, scatter = outputs()
    _, diffs = checks.check_summary(WORKLOAD, records, summary, scatter)
    for column, value in (("hl_delta", "123.5"), ("wilcoxon_p", "0.0123")):
        bad = _edit_csv(summary, 0, column, value)
        assert _fails(checks.check_stats(diffs, bad), checks.SUMMARY), column


def test_rounds_with_different_outputs_fail_summary():
    records, read_back, text, summary, scatter = outputs()
    checker = checks.RoundChecker(WORKLOAD)
    checker.check(records, read_back, (text, summary, scatter))
    checker.check(records, read_back, (text, summary, scatter))
    assert checker.failed == 0 and checker.attempted == 2 * checker.ops
    checker.check(records, read_back, (text + "\n", summary, scatter))
    assert checker.failed == 1


# -- numpy / scipy oracles and input checks ---------------------------------

def test_wilcoxon_np_matches_program_and_scipy():
    from scipy import stats as sps
    from seqseed.stats import wilcoxon_signed_rank

    cases = [[1.5, -0.5, 2.0, 0.0, 3.0, -1.0, 0.5, 2.5],       # exact, ties
             [0.3, -1.2, 2.7, 1.1, -0.4, 0.9, 1.6],            # exact, no ties
             [(-1) ** i * (i % 7) + 0.5 * (i % 3) for i in range(40)]]  # normal
    for d in cases:
        assert abs(checks.wilcoxon_p_np(d) - wilcoxon_signed_rank(d).p) < 1e-12
    exact = sps.wilcoxon(cases[1], method="exact").pvalue
    assert abs(checks.wilcoxon_p_np(cases[1]) - exact) < 1e-12


def test_graph_edge_count_checks():
    assert checks.check_graph({"type": "ba", "n": 100, "m": 3}, 3 + 3 * 97) is None
    assert checks.check_graph({"type": "ba", "n": 100, "m": 3}, 3 + 3 * 97 - 1)
    er = {"type": "er", "n": 1000, "p": 0.006}
    assert checks.check_graph(er, 2997) is None
    assert checks.check_graph(er, 2997 + 400)


def test_power_iteration_checks():
    ok = PowerIterationResult([0.25] * 4, 10, True)
    assert checks.check_power_iteration("pagerank", ok) is None
    assert checks.check_power_iteration("pagerank", PowerIterationResult([0.3] * 4, 10, True))
    assert checks.check_power_iteration("pagerank", PowerIterationResult([0.25] * 4, 1000, False))
    assert checks.check_power_iteration("eigenvector", PowerIterationResult([0.5] * 4, 10, True)) is None
    assert checks.check_power_iteration("eigenvector", PowerIterationResult([0.25] * 4, 10, True))


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok   {test.__name__}")
    print(f"{len(tests)} checks self-tests passed")
