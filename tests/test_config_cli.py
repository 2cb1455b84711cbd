import json
import os

import pytest

from seqseed.cli import main
from seqseed.config import ConfigError, load_grid_config
from seqseed.experiment import run_grid
from seqseed.graphs import ParameterError, load_edge_list


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


GRID_CONFIG = {
    "master_seed": 5,
    "replications": 2,
    "graphs": [{"name": "ba", "type": "ba", "n": 40, "m": 2, "seed": 3}],
    "pp": [0.1],
    "sp": [0.05],
    "rankings": ["degree"],
    "strategies": ["SN", "SQ_1PS_R", {"kind": "SQ_TSN"}],
}

# 200 nodes at sp = 0.01 give a budget of n = 2 seeds, below k = 3
K_ABOVE_BUDGET_CONFIG = dict(
    GRID_CONFIG, graphs=[{"name": "ba", "type": "ba", "n": 200, "m": 2, "seed": 3}],
    sp=[0.01, 0.05], strategies=["SN", "SQ_3PS_R"])


class TestConfigLoading:
    def test_valid_config(self):
        spec = load_grid_config(dict(GRID_CONFIG))
        assert spec.replications == 2
        assert [s.label for s in spec.strategies] == ["SN", "SQ_1PS_R", "SQ_TSN"]

    def test_empty_strategies_rejected(self):
        bad = dict(GRID_CONFIG, strategies=[])
        with pytest.raises(ConfigError, match="strategies"):
            load_grid_config(bad)

    def test_missing_field_named(self):
        bad = {k: v for k, v in GRID_CONFIG.items() if k != "pp"}
        with pytest.raises(ConfigError, match="pp"):
            load_grid_config(bad)

    def test_bad_strategy_named_with_index(self):
        bad = dict(GRID_CONFIG, strategies=["SN", "SQ_QPS"])
        with pytest.raises(ConfigError, match=r"strategies\[1\]"):
            load_grid_config(bad)

    def test_unknown_ranking(self):
        bad = dict(GRID_CONFIG, rankings=["closeness"])
        with pytest.raises(ConfigError, match="rankings"):
            load_grid_config(bad)

    def test_k_above_seed_budget_rejected(self):
        spec = load_grid_config(K_ABOVE_BUDGET_CONFIG)
        with pytest.raises(ParameterError, match=r"SQ_3PS_R: k=3 .* n=2 "):
            run_grid(spec)


class TestGen:
    def test_ba_deterministic_files(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        code1, out1, _ = run_cli(["gen", "ba", "--n", "30", "--m", "2",
                                  "--seed", "7", "--out", str(p1)], capsys)
        code2, _, _ = run_cli(["gen", "ba", "--n", "30", "--m", "2",
                               "--seed", "7", "--out", str(p2)], capsys)
        assert code1 == code2 == 0
        assert "30 nodes" in out1
        assert p1.read_bytes() == p2.read_bytes()
        g = load_edge_list(p1.read_text())
        assert g.node_count == 30

    def test_er_p_zero(self, tmp_path, capsys):
        out = tmp_path / "er.txt"
        code, msg, _ = run_cli(["gen", "er", "--n", "100", "--p", "0",
                                "--out", str(out)], capsys)
        assert code == 0
        assert "0 edges" in msg

    def test_bad_params_nonzero_exit(self, tmp_path, capsys):
        code, _, err = run_cli(["gen", "ba", "--n", "4", "--m", "4",
                                "--out", str(tmp_path / "x.txt")], capsys)
        assert code == 1
        assert "error" in err


class TestRank:
    def test_rank_csv(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("0 1\n0 2\n0 3\n")
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(["rank", "--graph", str(gpath), "--method", "D",
                              "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "node_label,method,score,rank_position"
        assert lines[1].startswith("0,degree,3,0")


class TestSimulate:
    def test_sn_pp_zero_exact_coverage(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(99)))
        code, out, _ = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", "SN",
             "--ranking", "degree", "--sp", "0.05", "--pp", "0", "--runs", "5",
             "--seed", "1", "--out-dir", str(tmp_path / "sim")], capsys)
        assert code == 0
        assert "mean coverage 5," in out

    def test_tsn_derives_reference(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(30)))
        code, out, _ = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", "SQ_TSN",
             "--ranking", "degree", "--sp", "0.1", "--pp", "0.3", "--runs", "10",
             "--seed", "1", "--out-dir", str(tmp_path / "sim")], capsys)
        assert code == 0
        assert "derived t_sn" in out

    @pytest.mark.parametrize("strategy", ["SN", "SQ_2PS_B", "SQ_TSN_R"])
    def test_reproduces_grid_records(self, tmp_path, capsys, strategy):
        gpath = tmp_path / "g.txt"
        run_cli(["gen", "ba", "--n", "60", "--m", "2", "--seed", "3",
                 "--out", str(gpath)], capsys)
        code, out, _ = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", strategy,
             "--ranking", "random", "--sp", "0.1", "--pp", "0.3",
             "--runs", "4", "--seed", "9",
             "--out-dir", str(tmp_path / "sim")], capsys)
        assert code == 0
        sim_cov = [int(p.read_text().splitlines()[-1].split(",")[3])
                   for p in sorted((tmp_path / "sim").glob("trace_*.csv"))]

        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({
            "master_seed": 9, "replications": 4,
            "graphs": [{"name": "g", "type": "edgelist", "path": "g.txt"}],
            "pp": [0.3], "sp": [0.1], "rankings": ["random"],
            "strategies": [strategy]}))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "grid")], capsys)
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "grid" / "records.csv").read_text().splitlines()[1:]]
        grid_cov = [int(f[7]) for f in rows if f[5] == strategy]
        assert sim_cov == grid_cov
        assert f"mean coverage {sum(grid_cov) / len(grid_cov):.6g}," in out

    def test_seeded_runs_identical(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(40)))
        outs = []
        for d in ("s1", "s2"):
            code, _, _ = run_cli(
                ["simulate", "--graph", str(gpath), "--strategy", "SQ_1PS_R",
                 "--ranking", "degree", "--sp", "0.1", "--pp", "0.4",
                 "--runs", "3", "--seed", "42",
                 "--out-dir", str(tmp_path / d)], capsys)
            assert code == 0
            outs.append(sorted((tmp_path / d).glob("*.csv")))
        for a, b in zip(*outs):
            assert a.read_bytes() == b.read_bytes()


class TestGridAndSummarize:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, out, _ = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        records_path = tmp_path / "out" / "records.csv"
        assert records_path.exists()
        code, out, _ = run_cli(["summarize", "--records", str(records_path),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("strategy,")
        strategies = {line.split(",")[0] for line in summary[1:]}
        assert strategies == {"SQ_1PS_R", "SQ_TSN"}
        assert (tmp_path / "out" / "ratio_scatter.csv").exists()
        # hl_delta and wilcoxon_p columns populated
        assert all(line.split(",")[7] and line.split(",")[8]
                   for line in summary[1:])

    def test_grid_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        blobs = []
        for d in ("o1", "o2"):
            code, _, _ = run_cli(["grid", "--config", str(cfg),
                                  "--out-dir", str(tmp_path / d)], capsys)
            assert code == 0
            blobs.append((tmp_path / d / "records.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_k_above_seed_budget_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(K_ABOVE_BUDGET_CONFIG))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "SQ_3PS_R" in err
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_invalid_config_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CONFIG, strategies=[])))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "strategies" in err
