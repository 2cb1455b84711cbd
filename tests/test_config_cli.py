import dataclasses
import hashlib
import io
import json
import os

import pytest

from seqseed import cli, config, experiment
from seqseed.cli import main
from seqseed.config import ConfigError, load_grid_config
from seqseed.experiment import RECORD_COLUMNS, derive_rng, run_grid
from seqseed.graphs import ParameterError, load_edge_list
from seqseed.ranking import RankingMethod, rank

from conftest import LiveEdgeFails, recast


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
    "strategies": ["SN", "SQ_1PS_R", "SQ_TSN"],
}

# 200 nodes at sp = 0.01 give a budget of n = 2 seeds, below k = 3
K_ABOVE_BUDGET_CONFIG = dict(
    GRID_CONFIG, graphs=[{"name": "ba", "type": "ba", "n": 200, "m": 2, "seed": 3}],
    sp=[0.01, 0.05], strategies=["SN", "SQ_3PS_R"])

# graph entries that their generator or edge-list parser rejects, or whose
# edge list cannot be opened, with the message each fails with; {path}
# stands for the edge list's path
BAD_GRAPHS = [
    ({"type": "ba", "n": 3, "m": 5, "seed": 1}, "graphs[0]: need n > m"),
    ({"type": "er", "n": 10, "p": 1.5, "seed": 1},
     "graphs[0]: p must be in [0, 1]"),
    ({"type": "edgelist", "path": "one-label.txt"},
     "graphs[0]: {path}: line 2: expected two labels, got 1"),
    ({"type": "edgelist", "path": "no-edges.txt"},
     "graphs[0]: {path}: empty edge list"),
    ({"type": "edgelist", "path": "latin-1.txt"},
     "graphs[0]: {path}: 'utf-8' codec can't decode byte 0xe9 in position 4: "
     "invalid continuation byte"),
    ({"type": "edgelist", "path": "missing.txt"},
     "graphs[0]: {path}: No such file or directory")]
BAD_GRAPH_IDS = ["ba-m", "er-p", "one-label", "no-edges", "latin-1", "missing"]
BAD_EDGE_LISTS = {"one-label.txt": b"0 1\n2\n", "no-edges.txt": b"# none\n",
                  "latin-1.txt": b"0 1\n\xe9 2\n"}


# each object of the schema: a valid one, where its faults are named, and a
# value of the wrong type for each of its fields
SCHEMA_OBJECTS = {
    "config": (GRID_CONFIG, "config", {
        "master_seed": "5", "replications": 2.0, "graphs": {}, "pp": 0.1,
        "sp": None, "rankings": "degree", "strategies": "SN"}),
    "ba": ({"name": "g", "type": "ba", "n": 40, "m": 2, "seed": 3},
           "graphs[0]", {"name": 5, "type": 1, "n": "40", "m": 2.0,
                         "seed": True}),
    "er": ({"name": "g", "type": "er", "n": 40, "p": 0.1, "seed": 3},
           "graphs[0]", {"name": None, "type": ["er"], "n": 40.0,
                         "p": "0.1", "seed": "3"}),
    "edgelist": ({"name": "g", "type": "edgelist", "path": "g.txt"},
                 "graphs[0]", {"name": [], "type": None, "path": 5}),
}
SCHEMA_FIELDS = [(kind, field) for kind, (obj, _, _) in SCHEMA_OBJECTS.items()
                 for field in obj]
SCHEMA_FIELD_IDS = [f"{kind}-{field}" for kind, field in SCHEMA_FIELDS]


def as_config(kind, obj):
    """`obj` as a whole config: itself, or a graph entry's one graph."""
    return obj if kind == "config" else dict(GRID_CONFIG, graphs=[obj])


def bad_graph_config(tmp_path, entry, message):
    """A grid config holding `entry` as its one graph, beside the edge
    lists of BAD_EDGE_LISTS, and the message it fails with."""
    for name, data in BAD_EDGE_LISTS.items():
        (tmp_path / name).write_bytes(data)
    config = dict(GRID_CONFIG, graphs=[dict(entry, name="g")])
    return config, message.format(path=tmp_path / entry.get("path", ""))


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
        with pytest.raises(ConfigError, match=r"^config\.strategies\[1\]: "
                           r"unknown strategy kind: 'SQ_QPS'$"):
            load_grid_config(bad)

    @pytest.mark.parametrize("field, value, where", [
        ("pp", [True], r"config\.pp\[0\]: wrong type bool"),
        ("pp", [0.1, "0.1"], r"config\.pp\[1\]: wrong type str"),
        ("pp", [None], r"config\.pp\[0\]: wrong type NoneType"),
        ("sp", [[0.1]], r"config\.sp\[0\]: wrong type list"),
        ("rankings", [5], r"config\.rankings\[0\]: wrong type int"),
        ("strategies", ["SN", "SQ_1PS_R", {"kind": "SQ_TSN"}],
         r"^config\.strategies\[2\]: wrong type dict$"),
        ("strategies", ["SN", 2], r"^config\.strategies\[1\]: wrong type int$"),
    ], ids=["pp-bool", "pp-str", "pp-null", "sp-list", "ranking-int",
            "strategy-object", "strategy-int"])
    def test_wrong_entry_type_named(self, field, value, where):
        with pytest.raises(ConfigError, match=where):
            load_grid_config(dict(GRID_CONFIG, **{field: value}))

    @pytest.mark.parametrize("entry, message", BAD_GRAPHS, ids=BAD_GRAPH_IDS)
    def test_bad_graph_named_with_index(self, tmp_path, entry, message):
        config, message = bad_graph_config(tmp_path, entry, message)
        with pytest.raises(ConfigError) as info:
            load_grid_config(config, base_dir=str(tmp_path))
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("replicatoins", 100, "config.replicatoins: unknown field"),
        ("graphs", [dict(GRID_CONFIG["graphs"][0], p=0.5)],
         "graphs[0].p: unknown field"),
        ("graphs", [{"name": "g", "type": "er", "n": 30, "p": 0.1,
                     "seed": 1, "m": 2}], "graphs[0].m: unknown field"),
        ("graphs", [{"name": "g", "type": "edgelist", "path": "g.txt",
                     "seed": 1}], "graphs[0].seed: unknown field"),
    ], ids=["config", "ba-p", "er-m", "edgelist-seed"])
    def test_unknown_field_named(self, field, value, message):
        """A field outside the schema fails the config, named by where it
        is, before any graph is built or read."""
        with pytest.raises(ConfigError) as info:
            load_grid_config(dict(GRID_CONFIG, **{field: value}))
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, field", SCHEMA_FIELDS,
                             ids=SCHEMA_FIELD_IDS)
    def test_each_missing_field_named(self, kind, field):
        obj, where, _ = SCHEMA_OBJECTS[kind]
        bad = {k: v for k, v in obj.items() if k != field}
        with pytest.raises(ConfigError) as info:
            load_grid_config(as_config(kind, bad))
        assert str(info.value) == f"{where}: missing field {field!r}"

    @pytest.mark.parametrize("kind, field", SCHEMA_FIELDS,
                             ids=SCHEMA_FIELD_IDS)
    def test_each_wrong_field_type_named(self, kind, field):
        obj, where, wrong = SCHEMA_OBJECTS[kind]
        value = wrong[field]
        with pytest.raises(ConfigError) as info:
            load_grid_config(as_config(kind, dict(obj, **{field: value})))
        assert str(info.value) == (f"{where}.{field}: wrong type "
                                   f"{type(value).__name__}")

    @pytest.mark.parametrize("data, message", [
        (dict(GRID_CONFIG, graphs=[["ba", 40]]),
         "graphs[0]: expected an object"),
        (dict(GRID_CONFIG, graphs=[dict(GRID_CONFIG["graphs"][0], type="ws")]),
         "graphs[0].type: unknown graph type 'ws'"),
        ([GRID_CONFIG], "config root must be an object"),
        ('"grid"', "config root must be an object"),
    ], ids=["entry-list", "graph-type", "root-list", "root-str"])
    def test_malformed_object_named(self, data, message):
        with pytest.raises(ConfigError) as info:
            load_grid_config(data)
        assert str(info.value) == message

    @pytest.mark.parametrize("p", [0, 1])
    def test_integer_p_builds_the_float_graph(self, p):
        def adjacency(p):
            entry = {"name": "g", "type": "er", "n": 30, "p": p, "seed": 1}
            (_, g), = load_grid_config(dict(GRID_CONFIG,
                                            graphs=[entry])).graphs
            return g.adjacency

        assert adjacency(p) == adjacency(float(p))

    def test_absolute_edge_list_path_outside_base_dir(self, tmp_path):
        edges = tmp_path / "edges" / "g.txt"
        edges.parent.mkdir()
        edges.write_text("a b\nb c\n")
        (tmp_path / "configs").mkdir()
        spec = load_grid_config(
            dict(GRID_CONFIG, graphs=[{"name": "g", "type": "edgelist",
                                       "path": str(edges)}]),
            base_dir=str(tmp_path / "configs"))
        (name, g), = spec.graphs
        assert (name, g.labels, g.edge_count) == ("g", ["a", "b", "c"], 2)

    @pytest.mark.parametrize("field, value, message", [
        ("pp", ["0.1"], "config.pp[0]: wrong type str"),
        ("rankings", ["closeness"],
         "config.rankings: unknown ranking method: 'closeness'"),
        ("strategies", ["SN", "SQ_QPS"],
         "config.strategies[1]: unknown strategy kind: 'SQ_QPS'"),
    ], ids=["pp", "rankings", "strategies"])
    def test_config_fault_named_before_graphs_are_built(self, tmp_path, field,
                                                        value, message):
        """A fault of the config object is named, not the graph entry
        whose edge list is missing: no graph is built or read first."""
        bad = dict(GRID_CONFIG, graphs=[{"name": "g", "type": "edgelist",
                                         "path": "missing.txt"}],
                   **{field: value})
        with pytest.raises(ConfigError) as info:
            load_grid_config(bad, base_dir=str(tmp_path))
        assert str(info.value) == message

    def test_schema_example_loads(self, tmp_path):
        """The module docstring's example config, the schema's one
        statement, holds only fields the loader accepts."""
        doc = config.__doc__
        example = json.loads(doc[doc.index("{"):doc.rindex("}") + 1])
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
        spec = load_grid_config(example, base_dir=str(tmp_path))
        assert [name for name, _ in spec.graphs] == ["ba1000", "er1000",
                                                      "mynet"]
        assert [s.label for s in spec.strategies] == example["strategies"]

    def test_unknown_ranking(self):
        bad = dict(GRID_CONFIG, rankings=["closeness"])
        with pytest.raises(ConfigError, match="rankings"):
            load_grid_config(bad)

    def test_duplicate_graph_names_rejected(self):
        graph = GRID_CONFIG["graphs"][0]
        bad = dict(GRID_CONFIG, graphs=[graph, dict(graph, seed=4)])
        with pytest.raises(ConfigError, match="duplicate values in graphs"):
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

    @pytest.mark.parametrize("params, message", [
        (["ba", "--n", "30"], "ba generator requires --m"),
        (["er", "--n", "30"], "er generator requires --p"),
        (["ba", "--n", "30", "--m", "2", "--p", "0.5"],
         "ba generator takes no --p"),
        (["er", "--n", "30", "--p", "0.1", "--m", "4"],
         "er generator takes no --m"),
    ], ids=["ba-no-m", "er-no-p", "ba-with-p", "er-with-m"])
    def test_generator_flags_checked(self, tmp_path, capsys, params, message):
        out = tmp_path / "x.txt"
        code, _, err = run_cli(["gen", *params, "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        """A write that fails partway leaves neither a partial edge list,
        which would load as a smaller graph, nor its temp file."""
        def serialize(graph, out):
            out.write("0 1\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "serialize", serialize)
        code, out, err = run_cli(["gen", "ba", "--n", "30", "--m", "2",
                                  "--out", str(tmp_path / "g.txt")], capsys)
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert os.listdir(tmp_path) == []


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

    def test_rank_reads_past_a_byte_order_mark(self, tmp_path, capsys):
        """A triangle saved with a UTF-8 byte-order mark ranks as three
        nodes, each listed once."""
        gpath = tmp_path / "g.txt"
        gpath.write_text("1 2\n2 3\n3 1\n", encoding="utf-8-sig")
        code, out, _ = run_cli(["rank", "--graph", str(gpath), "--method",
                                "degree"], capsys)
        assert code == 0
        assert sorted(line.split(",")[0] for line in out.splitlines()[1:]) \
            == ["1", "2", "3"]

    def test_rank_order_is_the_grid_ranking(self, tmp_path, capsys):
        """`rank` draws its ties from the grid's ranking stream for the
        graph named after the file's stem, so it writes the order that
        `simulate` and `grid` seed from."""
        gpath = tmp_path / "g.txt"  # the graph of test_simulate_bytes_pinned
        run_cli(["gen", "ba", "--n", "60", "--m", "2", "--seed", "3",
                 "--out", str(gpath)], capsys)
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(["rank", "--graph", str(gpath), "--method",
                              "degree", "--seed", "9", "--out", str(out)],
                             capsys)
        assert code == 0
        g = load_edge_list(gpath.read_text())
        want = rank(g, RankingMethod.DEGREE,
                    derive_rng(9, "g", "degree", "ranking"))
        got = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert got == [g.labels[v] for v in want.order]
        assert got[:10] == ["2", "1", "6", "8", "0", "5", "14", "26", "7", "9"]

    def test_rank_warns_of_dropped_lines(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("a b\nb c\na a\nb a\n")
        code, _, err = run_cli(["rank", "--graph", str(gpath), "--method",
                                "degree", "--out", str(tmp_path / "r.csv")],
                               capsys)
        assert code == 0
        assert err == (f"warning: {gpath}: dropped 1 self-loops and 1 "
                       "duplicate edges\n")

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        """A write that fails partway leaves neither a header-only ranking
        nor its temp file."""
        def write_ranking_csv(graph, ranking, out):
            out.write("node_label,method,score,rank_position\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_ranking_csv", write_ranking_csv)
        gpath = tmp_path / "g.txt"
        gpath.write_text("0 1\n0 2\n0 3\n")
        code, out, err = run_cli(["rank", "--graph", str(gpath), "--method",
                                  "degree", "--out", str(tmp_path / "r.csv")],
                                 capsys)
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert os.listdir(tmp_path) == ["g.txt"]


@pytest.mark.parametrize("command, out", [
    (["gen", "ba", "--n", "30", "--m", "2"], "--out"),
    (["rank", "--graph", "g.txt", "--method", "random"], "--out"),
    (["simulate", "--graph", "g.txt", "--strategy", "SQ_1PS_R", "--ranking",
      "random", "--sp", "0.1", "--pp", "0.3", "--runs", "3"], "--out-dir"),
], ids=["gen", "rank", "simulate"])
def test_entropy_seeds_from_os_randomness(tmp_path, capsys, monkeypatch,
                                          command, out):
    """--entropy seeds from the big-endian int of the 8 bytes `os.urandom`
    gives and prints it on stderr; --seed with that int writes the same."""
    monkeypatch.chdir(tmp_path)
    run_cli(["gen", "ba", "--n", "40", "--m", "2", "--out", "g.txt"], capsys)
    noise = bytes(range(1, 9))
    monkeypatch.setattr(os, "urandom", lambda size: noise[:size])
    code, _, err = run_cli(command + ["--entropy", out, "a"], capsys)
    assert (code, err) == (0, "seed 72623859790382856 (from --entropy)\n")
    code, _, err = run_cli(command + ["--seed", err.split()[1], out, "b"],
                           capsys)
    assert (code, err) == (0, "")
    written = [{p.name: p.read_bytes() for p in target.iterdir()}
               if target.is_dir() else target.read_bytes()
               for target in (tmp_path / "a", tmp_path / "b")]
    assert written[0] == written[1]


@pytest.mark.parametrize("command", [
    ["gen", "ba", "--n", "30", "--m", "2", "--out", "s.txt"],
    ["rank", "--graph", "g.txt", "--method", "random", "--out", "r.csv"],
    ["simulate", "--graph", "g.txt", "--strategy", "SN", "--ranking",
     "random", "--sp", "0.1", "--pp", "0.3", "--out-dir", "sim"],
], ids=["gen", "rank", "simulate"])
def test_seed_beside_entropy_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                              command):
    """--seed and --entropy each choose the master seed, so asking for
    both exits 2 with argparse's usage error and writes nothing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("0 1\n0 2\n")
    with pytest.raises(SystemExit) as info:
        main(command + ["--seed", "5", "--entropy"])
    _, err = capsys.readouterr()
    assert info.value.code == 2
    assert err.endswith(
        "error: argument --entropy: not allowed with argument --seed\n")
    assert os.listdir(tmp_path) == ["g.txt"]


@pytest.mark.parametrize("command, table", [
    (["gen", "ba", "--n", "30", "--m", "2"], "g.txt"),
    (["rank", "--graph", "g.txt", "--method", "degree"], "r.csv"),
], ids=["gen", "rank"])
def test_out_onto_directory_names_the_table(tmp_path, capsys, monkeypatch,
                                            command, table):
    """An --out that names a directory fails at the rename naming the path
    asked for, not the temp file renamed, and removes the temp file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("0 1\n0 2\n")
    (tmp_path / "d").mkdir()
    code, out, err = run_cli(command + ["--out", "d"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: [Errno 21] Is a directory: 'd'\n"
    assert sorted(os.listdir(tmp_path)) == ["d", "g.txt"]
    assert os.listdir(tmp_path / "d") == []


@pytest.mark.parametrize("command, table", [
    (["gen", "ba", "--n", "30", "--m", "2"], "g.txt"),
    (["rank", "--graph", "g.txt", "--method", "degree"], "r.csv"),
], ids=["gen", "rank"])
def test_out_in_missing_directory_names_the_table(tmp_path, capsys,
                                                  monkeypatch, command, table):
    """An --out into a missing directory fails naming the path asked for,
    not the temp file written first, and leaves nothing behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("0 1\n0 2\n")
    path = os.path.join("nodir", table)
    code, out, err = run_cli(command + ["--out", path], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"
    assert os.listdir(tmp_path) == ["g.txt"]


@pytest.mark.parametrize("command", [
    ["rank", "--method", "degree", "--out", "r.csv"],
    ["simulate", "--strategy", "SN", "--ranking", "degree", "--sp", "0.1",
     "--pp", "0.3", "--out-dir", "sim"]], ids=["rank", "simulate"])
@pytest.mark.parametrize("name, message", [
    ("one-label.txt", "line 2: expected two labels, got 1"),
    ("no-edges.txt", "empty edge list"),
    ("latin-1.txt", "'utf-8' codec can't decode byte 0xe9 in position 4: "
     "invalid continuation byte")], ids=["one-label", "no-edges", "latin-1"])
def test_bad_edge_list_names_its_path(tmp_path, capsys, monkeypatch, command,
                                      name, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(BAD_EDGE_LISTS[name])
    code, out, err = run_cli(command[:1] + ["--graph", name] + command[1:],
                             capsys)
    assert (code, out, err) == (1, "", f"error: {name}: {message}\n")
    assert os.listdir(tmp_path) == [name]


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

    @pytest.mark.parametrize("strategy, flag", [
        ("SQ_2PS", ["--k", "2"]), ("SQ_TSN", ["--t-sn", "3"]),
    ], ids=["k", "t-sn"])
    def test_strategy_parameter_flag_is_a_usage_error(
            self, tmp_path, capsys, strategy, flag):
        """The label is the one name of a strategy: no flag sets its k or
        its reference t_sn."""
        gpath = tmp_path / "g.txt"
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(30)))
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--graph", str(gpath), "--strategy", strategy,
                  *flag, "--ranking", "degree", "--sp", "0.1", "--pp", "0.3",
                  "--out-dir", str(tmp_path / "sim")])
        _, err = capsys.readouterr()
        assert info.value.code == 2
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
        assert not (tmp_path / "sim").exists()

    def test_bad_label_exits_1(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(30)))
        code, out, err = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", "SQ_0PS",
             "--ranking", "degree", "--sp", "0.1", "--pp", "0.3",
             "--out-dir", str(tmp_path / "sim")], capsys)
        assert (code, out) == (1, "")
        assert err == "error: unknown strategy kind: 'SQ_0PS'\n"
        assert not (tmp_path / "sim").exists()

    def test_k_above_seed_budget_named_as_the_grid_names_it(self, tmp_path,
                                                            capsys):
        gpath = tmp_path / "g.txt"  # 30 nodes: sp = 0.1 gives n = 3
        gpath.write_text("\n".join(f"{i} {i + 1}" for i in range(29)))
        code, out, err = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", "SQ_5PS",
             "--ranking", "degree", "--sp", "0.1", "--pp", "0.3",
             "--out-dir", str(tmp_path / "sim")], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: strategy SQ_5PS: k=5 exceeds the seed budget "
                       "n=3 of graph g at sp=0.1\n")
        assert not (tmp_path / "sim").exists()

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
        traces = (tmp_path / "sim" / "traces.csv").read_text()
        last = {}  # each run's last row, in run-id order
        for line in traces.splitlines()[1:]:
            run_id, _, _, _, cov = line.split(",")
            last[int(run_id)] = int(cov)
        assert list(last) == [0, 1, 2, 3]
        sim_cov = list(last.values())

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


# sha256 over the names and bytes of every CSV `seqseed simulate` writes
# (traces.csv and mean_curve.csv) for one kind on a 60-node BA graph; a
# change of it is a change of simulate's output bytes. Re-baselined when the
# ranking stream became one per (graph, method), and when the per-run
# trace files became one traces.csv with a run_id column.
PINNED_SIMULATE_SHA256 = {
    "SN":
        "6743abfe16be067240a101145a639fc45c78b09c1c6eb42f39982c7f79a0badb",
    "SQ_2PS":
        "65dec21bfd0b7495334aed51ae9694ce20d74311b835a0191e877c9d71f460d8",
    "SQ_2PS_R":
        "3c56e3ec9e368da98507499570ef40661d8c6ccd25a15095e90c03211944a950",
    "SQ_2PS_B":
        "5a5bd394d9f85df561fc036073c75d5a4b1d20c2433381fc437b4ac75a1a41e5",
    "SQ_TSN":
        "78107158aadce5fdce7dc5bef63da5106972274d7b7752560d7a26055ce43c53",
    "SQ_TSN_R":
        "9b67da735b8dd01005e130a9a389a3739056277d6adaddccb3f410c39e43d8d6",
}


@pytest.mark.parametrize("strategy", sorted(PINNED_SIMULATE_SHA256))
def test_simulate_bytes_pinned(tmp_path, capsys, strategy):
    """n = 9 seeds (k = 2 leaves a remainder), pp > 0 and several runs."""
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "ba", "--n", "60", "--m", "2", "--seed", "3",
             "--out", str(gpath)], capsys)
    code, _, _ = run_cli(
        ["simulate", "--graph", str(gpath), "--strategy", strategy,
         "--ranking", "degree", "--sp", "0.15", "--pp", "0.3",
         "--runs", "5", "--seed", "9", "--out-dir", str(tmp_path / "sim")],
        capsys)
    assert code == 0
    paths = sorted((tmp_path / "sim").glob("*.csv"))
    assert [p.name for p in paths] == ["mean_curve.csv", "traces.csv"]
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    assert digest.hexdigest() == PINNED_SIMULATE_SHA256[strategy]


def failing_scatter_csv(summary, out):
    """`write_scatter_csv` that writes 100 characters of the table and
    fails."""
    full = io.StringIO()
    experiment.write_scatter_csv(summary, full)
    out.write(full.getvalue()[:100])
    raise OSError("disk full")


def test_simulate_rerun_replaces_its_tables(tmp_path, capsys):
    """A rerun with fewer runs into the same directory replaces both
    tables, so they hold only its runs, as a fresh run's do."""
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "ba", "--n", "40", "--m", "2", "--seed", "3",
             "--out", str(gpath)], capsys)

    def simulate(runs, out_dir):
        code, _, _ = run_cli(
            ["simulate", "--graph", str(gpath), "--strategy", "SQ_2PS_R",
             "--ranking", "degree", "--sp", "0.1", "--pp", "0.3",
             "--runs", str(runs), "--out-dir", str(out_dir)], capsys)
        assert code == 0
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    first = simulate(4, tmp_path / "sim")
    again = simulate(2, tmp_path / "sim")
    assert sorted(again) == ["mean_curve.csv", "traces.csv"]
    assert again != first
    assert {line.split(b",")[0] for line in
            again["traces.csv"].splitlines()[1:]} == {b"0", b"1"}
    assert again == simulate(2, tmp_path / "fresh")


def test_simulate_leaves_other_files_alone(tmp_path, capsys):
    """`simulate` writes its two tables and touches no other file in
    --out-dir, whatever its name."""
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "ba", "--n", "40", "--m", "2", "--seed", "3",
             "--out", str(gpath)], capsys)
    out_dir = tmp_path / "sim"
    out_dir.mkdir()
    (out_dir / "trace_0007.csv").write_text("a user's own table\n")
    code, _, _ = run_cli(
        ["simulate", "--graph", str(gpath), "--strategy", "SN",
         "--ranking", "degree", "--sp", "0.1", "--pp", "0.3",
         "--runs", "2", "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "mean_curve.csv", "trace_0007.csv", "traces.csv"]
    assert (out_dir / "trace_0007.csv").read_text() == "a user's own table\n"


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

    def test_summarize_repeated_rows_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        header, *rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
        doubled = tmp_path / "doubled.csv"
        doubled.write_text("\n".join([header] + rows + rows) + "\n")
        code, _, err = run_cli(["summarize", "--records", str(doubled),
                                "--out-dir", str(tmp_path / "sum")], capsys)
        assert code == 1
        assert "repeated record: config ba|pp=0.1|sp=0.05|degree" in err
        assert not (tmp_path / "sum" / "summary.csv").exists()

    def test_summarize_unpaired_run_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        header, *rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
        dropped = [row for row in rows if ",SQ_1PS_R,1," not in row]
        assert len(dropped) == len(rows) - 1
        short = tmp_path / "short.csv"
        short.write_text("\n".join([header] + dropped) + "\n")
        code, _, err = run_cli(["summarize", "--records", str(short),
                                "--out-dir", str(tmp_path / "sum")], capsys)
        assert code == 1
        assert ("unpaired runs: config ba|pp=0.1|sp=0.05|degree, strategy "
                "SQ_1PS_R: runs [1] not in both it and SN") in err
        assert not (tmp_path / "sum" / "summary.csv").exists()

    def test_summarize_no_records_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "records.csv"
        empty.write_text(RECORD_COLUMNS + "\n")
        code, _, err = run_cli(["summarize", "--records", str(empty),
                                "--out-dir", str(tmp_path / "sum")], capsys)
        assert code == 1
        assert "no records to summarize" in err
        assert not (tmp_path / "sum" / "summary.csv").exists()

    def test_summarize_bad_number_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        row = lines[6].split(",")
        row[6] = "x"  # run_id
        lines[6] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(["summarize", "--records", str(bad),
                                "--out-dir", str(tmp_path / "sum")], capsys)
        assert code == 1
        assert "line 7: run_id 'x' is not an integer" in err
        assert not (tmp_path / "sum" / "summary.csv").exists()

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

    def test_carriage_return_in_graph_name_exits_nonzero(self, tmp_path,
                                                         capsys):
        # the csv module writes a field holding \r unquoted, so records of
        # such a graph would not read back in `summarize`
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CONFIG, graphs=[
            dict(GRID_CONFIG["graphs"][0], name="a\rb")])))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err == "error: graph name 'a\\rb' holds a carriage return\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_config_exits_nonzero(self, tmp_path, capsys, monkeypatch,
                                          jobs):
        real = cli.load_grid_config_file

        def load_grid_config_file(path):
            spec = real(path)
            return dataclasses.replace(spec, graphs=[
                (name, recast(g, LiveEdgeFails)) for name, g in spec.graphs])

        monkeypatch.setattr(cli, "load_grid_config_file",
                            load_grid_config_file)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, err = run_cli(["grid", "--config", str(cfg), "--jobs", jobs,
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "config ba|pp=0.1|sp=0.05|degree failed: injected failure" in err
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_failed_write_leaves_no_records(self, tmp_path, capsys,
                                            monkeypatch):
        """A write that fails partway leaves neither a partial records.csv
        nor its temp file."""
        def write_records_csv(records, out):
            experiment.write_records_csv(records[:12], out)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_records_csv", write_records_csv)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, out, err = run_cli(["grid", "--config", str(cfg),
                                  "--out-dir", str(tmp_path / "out")], capsys)
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert os.listdir(tmp_path / "out") == []

    def test_failed_summary_write_leaves_no_table(self, tmp_path, capsys,
                                                  monkeypatch):
        """A table write that fails partway leaves no table of the command,
        neither the partial one nor the complete one written before it, and
        no temp file."""
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        monkeypatch.setattr(cli, "write_scatter_csv", failing_scatter_csv)
        code, out, err = run_cli(["summarize", "--records",
                                  str(tmp_path / "out" / "records.csv"),
                                  "--out-dir", str(tmp_path / "sum")], capsys)
        assert (code, out, err) == (1, "", "error: disk full\n")
        assert os.listdir(tmp_path / "sum") == []

    def test_failed_summary_write_keeps_earlier_tables(self, tmp_path, capsys,
                                                       monkeypatch):
        """A summarize that fails on its scatter leaves both tables of the
        summarize before it in the same directory as they were: no new
        summary beside the old scatter."""
        for reps in (2, 3):
            cfg = tmp_path / f"grid{reps}.json"
            cfg.write_text(json.dumps(dict(GRID_CONFIG, replications=reps)))
            code, _, _ = run_cli(["grid", "--config", str(cfg), "--out-dir",
                                  str(tmp_path / f"out{reps}")], capsys)
            assert code == 0
        summarize = ["summarize", "--out-dir", str(tmp_path / "sum"),
                     "--records"]
        code, _, _ = run_cli(
            summarize + [str(tmp_path / "out2" / "records.csv")], capsys)
        assert code == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "sum").iterdir()}
        assert sorted(before) == ["ratio_scatter.csv", "summary.csv"]
        monkeypatch.setattr(cli, "write_scatter_csv", failing_scatter_csv)
        code, _, err = run_cli(
            summarize + [str(tmp_path / "out3" / "records.csv")], capsys)
        assert (code, err) == (1, "error: disk full\n")
        after = {p.name: p.read_bytes() for p in (tmp_path / "sum").iterdir()}
        assert after == before

    def test_grid_warns_of_dropped_edge_list_lines(self, tmp_path, capsys):
        (tmp_path / "loops.txt").write_text("a b\nb c\na a\nb a\n")
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CONFIG, graphs=[
            GRID_CONFIG["graphs"][0],
            {"name": "loops", "type": "edgelist", "path": "loops.txt"}])))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 0
        assert err == ("warning: graph 'loops': dropped 1 self-loops and 1 "
                       "duplicate edges\n")
        assert (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("entry, message", BAD_GRAPHS, ids=BAD_GRAPH_IDS)
    def test_bad_graph_exits_nonzero(self, tmp_path, capsys, entry, message):
        config, message = bad_graph_config(tmp_path, entry, message)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["grid", "--config", str(cfg),
                                  "--out-dir", str(tmp_path / "out")], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("config_id,graph\n", "unexpected records header: 'config_id,graph'"),
        (RECORD_COLUMNS + "\n" + "x," * 10 + "x\n",
         "line 2: expected 12 fields, got 11")], ids=["header", "field-count"])
    def test_summarize_bad_layout_exits_nonzero(self, tmp_path, capsys, text,
                                                message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code, out, err = run_cli(["summarize", "--records", str(bad),
                                  "--out-dir", str(tmp_path / "sum")], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "sum").exists()

    def test_wrong_entry_type_exits_nonzero(self, tmp_path, capsys):
        """A strategy is named by its label alone; an object entry fails."""
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(
            GRID_CONFIG, strategies=["SN", "SQ_1PS_R", {"kind": "SQ_TSN"}])))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert err == "error: config.strategies[2]: wrong type dict\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        """A config saved with a UTF-8 byte-order mark runs as the same
        config saved without one."""
        text = json.dumps(GRID_CONFIG).encode()
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.json").write_bytes(data)
            code, _, err = run_cli(["grid", "--config",
                                    str(tmp_path / f"{name}.json"),
                                    "--out-dir", str(tmp_path / name)], capsys)
            assert (code, err) == (0, "")
        assert ((tmp_path / "bom" / "records.csv").read_bytes()
                == (tmp_path / "plain" / "records.csv").read_bytes())

    def test_records_with_byte_order_mark(self, tmp_path, capsys):
        """A records CSV saved with a UTF-8 byte-order mark summarizes as
        the same CSV saved without one."""
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, _ = run_cli(["grid", "--config", str(cfg),
                              "--out-dir", str(tmp_path / "plain")], capsys)
        assert code == 0
        records = (tmp_path / "plain" / "records.csv").read_bytes()
        (tmp_path / "bom").mkdir()
        (tmp_path / "bom" / "records.csv").write_bytes(b"\xef\xbb\xbf"
                                                       + records)
        for name in ("plain", "bom"):
            out = tmp_path / name
            code, _, err = run_cli(["summarize", "--records",
                                    str(out / "records.csv"),
                                    "--out-dir", str(out)], capsys)
            assert (code, err) == (0, "")
        for table in ("summary.csv", "ratio_scatter.csv"):
            assert ((tmp_path / "bom" / table).read_bytes()
                    == (tmp_path / "plain" / table).read_bytes())

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_nonzero(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CONFIG))
        code, _, err = run_cli(["grid", "--config", str(cfg), "--jobs", jobs,
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "jobs must be >= 1" in err
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_invalid_config_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CONFIG, strategies=[])))
        code, _, err = run_cli(["grid", "--config", str(cfg),
                                "--out-dir", str(tmp_path / "out")], capsys)
        assert code == 1
        assert "strategies" in err
