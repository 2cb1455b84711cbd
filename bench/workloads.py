"""Benchmark workloads: grid configs made from a workload seed.

Each builder writes the workload's JSON grid config (and any input file it
names) into the output directory and returns a `Workload`. Everything the
output checks need to know about the inputs (node counts, generator
parameters, the expected configurations) is kept here, apart from the
program, so the checks do not trust the program's own description of what it
ran.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

ALL_RANKINGS = ["random", "degree", "degree2", "pagerank", "eigenvector"]


@dataclass
class Workload:
    name: str
    seed: int
    config: dict
    config_path: str
    # graph name -> {"type": "ba" | "er", "n": ..., "m" | "p": ...}; the
    # edge-list graph is listed with the parameters it was generated from
    graph_params: Dict[str, dict]

    @property
    def strategies(self) -> List[str]:
        return list(self.config["strategies"])

    @property
    def replications(self) -> int:
        return self.config["replications"]

    @property
    def master_seed(self) -> int:
        return self.config["master_seed"]

    def configs(self) -> List[Tuple[str, float, float, str]]:
        """(graph, pp, sp, ranking) in the order the config lists them."""
        c = self.config
        return [(g["name"], pp, sp, r) for g in c["graphs"]
                for pp in c["pp"] for sp in c["sp"] for r in c["rankings"]]

    def node_count(self, graph: str) -> int:
        return self.graph_params[graph]["n"]


def write_ba_edge_list(path: str, n: int, m: int, rng: random.Random) -> None:
    """Barabasi-Albert edge list: a 3-clique, then m distinct
    degree-proportional targets per new node (m0(m0-1)/2 + m(n-m0) edges)."""
    m0 = 3
    ends: List[int] = []
    lines = []
    for i in range(m0):
        for j in range(i + 1, m0):
            lines.append(f"{i} {j}\n")
            ends += (i, j)
    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(ends[rng.randrange(len(ends))])
        for t in sorted(targets):
            lines.append(f"{t} {new}\n")
            ends += (t, new)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# BA n={n} m={m}\n")
        fh.writelines(lines)


def _strategy_labels(ks, suffixes) -> List[str]:
    return ["SN"] + [f"SQ_{k}PS{s}" for k in ks for s in suffixes]


def desk_grid(rng: random.Random, out_dir: str) -> Tuple[dict, Dict[str, dict]]:
    """The acceptance fixture's grid at 1 replication instead of 100: short
    rounds, so that a 55 s run holds about 30 of them."""
    params = {"ba1000": {"type": "ba", "n": 1000, "m": 3},
              "er1000": {"type": "er", "n": 1000, "p": 0.006}}
    graphs = [dict(name=name, seed=rng.randrange(2 ** 31), **p)
              for name, p in params.items()]
    config = {
        "master_seed": rng.randrange(2 ** 31),
        "replications": 1,
        "graphs": graphs,
        "pp": [0.05, 0.1, 0.15, 0.2, 0.25],
        "sp": [0.01, 0.02, 0.03, 0.04, 0.05],
        "rankings": ALL_RANKINGS,
        "strategies": _strategy_labels((1, 2, 4, 8), ("", "_R")) + ["SQ_TSN"],
    }
    return config, params


def big_graph(rng: random.Random, out_dir: str) -> Tuple[dict, Dict[str, dict]]:
    """A 20 000-node BA edge list plus a generated 5 000-node ER graph."""
    ba_path = os.path.join(out_dir, "ba20000.txt")
    write_ba_edge_list(ba_path, 20000, 3, random.Random(rng.randrange(2 ** 31)))
    params = {"ba20000": {"type": "ba", "n": 20000, "m": 3},
              "er5000": {"type": "er", "n": 5000, "p": 0.0012}}
    config = {
        "master_seed": rng.randrange(2 ** 31),
        "replications": 2,
        "graphs": [{"name": "ba20000", "type": "edgelist",
                    "path": os.path.basename(ba_path)},
                   dict(name="er5000", seed=rng.randrange(2 ** 31),
                        **params["er5000"])],
        "pp": [0.05, 0.1],
        "sp": [0.01, 0.03],
        "rankings": ["degree", "pagerank", "eigenvector"],
        "strategies": ["SN", "SQ_1PS", "SQ_1PS_R", "SQ_1PS_B", "SQ_TSN",
                       "SQ_TSN_R"],
    }
    return config, params


def wide_summary(rng: random.Random, out_dir: str) -> Tuple[dict, Dict[str, dict]]:
    """1 000 configs of tiny runs: 8 graphs x 5 pp x 5 sp x 5 rankings.

    Summarize is O(C^2) in the config count C; at C = 2 000 it took 5 s of a
    7.5 s round, so a run timed run_grid for only 15 s and too few times to
    repeat. At C = 1 000 and 4 replications it takes about a quarter of the
    round, and the records CSV still has 36 000 rows."""
    params = {}
    for i in range(4):
        params[f"ba200_{i}"] = {"type": "ba", "n": 200, "m": 2 + i % 2}
        params[f"er200_{i}"] = {"type": "er", "n": 200, "p": 0.02 + 0.005 * i}
    graphs = [dict(name=name, seed=rng.randrange(2 ** 31), **p)
              for name, p in params.items()]
    config = {
        "master_seed": rng.randrange(2 ** 31),
        "replications": 4,
        "graphs": graphs,
        "pp": [0.02, 0.04, 0.06, 0.08, 0.1],
        "sp": [0.01, 0.02, 0.03, 0.04, 0.05],
        "rankings": ALL_RANKINGS,
        # sp = 0.01 gives n = 2 seeds on 200 nodes, so k stays <= 2
        "strategies": _strategy_labels((1, 2), ("", "_R", "_B"))
        + ["SQ_TSN", "SQ_TSN_R"],
    }
    return config, params


BUILDERS = {"desk-grid": desk_grid, "big-graph": big_graph,
            "wide-summary": wide_summary}


def build(name: str, seed: int, out_dir: str) -> Workload:
    """Write the workload's inputs for `seed` into out_dir and describe them."""
    rng = random.Random(f"seqseed-bench/{name}/{seed}")
    config, params = BUILDERS[name](rng, out_dir)
    path = os.path.join(out_dir, "grid.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return Workload(name, seed, config, path, params)
