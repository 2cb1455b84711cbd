"""JSON grid configuration: schema validation and GridSpec construction.

Schema (all fields required unless noted):

    {
      "master_seed": 7,
      "replications": 100,
      "graphs": [
        {"name": "ba1000", "type": "ba", "n": 1000, "m": 3, "seed": 1},
        {"name": "er1000", "type": "er", "n": 1000, "p": 0.006, "seed": 2},
        {"name": "mynet", "type": "edgelist", "path": "edges.txt"}
      ],
      "pp": [0.05, 0.1],
      "sp": [0.01, 0.05],
      "rankings": ["random", "degree", "degree2", "pagerank", "eigenvector"],
      "strategies": ["SN", "SQ_1PS", "SQ_1PS_R", "SQ_2PS", "SQ_TSN"]
    }

Each strategy is named by its label, the name its records carry: SN,
SQ_TSN, SQ_TSN_R or SQ_<k>PS[_R|_B]. TSN strategies take their reference
duration from each configuration's SN block. A field outside the schema
fails the config, so a misspelt one is never silently dropped.
"""
from __future__ import annotations

import json
import os
import random
from typing import List, Tuple

from .experiment import GridSpec
from .graphs import (Graph, GraphParseError, ParameterError, generate_ba,
                     generate_er, load_edge_list)
from .ranking import RankingMethod
from .strategies import StrategySpec


class ConfigError(ValueError):
    """Grid config violates the schema; message names the offending field."""


# the fields each object of the schema above may hold: the config and a
# graph entry of each type
_FIELDS = {
    "config": {"master_seed", "replications", "graphs", "pp", "sp",
               "rankings", "strategies"},
    "ba": {"name", "type", "n", "m", "seed"},
    "er": {"name", "type", "n", "p", "seed"},
    "edgelist": {"name", "type", "path"},
}


def _known_fields(obj: dict, kind: str, where: str) -> None:
    """Reject the first field of `obj` that an object of `kind` does not
    hold."""
    for field in obj:
        if field not in _FIELDS[kind]:
            raise ConfigError(f"{where}.{field}: unknown field")


def _typed(value, types, where: str):
    """`value` if it has one of `types`; a bool never counts as a number."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where}: wrong type {type(value).__name__}")
    return value


def _require(obj: dict, field: str, types, where: str):
    if field not in obj:
        raise ConfigError(f"{where}: missing field {field!r}")
    return _typed(obj[field], types, f"{where}.{field}")


def _require_list(obj: dict, field: str, types, where: str) -> list:
    """A list field each of whose entries has one of `types`."""
    return [_typed(x, types, f"{where}.{field}[{i}]")
            for i, x in enumerate(_require(obj, field, list, where))]


def _build_graph(entry: dict, index: int, base_dir: str) -> Tuple[str, Graph]:
    where = f"graphs[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _require(entry, "name", str, where)
    kind = _require(entry, "type", str, where)
    if kind not in ("ba", "er", "edgelist"):
        raise ConfigError(f"{where}.type: unknown graph type {kind!r}")
    _known_fields(entry, kind, where)
    if kind == "edgelist":
        path = _require(entry, "path", str, where)
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            with open(path, encoding="utf-8") as fh:
                return name, load_edge_list(fh)
        except OSError as exc:  # its text repeats the path
            raise ConfigError(f"{where}: {path}: {exc.strerror}") from None
        except (GraphParseError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{where}: {path}: {exc}") from None
    n = _require(entry, "n", int, where)
    param = (_require(entry, "m", int, where) if kind == "ba"
             else float(_require(entry, "p", (int, float), where)))
    seed = _require(entry, "seed", int, where)
    generate = generate_ba if kind == "ba" else generate_er
    try:
        return name, generate(n, param, random.Random(seed))
    except ParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_grid_config(data, base_dir: str = ".") -> GridSpec:
    """Build a GridSpec from parsed JSON (dict) or a JSON string."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _known_fields(data, "config", "config")
    master_seed = _require(data, "master_seed", int, "config")
    replications = _require(data, "replications", int, "config")
    raw_graphs = _require(data, "graphs", list, "config")
    graphs = [_build_graph(g, i, base_dir) for i, g in enumerate(raw_graphs)]
    pp_values, sp_values = ([float(x) for x in _require_list(
        data, field, (int, float), "config")] for field in ("pp", "sp"))
    raw_rankings = _require_list(data, "rankings", str, "config")
    try:
        rankings = [RankingMethod.from_string(r) for r in raw_rankings]
    except ValueError as exc:
        raise ConfigError(f"config.rankings: {exc}") from None
    strategies = []
    for i, label in enumerate(_require_list(data, "strategies", str, "config")):
        try:
            strategies.append(StrategySpec.parse(label))
        except ParameterError as exc:
            raise ConfigError(f"config.strategies[{i}]: {exc}") from None
    try:
        return GridSpec(graphs, pp_values, sp_values, rankings, strategies,
                        replications, master_seed)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def load_grid_config_file(path: str) -> GridSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return load_grid_config(data, base_dir=os.path.dirname(os.path.abspath(path)))
