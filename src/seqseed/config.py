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
fails the config, so a misspelt one is never silently dropped. The config
object's fields, its rankings and its strategy labels are checked before any
graph is generated or its edge list read. A config file may start with a
UTF-8 byte-order mark.
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


# each object of the schema above, the config and a graph entry of each type,
# with its fields in the order they are read, each with its type; a list
# field's type is a one-entry list of its entries' types
_FIELDS = {
    "config": {"master_seed": int, "replications": int, "graphs": list,
               "pp": [(int, float)], "sp": [(int, float)],
               "rankings": [str], "strategies": [str]},
    "ba": {"name": str, "type": str, "n": int, "m": int, "seed": int},
    "er": {"name": str, "type": str, "n": int, "p": (int, float), "seed": int},
    "edgelist": {"name": str, "type": str, "path": str},
}


def _typed(value, types, where: str):
    """`value` if it has one of `types`; a bool never counts as a number."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{where}: wrong type {type(value).__name__}")
    return value


def _require(obj: dict, field: str, types, where: str):
    """`obj[field]`, present and of one of `types`. A one-entry list of
    types asks for a list whose entries have those, each named by its
    index."""
    if field not in obj:
        raise ConfigError(f"{where}: missing field {field!r}")
    if isinstance(types, list):
        return [_typed(x, types[0], f"{where}.{field}[{i}]")
                for i, x in enumerate(_require(obj, field, list, where))]
    return _typed(obj[field], types, f"{where}.{field}")


def _fields(obj: dict, kind: str, where: str) -> list:
    """The value of each field of an object of `kind`, in `_FIELDS` order,
    once no field of `obj` lies outside them."""
    for field in obj:
        if field not in _FIELDS[kind]:
            raise ConfigError(f"{where}.{field}: unknown field")
    return [_require(obj, field, types, where)
            for field, types in _FIELDS[kind].items()]


def _build_graph(entry: dict, index: int, base_dir: str) -> Tuple[str, Graph]:
    where = f"graphs[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    # `type` chooses the entry's table, and every table types it alike
    kind = _require(entry, "type", _FIELDS["ba"]["type"], where)
    if kind not in ("ba", "er", "edgelist"):
        raise ConfigError(f"{where}.type: unknown graph type {kind!r}")
    name, _, *params = _fields(entry, kind, where)
    if kind == "edgelist":
        path = os.path.join(base_dir, params[0])  # an absolute path stays
        try:
            with open(path, encoding="utf-8") as fh:
                return name, load_edge_list(fh)
        except OSError as exc:  # its text repeats the path
            raise ConfigError(f"{where}: {path}: {exc.strerror}") from None
        except (GraphParseError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{where}: {path}: {exc}") from None
    n, param, seed = params
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
    (master_seed, replications, raw_graphs, pp_values, sp_values,
     raw_rankings, labels) = _fields(data, "config", "config")
    try:
        rankings = [RankingMethod.from_string(r) for r in raw_rankings]
    except ValueError as exc:
        raise ConfigError(f"config.rankings: {exc}") from None
    strategies = []
    for i, label in enumerate(labels):
        try:
            strategies.append(StrategySpec.parse(label))
        except ParameterError as exc:
            raise ConfigError(f"config.strategies[{i}]: {exc}") from None
    graphs = [_build_graph(g, i, base_dir) for i, g in enumerate(raw_graphs)]
    try:
        return GridSpec(graphs, [float(x) for x in pp_values],
                        [float(x) for x in sp_values], rankings, strategies,
                        replications, master_seed)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def load_grid_config_file(path: str) -> GridSpec:
    # utf-8-sig drops a leading byte-order mark, as load_edge_list does
    with open(path, encoding="utf-8-sig") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return load_grid_config(data, base_dir=os.path.dirname(os.path.abspath(path)))
