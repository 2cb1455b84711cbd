"""Undirected simple graphs: loading, generation, serialization."""
from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, TextIO, Tuple


class GraphParseError(ValueError):
    """Malformed edge-list input."""


class ParameterError(ValueError):
    """Generator or strategy parameter outside its valid range."""


class Graph:
    """Immutable undirected simple graph with dense node ids 0..n-1.

    Adjacency lists are kept sorted so traversal order is deterministic.
    Each edge must be listed once, in either direction, between two distinct
    ids in 0..n-1; anything else raises ValueError.
    `labels[i]` is the external label node i was loaded with (stringified id
    for generated graphs); a `labels` list not of length n raises
    ValueError. `dropped_self_loops` / `dropped_duplicates` report
    how much cleanup the loader did.
    """

    def __init__(self, node_count: int, edges: Iterable[Tuple[int, int]],
                 labels: Optional[Sequence[str]] = None):
        if node_count < 1:
            raise ParameterError("graph needs at least one node")
        message = f"Graph expects simple edges between ids 0..{node_count - 1}"
        adjacency: List[List[int]] = [[] for _ in range(node_count)]
        try:
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
        except IndexError:
            raise ValueError(message) from None
        for lst in adjacency:
            lst.sort()
            # a negative id shows as a negative neighbour, a self-loop or a
            # repeated edge as one neighbour twice
            if lst and (lst[0] < 0 or len(set(lst)) < len(lst)):
                raise ValueError(message)
        if labels is not None and len(labels) != node_count:
            raise ValueError(f"Graph expects {node_count} labels, got "
                             f"{len(labels)}")
        self.node_count = node_count
        self.adjacency = adjacency
        self.edge_count = sum(map(len, adjacency)) // 2
        self.labels = list(labels) if labels is not None else [str(i) for i in range(node_count)]
        self.dropped_self_loops = 0
        self.dropped_duplicates = 0

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterable[Tuple[int, int]]:
        for u, neigh in enumerate(self.adjacency):
            for v in neigh:
                if u < v:
                    yield (u, v)

    @cached_property
    def arcs(self) -> Tuple[List[int], List[int]]:
        """Both directions of every edge as parallel (tails, heads) lists,
        in ascending (u, v) order; built on first use."""
        adj = self.adjacency
        return ([u for u, neigh in enumerate(adj) for _ in neigh],
                [v for neigh in adj for v in neigh])


def skip_sample(count: int, p: float, rng) -> Iterator[int]:
    """Ascending indices below `count`, each kept independently with
    probability p, by geometric skipping (Batagelj & Brandes 2005): one
    `rng.random()` per kept index plus one, none at p = 0 or p = 1."""
    if p <= 0.0:
        return
    if p >= 1.0:
        yield from range(count)
        return
    log, log_q, rand = math.log, math.log1p(-p), rng.random
    i, last = -1, count - 1
    while True:
        # failures before the next success: floor(log U / log(1 - p)), U in (0, 1]
        skip = log(1.0 - rand()) / log_q
        if skip >= last - i:
            return
        i += 1 + int(skip)
        yield i


def load_edge_list(source) -> Graph:
    """Parse an edge list (one `u v` pair per line, '#' comments).

    Labels are mapped to dense ids in first-appearance order. Self-loops and
    duplicate edges are dropped; the counts are kept on the returned graph.
    One leading UTF-8 byte-order mark (U+FEFF) is dropped, so a file saved
    with one reads as the same graph.
    """
    # a file is read whole first: its decode error comes before any parse error
    lines = source.splitlines() if isinstance(source, str) else list(source)
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]
    label_ids = {}  # in insertion order, so its keys are the labels by id
    edge_set = set()
    self_loops = 0
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two labels, got {len(parts)}")
        u, v = [label_ids.setdefault(lab, len(label_ids)) for lab in parts]
        if u == v:
            self_loops += 1
            continue
        key = (min(u, v), max(u, v))
        if key in edge_set:
            duplicates += 1
            continue
        edge_set.add(key)
    if not label_ids:
        raise GraphParseError("empty edge list")
    g = Graph(len(label_ids), edge_set, list(label_ids))
    g.dropped_self_loops = self_loops
    g.dropped_duplicates = duplicates
    return g


def serialize(graph: Graph, out: TextIO) -> None:
    """Write the edge set back, one edge per line, using the retained labels."""
    labels = graph.labels
    for u, v in graph.edges():
        out.write(f"{labels[u]} {labels[v]}\n")


def generate_ba(n: int, m: int, rng) -> Graph:
    """Barabasi-Albert preferential attachment.

    Starts from a clique on m0 = min(max(m, 3), n) nodes; every later node
    attaches to m distinct existing nodes chosen with probability proportional
    to degree. Result is simple and connected.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if n <= m:
        raise ParameterError("need n > m")
    m0 = min(max(m, 3), n)
    edges = [(i, j) for i in range(m0) for j in range(i + 1, m0)]
    # each node appears once per incident edge; sampling from this list is
    # degree-proportional
    repeated: List[int] = []
    for u, v in edges:
        repeated.append(u)
        repeated.append(v)
    for new in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.random() * len(repeated))])
        for t in sorted(targets):
            edges.append((t, new))
            repeated.append(t)
            repeated.append(new)
    return Graph(n, edges)


def generate_er(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair independently with probability
    p, skip-sampled over the n(n-1)/2 pairs in row order in O(n + m)."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be in [0, 1]")
    if n < 1:
        raise ParameterError("need n >= 1")
    edges = []
    u, row_start, row_end = 0, 0, n - 1  # pairs of row u: (u, u+1..n-1)
    for i in skip_sample(n * (n - 1) // 2, p, rng):
        while i >= row_end:
            u += 1
            row_start, row_end = row_end, row_end + n - 1 - u
        edges.append((u, u + 1 + i - row_start))
    return Graph(n, edges)

