"""Node rankings used for seed selection: R, D, D2, PR, EV.

Rankings are computed once on the initial network; sequential strategies pick
from them dynamically, taking the best nodes still inactive at each stage.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from .graphs import Graph


class RankingMethod(Enum):
    RANDOM = "random"
    DEGREE = "degree"
    DEGREE2 = "degree2"
    PAGERANK = "pagerank"
    EIGENVECTOR = "eigenvector"

    @classmethod
    def from_string(cls, name: str) -> "RankingMethod":
        aliases = {"r": "random", "d": "degree", "d2": "degree2",
                   "pr": "pagerank", "ev": "eigenvector"}
        key = name.strip().lower()
        key = aliases.get(key, key)
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown ranking method: {name!r}") from None


@dataclass
class Ranking:
    """A full ordering of the nodes, best first, with the per-node scores."""
    method: RankingMethod
    order: List[int]
    score: List[float]


@dataclass
class PowerIterationResult:
    scores: List[float]
    iterations: int
    converged: bool


def pagerank_scores(graph: Graph, damping: float = 0.85, tol: float = 1e-10,
                    max_iter: int = 1000) -> PowerIterationResult:
    """Power iteration on the degree-normalized transition matrix.

    Isolated nodes contribute their mass through the teleport term, so scores
    always sum to 1 within tol.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = graph.node_count
    adj = graph.adjacency
    deg = [len(a) for a in adj]
    x = [1.0 / n] * n
    base = (1.0 - damping) / n
    for it in range(1, max_iter + 1):
        dangling = sum(x[u] for u in range(n) if deg[u] == 0)
        spread = base + damping * dangling / n
        y = [spread] * n
        for u in range(n):
            if deg[u]:
                share = damping * x[u] / deg[u]
                for v in adj[u]:
                    y[v] += share
        diff = sum(abs(y[i] - x[i]) for i in range(n))
        x = y
        if diff < tol:
            return PowerIterationResult(x, it, True)
    return PowerIterationResult(x, max_iter, False)


def eigenvector_scores(graph: Graph, tol: float = 1e-10,
                       max_iter: int = 1000) -> PowerIterationResult:
    """Dominant eigenvector of the adjacency operator by power iteration.

    Iterates the shifted operator A + I from the uniform vector (the shift
    keeps bipartite graphs from oscillating without changing eigenvectors),
    L2-normalizing each step. Nodes outside the dominant components decay to
    score 0. An edgeless graph gets all-zero scores.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = graph.node_count
    adj = graph.adjacency
    if graph.edge_count == 0:
        return PowerIterationResult([0.0] * n, 0, True)
    x = [1.0 / math.sqrt(n)] * n
    for it in range(1, max_iter + 1):
        y = list(x)
        for u in range(n):
            xu = x[u]
            for v in adj[u]:
                y[v] += xu
        norm = math.sqrt(sum(t * t for t in y))
        y = [t / norm for t in y]
        dist = math.sqrt(sum((y[i] - x[i]) ** 2 for i in range(n)))
        x = y
        if dist < tol:
            return PowerIterationResult(x, it, True)
    return PowerIterationResult(x, max_iter, False)


def _degree2_scores(graph: Graph) -> List[float]:
    # own degree plus the degrees of all neighbors
    deg = [graph.degree(v) for v in range(graph.node_count)]
    return [float(deg[v] + sum(deg[u] for u in graph.adjacency[v]))
            for v in range(graph.node_count)]


def method_scores(graph: Graph, method: RankingMethod) -> List[float]:
    """Raw scores for a deterministic (non-random) ranking method."""
    if method is RankingMethod.DEGREE:
        return [float(graph.degree(v)) for v in range(graph.node_count)]
    if method is RankingMethod.DEGREE2:
        return _degree2_scores(graph)
    if method is RankingMethod.PAGERANK:
        return pagerank_scores(graph).scores
    if method is RankingMethod.EIGENVECTOR:
        return eigenvector_scores(graph).scores
    raise ValueError(f"no deterministic scores for {method}")


def rank(graph: Graph, method: RankingMethod, rng,
         scores: Optional[List[float]] = None) -> Ranking:
    """Rank all nodes by `method`, breaking score ties uniformly at random.

    `scores` may carry precomputed method scores to skip recomputation.
    """
    n = graph.node_count
    if method is RankingMethod.RANDOM:
        order = list(range(n))
        rng.shuffle(order)
        score = [0.0] * n
        for pos, v in enumerate(order):
            score[v] = float(n - pos)
        return Ranking(method, order, score)
    score = scores if scores is not None else method_scores(graph, method)
    tiebreak = list(range(n))
    rng.shuffle(tiebreak)
    order = sorted(range(n), key=lambda v: (-score[v], tiebreak[v]))
    return Ranking(method, order, score)


def write_ranking_csv(graph: Graph, ranking: Ranking, out) -> None:
    out.write("node_label,method,score,rank_position\n")
    for pos, v in enumerate(ranking.order):
        out.write(f"{graph.labels[v]},{ranking.method.value},"
                  f"{ranking.score[v]:.6g},{pos}\n")
