"""Node rankings used for seed selection: R, D, D2, PR, EV.

Rankings are computed once on the initial network; sequential strategies pick
from them dynamically, taking the best nodes still inactive at each stage.
A grid ranks each (graph, method) once, from one rng stream that only
breaks score ties; a ranking without tied scores draws nothing from it.
RANDOM shuffles all nodes from its stream, so a grid has one random order
per graph.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import mul, sub, truediv
from typing import List, Optional, Tuple

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
    """A full ordering of the nodes, best first, with the per-node scores.
    A pagerank or eigenvector ranking keeps its power iteration's count and
    convergence; they are None for the other methods and for scores given
    precomputed."""
    method: RankingMethod
    order: List[int]
    score: List[float]
    iterations: Optional[int] = None
    converged: Optional[bool] = None


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

    Each step is a pull: node v folds its neighbours' shares into one float,
    from the teleport term, in ascending neighbour order. Adjacency is
    symmetric and sorted, so this adds the same floats in the same order as
    pushing each node's share to its neighbours in ascending node order.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = graph.node_count
    adj = graph.adjacency
    deg = [len(a) for a in adj]
    is_dangling = [d == 0 for d in deg]
    deg_or_1 = [d or 1 for d in deg]  # a dangling node's share is never read
    x = [1.0 / n] * n
    base = (1.0 - damping) / n
    for it in range(1, max_iter + 1):
        dangling = sum(compress(x, is_dangling))
        spread = base + damping * dangling / n
        share = list(map(truediv, map(mul, repeat(damping), x), deg_or_1))
        y = []
        append = y.append
        for nbrs in adj:
            acc = spread
            for u in nbrs:
                acc += share[u]
            append(acc)
        diff = sum(map(abs, map(sub, y, x)))
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

    Each step is a pull: node v folds its neighbours' values into one float,
    from its own, in ascending neighbour order. Adjacency is symmetric and
    sorted, so this adds the same floats in the same order as pushing each
    node's value to its neighbours in ascending node order. The distance
    between steps, `math.dist`, only decides when to stop.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = graph.node_count
    adj = graph.adjacency
    if graph.edge_count == 0:
        return PowerIterationResult([0.0] * n, 0, True)
    x = [1.0 / math.sqrt(n)] * n
    for it in range(1, max_iter + 1):
        y = []
        append = y.append
        for acc, nbrs in zip(x, adj):
            for u in nbrs:
                acc += x[u]
            append(acc)
        norm = math.sqrt(sum(map(mul, y, y)))
        y = list(map(truediv, y, repeat(norm)))
        dist = math.dist(y, x)
        x = y
        if dist < tol:
            return PowerIterationResult(x, it, True)
    return PowerIterationResult(x, max_iter, False)


def _degree2_scores(graph: Graph) -> List[float]:
    # own degree plus the degrees of all neighbors
    deg = [graph.degree(v) for v in range(graph.node_count)]
    return [float(deg[v] + sum(deg[u] for u in graph.adjacency[v]))
            for v in range(graph.node_count)]


def _scores(graph: Graph, method: RankingMethod
            ) -> Tuple[List[float], Optional[int], Optional[bool]]:
    """Raw scores for a deterministic (non-random) ranking method, with
    power iteration's count and convergence (None for a degree method).
    Warns when power iteration did not converge."""
    if method is RankingMethod.DEGREE:
        return ([float(graph.degree(v)) for v in range(graph.node_count)],
                None, None)
    if method is RankingMethod.DEGREE2:
        return _degree2_scores(graph), None, None
    if method is RankingMethod.PAGERANK:
        result = pagerank_scores(graph)
    elif method is RankingMethod.EIGENVECTOR:
        result = eigenvector_scores(graph)
    else:
        raise ValueError(f"no deterministic scores for {method}")
    if not result.converged:
        warnings.warn(f"{method.value} power iteration did not converge in "
                      f"{result.iterations} iterations", RuntimeWarning,
                      stacklevel=3)
    return result.scores, result.iterations, result.converged


def method_scores(graph: Graph, method: RankingMethod) -> List[float]:
    """Raw scores for a deterministic (non-random) ranking method."""
    return _scores(graph, method)[0]


def rank(graph: Graph, method: RankingMethod, rng,
         scores: Optional[List[float]] = None) -> Ranking:
    """Rank all nodes by `method`, breaking score ties uniformly at random.

    `scores` may carry precomputed method scores to skip recomputation; when
    None they are computed as `method_scores` computes them, and the ranking
    keeps power iteration's count and convergence. Ties are broken by one
    shuffle of all node ids drawn from `rng`, tied nodes taking the order of
    their shuffled ids; a ranking whose scores all differ draws nothing.
    RANDOM is one shuffle of the nodes.

    Raises ValueError naming the method when `scores` does not hold one
    value per node or holds a NaN, which has no place in a descending order.
    """
    n = graph.node_count
    if method is RankingMethod.RANDOM:
        order = list(range(n))
        rng.shuffle(order)
        score = [0.0] * n
        for pos, v in enumerate(order):
            score[v] = float(n - pos)
        return Ranking(method, order, score)
    iterations = converged = None
    if scores is None:
        scores, iterations, converged = _scores(graph, method)
    if len(scores) != n:
        raise ValueError(f"{method.value} scores: {len(scores)} values for "
                         f"{n} nodes")
    if any(map(math.isnan, scores)):
        raise ValueError(f"{method.value} scores hold a NaN")
    order = list(range(n))
    if len(set(scores)) < n:
        tiebreak = list(range(n))
        rng.shuffle(tiebreak)
        order.sort(key=tiebreak.__getitem__)
    # a stable sort, reversed or not, keeps tied nodes in tie-break order
    order.sort(key=scores.__getitem__, reverse=True)
    return Ranking(method, order, scores, iterations, converged)


def write_ranking_csv(graph: Graph, ranking: Ranking, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("node_label", "method", "score", "rank_position"))
    writer.writerows((graph.labels[v], ranking.method.value,
                      f"{ranking.score[v]:.6g}", pos)
                     for pos, v in enumerate(ranking.order))
