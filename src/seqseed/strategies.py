"""Single-stage and sequential seeding strategies over the IC engine.

All strategies spend at most n seeds, always on the highest-ranked nodes that
are still inactive at the moment of injection. Budget that cannot be placed
because every node is already active is forfeited and reported on the trace.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .diffusion import DiffusionState, DiffusionTrace, activate_seeds, ic_step, run_until_stop
from .graphs import Graph, ParameterError
from .ranking import Ranking

STRATEGY_KINDS = ("SN", "SQ_kPS", "SQ_kPS_R", "SQ_kPS_B", "SQ_TSN", "SQ_TSN_R")


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    k: Optional[int] = None
    t_sn: Optional[int] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ParameterError(f"unknown strategy kind: {self.kind!r}")
        if self.kind.startswith("SQ_kPS"):
            if self.k is None or self.k < 1:
                raise ParameterError(f"{self.kind} requires k >= 1")
        elif self.k is not None:
            raise ParameterError(f"{self.kind} takes no k parameter")
        if not self.kind.startswith("SQ_TSN") and self.t_sn is not None:
            raise ParameterError(f"{self.kind} takes no t_sn parameter")
        if self.t_sn is not None and self.t_sn < 1:
            raise ParameterError("t_sn must be >= 1")

    @property
    def label(self) -> str:
        if self.kind.startswith("SQ_kPS"):
            return f"SQ_{self.k}PS" + self.kind[6:]
        return self.kind

    @classmethod
    def parse(cls, name: str, k: Optional[int] = None,
              t_sn: Optional[int] = None) -> "StrategySpec":
        """Accepts canonical kinds (SQ_kPS + k=2) and inline labels (SQ_2PS)."""
        name = name.strip()
        m = re.fullmatch(r"SQ_(\d+)PS(_R|_B)?", name)
        if m:
            return cls("SQ_kPS" + (m.group(2) or ""), k=int(m.group(1)))
        if name in ("SQ_kPS", "SQ_kPS_R", "SQ_kPS_B"):
            return cls(name, k=k)
        if name in ("SQ_TSN", "SQ_TSN_R"):
            return cls(name, t_sn=t_sn)
        if name == "SN":
            return cls(name)
        raise ParameterError(f"unknown strategy: {name!r}")


def seed_count(graph: Graph, sp: float) -> int:
    """Seed budget n = max(1, round(sp * N)) for a seeding percentage sp."""
    if not 0.0 < sp <= 1.0:
        raise ParameterError("sp must be in (0, 1]")
    return max(1, math.floor(sp * graph.node_count + 0.5))


def _next_batch(ranking: Ranking, state: DiffusionState, cursor: int,
                want: int) -> Tuple[List[int], int]:
    # nodes before the cursor are active forever, so the cursor is monotone
    order = ranking.order
    flags = state.flags
    batch: List[int] = []
    while cursor < len(order) and len(batch) < want:
        v = order[cursor]
        cursor += 1
        if not flags[v]:
            batch.append(v)
    return batch, cursor


def _check_budget(graph: Graph, n: int) -> None:
    if not 1 <= n <= graph.node_count:
        raise ParameterError(f"need 1 <= n <= {graph.node_count}, got {n}")


def _stage_sizes(n: int, stages: int) -> List[int]:
    # remainder seeds go to the earliest stages
    base, rem = divmod(n, stages)
    return [base + 1] * rem + [base] * (stages - rem)


def _plan(spec: StrategySpec, n: int, t_sn: Optional[int]) -> List[int]:
    """Seeds per stage: the whole budget cut the way the spec's kind cuts it."""
    if spec.kind == "SN":
        return [n]
    if spec.kind.startswith("SQ_kPS"):
        if not 1 <= spec.k <= n:
            raise ParameterError(f"need 1 <= k <= n, got k={spec.k}")
        sizes = [spec.k] * (n // spec.k)
        return sizes + [n % spec.k] if n % spec.k else sizes
    ref = spec.t_sn if spec.t_sn is not None else t_sn
    if ref is None:
        raise ParameterError(f"{spec.kind} needs a reference t_sn")
    if ref < 1:
        raise ParameterError("t_sn must be >= 1")
    # fewer seeds than stages: one seed per stage, as SQ_1PS
    return _stage_sizes(n, ref) if n >= ref else [1] * n


def _run_stages(graph: Graph, ranking: Ranking, state: DiffusionState,
                sizes: List[int], until_stop: bool, pp: float, rng) -> int:
    """Inject each stage's best inactive nodes, then wait one step or until
    diffusion stops; returns the seeds spent.

    A short batch means every node is active, so the later stages forfeit.
    Waiting one step after the last stage is the first step of the free tail.
    """
    wait = run_until_stop if until_stop else ic_step
    cursor = 0
    spent = 0
    for size in sizes:
        batch, cursor = _next_batch(ranking, state, cursor, size)
        activate_seeds(state, batch)
        spent += len(batch)
        wait(state, graph, pp, rng)
        if len(batch) < size:
            break
    run_until_stop(state, graph, pp, rng)
    return spent


def _run_buffered(graph: Graph, ranking: Ranking, state: DiffusionState,
                  sizes: List[int], n: int, pp: float, rng) -> int:
    """Walk the initial top-n list one stage per step, banking every entry
    that diffusion already activated; spend the bank on the best inactive
    nodes once diffusion stops."""
    schedule = ranking.order[:n]
    flags = state.flags
    start = 0
    spent = 0
    for size in sizes:
        batch = [v for v in schedule[start:start + size] if not flags[v]]
        start += size
        activate_seeds(state, batch)
        spent += len(batch)
        ic_step(state, graph, pp, rng)
    run_until_stop(state, graph, pp, rng)
    return spent + _run_stages(graph, ranking, state, [n - spent], True, pp, rng)


def run_strategy(graph: Graph, ranking: Ranking, spec: StrategySpec, n: int,
                 pp: float, rng, t_sn: Optional[int] = None) -> DiffusionTrace:
    """Run a StrategySpec; TSN variants take t_sn from the spec or the arg.

    Every kind is a list of stage sizes plus a wait mode: one diffusion step
    per stage, or (`_R`) until diffusion stops. `_B` adds buffering.
    """
    _check_budget(graph, n)
    sizes = _plan(spec, n, t_sn)
    state = DiffusionState(graph)
    if spec.kind == "SQ_kPS_B":
        spent = _run_buffered(graph, ranking, state, sizes, n, pp, rng)
    else:
        spent = _run_stages(graph, ranking, state, sizes,
                            spec.kind.endswith("_R"), pp, rng)
    state.forfeited = n - spent
    return state.trace()


def run_sn(graph: Graph, ranking: Ranking, n: int, pp: float, rng) -> DiffusionTrace:
    """Single stage: inject the top n ranked nodes at step 0, then diffuse."""
    return run_strategy(graph, ranking, StrategySpec("SN"), n, pp, rng)


def run_sq_kps(graph: Graph, ranking: Ranking, n: int, k: int, pp: float,
               rng) -> DiffusionTrace:
    """k seeds per stage, one diffusion step per stage, free tail diffusion."""
    return run_strategy(graph, ranking, StrategySpec("SQ_kPS", k=k), n, pp, rng)


def run_sq_kps_r(graph: Graph, ranking: Ranking, n: int, k: int, pp: float,
                 rng) -> DiffusionTrace:
    """k seeds per stage with revival: reseed only once diffusion has stopped."""
    return run_strategy(graph, ranking, StrategySpec("SQ_kPS_R", k=k), n, pp, rng)


def run_sq_kps_b(graph: Graph, ranking: Ranking, n: int, k: int, pp: float,
                 rng) -> DiffusionTrace:
    """k per stage with buffering: already-active schedule entries are banked."""
    return run_strategy(graph, ranking, StrategySpec("SQ_kPS_B", k=k), n, pp, rng)


def run_sq_tsn(graph: Graph, ranking: Ranking, n: int, t_sn: int, pp: float,
               rng) -> DiffusionTrace:
    """T_SN stages of ~n/T_SN seeds at steps 0..T_SN-1; SQ_1PS when n < T_SN."""
    return run_strategy(graph, ranking, StrategySpec("SQ_TSN", t_sn=t_sn), n, pp, rng)


def run_sq_tsn_r(graph: Graph, ranking: Ranking, n: int, t_sn: int, pp: float,
                 rng) -> DiffusionTrace:
    """Same allocation as SQ_TSN, but each stage waits for diffusion to stop."""
    return run_strategy(graph, ranking, StrategySpec("SQ_TSN_R", t_sn=t_sn), n, pp, rng)
