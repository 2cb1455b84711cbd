"""Single-stage and sequential seeding strategies over the IC engine.

All strategies spend at most n seeds, always on the highest-ranked nodes that
are still inactive at the moment of injection. Budget that cannot be placed
because every node is already active is forfeited and reported on the run's
state. A run is a traversal of one live-edge world; `run_on_worlds` checks
the budget and plans the stages once, then runs them on each world of a
list. On the same world every sequential kind ends with an active set
containing SN's, since each of SN's top-n nodes is seeded by it or active
when its cursor passes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from .diffusion import UNTIL_STOP, DiffusionState, World, advance, sample_world
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
        for name, value in (("k", self.k), ("t_sn", self.t_sn)):
            if value is not None and type(value) is not int:
                raise ParameterError(f"{name} must be an int, got {value!r}")
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


def _check_budget(graph: Graph, n: int) -> None:
    if not 1 <= n <= graph.node_count:
        raise ParameterError(f"need 1 <= n <= {graph.node_count}, got {n}")


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
    # fewer seeds than stages: one seed per stage, as SQ_1PS; remainder
    # seeds go to the earliest stages
    stages = min(n, ref)
    base, rem = divmod(n, stages)
    return [base + 1] * rem + [base] * (stages - rem)


def _run_stages(ranking: Ranking, state: DiffusionState, sizes: List[int],
                until_stop: bool, live: World) -> int:
    """Inject each stage's best inactive nodes, then wait one step or until
    diffusion stops; returns the seeds spent. One kernel call per stage.

    A short batch means every node is active, so the later stages forfeit.
    The last stage, or a short one, waits until diffusion stops: its one
    step is the first step of the free tail.
    """
    order = ranking.order
    nodes = len(order)
    flags = state.flags
    cursor = 0
    spent = 0
    last = len(sizes) - 1
    for i, size in enumerate(sizes):
        # nodes before the cursor are active forever, so the cursor is monotone
        batch: List[int] = []
        want = size
        while want and cursor < nodes:
            v = order[cursor]
            cursor += 1
            if not flags[v]:
                batch.append(v)
                want -= 1
        spent += size - want
        advance(state, live, UNTIL_STOP if until_stop or want or i == last
                else 1, batch)
        if want:
            break
    return spent


def _run_buffered(ranking: Ranking, state: DiffusionState, sizes: List[int],
                  n: int, live: World) -> int:
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
        spent += len(batch)
        advance(state, live, 1 if start < n else UNTIL_STOP, batch)
    return spent + _run_stages(ranking, state, [n - spent], True, live)


def run_on_worlds(graph: Graph, ranking: Ranking, spec: StrategySpec, n: int,
                  worlds: Iterable[World],
                  t_sn: Optional[int] = None) -> Iterator[DiffusionState]:
    """Run a StrategySpec on each live-edge world of `graph` in `worlds`,
    yielding one final state per world as it is asked for; TSN variants take
    t_sn from the spec or the arg. The budget is checked and the stages are
    planned once, when the first state is asked for.

    Every kind is a list of stage sizes plus a wait mode: one diffusion step
    per stage, or (`_R`) until diffusion stops. `_B` adds buffering.
    """
    _check_budget(graph, n)
    sizes = _plan(spec, n, t_sn)
    buffered = spec.kind == "SQ_kPS_B"
    until_stop = spec.kind.endswith("_R")
    for live in worlds:
        state = DiffusionState(graph)
        if buffered:
            spent = _run_buffered(ranking, state, sizes, n, live)
        else:
            spent = _run_stages(ranking, state, sizes, until_stop, live)
        state.forfeited = n - spent
        yield state


def run_strategy(graph: Graph, ranking: Ranking, spec: StrategySpec, n: int,
                 pp: float, rng, t_sn: Optional[int] = None) -> DiffusionState:
    """`run_on_worlds` on one world sampled from `rng`."""
    return next(run_on_worlds(graph, ranking, spec, n,
                              [sample_world(graph, pp, rng)], t_sn))
