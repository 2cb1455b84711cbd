"""Single-stage and sequential seeding strategies over the IC engine.

All strategies spend at most n seeds, always on the highest-ranked nodes that
are still inactive at the moment of injection. Budget that cannot be placed
because every node is already active is forfeited: the budget less the
seeds on the run's state. A run is a traversal of one live-edge world;
`run_on_worlds` checks the budgets and plans the stages once, when it is
called, and returns each budget's final states, one per world. On the same
world every sequential kind ends with an active set containing SN's, since
each of SN's top-n nodes is seeded by it or active when its cursor passes.

Every kind runs in one stage loop, the per-world loop of `run_on_worlds`,
which ends each budget at a checkpoint: after some shared stages, spend what
the budget has left and wait until diffusion stops. SN has no shared stages,
and the SQ_kPS kinds cut every budget into stages of k, so one run at the
largest budget passes every smaller budget's checkpoint. TSN stage sizes
depend on the budget, so those kinds run one budget at a time. Buffering
(`_B`) is the one extra rule: a stage injects the inactive nodes among its
positions of the order, and the checkpoint spends the budget they banked.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diffusion import UNTIL_STOP, DiffusionState, World, advance, sample_world
from .graphs import Graph, ParameterError
from .ranking import Ranking

STRATEGY_KINDS = ("SN", "SQ_kPS", "SQ_kPS_R", "SQ_kPS_B", "SQ_TSN", "SQ_TSN_R")


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ParameterError(f"unknown strategy kind: {self.kind!r}")
        if self.k is not None and type(self.k) is not int:
            raise ParameterError(f"k must be an int, got {self.k!r}")
        if self.kind.startswith("SQ_kPS"):
            if self.k is None or self.k < 1:
                raise ParameterError(f"{self.kind} requires k >= 1")
        elif self.k is not None:
            raise ParameterError(f"{self.kind} takes no k parameter")

    @property
    def shares_budgets(self) -> bool:
        """Every kind but TSN has stage sizes that do not depend on the
        budget, so a run at a smaller budget follows a larger one's run
        through its last full stage: one run serves every budget."""
        return not self.kind.startswith("SQ_TSN")

    @property
    def label(self) -> str:
        if self.kind.startswith("SQ_kPS"):
            return f"SQ_{self.k}PS" + self.kind[6:]
        return self.kind

    @classmethod
    def parse(cls, label: str) -> "StrategySpec":
        """The spec a label names, the inverse of `label`: SN, SQ_TSN,
        SQ_TSN_R, or SQ_<k>PS[_R|_B] (kind SQ_kPS[_R|_B] with that k, written
        without leading zeros)."""
        label = label.strip()
        m = re.fullmatch(r"SQ_([1-9]\d*)PS(_R|_B)?", label)
        if m:
            return cls("SQ_kPS" + (m[2] or ""), k=int(m[1]))
        return cls(label)


def round_half_up(x: float) -> int:
    """x rounded to the nearest int, halves up (not to even, as `round`)."""
    return math.floor(x + 0.5)


def seed_count(graph: Graph, sp: float) -> int:
    """Seed budget n = max(1, round(sp * N)) for a seeding percentage sp."""
    if not 0.0 < sp <= 1.0:
        raise ParameterError("sp must be in (0, 1]")
    return max(1, round_half_up(sp * graph.node_count))


def _plan(spec: StrategySpec, budgets: List[int],
          t_sn: Optional[int]) -> Tuple[List[int], List[Tuple[int, int]]]:
    """The shared stages a run takes for every budget in `budgets`
    (ascending), and where each budget n leaves them: `(q, n)` says that
    after q shared stages, n's run spends what its budget has left and waits
    until diffusion stops. Only TSN kinds, whose stage sizes depend on n,
    take one budget at a time."""
    if spec.kind == "SN":
        return [], [(0, n) for n in budgets]
    if spec.shares_budgets:
        k = spec.k
        for n in budgets:
            if not 1 <= k <= n:
                raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
        # n's run takes its n // k full stages of k seeds (or positions, for
        # _B), then spends the rest, if any, at its checkpoint and waits until
        # diffusion stops. `advance` steps one step at a time, so a full last
        # stage's one-step wait followed by that wait leaves the same state
        return [k] * (budgets[-1] // k), [(n // k, n) for n in budgets]
    if len(budgets) != 1:
        raise ParameterError(f"{spec.kind} runs one budget at a time, "
                             f"got {budgets}")
    (n,) = budgets
    if t_sn is None:
        raise ParameterError(f"{spec.kind} needs a reference t_sn")
    if t_sn < 1:
        raise ParameterError("t_sn must be >= 1")
    # fewer seeds than stages: one seed per stage, as SQ_1PS; remainder
    # seeds go to the earliest stages
    stages = min(n, t_sn)
    base, rem = divmod(n, stages)
    sizes = [base + 1] * rem + [base] * (stages - rem)
    return sizes[:-1], [(stages - 1, n)]


def _take(order: List[int], flags: bytearray, cursor: int,
          size: int) -> Tuple[List[int], int]:
    """The best `size` inactive nodes from `cursor` on in `order`, fewer if
    it runs out, and the cursor after them."""
    batch: List[int] = []
    nodes = len(order)
    while size and cursor < nodes:
        v = order[cursor]
        cursor += 1
        if not flags[v]:
            batch.append(v)
            size -= 1
    return batch, cursor


def run_on_worlds(graph: Graph, ranking: Ranking, spec: StrategySpec,
                  budgets: Sequence[int], worlds: Iterable[World],
                  t_sn: Optional[int] = None
                  ) -> Dict[int, List[DiffusionState]]:
    """Run a StrategySpec on each live-edge world of `graph` in `worlds` at
    each seed budget in `budgets`, and return, for each budget in ascending
    order, its final states, one per world in world order. TSN kinds
    spread each budget over `t_sn` stages, the reference duration the grid
    derives from SN. The budgets are checked and the stages planned once,
    when it is called.

    Every kind is a list of stage sizes plus a wait mode: one diffusion step
    per stage, or (`_R`) until diffusion stops. `_B` adds buffering. Every
    kind but SQ_TSN and SQ_TSN_R takes any number of budgets and runs once
    per world, each budget a checkpoint of that run; TSN kinds take one.

    The stage loop injects each stage's batch, then waits one step or until
    diffusion stops. A batch is the best inactive nodes of the order or,
    buffered, the inactive nodes among the stage's positions of the order,
    banking the rest. At each budget's checkpoint `(q, n)` from `_plan`, it
    finishes n's run: when buffered, it injects the inactive nodes among its
    positions up to n and waits until diffusion stops; then it spends what
    the budget has left on the best inactive nodes and waits until diffusion
    stops. The last budget finishes on the world's state itself and any
    other on a copy, so the loop goes on from its checkpoint.
    """
    budgets = sorted(set(budgets))
    if not budgets:
        raise ParameterError("need at least one budget")
    for n in budgets:
        if not 1 <= n <= graph.node_count:
            raise ParameterError(f"need 1 <= n <= {graph.node_count}, got {n}")
    sizes, ends = _plan(spec, budgets, t_sn)
    order = ranking.order
    wait = UNTIL_STOP if spec.kind.endswith("_R") else 1
    buffered = spec.kind == "SQ_kPS_B"
    runs: Dict[int, List[DiffusionState]] = {n: [] for n in budgets}
    for live in worlds:
        state = DiffusionState(graph)
        flags = state.flags
        cursor = 0  # nodes before it are active forever, so it is monotone
        done = 0  # stages taken
        for stop, n in ends:
            for size in sizes[done:stop]:
                if buffered:
                    end = cursor + size
                    batch = [v for v in order[cursor:end] if not flags[v]]
                    cursor = end
                else:
                    batch, cursor = _take(order, flags, cursor, size)
                # after saturation, each stage would call advance for nothing
                if batch or state.frontier:
                    advance(state, live, wait, batch)
            done = stop
            final = state if n == budgets[-1] else state.copy()
            if buffered:
                advance(final, live, UNTIL_STOP,
                        [v for v in order[cursor:n] if not final.flags[v]])
            batch = _take(order, final.flags, cursor, n - len(final.seeds))[0]
            advance(final, live, UNTIL_STOP, batch)
            runs[n].append(final)
    return runs


def run_strategy(graph: Graph, ranking: Ranking, spec: StrategySpec, n: int,
                 pp: float, rng, t_sn: Optional[int] = None) -> DiffusionState:
    """`run_on_worlds` at budget n on one world sampled from `rng`. It stays
    only for `bench/layers.py`, until ROADMAP item 2 removes it."""
    return run_on_worlds(graph, ranking, spec, [n],
                         [sample_world(graph, pp, rng)], t_sn)[n][0]
