"""Single-stage and sequential seeding strategies over the IC engine.

All strategies spend at most n seeds, always on the highest-ranked nodes that
are still inactive at the moment of injection. Budget that cannot be placed
because every node is already active is forfeited and reported on the run's
state. A run is a traversal of one live-edge world; `run_on_worlds` checks
the budgets and plans the stages once, then runs them on each world of a
list. On the same world every sequential kind ends with an active set
containing SN's, since each of SN's top-n nodes is seeded by it or active
when its cursor passes.

Every kind runs in one stage loop, `_run_stages`, which ends each budget at
a checkpoint: after some shared stages, inject a last batch and wait until
diffusion stops. SQ_kPS and SQ_kPS_R cut every budget into stages of k
seeds, so one run at the largest budget passes every smaller budget's
checkpoint; the other kinds have one budget and one checkpoint per run.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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
    def shares_budgets(self) -> bool:
        """SQ_kPS and SQ_kPS_R cut every budget into stages of k seeds, so a
        run at a smaller budget follows a larger one's run up to its last
        stage: one run serves every budget."""
        return self.kind in ("SQ_kPS", "SQ_kPS_R")

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


def _plan(spec: StrategySpec, budgets: List[int],
          t_sn: Optional[int]) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """The stages a run takes for every budget in `budgets` (ascending), and
    where each budget n leaves them: `(q, rest, n)` says that after q shared
    stages, n's run injects `rest` more seeds and waits until diffusion
    stops. Only kinds that share their budgets take more than one."""
    if spec.kind.startswith("SQ_kPS"):
        for n in budgets:
            if not 1 <= spec.k <= n:
                raise ParameterError(f"need 1 <= k <= n, got k={spec.k}, n={n}")
    if spec.shares_budgets:
        # n's run takes n // k stages of k seeds, then its remainder
        k = spec.k
        return [k] * (budgets[-1] // k), [(n // k, n % k, n) for n in budgets]
    if len(budgets) != 1:
        raise ParameterError(f"{spec.kind} runs one budget at a time, "
                             f"got {budgets}")
    (n,) = budgets
    if spec.kind == "SN":
        sizes = [n]
    elif spec.kind == "SQ_kPS_B":
        sizes = [spec.k] * (n // spec.k) + ([n % spec.k] if n % spec.k else [])
    else:
        ref = spec.t_sn if spec.t_sn is not None else t_sn
        if ref is None:
            raise ParameterError(f"{spec.kind} needs a reference t_sn")
        if ref < 1:
            raise ParameterError("t_sn must be >= 1")
        # fewer seeds than stages: one seed per stage, as SQ_1PS; remainder
        # seeds go to the earliest stages
        stages = min(n, ref)
        base, rem = divmod(n, stages)
        sizes = [base + 1] * rem + [base] * (stages - rem)
    return sizes[:-1], [(len(sizes) - 1, sizes[-1], n)]


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


def _run_stages(ranking: Ranking, state: DiffusionState, sizes: List[int],
                until_stop: bool, live: World, ends: List[Tuple[int, int, int]]
                ) -> Iterator[Tuple[int, DiffusionState]]:
    """The stage loop. Inject each stage's best inactive nodes, then wait one
    step or until diffusion stops; one kernel call per stage. At each
    budget's checkpoint `(q, rest, n)` from `_plan`, finish n's run: inject
    `rest` more of the best inactive nodes, wait until diffusion stops, and
    yield `(n, final state)`.

    The last budget finishes on `state` itself, as does one whose run has
    stopped with nothing left to inject; any other finishes on a copy, so
    the loop goes on from its checkpoint. A short batch means every node is
    active: it waits until diffusion stops and ends every budget not yet
    ended. A budget forfeits what it could not place.
    """
    order = ranking.order
    flags = state.flags
    wait = UNTIL_STOP if until_stop else 1
    cursor = 0  # nodes before it are active forever, so it is monotone
    e = 0
    for q in range(len(sizes) + 1):
        while e < len(ends) and ends[e][0] == q:
            _, rest, n = ends[e]
            e += 1
            final = state
            if e < len(ends) and (rest or state.frontier):
                final = state.copy()
            batch, _ = _take(order, final.flags, cursor, rest)
            advance(final, live, UNTIL_STOP, batch)
            final.forfeited = n - len(final.seeds)
            yield n, final
        if e == len(ends):
            return
        batch, cursor = _take(order, flags, cursor, sizes[q])
        if len(batch) < sizes[q]:
            advance(state, live, UNTIL_STOP, batch)
            for _, _, n in ends[e:]:
                state.forfeited = n - len(state.seeds)
                yield n, state
            return
        advance(state, live, wait, batch)


def _run_buffered(ranking: Ranking, state: DiffusionState, sizes: List[int],
                  n: int, live: World) -> Iterator[Tuple[int, DiffusionState]]:
    """Walk the initial top-n list one stage per step, banking every entry
    that diffusion already activated; spend the bank on the best inactive
    nodes once diffusion stops."""
    schedule = ranking.order[:n]
    flags = state.flags
    start = 0
    for size in sizes:
        batch = [v for v in schedule[start:start + size] if not flags[v]]
        start += size
        advance(state, live, 1 if start < n else UNTIL_STOP, batch)
    return _run_stages(ranking, state, [], True, live,
                       [(0, n - len(state.seeds), n)])


def run_on_worlds(graph: Graph, ranking: Ranking, spec: StrategySpec,
                  budgets: Sequence[int], worlds: Iterable[World],
                  t_sn: Optional[int] = None
                  ) -> Iterator[Tuple[int, DiffusionState]]:
    """Run a StrategySpec on each live-edge world of `graph` in `worlds` at
    each seed budget in `budgets`, yielding per world, budgets ascending,
    `(n, final state)` as they are asked for; TSN variants take t_sn from
    the spec or the arg. The budgets are checked and the stages planned
    once, when the first state is asked for.

    Every kind is a list of stage sizes plus a wait mode: one diffusion step
    per stage, or (`_R`) until diffusion stops. `_B` adds buffering. SQ_kPS
    and SQ_kPS_R take any number of budgets and run once per world, at the
    largest, each smaller budget a checkpoint of that run; the other kinds
    take one. A yielded state may be the run's own, which goes on when the
    next is asked for: read it before asking.
    """
    budgets = sorted(set(budgets))
    for n in budgets:
        _check_budget(graph, n)
    sizes, ends = _plan(spec, budgets, t_sn)
    until_stop = spec.kind.endswith("_R")
    for live in worlds:
        state = DiffusionState(graph)
        if spec.kind == "SQ_kPS_B":
            (_, rest, n), = ends
            yield from _run_buffered(ranking, state, sizes + [rest], n, live)
        else:
            yield from _run_stages(ranking, state, sizes, until_stop, live,
                                   ends)


def run_strategy(graph: Graph, ranking: Ranking, spec: StrategySpec, n: int,
                 pp: float, rng, t_sn: Optional[int] = None) -> DiffusionState:
    """`run_on_worlds` at budget n on one world sampled from `rng`."""
    ((_, state),) = run_on_worlds(graph, ranking, spec, [n],
                                  [sample_world(graph, pp, rng)], t_sn)
    return state
