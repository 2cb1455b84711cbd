"""Independent Cascade engine with stepwise traces.

Conventions: each newly activated node gets exactly one chance, during the
step after its activation, to activate each then-inactive neighbor with
probability pp; simultaneous attempts on the same node are independent draws.
Attempts iterate (frontier node ascending, neighbor ascending) so a fixed rng
stream replays a run exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .graphs import Graph, ParameterError


@dataclass
class TraceEntry:
    step: int
    injected: List[int]
    activated: List[int]
    cumulative: int


@dataclass
class DiffusionTrace:
    entries: List[TraceEntry]
    coverage: int
    duration: int
    forfeited: int = 0

    def cumulative_at(self, step: int) -> int:
        """Cumulative coverage at the end of `step` (0 before any entry)."""
        cum = 0
        for e in self.entries:
            if e.step > step:
                break
            cum = e.cumulative
        return cum

    def first_step_reaching(self, coverage: float) -> Optional[int]:
        for e in self.entries:
            if e.cumulative >= coverage:
                return e.step
        return None


class DiffusionState:
    """Mutable per-run state; confined to a single run."""

    __slots__ = ("flags", "active_count", "frontier", "step", "last_activity",
                 "entries", "forfeited", "attempt_log")

    def __init__(self, graph: Graph, record_trace: bool = True):
        self.flags = bytearray(graph.node_count)
        self.active_count = 0
        self.frontier: List[int] = []
        self.step = 0
        self.last_activity = 0
        self.entries: Optional[List[TraceEntry]] = [] if record_trace else None
        self.forfeited = 0
        self.attempt_log: Optional[List[Tuple[int, int]]] = None

    def trace(self) -> DiffusionTrace:
        return DiffusionTrace(self.entries if self.entries is not None else [],
                              self.active_count, self.last_activity,
                              self.forfeited)


def activate_seeds(state: DiffusionState, seeds: Sequence[int]) -> DiffusionState:
    """Inject seeds at the current step; they attempt neighbors next step."""
    flags = state.flags
    for s in seeds:
        if flags[s]:
            raise ValueError(f"seed {s} is already active")
    if not seeds:
        return state
    for s in seeds:
        flags[s] = 1
    state.active_count += len(seeds)
    state.frontier = sorted(state.frontier + list(seeds))
    state.last_activity = state.step
    entries = state.entries
    if entries is not None:
        if entries and entries[-1].step == state.step:
            entries[-1].injected.extend(seeds)
            entries[-1].cumulative = state.active_count
        else:
            entries.append(TraceEntry(state.step, list(seeds), [], state.active_count))
    return state


def ic_step(state: DiffusionState, graph: Graph, pp: float, rng) -> List[int]:
    """One diffusion step: current frontier attempts its inactive neighbors."""
    if not 0.0 <= pp <= 1.0:
        raise ParameterError("pp must be in [0, 1]")
    frontier = state.frontier
    if not frontier:
        return []
    flags = state.flags
    adj = graph.adjacency
    rand = rng.random
    log = state.attempt_log
    newly: List[int] = []
    hit = set()
    for u in frontier:
        for v in adj[u]:
            if flags[v]:
                continue
            if log is not None:
                log.append((u, v))
            if rand() < pp and v not in hit:
                hit.add(v)
                newly.append(v)
    newly.sort()
    for v in newly:
        flags[v] = 1
    state.active_count += len(newly)
    state.step += 1
    state.frontier = newly
    if newly:
        state.last_activity = state.step
    if state.entries is not None:
        state.entries.append(TraceEntry(state.step, [], newly, state.active_count))
    return newly


def run_until_stop(state: DiffusionState, graph: Graph, pp: float, rng) -> DiffusionState:
    """Step until a step activates nothing; terminates within N steps."""
    while state.frontier:
        ic_step(state, graph, pp, rng)
    return state


def expected_coverage_exact(graph: Graph, seeds: Sequence[int], pp):
    """Exact expected final coverage of fixed-seed IC via live-edge enumeration.

    Sums |reachable(seeds, L)| * pp^|L| * (1-pp)^(E-|L|) over all edge subsets
    L. Works with Fraction pp for exact rational answers. Refuses E > 20.
    """
    edge_list = list(graph.edges())
    e = len(edge_list)
    if e > 20:
        raise ParameterError(f"too many edges for exact enumeration: {e} > 20")
    seeds = list(seeds)
    n = graph.node_count
    total = pp * 0  # inherits Fraction arithmetic when pp is a Fraction
    for mask in range(1 << e):
        # reachability over the live subgraph
        live = [[] for _ in range(n)]
        bits = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                u, v = edge_list[i]
                live[u].append(v)
                live[v].append(u)
                bits += 1
            m >>= 1
            i += 1
        seen = bytearray(n)
        stack = list(seeds)
        count = 0
        for s in seeds:
            if not seen[s]:
                seen[s] = 1
                count += 1
        while stack:
            u = stack.pop()
            for v in live[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        weight = (pp ** bits) * ((1 - pp) ** (e - bits))
        total = total + weight * count
    return total
