"""Independent Cascade engine on live-edge worlds, with stepwise traces.

Under IC each newly activated node gets exactly one chance, during the step
after its activation, to activate each then-inactive neighbor with
probability pp. Every directed edge is therefore tried at most once per run,
so one coin per directed edge, drawn before the run, fixes the whole run
(Kempe, Kleinberg & Tardos 2003). `sample_world` draws those coins as a live
out-adjacency, and the step functions walk live edges without drawing, so
one world can be shared by every strategy run on it (common random
numbers). On a fixed world the final active set is the live-edge closure of
the injected seeds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .graphs import Graph, ParameterError, skip_sample


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
                 "entries", "forfeited")

    def __init__(self, graph: Graph, record_trace: bool = True):
        self.flags = bytearray(graph.node_count)
        self.active_count = 0
        self.frontier: List[int] = []
        self.step = 0
        self.last_activity = 0
        self.entries: Optional[List[TraceEntry]] = [] if record_trace else None
        self.forfeited = 0

    def trace(self) -> DiffusionTrace:
        return DiffusionTrace(self.entries if self.entries is not None else [],
                              self.active_count, self.last_activity,
                              self.forfeited)


# A live-edge world: live[u] lists, ascending, the neighbors v whose directed
# edge u -> v succeeded. Any sequence indexable by node works.
World = Sequence[Sequence[int]]
_NO_ARCS = ()  # shared by every node with no live out-edge


def sample_world(graph: Graph, pp: float, rng) -> List[Sequence[int]]:
    """Draw one coin per directed edge of `graph`, live with probability pp,
    by geometric skipping over `graph.arcs`: O(nodes + live edges) time and
    one `rng.random()` per live edge plus one."""
    if not 0.0 <= pp <= 1.0:
        raise ParameterError("pp must be in [0, 1]")
    tails, heads = graph.arcs
    live: List[Sequence[int]] = [_NO_ARCS] * graph.node_count
    last = -1
    for i in skip_sample(len(heads), pp, rng):
        u = tails[i]
        if u != last:  # arcs ascend by tail, so each list is built in one run
            last = u
            out = live[u] = []
        out.append(heads[i])
    return live


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
    state.frontier = state.frontier + list(seeds)
    state.last_activity = state.step
    entries = state.entries
    if entries is not None:
        if entries and entries[-1].step == state.step:
            entries[-1].injected.extend(seeds)
            entries[-1].cumulative = state.active_count
        else:
            entries.append(TraceEntry(state.step, list(seeds), [], state.active_count))
    return state


def ic_step(state: DiffusionState, live: World) -> List[int]:
    """One diffusion step: the frontier activates its inactive live
    out-neighbors. Does nothing, not even advance the step, when the
    frontier is empty."""
    frontier = state.frontier
    if not frontier:
        return []
    flags = state.flags
    newly: List[int] = []
    for u in frontier:
        for v in live[u]:
            if not flags[v]:
                flags[v] = 1
                newly.append(v)
    newly.sort()
    state.active_count += len(newly)
    state.step += 1
    state.frontier = newly
    if newly:
        state.last_activity = state.step
    if state.entries is not None:
        state.entries.append(TraceEntry(state.step, [], newly, state.active_count))
    return newly


def spread(state: DiffusionState, live: World) -> DiffusionState:
    """Step until a step activates nothing; terminates within N steps."""
    while state.frontier:
        ic_step(state, live)
    return state


def run_until_stop(state: DiffusionState, graph: Graph, pp: float, rng) -> DiffusionState:
    """Spread on a world sampled from `rng`."""
    return spread(state, sample_world(graph, pp, rng))


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
