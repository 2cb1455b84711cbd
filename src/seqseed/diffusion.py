"""Independent Cascade engine on live-edge worlds, with count-array traces.

Under IC each newly activated node gets exactly one chance, during the step
after its activation, to activate each then-inactive neighbor with
probability pp. Every directed edge is therefore tried at most once per run,
so one coin per directed edge, drawn before the run, fixes the whole run
(Kempe, Kleinberg & Tardos 2003). `sample_world` draws those coins as a live
out-adjacency, and the step loop walks live edges without drawing, so one
world can be shared by every strategy run on it (common random numbers). On
a fixed world the final active set is the live-edge closure of the injected
seeds.

One kernel, `advance`, takes every step: it injects a batch of seeds at the
current step, then takes one step, or steps until a step activates nothing.
`activate_seeds` and `run_until_stop` are entry points over it. The run
state is the run's trace alone, and it holds counts per step, not node
lists: the active count at the end of each step and the seeds injected at
each step, from step 0 to the last, with the seeds in injection order and
the active flags. Coverage and duration are read off the counts. The set a
step activates does not depend on the order of the frontier, so the
frontier is never sorted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .graphs import Graph, ParameterError, skip_sample


@dataclass(slots=True, init=False)
class DiffusionState:
    """The state of one run, which is its trace and nothing else:
    `cumulative[s]` is the active count at the end of step s and
    `injected[s]` the seeds injected at step s, for steps 0 to the current
    one (step 0's from the start), and `seeds` lists the seeds in injection
    order. States compare equal when all their fields do."""
    flags: bytearray
    frontier: List[int]
    cumulative: List[int]
    injected: List[int]
    seeds: List[int]

    def __init__(self, graph: Graph):
        self.flags = bytearray(graph.node_count)
        self.frontier = []
        self.cumulative = [0]
        self.injected = [0]
        self.seeds = []

    def copy(self) -> "DiffusionState":
        """A state that goes on apart from this one. It shares the frontier
        list, which `advance` replaces but never changes."""
        other = DiffusionState.__new__(DiffusionState)
        other.flags = self.flags[:]
        other.frontier = self.frontier
        other.cumulative = self.cumulative[:]
        other.injected = self.injected[:]
        other.seeds = self.seeds[:]
        return other

    @property
    def coverage(self) -> int:
        """The active count, which is the current step's count."""
        return self.cumulative[-1]

    @property
    def duration(self) -> int:
        """The last step that activated a node, 0 if none did. Only the last
        step can be quiet: a quiet step empties the frontier, and `advance`
        takes no step from an empty one until seeds, injected at that same
        step, make it active."""
        cum = self.cumulative
        last = len(cum) - 1
        return last - 1 if last and cum[last] == cum[last - 1] else last

    @property
    def last_activity(self) -> int:
        """`duration` under its former name, for callers not yet moved."""
        return self.duration


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


UNTIL_STOP = -1  # `advance` steps: until a step activates nothing


def advance(state: DiffusionState, live: World, steps: int,
            seeds: List[int] = ()) -> DiffusionState:
    """The step loop. Inject `seeds` at the current step, then take up to
    `steps` steps (UNTIL_STOP: until a step activates nothing), in each of
    which the frontier activates its inactive live out-neighbors. An empty
    frontier takes no step and leaves the step count as it is.

    Seeds attempt their neighbors in the step after their injection; the
    state may keep the `seeds` list as its frontier. A batch holding a seed
    that is already active, or a node twice, is rejected and the state left
    as it was.
    """
    flags = state.flags
    frontier = state.frontier
    cumulative = state.cumulative
    injected = state.injected
    count = cumulative[-1]
    if seeds:
        for i, s in enumerate(seeds):
            if flags[s]:
                for t in seeds[:i]:  # only this batch set them
                    flags[t] = 0
                if s in seeds[:i]:
                    raise ValueError(f"seeds repeat a node: {seeds}")
                raise ValueError(f"seed {s} is already active")
            flags[s] = 1
        count += len(seeds)
        state.seeds.extend(seeds)
        frontier = frontier + seeds if frontier else seeds
        cumulative[-1] = count
        injected[-1] += len(seeds)
    while frontier and steps:
        steps -= 1
        newly: List[int] = []
        for u in frontier:
            for v in live[u]:
                if not flags[v]:
                    flags[v] = 1
                    newly.append(v)
        count += len(newly)
        cumulative.append(count)
        injected.append(0)
        frontier = newly
    state.frontier = frontier
    return state


def activate_seeds(state: DiffusionState, seeds: Sequence[int]) -> DiffusionState:
    """Inject seeds at the current step; they attempt neighbors next step.
    It stays only for `bench/layers.py`, until ROADMAP item 2 removes it."""
    return advance(state, (), 0, list(seeds))


def run_until_stop(state: DiffusionState, graph: Graph, pp: float, rng) -> DiffusionState:
    """Step until a step activates nothing, on a world sampled from `rng`;
    terminates within N steps. It stays only for `bench/layers.py`, until
    ROADMAP item 2 removes it."""
    return advance(state, sample_world(graph, pp, rng), UNTIL_STOP)

