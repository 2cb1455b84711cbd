import math
from bisect import bisect_left
from fractions import Fraction

import pytest

from seqseed.graphs import Graph, ParameterError, load_edge_list


class ScriptExhausted(Exception):
    pass


class ScriptRng:
    """Replays a fixed success/failure script as uniform draws.

    True -> 0.0 (always below pp for pp > 0), False -> 1.0 (never below pp).
    Raises ScriptExhausted when the process asks for more draws than scripted.
    """

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def random(self):
        if self.pos >= len(self.script):
            raise ScriptExhausted()
        v = self.script[self.pos]
        self.pos += 1
        return 0.0 if v else 1.0


class LazyWorld:
    """A live-edge world whose coins are drawn per node on first use.

    `world[u]` draws one `rng.random() < pp` per neighbor of u, ascending,
    the first time it is read, so a run draws only the coins of the nodes it
    activates. It shares no code with `sample_world`'s skip sampler.
    """

    def __init__(self, graph, pp, rng):
        self.adjacency = graph.adjacency
        self.pp = pp
        self.rng = rng
        self.drawn = {}

    def __getitem__(self, u):
        if u not in self.drawn:
            self.drawn[u] = [v for v in self.adjacency[u]
                             if self.rng.random() < self.pp]
        return self.drawn[u]


def exact_process_expectation(run, graph, pp):
    """Exact expected coverage of a process on the IC worlds of `graph`, by
    branching on every coin it draws. `run(world)` must return the final
    coverage; it gets a LazyWorld fed by a scripted rng. pp should be a
    Fraction.
    """
    pp = Fraction(pp)

    def rec(script):
        try:
            return Fraction(run(LazyWorld(graph, pp, ScriptRng(script))))
        except ScriptExhausted:
            return (pp * rec(script + [True])
                    + (1 - pp) * rec(script + [False]))

    return rec([])



def expected_coverage_exact(graph, seeds, pp):
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


def components(graph):
    """Connected components as sorted node lists, ordered by smallest member."""
    seen = bytearray(graph.node_count)
    out = []
    adj = graph.adjacency
    for start in range(graph.node_count):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    comp.append(v)
                    stack.append(v)
        comp.sort()
        out.append(comp)
    return out


def first_step_reaching(state, coverage):
    """The first step whose cumulative coverage in `state` reaches
    `coverage`, or None."""
    # cumulative never decreases, so bisection finds it
    step = bisect_left(state.cumulative, coverage)
    return step if step < len(state.cumulative) else None


def cumulative_at(state, step):
    """Cumulative coverage in `state` at the end of `step` (0 before step
    0)."""
    cum = state.cumulative
    return cum[min(step, len(cum) - 1)] if step >= 0 else 0


def configs(spec):
    """The (graph name, pp, sp, ranking method) of every configuration of a
    grid, in config order."""
    return [(name, pp, sp, method)
            for name, _ in spec.graphs
            for pp in spec.pp_values
            for sp in spec.sp_values
            for method in spec.rankings]


def recast(graph, cls):
    """`graph` rebuilt as an instance of the Graph subclass `cls`. A grid's
    pool workers unpickle its graphs under every start method, whereas a
    patch in the parent reaches them only when they fork, so a test that
    must fail or count work in a worker does it through such a graph."""
    return cls(graph.node_count, graph.edges())


class _Unreadable(list):
    def __getitem__(self, i):
        raise RuntimeError("injected failure")


class LiveEdgeFails(Graph):
    """A graph whose world sampling raises "injected failure" once an edge
    is drawn live: `sample_world` reads an arc's head only then, so every
    block fails at pp > 0 and none at pp = 0."""

    @property
    def arcs(self):
        tails, heads = super().arcs
        return tails, _Unreadable(heads)


@pytest.fixture
def path3():
    return load_edge_list("0 1\n1 2")


@pytest.fixture
def star5():
    # center 0 with 4 leaves
    return load_edge_list("0 1\n0 2\n0 3\n0 4")


def per_config_runs(graph, ranking, spec, n, worlds, t_sn=None):
    """Reference: each world's final state of `spec` at the one budget n
    and the seeds it spent, by its own count, planned as that budget's own
    stages and run stage by stage, the way the grid ran every configuration
    before budgets became checkpoints of one run. It shares only `advance`
    and the plan checks with the program."""
    from seqseed.diffusion import UNTIL_STOP, DiffusionState, advance

    if spec.kind.startswith("SQ_kPS"):
        assert 1 <= spec.k <= n
        sizes = [spec.k] * (n // spec.k) + ([n % spec.k] if n % spec.k else [])
    elif spec.kind == "SN":
        sizes = [n]
    else:
        stages = min(n, t_sn)
        base, rem = divmod(n, stages)
        sizes = [base + 1] * rem + [base] * (stages - rem)
    order = ranking.order

    def run_stages(state, sizes, until_stop, live):
        cursor = spent = 0
        for i, size in enumerate(sizes):
            batch = []
            want = size
            while want and cursor < len(order):
                v = order[cursor]
                cursor += 1
                if not state.flags[v]:
                    batch.append(v)
                    want -= 1
            spent += size - want
            advance(state, live, UNTIL_STOP if until_stop or want
                    or i == len(sizes) - 1 else 1, batch)
            if want:
                break
        return spent

    for live in worlds:
        state = DiffusionState(graph)
        if spec.kind == "SQ_kPS_B":
            schedule = order[:n]
            start = spent = 0
            for size in sizes:
                batch = [v for v in schedule[start:start + size]
                         if not state.flags[v]]
                start += size
                spent += len(batch)
                advance(state, live, 1 if start < n else UNTIL_STOP, batch)
            spent += run_stages(state, [n - spent], True, live)
        else:
            spent = run_stages(state, sizes, spec.kind.endswith("_R"), live)
        yield state, spent


def per_config_states(graph, ranking, spec, n, worlds, t_sn=None):
    """The final states of `per_config_runs`."""
    return [state for state, _ in
            per_config_runs(graph, ranking, spec, n, worlds, t_sn)]


def per_config_records(spec):
    """Reference records of a grid: every configuration run on its own, in
    config order, on the grid's worlds and its one ranking per (graph,
    method), each strategy through `per_config_runs`."""
    from seqseed.experiment import RunRecord, config_id, derive_rng, sample_worlds
    from seqseed.ranking import rank
    from seqseed.strategies import StrategySpec, seed_count

    graphs = dict(spec.graphs)
    records = []
    for name, pp, sp, method in configs(spec):
        g = graphs[name]
        ranking = rank(g, method, derive_rng(spec.master_seed, name,
                                             method.value, "ranking"))
        worlds = sample_worlds(spec, name, g, pp)
        n = seed_count(g, sp)
        sn = list(per_config_runs(g, ranking, StrategySpec("SN"), n, worlds))
        mean_c = sum(t.coverage for t, _ in sn) / len(sn)
        t_sn = max(1, math.floor(sum(t.duration for t, _ in sn) / len(sn)
                                 + 0.5))
        runs = [("SN", sn)] + [
            (s.label, per_config_runs(g, ranking, s, n, worlds, t_sn))
            for s in spec.strategies if s.kind != "SN"]
        cid = config_id(name, pp, sp, method)
        records += [RunRecord(cid, name, pp, sp, method.value, label, r,
                              t.coverage, t.duration,
                              first_step_reaching(t, mean_c),
                              cumulative_at(t, t_sn), n - spent)
                    for label, states in runs
                    for r, (t, spent) in enumerate(states)]
    return records
