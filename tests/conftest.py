from fractions import Fraction

import pytest

from seqseed.graphs import Graph, load_edge_list


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


@pytest.fixture
def path3():
    return load_edge_list("0 1\n1 2")


@pytest.fixture
def star5():
    # center 0 with 4 leaves
    return load_edge_list("0 1\n0 2\n0 3\n0 4")
