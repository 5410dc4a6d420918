"""The indexed commodity extraction and counter-driven greedy scheduler
against the plain quadratic reference versions in ``oracles``."""

import random

from distqc.circuit import (
    Circuit,
    Commodity,
    CommoditySet,
    Placement,
    cx,
    cz,
    extract_commodities,
    fanin,
    fanout,
)
from distqc.flow import check_feasible, iterative_greedy
from distqc.netmodel import QuotientGraph, gen_hex, gen_rect_low
from oracles import (
    commodity_set,
    random_connected_graph,
    random_order_relation,
    reference_extract_commodities,
    reference_iterative_greedy,
    reference_order_relation,
)


def random_layered_circuit(rng: random.Random, n: int, n_layers: int) -> Circuit:
    """Layers of cz/cx/fanin/fanout gates (fan gates in X or Z basis) on
    disjoint qubits."""
    layers = []
    for _ in range(n_layers):
        free = list(range(n))
        rng.shuffle(free)
        layer = []
        while len(free) >= 2 and rng.random() < 0.8:
            kind = rng.choice(("cz", "cx", "fanin", "fanout"))
            if kind in ("cz", "cx"):
                a, b = free.pop(), free.pop()
                layer.append(cz(a, b) if kind == "cz" else cx(a, b))
                continue
            width = rng.randint(1, min(3, len(free) - 1))
            hub, spokes = free.pop(), [free.pop() for _ in range(width)]
            make = fanin if kind == "fanin" else fanout
            layer.append(make(hub, spokes, basis=rng.choice("XZ")))
        layers.append(layer)
    return Circuit.from_layers(n, layers)


def with_random_capacities(rng: random.Random, q: QuotientGraph) -> QuotientGraph:
    return QuotientGraph(q.node_count, tuple((u, v, rng.randint(1, 3)) for u, v, _ in q.edges))


def assert_index_matches(cs: CommoditySet, prec: set, qpar: set) -> None:
    """The successor lists and the views derived from them against the
    relation as reference sets."""
    edges = [(j, i, False) for j, succs in enumerate(cs.strict_succs) for i in succs]
    edges += [(j, i, True) for j, succs in enumerate(cs.qpar_succs) for i in succs]
    assert sorted(edges) == sorted((j, i, frozenset({j, i}) in qpar) for j, i in prec)
    assert cs.preds == tuple(tuple(sorted(j for j, i2 in prec if i2 == i)) for i in range(cs.k))
    assert cs.prec == prec and cs.qpar == qpar


def mixed_predecessors(cs: CommoditySet) -> int:
    """Commodities with both a strict and a quasi-parallel predecessor."""
    strict = {i for succs in cs.strict_succs for i in succs}
    qpar = {i for succs in cs.qpar_succs for i in succs}
    return len(strict & qpar)


def test_circuits_match_reference():
    rng = random.Random(2023)
    cases = mixed = prec_pairs = 0
    for make in (gen_rect_low, gen_hex):
        for g in (2, 3):
            lattice = make(g)
            for _ in range(12):
                graph = with_random_capacities(rng, lattice)
                n = rng.randint(4, 14)
                circuit = random_layered_circuit(rng, n, rng.randint(3, 10))
                placement = Placement(tuple(rng.randrange(graph.node_count) for _ in range(n)))
                cs = extract_commodities(circuit, placement)
                comms, prec, qpar = reference_order_relation(circuit, placement)
                ref = commodity_set(comms, prec, qpar)
                assert cs == ref
                assert_index_matches(cs, prec, qpar)
                sched = iterative_greedy(graph, cs)
                assert sched == reference_iterative_greedy(graph, ref)
                assert check_feasible(sched, graph, cs) is None
                cases += 1
                mixed += mixed_predecessors(cs)
                prec_pairs += len(cs.prec)
    assert cases == 48 and prec_pairs > 0 and mixed > 0


def test_random_order_relations_match_reference():
    rng = random.Random(7)
    for _ in range(40):
        graph = random_connected_graph(rng, rng.randint(3, 8), max_cap=3)
        comms, prec, qpar = random_order_relation(rng, graph, rng.randint(1, 14), qpar_prob=0.5)
        cs = commodity_set(comms, prec, qpar)
        assert_index_matches(cs, prec, qpar)
        assert iterative_greedy(graph, cs) == reference_iterative_greedy(graph, cs)


def test_strict_and_quasi_parallel_predecessor():
    # cx(1, 2) follows cx(2, 3) through its target (strict) and cx(0, 1)
    # through its control (quasi-parallel); cx(0, 1) follows cz(0, 4) strictly
    circuit = Circuit.from_layers(6, [[cz(0, 4), cx(2, 3)], [cx(0, 1)], [cx(1, 2)]])
    placement = Placement.identity(6)
    cs = extract_commodities(circuit, placement)
    assert cs == reference_extract_commodities(circuit, placement)
    assert cs.preds == ((), (), (0,), (1, 2))
    assert cs.strict_succs == ((2,), (3,), (), ())
    assert cs.qpar_succs == ((), (), (3,), ())
    graph = gen_rect_low(2)
    sched = iterative_greedy(graph, cs)
    assert sched == reference_iterative_greedy(graph, cs)
    # the last commodity becomes ready in the second pass of step 2
    assert sched.steps == (1, 1, 2, 2)


def test_failed_searches_not_repeated(monkeypatch):
    # path 0-1-2 of capacity 1; step 1 routes 0->1 and 1->2 on their free
    # shortest paths with no search, after which 0->2 fails (component {0})
    # and the second 0->2 fails with no search
    graph = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
    comms = tuple(
        Commodity(s, t, 0, (1,), cz(0, 1)) for s, t in ((0, 2), (0, 1), (1, 2), (0, 2))
    )
    cs = commodity_set(comms, (), ())
    searches = []
    bfs = QuotientGraph.bfs

    def counting_bfs(self, s, usable=None, stop=None):
        if usable is not None:
            searches.append(s)
        return bfs(self, s, usable, stop)

    monkeypatch.setattr(QuotientGraph, "bfs", counting_bfs)
    sched = iterative_greedy(graph, cs)
    assert sched.steps == (2, 1, 1, 3)
    # step 1: one failed search; step 2: 0->2 routes with no search, the
    # second 0->2 fails; step 3: it routes with no search.  Without the
    # component rule the second 0->2 of step 1 would search too: 3.
    assert len(searches) == 2
    searches.clear()
    assert reference_iterative_greedy(graph, cs) == sched
    assert len(searches) == 10
