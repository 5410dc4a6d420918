"""The indexed commodity extraction and counter-driven greedy scheduler
against the plain quadratic reference versions in ``oracles`` (greedy's
skipped searches and chain lengths included), and the schedulers' edge-id
load counts against a renumbering of the edges, which no output may
depend on."""

import json
import random

import pytest

from distqc.bench import gen_random_cz_circuit
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
from distqc.flow import FlowSchedule, check_feasible, compile_circuit_flow, iterative_greedy
from distqc.netmodel import QuotientGraph, edge_key, gen_hex, gen_rect_high, gen_rect_low
from distqc.steiner import compile_circuit_steiner, cz_to_dense_fanin
from oracles import (
    commodity_set,
    random_connected_graph,
    random_order_relation,
    reference_extract_commodities,
    reference_iterative_greedy,
    reference_order_relation,
    reference_tails,
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

    def counting_bfs(self, s, usable=None, stop=None, limit=None):
        if usable is not None:
            searches.append(s)
        return bfs(self, s, usable, stop, limit)

    monkeypatch.setattr(QuotientGraph, "bfs", counting_bfs)
    sched = iterative_greedy(graph, cs)
    assert sched.steps == (2, 1, 1, 3)
    # step 1: one failed search; step 2: 0->2 routes with no search, the
    # second 0->2 fails; step 3: it routes with no search.  Without the
    # component rule the second 0->2 of step 1 would search too: 3.  The
    # detour limit (4 links) cuts nothing off here, since node 0's one link
    # is in use: both failures exhaust {0}, so the counts are those of the
    # unbounded search.
    assert len(searches) == 2
    searches.clear()
    # the reference searches for every ready commodity in every pass, a
    # last pass finding nothing new: 4 + 2 in step 1, 2 + 1 in step 2, 1
    assert reference_iterative_greedy(graph, cs) == sched
    assert len(searches) == 10


def test_search_cut_at_the_limit_caches_nothing():
    # capacity 1 everywhere.  1->2 takes link (1, 2) first; 0->2 then has
    # only the detour 0-3-4-5-6-2, five links against its limit of 2 + 2,
    # so its search is cut off at nodes 4 and 7 and it waits for step 2.
    # 0->9 (three hops, so taken last) routes in step 1: the cut search
    # reached 0, 1, 3, 4, 7 and 8 but not 9, and caching that as 0's
    # component would defer it too
    graph = QuotientGraph(10, tuple((u, v, 1) for u, v in (
        (0, 1), (0, 3), (0, 8), (1, 2), (2, 6), (3, 4), (4, 5), (5, 6), (7, 8), (7, 9))))
    comms = tuple(Commodity(s, t, 0, (1,), cz(0, 1)) for s, t in ((1, 2), (0, 2), (0, 9)))
    cs = commodity_set(comms, (), ())
    dist, parent = graph.bfs(0, [1, 1, 1, 0, 1, 1, 1, 1, 1, 1], 2, 4)
    assert sorted(dist) == [0, 1, 3, 4, 7, 8] and sorted(parent) == [0, 1, 3, 8]
    sched = iterative_greedy(graph, cs)
    assert sched.steps == (1, 2, 1)
    assert sched.paths == ((1, 2), (0, 1, 2), (0, 8, 7, 9))
    assert reference_iterative_greedy(graph, cs) == sched


@pytest.mark.parametrize("make", [gen_rect_high, gen_hex], ids=["rect-high", "hex"])
@pytest.mark.parametrize("cx_share", [0.0, 0.5])
def test_congested_steps_match_reference(monkeypatch, make, cx_share):
    # links of 1-3 capacity and enough commodities per step that searches
    # are cut off at the limit and the residual's components are labelled
    # afresh
    rng = random.Random(f"{make.__name__}:{cx_share}")
    graph = with_random_capacities(rng, make(4))
    circuit = gen_random_cz_circuit(graph.node_count, 240, rng)
    if cx_share:
        rng = random.Random(cx_share)
        circuit = Circuit.from_layers(circuit.num_qubits, [
            [cx(*g.qubits) if rng.random() < cx_share else g for g in layer] for layer in circuit.layers
        ])
    cs = extract_commodities(circuit, Placement.identity(graph.node_count))
    labellings = []
    components = QuotientGraph.components

    def counting_components(self, usable):
        labellings.append(sum(usable))
        return components(self, usable)

    monkeypatch.setattr(QuotientGraph, "components", counting_components)
    sched = iterative_greedy(graph, cs)
    assert labellings and check_feasible(sched, graph, cs) is None
    assert sched == reference_iterative_greedy(graph, cs)


def brute_tails(cs: CommoditySet) -> list[int]:
    """The most strict pairs on any chain of prec from each commodity, by
    walking every chain."""
    best = [0] * cs.k
    chains = [(j, j, 0) for j in range(cs.k)]  # (start, last, strict pairs so far)
    while chains:
        start, last, strict = chains.pop()
        best[start] = max(best[start], strict)
        chains += [(start, i, strict + (frozenset({last, i}) not in cs.qpar))
                   for j, i in cs.prec if j == last]
    return best


def test_tails_are_the_longest_strict_chains():
    rng = random.Random(11)
    for _ in range(60):
        graph = random_connected_graph(rng, rng.randint(3, 6), max_cap=2)
        cs = commodity_set(*random_order_relation(rng, graph, rng.randint(1, 9), qpar_prob=rng.random()))
        assert list(cs.tails) == brute_tails(cs) == reference_tails(cs)
    # a chain of quasi-parallel pairs only may share one step: tail 0
    comms = tuple(Commodity(0, 1, 0, (1,), cz(0, 1)) for _ in range(4))
    chain = [(0, 1), (1, 2), (2, 3)]
    qpar_only = commodity_set(comms, chain, [frozenset(p) for p in chain])
    assert qpar_only.tails == (0, 0, 0, 0) and brute_tails(qpar_only) == [0, 0, 0, 0]
    mixed = commodity_set(comms, chain + [(0, 3)], [frozenset(p) for p in chain[1:]])
    assert mixed.tails == (1, 0, 0, 0) and brute_tails(mixed) == [1, 0, 0, 0]


def edge_orders(q: QuotientGraph, seed: int) -> list[QuotientGraph]:
    """`q` with its edges listed sorted, reversed and shuffled (seeded):
    the same graph under three numberings of its edge ids."""
    shuffled = list(q.edges)
    random.Random(seed).shuffle(shuffled)
    return [QuotientGraph(q.node_count, tuple(order)) for order in (sorted(q.edges), q.edges[::-1], shuffled)]


def output_bytes(ext, sched) -> str:
    return json.dumps([ext.to_json(), sched.to_json()], sort_keys=True)


@pytest.mark.parametrize("make", [gen_rect_high, gen_hex], ids=["rect-high", "hex"])
def test_edge_order_never_leaks_into_outputs(make):
    rng = random.Random(27)
    lattice = with_random_capacities(rng, make(3))
    graphs = edge_orders(lattice, seed=5)
    circuit = gen_random_cz_circuit(lattice.node_count, 80, rng)
    placement = Placement.identity(lattice.node_count)
    dense = cz_to_dense_fanin(circuit).to_circuit()
    outputs = []
    for graph in graphs:
        ext, sched, cs = compile_circuit_flow(circuit, placement, graph, "greedy")
        outputs.append([
            output_bytes(ext, sched),
            output_bytes(*compile_circuit_steiner(circuit, placement, graph)),
            output_bytes(*compile_circuit_steiner(dense, placement, graph)),
        ])
    assert outputs[0] == outputs[1] == outputs[2]

    # two steps' worth of commodities squeezed onto alternate steps: the
    # overload named is the least (u, v), then step, whatever the edge ids
    squeezed = FlowSchedule(2, tuple(1 + i % 2 for i in range(cs.k)), sched.paths)
    load: dict = {}
    for tau, path in zip(squeezed.steps, squeezed.paths):
        for u, v in zip(path, path[1:]):
            load[edge_key(u, v), tau] = load.get((edge_key(u, v), tau), 0) + 1
    (u, v), tau = min(key for key, used in load.items() if used > lattice.cap(*key[0]))
    for graph in graphs:
        bad = check_feasible(squeezed, graph, cs)
        assert (bad.constraint, bad.edge, bad.step) == ("c3", (u, v), tau)
        assert bad.message == f"{load[(u, v), tau]} > capacity {lattice.cap(u, v)}"


def test_edge_order_never_leaks_into_exact_outputs():
    rng = random.Random(9)
    lattice = with_random_capacities(rng, gen_rect_low(2))
    circuit = gen_random_cz_circuit(lattice.node_count, 8, rng)
    placement = Placement.identity(lattice.node_count)
    outputs = set()
    for graph in edge_orders(lattice, seed=3):
        ext, sched, cs = compile_circuit_flow(circuit, placement, graph, "exact")
        outputs.add(output_bytes(ext, sched))
    assert 1 <= cs.k <= 10 and len(outputs) == 1
