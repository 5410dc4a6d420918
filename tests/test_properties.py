"""Property tests: random connected capacitated graphs, layered cz/cx/fanin/
yhalf circuits and placements.  Both backends must give sound schedules,
outputs that verify against their source, and extended circuits that
round-trip through JSON unchanged."""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distqc.circuit import Circuit, Placement, cx, cz, fanin, yhalf
from distqc.flow import check_feasible, compile_circuit_flow
from distqc.stabsim import channel_equivalent
from distqc.steiner import compile_circuit_steiner
from distqc.telegate import ExtendedCircuit
from oracles import random_connected_graph

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def layers(draw, n):
    """One layer: cz, cx, fanin and yhalf gates on disjoint qubits, most of
    the register busy."""
    free = list(draw(st.permutations(range(n))))
    gates = []
    while free:
        kind = draw(st.sampled_from(["cz", "cx", "fanin", "yhalf", "idle"]))
        if kind in ("cz", "cx", "fanin") and len(free) < 2:
            kind = "yhalf"
        if kind == "idle":
            free.pop()
        elif kind == "yhalf":
            gates.append(yhalf(free.pop()))
        elif kind == "fanin":
            size = draw(st.integers(2, len(free)))
            hub, *spokes = free[:size]
            free = free[size:]
            gates.append(fanin(hub, spokes, basis=draw(st.sampled_from("XZ"))))
        else:
            a, b = free.pop(), free.pop()
            gates.append((cz if kind == "cz" else cx)(a, b))
    return gates


@st.composite
def instances(draw):
    """A graph with capacities 1 or 2, a layered circuit and a placement."""
    nodes = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_connected_graph(random.Random(seed), nodes, max_cap=draw(st.integers(1, 2)))
    n = draw(st.integers(2, 7))
    circ = Circuit.from_layers(n, draw(st.lists(layers(n), min_size=1, max_size=6)))
    procs = draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n))
    return graph, circ, Placement(tuple(procs))


def assert_verifies_and_round_trips(ext, circ):
    assert channel_equivalent(ext, circ, rng=random.Random(0))
    doc = json.loads(json.dumps(ext.to_json()))
    assert ExtendedCircuit.from_json(doc).to_json() == ext.to_json()


def tree_problems(sched, circ, placement, graph):
    """Each tree joins its gate's processors over graph edges, no round
    overloads an edge, and each layer's rounds follow the previous layer's."""
    remote = [
        (li, {placement.proc(q) for q in g.qubits})
        for li, layer in enumerate(circ.layers)
        for g in layer
        if g.kind != "yhalf" and len({placement.proc(q) for q in g.qubits}) > 1
    ]
    if len(remote) != len(sched.trees):
        return [f"{len(sched.trees)} trees for {len(remote)} remote gates"]
    problems, load = [], {}
    floor, last_layer, last_round = 0, -1, 0
    for (li, procs), tau, tree in zip(remote, sched.rounds, sched.trees):
        reached = {min(procs)}
        for _ in tree:
            reached |= {v for u, w in tree for v in (u, w) if {u, w} & reached}
        if not procs <= reached:
            problems.append(f"tree {sorted(tree)} misses processors {sorted(procs - reached)}")
        for u, v in tree:
            if not graph.has_edge(u, v):
                problems.append(f"tree uses missing edge ({u},{v})")
            load[(u, v, tau)] = load.get((u, v, tau), 0) + 1
        if li != last_layer:
            floor, last_layer = last_round, li
        if tau <= floor:
            problems.append(f"round {tau} of layer {li} does not follow round {floor}")
        last_round = max(last_round, tau)
    problems += [f"edge ({u},{v}) carries {k} trees in round {t}"
                 for (u, v, t), k in load.items() if k > graph.cap(u, v)]
    return problems


@PROPERTY_SETTINGS
@given(instances())
def test_flow_greedy_output_is_feasible_and_equivalent(instance):
    graph, circ, placement = instance
    ext, sched, cs = compile_circuit_flow(circ, placement, graph, "greedy")
    assert check_feasible(sched, graph, cs) is None
    assert_verifies_and_round_trips(ext, circ)


@PROPERTY_SETTINGS
@given(instances())
def test_steiner_output_has_sound_trees_and_is_equivalent(instance):
    graph, circ, placement = instance
    ext, sched = compile_circuit_steiner(circ, placement, graph)
    assert tree_problems(sched, circ, placement, graph) == []
    assert_verifies_and_round_trips(ext, circ)
