"""Property tests: random connected capacitated graphs, layered cz/cx/fanin/
yhalf circuits and placements.  Both backends must give sound schedules,
outputs that verify against their source, and extended circuits that
round-trip through JSON unchanged; listing a fan gate's spokes in another
order must not change a compile.  On a lattice with random residual
capacities, a residual search whose unfiltered shortest path is still free
must return that path, a search with a limit must return the unbounded
search's path exactly when it is short enough, and the component labels
must group the nodes as the searches do.  On the paper lattices with
random order relations, greedy's paths must stay within the detour limit
and its horizon must cover every strict chain.  The Steiner
approximation must return a tree whose leaves are terminals, the same tree
as the reference's plain Prim step on the paper lattices, and the CZ
densifier must keep the CZ multiset (in at most n - 1 layers when it has
no repeated pair).
`XorExpr`, and the frame normalizer's rewrite of its masks, must agree with
a plain frozenset model of an affine GF(2) expression.  Every gate kind,
every layered circuit, placement and connected capacitated graph must read
back from its JSON as an equal value."""

import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distqc.circuit import (
    BELL_PAULIS,
    FAN_KINDS,
    GATE_KINDS,
    Circuit,
    Gate,
    Placement,
    cx,
    cz,
    extract_commodities,
    fanin,
    fanout,
    gate_from_json,
    gate_to_json,
    yhalf,
)
from distqc.flow import DETOUR_SLACK, check_feasible, compile_circuit_flow, iterative_greedy
from distqc.netmodel import GENERATORS, trace_path
from distqc.pauli import MAX_BIT_ID, ONE, XorExpr
from distqc.pushing import FrameNormalizer
from distqc.stabsim import channel_equivalent
from distqc.steiner import SteinerInstance, compile_circuit_steiner, cz_to_dense_fanin, steiner_tree_approx
from distqc.telegate import ExtendedCircuit
from oracles import (
    commodity_set,
    random_connected_graph,
    random_order_relation,
    reference_cz_to_dense_fanin,
    reference_steiner_tree_approx,
)

PROPERTY_SETTINGS = settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])


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
    assert channel_equivalent(ext, circ)
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


@st.composite
def fan_instances(draw):
    """A graph, a placement, and a fanin or fanout in either basis with a
    spoke off its hub's processor, between two layers on the same register;
    returns the circuit built with the fan gate's spokes in one order and
    the circuit built with them reversed."""
    nodes = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_connected_graph(random.Random(seed), nodes, max_cap=draw(st.integers(1, 2)))
    n = draw(st.integers(3, 7))
    procs = draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n))
    hub, *spokes = draw(st.permutations(range(n)))[: draw(st.integers(3, n))]
    if all(procs[q] == procs[hub] for q in spokes):
        procs[spokes[0]] = (procs[hub] + 1) % nodes
    make = fanin if draw(st.sampled_from(sorted(FAN_KINDS))) == "fanin" else fanout
    basis = draw(st.sampled_from("XZ"))
    before, after = draw(layers(n)), draw(layers(n))
    circuits = [
        Circuit.from_layers(n, [before, [make(hub, order, basis=basis)], after])
        for order in (spokes, spokes[::-1])
    ]
    return graph, Placement(tuple(procs)), circuits


def compile_outputs(circ, placement, graph):
    """Everything a compile derives from a gate's processor split; the
    extended gates as a multiset, since a fanout's basis-exchange layer
    follows the listed operand order."""
    cs = extract_commodities(circ, placement)
    out = [[(c.source, c.target, c.target_qubits) for c in cs.commodities], cs.prec, cs.qpar]
    flow_ext, flow_sched, _ = compile_circuit_flow(circ, placement, graph, "greedy")
    tree_ext, tree_sched = compile_circuit_steiner(circ, placement, graph)
    for ext, sched in ((flow_ext, flow_sched), (tree_ext, tree_sched)):
        out += [sched.to_json(), ext.frame, Counter(ext.gates)]
    return out


@PROPERTY_SETTINGS
@given(fan_instances())
def test_spoke_order_does_not_change_a_compile(instance):
    graph, placement, (listed, reversed_) = instance
    assert compile_outputs(listed, placement, graph) == compile_outputs(reversed_, placement, graph)


# -- Residual search -----------------------------------------------------------------


@st.composite
def residual_queries(draw):
    """A small paper lattice, a residual map of 0-2 per link, two distinct
    nodes, and whether to free the links of their unfiltered shortest path."""
    graph = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))](draw(st.integers(1, 4)))
    residual = [draw(st.integers(0, 2)) for _ in graph.edges]
    s = draw(st.integers(0, graph.node_count - 1))
    t = draw(st.integers(0, graph.node_count - 1).filter(lambda t: t != s))
    if draw(st.booleans()):
        for e in graph.edge_ids(graph.shortest_path(s, t)):
            residual[e] = max(residual[e], 1)
    return graph, residual, s, t


@PROPERTY_SETTINGS
@given(residual_queries())
def test_free_shortest_path_is_the_residual_search_result(query):
    # iterative_greedy routes the free unfiltered path without a search
    graph, residual, s, t = query
    path = graph.shortest_path(s, t)
    found = graph.shortest_path(s, t, residual)
    if all(residual[e] >= 1 for e in graph.edge_ids(path)):
        assert found == path
    else:
        assert found is None or (len(found) >= len(path) and found != path)


@PROPERTY_SETTINGS
@given(residual_queries(), st.integers(0, 3))
def test_limited_search_finds_exactly_the_short_enough_path(query, slack):
    graph, residual, s, t = query
    limit = graph.hops(s, t) + slack
    found = graph.shortest_path(s, t, residual)
    dist, parent = graph.bfs(s, residual, t, limit)
    if found is not None and len(found) - 1 <= limit:
        assert trace_path(parent, t) == found
    else:
        assert t not in parent
    label = graph.components(residual)
    component = graph.bfs(s, residual)[0]
    assert [label[v] == label[s] for v in range(graph.node_count)] == [
        v in component for v in range(graph.node_count)
    ]
    if len(parent) == len(dist) and t not in parent:  # exhausted
        assert dist.keys() == component.keys()


@st.composite
def ordered_instances(draw):
    """A paper lattice at g 1-4 and random commodities with a random order
    relation on it."""
    graph = GENERATORS[draw(st.sampled_from(sorted(GENERATORS)))](draw(st.integers(1, 4)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 40))
    cs = commodity_set(*random_order_relation(rng, graph, k, qpar_prob=draw(st.sampled_from([0.0, 0.3, 1.0]))))
    return graph, cs


@PROPERTY_SETTINGS
@given(ordered_instances())
def test_greedy_detours_are_bounded_and_its_horizon_covers_every_chain(instance):
    graph, cs = instance
    sched = iterative_greedy(graph, cs)
    assert check_feasible(sched, graph, cs) is None
    for c, path in zip(cs.commodities, sched.paths):
        assert len(path) - 1 <= graph.hops(c.source, c.target) + DETOUR_SLACK
    assert sched.horizon >= 1 + max(cs.tails)


# -- Steiner approximation and CZ densifier ---------------------------------------


@PROPERTY_SETTINGS
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.data())
def test_steiner_approx_is_a_tree_with_terminal_leaves(nodes, seed, data):
    graph = random_connected_graph(random.Random(seed), nodes)
    terms = data.draw(st.frozensets(st.integers(0, nodes - 1), min_size=1))
    tree = steiner_tree_approx(SteinerInstance(graph, terms))
    degree = {t: 0 for t in terms}
    for u, v in tree:
        assert graph.has_edge(u, v)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert len(tree) == len(degree) - 1
    reached = {min(terms)}
    for _ in tree:
        reached |= {v for e in tree if set(e) & reached for v in e}
    assert reached == set(degree)  # connected, and spans the terminals
    assert all(v in terms for v, d in degree.items() if d == 1)


@settings(max_examples=150)
@given(st.sampled_from(["rect-low", "hex", "rect-high"]), st.integers(2, 6), st.data())
def test_keyed_prim_gives_the_reference_tree(kind, g, data):
    # lattices have many tied hop distances, so equal trees pin the
    # (hops, u, v) tie-break
    graph = GENERATORS[kind](g)
    n = graph.node_count
    terms = data.draw(st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(20, n)))
    inst = SteinerInstance(graph, terms)
    assert steiner_tree_approx(inst) == reference_steiner_tree_approx(inst)


CZ_PAIRS = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])),
    )
)


def one_cz_per_layer(n, pairs):
    return Circuit.from_layers(n, [[cz(a, b)] for a, b in pairs])


@PROPERTY_SETTINGS
@given(CZ_PAIRS)
def test_densifier_keeps_duplicate_free_cz_within_n_minus_1_layers(case):
    n, pairs = case
    pairs += pairs[: len(pairs) // 2]  # repeat the first half, so most cases hold repeated pairs
    fl = cz_to_dense_fanin(one_cz_per_layer(n, pairs))
    assert len(fl.layers) <= n - 1
    assert all(v == 1 for v in fl.cz_multiset().values())


@PROPERTY_SETTINGS
@given(CZ_PAIRS)
def test_densifier_keeps_cz_multiset(case):
    n, pairs = case
    counts = Counter((min(a, b), max(a, b)) for a, b in pairs)
    fl = cz_to_dense_fanin(one_cz_per_layer(n, pairs))
    assert fl.cz_multiset() == {e: 1 for e, c in counts.items() if c % 2}


@PROPERTY_SETTINGS
@given(CZ_PAIRS)
def test_densifier_matches_reference_scan(case):
    n, pairs = case
    pairs += pairs[: len(pairs) // 2]  # repeat the first half, so most cases hold repeated pairs
    circuit = one_cz_per_layer(n, pairs)
    assert cz_to_dense_fanin(circuit) == reference_cz_to_dense_fanin(circuit)


# -- XorExpr against a frozenset model --------------------------------------------

# bit 0 sits next to the constant; 62-65 straddle a machine word
BIT_IDS = st.one_of(st.integers(0, 9), st.sampled_from([62, 63, 64, 65, 200, 4097]))
MODELS = st.tuples(st.frozensets(BIT_IDS, max_size=8), st.booleans())


def model_tokens(model):
    bits, const = model
    return [f"b{b}" for b in sorted(bits)] + (["1"] if const else [])


def model_xor(a, b):
    return a[0] ^ b[0], a[1] ^ b[1]


@PROPERTY_SETTINGS
@given(MODELS, MODELS)
def test_xor_expr_matches_frozenset_model(a, b):
    ea, eb = XorExpr(*a), XorExpr(*b)
    assert (ea.bits, ea.const) == a
    assert ((ea ^ eb).bits, (ea ^ eb).const) == model_xor(a, b)
    assert bool(ea) == (bool(a[0]) or a[1])
    assert (ea == eb) == (a == b)
    assert ea == XorExpr.of(*a[0], const=a[1])
    assert hash(ea) == hash(XorExpr(frozenset(a[0]), a[1]))
    assert ea.tokens() == model_tokens(a)
    assert str(ea) == ("(" + "^".join(model_tokens(a)) + ")" if ea else "0")
    back = XorExpr.from_tokens(ea.tokens())
    assert back == ea and hash(back) == hash(ea)


@PROPERTY_SETTINGS
@given(st.lists(st.one_of(BIT_IDS.map(lambda b: f"b{b}"), st.just("1")), max_size=12))
def test_from_tokens_toggles_repeats(tokens):
    bits, const = set(), False
    for tok in tokens:
        if tok == "1":
            const = not const
        else:
            bits ^= {int(tok[1:])}
    e = XorExpr.from_tokens(tokens)
    assert (e.bits, e.const) == (frozenset(bits), const)


@PROPERTY_SETTINGS
@given(MODELS, st.dictionaries(BIT_IDS, MODELS, max_size=6))
def test_rewrite_matches_model(model, flips):
    want = model
    for b in model[0]:
        if b in flips:
            want = model_xor(want, flips[b])
    n = FrameNormalizer()
    n.flips = {b: XorExpr(*f).mask for b, f in flips.items()}
    got = XorExpr.from_mask(n.rewrite(XorExpr(*model).mask))
    assert (got.bits, got.const) == want


@PROPERTY_SETTINGS
@given(MODELS, st.data())
def test_evaluate_matches_model(model, data):
    bits, const = model
    for values in (st.integers(0, 1), st.integers(0, 2**70)):  # outcomes, affine symbol masks
        assignment = {b: data.draw(values) for b in bits}
        want = int(const)
        for v in assignment.values():
            want ^= v
        assert XorExpr(*model).evaluate(assignment) == want


def test_measurement_bit_zero_is_not_the_constant():
    b0 = XorExpr.of(0)
    assert b0 != ONE and b0.bits == frozenset({0}) and not b0.const
    assert (b0 ^ ONE).tokens() == ["b0", "1"]
    assert XorExpr.from_tokens(["1", "b0"]) == XorExpr.of(0, const=True)
    assert b0.evaluate({0: 1}) == 1 and ONE.evaluate({}) == 1
    n = FrameNormalizer()
    n.flips[0] = ONE.mask
    assert n.rewrite(XorExpr.of(0).mask) == XorExpr.of(0, const=True).mask


def test_from_tokens_rejects_bad_tokens():
    for bad in (["x3"], ["b-1"], ["b"], ["b1", "q"], [7], ["b1", None], ["b 1"], ["b07"], [f"b{MAX_BIT_ID + 1}"]):
        with pytest.raises(ValueError):
            XorExpr.from_tokens(bad)
    assert XorExpr.from_tokens([f"b{MAX_BIT_ID}"]) == XorExpr.of(MAX_BIT_ID)


# -- JSON round trips ---------------------------------------------------------------


@st.composite
def gates_of(draw, kind):
    """A gate of the given kind, with every field that kind may carry."""
    count, bases = GATE_KINDS[kind]
    size = draw(st.integers(count, count + 3)) if kind in FAN_KINDS else count
    qubits = draw(st.lists(st.integers(0, 70), min_size=size, max_size=size, unique=True))
    bit = draw(st.integers(-1, 70)) if kind == "meas" else -1
    cond = None
    if kind == "pauli":
        cond = draw(st.none() | MODELS.map(lambda m: XorExpr.of(*m[0], const=m[1])))
    variant = draw(st.sampled_from(["", *BELL_PAULIS])) if kind == "bell" else ""
    return Gate(kind, tuple(qubits), draw(st.sampled_from(bases)), bit, cond, variant)


@pytest.mark.parametrize("kind", sorted(GATE_KINDS))
@settings(PROPERTY_SETTINGS, max_examples=40)
@given(data=st.data())
def test_gate_json_round_trip(kind, data):
    g = data.draw(gates_of(kind))
    back = gate_from_json(json.loads(json.dumps(gate_to_json(g))))
    assert back == g and hash(back) == hash(g) and type(back) is Gate


@PROPERTY_SETTINGS
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(layers(n), max_size=6))))
def test_circuit_json_round_trip(case):
    n, gate_layers = case
    c = Circuit.from_layers(n, gate_layers)
    assert Circuit.from_json(json.loads(json.dumps(c.to_json()))) == c


def json_round_trip(value):
    return type(value).from_json(json.loads(json.dumps(value.to_json())))


@PROPERTY_SETTINGS
@given(st.lists(st.integers(0, 200), max_size=30))
def test_placement_json_round_trip(procs):
    p = Placement(tuple(procs))
    assert json_round_trip(p) == p


@PROPERTY_SETTINGS
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_quotient_graph_json_round_trip(nodes, max_cap, seed):
    g = random_connected_graph(random.Random(seed), nodes, max_cap)
    assert json_round_trip(g) == g
