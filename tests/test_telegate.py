import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distqc.bench import gen_random_cz_circuit
from distqc.circuit import Circuit, Placement, cx, cz, fanin, fanout, gate_to_json, meas, pauli, yhalf
from distqc.flow import compile_circuit_flow
from distqc.netmodel import QuotientGraph, gen_hex, gen_rect_high, gen_rect_low
from distqc.pauli import PauliFrame, XorExpr
from distqc.pushing import FrameNormalizer
from distqc.stabsim import channel_equivalent
from distqc.steiner import compile_circuit_steiner, cz_to_dense_fanin
from distqc.telegate import (
    CircuitExpander,
    ExtendedCircuit,
    InvalidPathError,
    _orient,
    expand_fanin_tree,
    expand_telegate_cx,
    expand_telegate_cz,
)
from oracles import GateByGateExpander

CX2 = Circuit.from_layers(2, [[cx(0, 1)]])
CZ2 = Circuit.from_layers(2, [[cz(0, 1)]])


def path(n):
    return list(range(n + 1))


class TestTelegateCx:
    def test_adjacent_corrections(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        assert frag.e_count == 1
        assert frag.frame.z_of(0) == XorExpr.of(2)
        assert frag.frame.x_of(1) == XorExpr.of(1)

    def test_two_hop_corrections(self):
        frag = expand_telegate_cx(0, 2, [0, 1, 2])
        assert frag.e_count == 2
        assert frag.frame.z_of(0) == XorExpr.of(2, 4)
        assert frag.frame.x_of(1) == XorExpr.of(1, 3)

    @pytest.mark.parametrize("hops", range(1, 7))
    def test_depth_four_and_xor_chains(self, hops):
        frag = expand_telegate_cx(0, hops, path(hops))
        slices = frag.time_slices()
        assert len(slices) == 3  # prep, injection, measurement
        assert frag.depth() == 4  # plus the classical correction slot
        assert all(g.kind == "bell" for g in slices[0])
        assert all(g.kind == "cx" for g in slices[1])
        assert all(g.kind == "meas" for g in slices[2])
        # corrections: Z chain over the X-basis bits (even wire positions),
        # X chain over the Z-basis bits (odd positions), one per Bell pair
        z_bits = {g.bit for g in frag.gates if g.kind == "meas" and g.basis == "Z"}
        x_bits = {g.bit for g in frag.gates if g.kind == "meas" and g.basis == "X"}
        assert frag.frame.z_of(0) == XorExpr(frozenset(x_bits))
        assert frag.frame.x_of(1) == XorExpr(frozenset(z_bits))
        assert z_bits == set(range(1, 2 * hops, 2))
        assert x_bits == set(range(2, 2 * hops + 1, 2))

    @pytest.mark.parametrize("hops", range(1, 6))
    def test_channel_equivalence(self, hops):
        frag = expand_telegate_cx(0, hops, path(hops))
        assert channel_equivalent(frag, CX2, trials=6, branches=6, rng=random.Random(hops))

    def test_invalid_path_rejected(self):
        g = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
        with pytest.raises(InvalidPathError):
            expand_telegate_cx(0, 2, [0, 2], graph=g)
        with pytest.raises(InvalidPathError):
            expand_telegate_cx(0, 2, [0, 1, 1, 2])
        faults = [
            (0, 2, []),  # no processor
            (0, 0, [0]),  # no hop
            (0, 2, [0, 1]),  # wrong target end
            (1, 2, [0, 1, 2]),  # wrong control end
            (0, 2, [2, 1, 0]),  # both ends swapped
            (0, 2, [0, 1, 0, 2]),  # revisits its control
            (0, 0, [0, 1, 0]),  # a loop back to the control
        ]
        for control, target, route in faults:
            for expand in (expand_telegate_cx, expand_telegate_cz):
                with pytest.raises(InvalidPathError):
                    expand(control, target, route)


class TestTeleport:
    @pytest.mark.parametrize("route", [[0], [0, 1, 0, 2], [0, 1]])
    def test_teleport_path_faults_rejected(self, route):
        for expand in (expand_telegate_cx, expand_telegate_cz):
            with pytest.raises(InvalidPathError):
                expand(0, 2, route)


class TestEntanglementSwap:
    def test_swap_then_telegate_equals_two_hop_telegate(self):
        # routing through the middle with an explicit path equals the
        # combined protocol by channel equivalence
        frag = expand_telegate_cx(0, 2, [0, 1, 2])
        assert channel_equivalent(frag, CX2, trials=8, branches=8, rng=random.Random(7))


class TestTelegateCz:
    def test_adjacent_corrections(self):
        frag = expand_telegate_cz(0, 1, [0, 1])
        assert frag.frame.z_of(0) == XorExpr.of(2)
        assert frag.frame.z_of(1) == XorExpr.of(1)
        assert not frag.frame.x_of(1)

    def test_symmetric_channel(self):
        a = expand_telegate_cz(0, 1, [0, 1])
        swapped = Circuit.from_layers(2, [[cz(1, 0)]])
        assert channel_equivalent(a, swapped, trials=8, branches=5, rng=random.Random(0))

    @pytest.mark.parametrize("hops", (1, 2, 3))
    def test_multi_hop(self, hops):
        frag = expand_telegate_cz(0, hops, path(hops))
        assert frag.e_count == hops
        assert frag.depth() == 4
        assert channel_equivalent(frag, CZ2, trials=6, branches=6, rng=random.Random(hops))


class TestFanInTree:
    def test_three_processor_line(self):
        frag = expand_fanin_tree(0, {1, 2}, {(0, 1), (1, 2)})
        assert frag.e_count == 2
        assert frag.frame.z_of(0) == XorExpr.of(2, 4)
        assert frag.frame.x_of(1) == XorExpr.of(1)
        assert frag.frame.x_of(2) == XorExpr.of(1, 3)
        logical = Circuit.from_layers(3, [[fanin(0, [1, 2])]])
        assert channel_equivalent(frag, logical, trials=8, branches=6, rng=random.Random(1))

    def test_single_target_degenerates_to_telegate(self):
        frag = expand_fanin_tree(0, {1}, {(0, 1)})
        tele = expand_telegate_cx(0, 1, [0, 1])
        assert frag.gates == tele.gates
        assert frag.frame.to_json() == tele.frame.to_json()
        # an empty basis is the X default, as everywhere in the IR
        assert expand_fanin_tree(0, {1}, {(0, 1)}, basis="").gates == tele.gates

    def test_star_four_leaves(self):
        frag = expand_fanin_tree(0, {1, 2, 3, 4}, {(0, i) for i in range(1, 5)})
        assert frag.e_count == 4
        logical = Circuit.from_layers(5, [[fanin(0, [1, 2, 3, 4])]])
        assert channel_equivalent(frag, logical, trials=5, branches=5, rng=random.Random(2))

    def test_branching_tree_equivalence(self):
        tree = {(0, 1), (1, 2), (1, 3), (0, 4)}
        frag = expand_fanin_tree(0, {2, 3, 4}, tree)
        assert frag.e_count == 4
        logical = Circuit.from_layers(4, [[fanin(0, [1, 2, 3])]])
        assert channel_equivalent(frag, logical, trials=6, branches=6, rng=random.Random(3))

    @pytest.mark.parametrize("basis", ["X", "Z"])
    def test_target_on_control_processor(self, basis):
        # processor 1 holds the control and the first target, which
        # interacts locally; the tree serves processors 2 and 3 only
        frag = expand_fanin_tree(1, {1, 2, 3}, {(1, 2), (2, 3)}, basis=basis)
        assert frag.e_count == 2
        logical = Circuit.from_layers(4, [[fanin(0, [1, 2, 3], basis=basis)]])
        assert channel_equivalent(frag, logical)
        assert not channel_equivalent(frag, logical, drop_frame=True)

    def test_non_spanning_tree_rejected(self):
        line = QuotientGraph(3, ((0, 1, 1), (0, 2, 1)))
        faults = [
            ({1, 3}, {(0, 1)}, None, "does not span terminals [3]"),
            ({1, 2}, {(0, 1), (1, 2), (2, 0)}, None, "cycle"),
            ({1, 2}, {(1, 2)}, None, "not connected to processor 0"),  # misses the control
            ({1, 2}, {(0, 1), (1, 2), (3, 4)}, None, "not connected to processor 0"),  # a detached edge
            ({1, 2}, [(0, 1), (1, 2), (2, 1)], None, "repeated"),
            ({1, 2}, {(0, 1), (1, 2)}, line, "(1,2) missing from graph"),
        ]
        for targets, tree, graph, message in faults:
            with pytest.raises(InvalidPathError, match=re.escape(message)):
                expand_fanin_tree(0, targets, tree, graph=graph)

    def test_tree_expands_from_control_breadth_first(self):
        # hops leave the control first, lower-numbered neighbours first,
        # whatever order or orientation the edges are given in
        frag = expand_fanin_tree(2, {0, 3, 4}, [(4, 3), (0, 1), (1, 2), (3, 2)])
        near = [g.qubits[1] for g in frag.gates if g.kind == "cx" and g.qubits[1] >= 4]
        injected_from = [g.qubits[0] for g in frag.gates if g.kind == "cx" and g.qubits[1] in near]
        assert near == [4, 6, 8, 10]
        assert injected_from == [0, 0, 5, 7]  # hops (2,1), (2,3), (1,0), (3,4)


class TestExtendedCircuitProperties:
    def test_e_count_counts_bell_preps(self):
        frag = expand_fanin_tree(0, {1, 2, 3}, {(0, 1), (1, 2), (2, 3)})
        assert frag.e_count == 3 == sum(1 for g in frag.gates if g.kind == "bell")

    def test_serialization_roundtrip(self):
        frag = expand_telegate_cx(0, 2, [0, 1, 2])
        doc = json.loads(json.dumps(frag.to_json()))
        back = ExtendedCircuit.from_json(doc)
        assert back.frame.to_json() == frag.frame.to_json()
        assert back.num_qubits == frag.num_qubits
        assert channel_equivalent(back, CX2, trials=5, branches=5, rng=random.Random(8))

    def test_conditioned_pauli_sliced_after_its_meas(self):
        # qubit 0 is free from the start, but its correction reads qubit 1's bit
        ext = ExtendedCircuit(
            1, 2, (yhalf(1), meas(1, "Z", 0), pauli(0, "X", XorExpr.of(0))), PauliFrame()
        )
        assert [[g.kind for g in sl] for sl in ext.time_slices()] == [["yhalf"], ["meas"], ["pauli"]]
        assert ExtendedCircuit.from_json(json.loads(json.dumps(ext.to_json()))).gates == ext.gates

    def test_frame_json_tokens(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        doc = frag.to_json()["frame"]
        assert doc["q0"] == {"x": [], "z": ["b2"]}
        assert doc["q1"] == {"x": ["b1"], "z": []}


class TestFanOutExpansion:
    def test_fanout_compiles_through_mirror_layers(self):
        circ = Circuit.from_layers(4, [[fanout(0, [1, 2, 3])]])
        # routes on the 3 x 3 grid (rect-low g = 3); the route to processor 2
        # runs through target processor 1
        routes = {(0, circ.layers[0][0]): [
            (((0, 1), (1, 2)), (2,)),
            (((0, 3),), (3,)),
            (((0, 1),), (1,)),
        ]}
        out = CircuitExpander(circ, Placement.identity(4)).expand(routes)
        assert channel_equivalent(out, circ, trials=8, branches=6, rng=random.Random(9))
        assert not any(g.kind == "pauli" for g in out.gates)


class TestLogicalMeasurementBits:
    def test_expansion_bits_follow_logical_bits(self):
        circ = Circuit.from_layers(3, [[meas(2, "Z", 1)], [cx(0, 1)]])
        ext, _, _ = compile_circuit_flow(circ, Placement.identity(3), gen_rect_low(2), "greedy")
        bits = [g.bit for g in ext.gates if g.kind == "meas"]
        assert len(bits) == 3 and len(set(bits)) == 3
        logical = [g for g in ext.gates if g.kind == "meas" and g.qubits == (2,)]
        assert [g.bit for g in logical] == [1]


def random_mixed_circuit(n, k, rng):
    """k random gates: cz, cx, X- and Z-basis fan-ins, fan-outs and yhalf,
    each in the first layer after the last use of any of its operands."""
    layers, last = [], {}
    for _ in range(k):
        kind = rng.choice(("cz", "cx", "fanin", "fanin-z", "fanout", "yhalf"))
        if kind == "yhalf":
            gate = yhalf(rng.randrange(n))
        elif kind in ("cz", "cx"):
            gate = (cz if kind == "cz" else cx)(*rng.sample(range(n), 2))
        else:
            hub, *spokes = rng.sample(range(n), rng.randint(2, 5))
            make = fanout if kind == "fanout" else fanin
            gate = make(hub, spokes, basis="Z" if kind == "fanin-z" else "X")
        at = max(last.get(q, -1) for q in gate.qubits) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        for q in gate.qubits:
            last[q] = at
    return Circuit.from_layers(n, layers)


# sha256 of the outputs below, taken when flow and steiner each drove
# CircuitExpander through their own walk over the layers; the flow pin was
# taken again when greedy first bounded detours and took ready commodities
# in critical-path order
FLOW_EXTENDED_SHA256 = "525f672e316970b472312a80e2c2cbe8c9cc32a3c22ddf5bc1426024940b1b12"
STEINER_SCHEDULE_SHA256 = "dfb1878f9c1811c36f6a8ad55544158552d90675b7ebd62e203db5ad735cbf45"
STEINER_EXTENDED_SHA256 = "2ad9593d5cff5c2f520fc440a37ec24bbaabacb98fd2aa2e6458464f026e653d"


class TestBackendExpansion:
    """Both backends hand their routes to one expansion walk; its outputs
    are pinned on seeded mixed circuits with local gates (two qubits per
    processor under round-robin placement)."""

    @staticmethod
    def _instances():
        for make in (gen_rect_low, gen_hex):
            g = make(2)
            for seed in range(3):
                rng = random.Random(f"{make.__name__}:{seed}")
                circ = random_mixed_circuit(2 * g.node_count, 40, rng)
                yield circ, Placement.round_robin(circ.num_qubits, g.node_count), g

    @staticmethod
    def _sha(docs):
        return hashlib.sha256(json.dumps(docs, separators=(",", ":")).encode()).hexdigest()

    def test_flow_extended_pinned(self):
        docs = [compile_circuit_flow(c, p, g)[0].to_json() for c, p, g in self._instances()]
        assert self._sha(docs) == FLOW_EXTENDED_SHA256

    def test_steiner_pinned(self):
        scheds, exts = [], []
        for c, p, g in self._instances():
            ext, sched = compile_circuit_steiner(c, p, g)
            scheds.append(sched.to_json())
            gates = sorted(json.dumps(gate_to_json(x), sort_keys=True) for x in ext.gates)
            exts.append([gates, ext.frame.to_json(), ext.depth()])
        assert self._sha(scheds) == STEINER_SCHEDULE_SHA256
        # within a layer the order of local gates is free, so the gates are compared as a multiset
        assert self._sha(exts) == STEINER_EXTENDED_SHA256


def _sha_json(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def half_cx_circuit(n, k, rng):
    """k gates on random qubit pairs, each CX or CZ with equal odds, packed
    into the first layer after the last use of either operand."""
    layers, last = [], {}
    for _ in range(k):
        a, b = rng.sample(range(n), 2)
        gate = cx(a, b) if rng.random() < 0.5 else cz(a, b)
        at = max(last.get(a, -1), last.get(b, -1)) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        last[a] = last[b] = at
    return Circuit.from_layers(n, layers)


def classical_logical_circuit():
    """Logical measurements (one writing bit 0) and conditioned Paulis around
    remote CX/CZ gates, so that frame normalization rewrites logical
    conditions, and flips logical bits, next to the expansion's own."""
    return Circuit.from_layers(6, [
        [meas(5, "Z", 0), cx(0, 3)],
        [pauli(0, "X", XorExpr.of(0)), cz(1, 4)],
        [cx(0, 2), pauli(4, "Z", XorExpr.of(0, const=True))],
        [meas(2, "Z", 3), cx(1, 5)],
        [pauli(3, "X", XorExpr.of(3)), meas(0, "X", 7), yhalf(4)],
        [cz(3, 4), pauli(1, "Z", XorExpr.of(0, 3, 7))],
        [meas(4, "Z", 8), cx(1, 3)],
        [pauli(2, "X", XorExpr.of(8, 0))],
    ])


# sha256 of the outputs below, taken before the Pauli frame was normalized as
# the expansion emits its gates; the half-CX pin was taken again when greedy
# first bounded detours and took ready commodities in critical-path order
HALF_CX_FLOW_SHA256 = "f3ab9b63f4407ba7b764aca4ca68636877fe536e5a287c8b06ac0af79bcba8d2"
CLASSICAL_LOGICAL_SHA256 = "df514c3ad6e2cc186c5033b109d298c9441807858bd83715ccd681b63a790846"
# sha256 of the fragments below, taken before the teleport, entanglement-swap
# and Bell-variant fragment builders were deleted
FRAGMENTS_SHA256 = "f1f164f1870460abe77488c9137f80fad90a33438c24963cb409bf32cb275da8"


class TestPinnedLargerOutputs:
    def test_half_cx_flow_greedy_pinned(self):
        # rect-high g=4, k=256: CX chains up to hundreds of bits per frame
        # entry and paths of several hops
        g = gen_rect_high(4)
        circ = half_cx_circuit(g.node_count, 256, random.Random("half-cx"))
        ext, sched, _ = compile_circuit_flow(circ, Placement.identity(g.node_count), g, "greedy")
        assert max(len(e.bits) for e in ext.frame.z.values()) > 100
        assert _sha_json([sched.to_json(), ext.to_json()]) == HALF_CX_FLOW_SHA256

    def test_classical_logical_circuit_pinned(self):
        circ = classical_logical_circuit()
        g = gen_rect_low(2)
        place = Placement.round_robin(circ.num_qubits, g.node_count)
        flow_ext = compile_circuit_flow(circ, place, g, "greedy")[0]
        steiner_ext = compile_circuit_steiner(circ, place, g)[0]
        assert not any(x.kind == "pauli" for x in flow_ext.gates + steiner_ext.gates)
        assert "b0" in json.dumps(flow_ext.frame.to_json())
        assert _sha_json([flow_ext.to_json(), steiner_ext.to_json()]) == CLASSICAL_LOGICAL_SHA256

    def test_fragments_pinned(self):
        frags = [
            expand_telegate_cx(0, 3, path(3)),
            expand_telegate_cz(0, 2, path(2)),
            expand_fanin_tree(0, {2, 3, 4}, {(0, 1), (1, 2), (1, 3), (0, 4)}),
        ]
        assert _sha_json([f.to_json() for f in frags]) == FRAGMENTS_SHA256


# -- the closed-form corrections against the gate-by-gate expansion -----------------

AXES = st.sampled_from("XZ")


@st.composite
def fragment_cases(draw, bases=st.just(0)):
    """One remote cx, cz, fanin or fanout (hub qubit 0 on processor 0) on a
    random processor tree of up to 4 hops, as one tree route or one path per
    target processor.  Before it: logical bits base and base + 3, which
    carry flips when a pending Pauli anticommutes with their measurement,
    and pending X and Z on every operand conditioned on them.  After it: a
    measurement of every operand, whose flips the fragment's frame sets,
    and Paulis conditioned on those bits, which the flips rewrite.  The
    expansion's own bits follow the logical ones, so `base` (drawn from
    `bases`) moves them up."""
    base = draw(bases)
    # a condition over the two early logical bits, or None for an unconditional Pauli
    conds = st.none() | st.tuples(st.frozensets(st.sampled_from([base, base + 3])), st.booleans()).map(
        lambda m: XorExpr(*m)
    )
    procs = draw(st.integers(1, 5))
    parent = [draw(st.integers(0, v - 1)) for v in range(1, procs)]  # processor v's parent is parent[v - 1]
    kind = draw(st.sampled_from(["cx", "cz", "fanin", "fanout"]))
    size = 1 if kind in ("cx", "cz") else draw(st.integers(1, 4))
    spokes = list(range(1, size + 1))
    spoke_procs = draw(st.lists(st.integers(0, procs - 1), min_size=size, max_size=size))
    if kind in ("cx", "cz"):
        gate = (cx if kind == "cx" else cz)(0, 1)
    else:
        gate = (fanin if kind == "fanin" else fanout)(0, spokes, basis=draw(AXES))
    a, b = size + 1, size + 2  # hold the logical bits, on processor 0
    operands = [0, *spokes]
    layers = [
        [pauli(q, axis, None) for q in (a, b) if (axis := draw(st.sampled_from(["", "X", "Z"])))],
        [meas(a, draw(AXES), base), meas(b, draw(AXES), base + 3)],
        *([pauli(q, axis, cond) for q in operands if (cond := draw(conds)) is not None] for axis in "XZ"),
        [gate],
        [meas(q, draw(AXES), base + 10 + q) for q in operands],
        [pauli(a, "X", XorExpr.of(*(base + 10 + q for q in operands))),
         pauli(b, "Z", XorExpr.of(base + 10, base + 3))],
    ]
    circ = Circuit.from_layers(size + 3, layers)
    placement = Placement((0, *spoke_procs, 0, 0))
    served = sorted(set(spoke_procs) - {0})
    if draw(st.booleans()):
        edges = [(p, v) for v, p in enumerate(parent, start=1)]
        routes = [(_orient(0, edges, served, None), tuple(served))]
    else:
        routes = []
        for p in served:
            chain = [p]
            while chain[-1]:
                chain.append(parent[chain[-1] - 1])
            chain.reverse()
            routes.append((tuple(zip(chain, chain[1:])), (p,)))
    return circ, placement, {(4, gate): routes}


def assert_closed_form_matches(circ, placement, routes):
    fast, slow = CircuitExpander(circ, placement), GateByGateExpander(circ, placement)
    got, want = fast.expand(routes), slow.expand(routes)
    assert got.gates == want.gates
    assert (got.frame.x, got.frame.z) == (want.frame.x, want.frame.z)
    assert fast.normalizer.flips == slow.normalizer.flips
    logical_bits = {g.bit for g in circ.all_gates() if g.kind == "meas"}
    assert set(fast.normalizer.flips) <= logical_bits


@settings(max_examples=300)
@given(fragment_cases())
def test_closed_form_matches_gate_by_gate_expansion(case):
    assert_closed_form_matches(*case)


@settings(max_examples=100)
@given(fragment_cases(bases=st.integers(200, 1000)))
def test_closed_form_matches_at_wide_bit_ids(case):
    # the expansion's first bit b0 lies past 210, so the hop-relative masks
    # are shifted across several machine words before they reach the frame
    circ = case[0]
    assert min(g.bit for g in circ.all_gates() if g.kind == "meas") >= 200
    assert_closed_form_matches(*case)


def _fed_gates(monkeypatch):
    """Every gate handed to `FrameNormalizer.feed` from now on, in order."""
    fed = []
    feed = FrameNormalizer.feed

    def spy(self, g):
        fed.append(g)
        feed(self, g)

    monkeypatch.setattr(FrameNormalizer, "feed", spy)
    return fed


def test_feed_sees_no_fragment_gate(monkeypatch):
    # two qubits per processor, so some gates and fan targets are local
    g = gen_rect_high(4)
    n = 2 * g.node_count
    placement = Placement.round_robin(n, g.node_count)
    half_cx = half_cx_circuit(n, 256, random.Random("half-cx"))
    fan_in = cz_to_dense_fanin(gen_random_cz_circuit(n, 128, random.Random("fan-in"))).to_circuit()
    assert any(x.kind == "fanin" for x in fan_in.all_gates())
    # a target on its control's processor is not fed either, so one local gate
    fan_in = Circuit(n, ((yhalf(0),), *fan_in.layers))
    for compile_ in (
        lambda: compile_circuit_flow(half_cx, placement, g, "greedy")[0],
        lambda: compile_circuit_steiner(fan_in, placement, g)[0],
    ):
        fed = _fed_gates(monkeypatch)
        ext = compile_()
        assert ext.e_count > 0 and fed
        assert not [x for x in fed if x.kind == "bell" or max(x.qubits) >= ext.num_data]


def test_more_data_qubits_than_qubits_refused():
    with pytest.raises(ValueError, match="^2 data qubits in a 1-qubit circuit$"):
        ExtendedCircuit.from_json({"qubits": 1, "data": 2, "layers": [], "frame": {}})


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: CircuitExpander(CX2, Placement.identity(2)).emit_remote(yhalf(0), []),
         "gate kind 'yhalf' is not a remote interaction"),
    ],
    ids=["emit-remote-yhalf"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
