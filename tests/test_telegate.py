import hashlib
import json
import random

import pytest

from distqc.circuit import Circuit, Placement, cx, cz, fanin, fanout, gate_to_json, yhalf
from distqc.flow import compile_circuit_flow
from distqc.netmodel import QuotientGraph, gen_hex, gen_rect_low
from distqc.pauli import XorExpr
from distqc.stabsim import (
    StabilizerState,
    canonical_tableau,
    channel_equivalent,
    random_clifford_prefix,
    reduced_canonical,
)
from distqc.steiner import compile_circuit_steiner
from distqc.telegate import (
    CircuitExpander,
    ExtendedCircuit,
    InvalidPathError,
    expand_entanglement_swap,
    expand_fanin_tree,
    expand_telegate_cx,
    expand_telegate_cz,
    expand_teleport,
    expand_with_bell_variant,
)

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


class TestTelegateCz:
    def test_adjacent_corrections(self):
        frag = expand_telegate_cz(0, 1, [0, 1])
        assert frag.frame.z_of(0) == XorExpr.of(2)
        assert frag.frame.z_of(1) == XorExpr.of(1)
        assert frag.frame.x_of(1).is_zero()

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

    def test_non_spanning_tree_rejected(self):
        with pytest.raises(InvalidPathError):
            expand_fanin_tree(0, {1, 3}, {(0, 1)})
        with pytest.raises(InvalidPathError):
            expand_fanin_tree(0, {1, 2}, {(0, 1), (1, 2), (2, 0)})


class TestBellVariants:
    def test_psi_minus_negates_both(self):
        tele = expand_telegate_cx(0, 1, [0, 1])
        v = expand_with_bell_variant(tele, "psi-")
        assert v.frame.z_of(0) == XorExpr.of(2, const=True)
        assert v.frame.x_of(1) == XorExpr.of(1, const=True)
        assert channel_equivalent(v, CX2, trials=8, branches=6, rng=random.Random(4))

    def test_phi_plus_identity(self):
        tele = expand_telegate_cx(0, 1, [0, 1])
        v = expand_with_bell_variant(tele, "phi+")
        assert v.frame.to_json() == tele.frame.to_json()
        assert [g.kind for g in v.gates] == [g.kind for g in tele.gates]

    def test_phi_minus_control_only(self):
        tele = expand_telegate_cx(0, 1, [0, 1])
        v = expand_with_bell_variant(tele, "phi-")
        assert v.frame.z_of(0) == XorExpr.of(2, const=True)
        assert v.frame.x_of(1) == XorExpr.of(1)
        assert channel_equivalent(v, CX2, trials=8, branches=6, rng=random.Random(5))

    def test_mixed_variants_on_path(self):
        tele = expand_telegate_cx(0, 2, [0, 1, 2])
        v = expand_with_bell_variant(tele, ["psi+", "phi-"])
        assert sum(1 for g in v.gates if g.kind == "pauli") == 0
        assert channel_equivalent(v, CX2, trials=8, branches=6, rng=random.Random(6))

    def test_no_extra_quantum_gates(self):
        tele = expand_telegate_cx(0, 1, [0, 1])
        v = expand_with_bell_variant(tele, "psi-")
        assert len(v.gates) == len(tele.gates)


class TestTeleport:
    def test_frame_matches_protocol(self):
        frag, recv = expand_teleport(0, 1)
        assert frag.frame.z_of(recv) == XorExpr.of(1)
        assert frag.frame.x_of(recv) == XorExpr.of(2)

    def test_teleport_then_measure_matches_direct(self):
        frag, recv = expand_teleport(0, 1)
        ones_direct = 0
        ones_tele = 0
        for seed in range(100):
            rng = random.Random(seed)
            prefix = random_clifford_prefix(1, rng)
            direct = StabilizerState(1)
            for g in prefix:
                direct.apply_gate(g)
            rng_a = random.Random(1000 + seed)
            ones_direct += direct.measure(0, "Z", rng_a)
            st = StabilizerState(frag.num_qubits)
            for g in prefix:
                st.apply_gate(g)
            bits = {}
            for g in frag.gates:
                st.apply_gate(g, bits, rng_a)
            st.apply_frame(frag.frame, bits)
            ones_tele += st.measure(recv, "Z", rng_a)
        assert abs(ones_direct - ones_tele) <= 15

    def test_teleport_zero_state(self):
        frag, recv = expand_teleport(0, 1)
        for seed in range(20):
            rng = random.Random(seed)
            st = StabilizerState(frag.num_qubits)
            bits = {}
            for g in frag.gates:
                st.apply_gate(g, bits, rng)
            st.apply_frame(frag.frame, bits)
            assert st.measure(recv, "Z", rng) == 0

    @pytest.mark.parametrize("route", [[0], [0, 1, 0, 2], [0, 1]])
    def test_teleport_path_faults_rejected(self, route):
        with pytest.raises(InvalidPathError):
            expand_teleport(0, 2, route)

    def test_chained_teleports_state_preserved(self):
        frag, recv = expand_teleport(0, 2, [0, 1, 2])
        assert frag.e_count == 2
        for seed in range(25):
            rng = random.Random(seed)
            prefix = random_clifford_prefix(1, rng)
            st = StabilizerState(frag.num_qubits)
            for g in prefix:
                st.apply_gate(g)
            bits = {}
            for g in frag.gates:
                st.apply_gate(g, bits, rng)
            st.apply_frame(frag.frame, bits)
            ref = StabilizerState(1)
            for g in prefix:
                ref.apply_gate(g)
            assert reduced_canonical(st, [recv]) == canonical_tableau(ref)

    def test_chained_corrections_compose_by_xor(self):
        frag, recv = expand_teleport(0, 2, [0, 1, 2])
        # the final carrier collects XORs of the per-hop bits
        zs = frag.frame.z_of(recv).bits
        xs = frag.frame.x_of(recv).bits
        assert len(zs) == 2 and len(xs) == 2


class TestEntanglementSwap:
    def test_bit_bases_as_labeled(self):
        frag = expand_entanglement_swap(0, 1, 2)
        bases = {g.bit: g.basis for g in frag.gates if g.kind == "meas"}
        assert bases == {1: "X", 2: "Z"}

    def test_ends_share_bell_pair_every_branch(self):
        frag = expand_entanglement_swap(0, 1, 2)
        ref = StabilizerState(2)
        ref.bell(0, 1)
        want = canonical_tableau(ref)
        for seed in range(40):
            rng = random.Random(seed)
            st = StabilizerState(4)
            bits = {}
            for g in frag.gates:
                st.apply_gate(g, bits, rng)
            st.apply_frame(frag.frame, bits)
            assert reduced_canonical(st, [0, 3]) == want

    def test_consumes_two_pairs(self):
        assert expand_entanglement_swap(0, 1, 2).e_count == 2

    def test_swap_then_telegate_equals_two_hop_telegate(self):
        # routing through the middle with an explicit path equals the
        # combined protocol by channel equivalence
        frag = expand_telegate_cx(0, 2, [0, 1, 2])
        assert channel_equivalent(frag, CX2, trials=8, branches=8, rng=random.Random(7))


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

    def test_frame_json_tokens(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        doc = frag.to_json()["frame"]
        assert doc["q0"] == {"x": [], "z": ["b2"]}
        assert doc["q1"] == {"x": ["b1"], "z": []}


class TestFanOutExpansion:
    def test_fanout_compiles_through_mirror_layers(self):
        g = gen_rect_low(3)
        circ = Circuit.from_layers(4, [[fanout(0, [1, 2, 3])]])
        routes = {(0, circ.layers[0][0]): {1: {(0, 1)}, 2: {(0, 1), (1, 2)}, 3: {(0, 3)}}}
        out = CircuitExpander(circ, Placement.identity(4), g).expand(routes)
        assert channel_equivalent(out, circ, trials=8, branches=6, rng=random.Random(9))
        assert not any(g2.kind == "pauli" for g2 in out.gates)


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
# CircuitExpander through their own walk over the layers
FLOW_EXTENDED_SHA256 = "76fe0012c0acef38753f503085f2b384b90893abe369d1f7c6abbcfd86edfaa9"
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
