import random
import re

import pytest

from distqc.circuit import GATE_KINDS, Gate, cx, cz, fanin, fanout, gate_from_json, meas, pauli, yhalf
from distqc.pauli import ONE, PauliFrame, XorExpr
from distqc.pushing import CondPauli, FrameNormalizer, normalize_frame, push_pauli
from distqc.stabsim import StabilizerState, canonical_tableau
from distqc.telegate import ExtendedCircuit, expand_telegate_cx
from oracles import random_clifford_prefix

B = XorExpr.of(1)

# the full rule table: (gate, pauli-before) -> paulis-after
RULES = [
    (cx(0, 1), CondPauli(0, "X", B), [(0, "X"), (1, "X")]),
    (cx(0, 1), CondPauli(1, "Z", B), [(0, "Z"), (1, "Z")]),
    (cx(0, 1), CondPauli(1, "X", B), [(1, "X")]),
    (cx(0, 1), CondPauli(0, "Z", B), [(0, "Z")]),
    (cz(0, 1), CondPauli(0, "X", B), [(0, "X"), (1, "Z")]),
    (cz(0, 1), CondPauli(0, "Z", B), [(0, "Z")]),
    (yhalf(0), CondPauli(0, "X", B), [(0, "Z")]),
    (yhalf(0), CondPauli(0, "Z", B), [(0, "X")]),
    # fan gates: the cx (basis X) or cz (basis Z) of the hub with each spoke
    (fanin(0, [1, 2]), CondPauli(0, "X", B), [(0, "X"), (1, "X"), (2, "X")]),
    (fanin(0, [1, 2]), CondPauli(2, "Z", B), [(0, "Z"), (2, "Z")]),
    (fanin(0, [1, 2]), CondPauli(0, "Z", B), [(0, "Z")]),
    (fanin(0, [1, 2], "Z"), CondPauli(0, "X", B), [(0, "X"), (1, "Z"), (2, "Z")]),
    (fanin(0, [1, 2], "Z"), CondPauli(1, "X", B), [(0, "Z"), (1, "X")]),
    (fanout(0, [1, 2]), CondPauli(1, "X", B), [(0, "X"), (1, "X")]),
    (fanout(0, [1, 2]), CondPauli(0, "Z", B), [(0, "Z"), (1, "Z"), (2, "Z")]),
    (fanout(0, [1, 2]), CondPauli(0, "X", B), [(0, "X")]),
    (fanout(0, [1, 2], "Z"), CondPauli(0, "X", B), [(0, "X"), (1, "Z"), (2, "Z")]),
    (fanout(0, [1, 2], "Z"), CondPauli(2, "X", B), [(0, "Z"), (2, "X")]),
]


class TestPushRuleTable:
    @pytest.mark.parametrize("gate,before,after", RULES)
    def test_rule_output(self, gate, before, after):
        moved = push_pauli(gate, before)
        assert sorted((p.qubit, p.axis) for p in moved) == sorted(after)
        assert all(p.expr == B for p in moved)

    @pytest.mark.parametrize("gate,before,after", RULES)
    def test_rule_simulator_equivalence(self, gate, before, after):
        """Pauli-then-gate must equal gate-then-pushed-Paulis exactly."""
        n = max(gate.qubits) + 1
        for seed in range(50):
            rng = random.Random(seed)
            prefix = random_clifford_prefix(n, rng)
            lhs = StabilizerState(n)
            rhs = StabilizerState(n)
            for g in prefix:
                lhs.apply_gate(g)
                rhs.apply_gate(g)
            bits = {1: 1}
            lhs.apply_gate(pauli(before.qubit, before.axis, before.expr), bits)
            lhs.apply_gate(gate, bits)
            rhs.apply_gate(gate, bits)
            for p in push_pauli(gate, before):
                rhs.apply_gate(pauli(p.qubit, p.axis, p.expr), bits)
            assert canonical_tableau(lhs) == canonical_tableau(rhs)

    @pytest.mark.parametrize("kind", ["xhalf", "zhalf"])
    def test_rotation_rules_simulator_equivalence(self, kind):
        # the non-axis Pauli maps onto the X*Z product under these rotations
        gate = Gate(kind, (0,))
        axis = "Z" if kind == "xhalf" else "X"
        before = CondPauli(0, axis, B)
        moved = push_pauli(gate, before)
        assert sorted(p.axis for p in moved) == ["X", "Z"]
        for seed in range(30):
            rng = random.Random(seed)
            prefix = random_clifford_prefix(1, rng)
            lhs, rhs = StabilizerState(1), StabilizerState(1)
            for g in prefix:
                lhs.apply_gate(g)
                rhs.apply_gate(g)
            bits = {1: 1}
            lhs.apply_gate(pauli(0, axis, B), bits)
            lhs.apply_gate(gate, bits)
            rhs.apply_gate(gate, bits)
            for p in moved:
                rhs.apply_gate(pauli(p.qubit, p.axis, p.expr), bits)
            assert canonical_tableau(lhs) == canonical_tableau(rhs)

    def test_involutive_where_symmetric(self):
        # the yhalf rules swap X and Z, so pushing twice restores the axis
        p = CondPauli(0, "X", B)
        once = push_pauli(yhalf(0), p)
        twice = push_pauli(yhalf(0), once[0])
        assert twice == [p]

    def test_cz_symmetric(self):
        a = push_pauli(cz(0, 1), CondPauli(1, "X", B))
        assert sorted((p.qubit, p.axis) for p in a) == [(0, "Z"), (1, "X")]

    def test_unsupported_gate(self):
        with pytest.raises(ValueError):
            push_pauli(Gate("meas", (0,), basis="Z", bit=0), CondPauli(0, "X", B))

    def test_every_gate_kind_has_rules(self):
        # GATE_KINDS is the one list of kinds: the normalizer and the
        # simulator take each, JSON names no other, and only the unitary
        # kinds have a push rule
        for kind, (count, bases) in GATE_KINDS.items():
            doc = {"kind": kind, "q": list(range(count)), "basis": bases[-1]}
            g = gate_from_json({**doc, "bit": 0} if kind == "meas" else doc)
            FrameNormalizer().feed(g)
            StabilizerState(3).apply_gate(g, {})
            if kind in ("meas", "prep", "bell", "pauli"):
                with pytest.raises(ValueError, match="no push rule"):
                    push_pauli(g, CondPauli(0, "X", B))
            else:
                push_pauli(g, CondPauli(0, "X", B))
        with pytest.raises(ValueError, match="unknown gate kind"):
            gate_from_json({"kind": "swap", "q": [0, 1]})


class TestPushThroughMeasurement:
    @staticmethod
    def flips(axis, basis):
        """The flips after a pending ``axis^B`` on qubit 0 meets a
        ``basis`` measurement of it that emits bit 9."""
        n = FrameNormalizer()
        n.add(0, axis, B.mask)
        n.feed(meas(0, basis, 9))
        assert not n.x and not n.z  # the measurement consumes the Pauli
        return n.flips

    def test_anticommuting_flips_bit(self):
        assert self.flips("X", "Z") == {9: B.mask}

    def test_commuting_drops(self):
        assert self.flips("Z", "Z") == {}
        assert self.flips("X", "X") == {}

    def test_z_before_x_measure_flips(self):
        assert self.flips("Z", "X") == {9: B.mask}


def _frameless(num_data, num_qubits, gates):
    from distqc.pauli import PauliFrame

    return ExtendedCircuit(num_data, num_qubits, tuple(gates), PauliFrame())


class TestNormalizeFrame:
    def test_telegate_fragment_frame(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        assert frag.frame.z_of(0) == XorExpr.of(2)
        assert frag.frame.x_of(1) == XorExpr.of(1)
        assert not any(g.kind == "pauli" for g in frag.gates)

    def test_no_measurement_unchanged_gates(self):
        gates = [cx(0, 1), cz(1, 2), yhalf(0)]
        out = normalize_frame(_frameless(3, 3, gates))
        assert [g.kind for g in out.gates] == ["cx", "cz", "yhalf"]
        assert out.frame.is_empty()

    def test_order_of_pushes_is_confluent(self):
        # pushing one Pauli through three gates must not depend on whether we
        # normalize in one pass or re-normalize the result
        gates = [pauli(0, "X", B), cx(0, 1), cz(1, 2), yhalf(0)]
        once = normalize_frame(_frameless(3, 3, gates))
        again = normalize_frame(once)
        assert once.frame.to_json() == again.frame.to_json()
        assert [g.kind for g in once.gates] == [g.kind for g in again.gates]

    def test_gate_multiset_preserved(self):
        rng = random.Random(8)
        gates = []
        for _ in range(15):
            kind = rng.choice(["cx", "cz", "yhalf", "pauli"])
            if kind == "pauli":
                gates.append(pauli(rng.randrange(4), rng.choice("XZ"), ONE))
            elif kind == "yhalf":
                gates.append(yhalf(rng.randrange(4)))
            else:
                a, b = rng.sample(range(4), 2)
                gates.append(cx(a, b) if kind == "cx" else cz(a, b))
        out = normalize_frame(_frameless(4, 4, gates))
        want = sorted((g.kind, g.qubits) for g in gates if g.kind != "pauli")
        got = sorted((g.kind, g.qubits) for g in out.gates)
        assert got == want

    def test_measurement_bit_folding(self):
        # unconditional X before <Z> negates the emitted bit: the frame
        # entry conditioned on that bit must absorb the inversion
        gates = [pauli(0, "X", ONE), meas(0, "Z", 1), pauli(1, "X", XorExpr.of(1))]
        out = normalize_frame(_frameless(2, 2, gates))
        assert out.frame.x_of(1) == XorExpr.of(1, const=True)

    def test_branch_independent_after_normalize(self):
        frag = expand_telegate_cx(0, 2, [0, 1, 2])
        for g in frag.gates:
            assert g.kind != "pauli"

    def test_random_circuit_equivalence(self):
        # normalized circuit is channel-equivalent to the raw one
        rng = random.Random(9)
        for trial in range(10):
            n = 4
            gates = []
            for _ in range(12):
                kind = rng.choice(["cx", "cz", "yhalf", "pauli"])
                if kind == "pauli":
                    gates.append(pauli(rng.randrange(n), rng.choice("XZ"), ONE))
                elif kind == "yhalf":
                    gates.append(yhalf(rng.randrange(n)))
                else:
                    a, b = rng.sample(range(n), 2)
                    gates.append(cx(a, b) if kind == "cx" else cz(a, b))
            raw = _frameless(n, n, gates)
            out = normalize_frame(raw)
            for seed in range(6):
                r2 = random.Random(seed)
                prefix = random_clifford_prefix(n, r2)
                s1 = StabilizerState(n)
                s2 = StabilizerState(n)
                for g in prefix:
                    s1.apply_gate(g)
                    s2.apply_gate(g)
                for g in raw.gates:
                    s1.apply_gate(g, {})
                for g in out.gates:
                    s2.apply_gate(g, {})
                s2.apply_frame(out.frame, {})
                assert canonical_tableau(s1) == canonical_tableau(s2)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: PauliFrame().add(0, "Y", ONE), "unknown Pauli axis 'Y', expected X or Z"),
        (lambda: FrameNormalizer().add(0, "Y", 1), "unknown Pauli axis 'Y', expected X or Z"),
        # a Gate checks nothing when built, so a direct caller can feed any kind
        (lambda: FrameNormalizer().feed(Gate("swap", (0, 1))), "no push rule for gate kind 'swap'"),
    ],
    ids=["frame-axis", "normalizer-axis", "feed-unknown-kind"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
