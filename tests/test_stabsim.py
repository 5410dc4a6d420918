import random
import re

import pytest

from distqc.circuit import BELL_PAULIS, Circuit, Gate, Placement, cx, cz, fanin, pauli, prep, yhalf
from distqc.flow import compile_circuit_flow
from distqc.netmodel import gen_rect_low
from distqc.pauli import ONE, PauliFrame
from distqc.stabsim import (
    BranchDependentError,
    ResidualEntanglementError,
    StabilizerState,
    canonical_tableau,
    channel_equivalent,
    reduced_canonical,
)
from distqc.telegate import ExtendedCircuit, expand_telegate_cx
from oracles import (
    ReferenceStabilizerState,
    random_clifford_prefix,
    reference_canonical_tableau,
    reference_reduced_canonical,
)


def scrambled(n, seed):
    rng = random.Random(seed)
    s = StabilizerState(n)
    for g in random_clifford_prefix(n, rng):
        s.apply_gate(g)
    return s


def half_cx_circuit(n, k, rng):
    """k gates on random qubit pairs, each CX or CZ with probability 1/2,
    each in the first layer after the last use of either operand."""
    layers, last = [], {}
    for _ in range(k):
        a, b = rng.sample(range(n), 2)
        gate = cx(a, b) if rng.random() < 0.5 else cz(a, b)
        at = max(last.get(a, -1), last.get(b, -1)) + 1
        layers.extend([] for _ in range(at + 1 - len(layers)))
        layers[at].append(gate)
        last[a] = last[b] = at
    return Circuit.from_layers(n, layers)


class TestGates:
    def test_cx_involution(self):
        s = scrambled(3, 1)
        c0 = canonical_tableau(s)
        s.cx(0, 2)
        s.cx(0, 2)
        assert canonical_tableau(s) == c0

    def test_xhalf_fourth_power_and_square(self):
        s = scrambled(2, 2)
        c0 = canonical_tableau(s)
        t = scrambled(2, 2)
        t.xhalf(0)
        t.xhalf(0)
        u = scrambled(2, 2)
        u.pauli_x(0)
        assert canonical_tableau(t) == canonical_tableau(u)  # squares to X exactly
        for _ in range(4):
            s.xhalf(0)
        assert canonical_tableau(s) == c0

    def test_zhalf_square_is_z(self):
        s = scrambled(2, 3)
        t = scrambled(2, 3)
        s.zhalf(1)
        s.zhalf(1)
        t.pauli_z(1)
        assert canonical_tableau(s) == canonical_tableau(t)

    def test_yhalf_square_is_y(self):
        s = scrambled(2, 4)
        t = scrambled(2, 4)
        s.yhalf(0)
        s.yhalf(0)
        t.pauli_x(0)
        t.pauli_z(0)
        assert canonical_tableau(s) == canonical_tableau(t)

    def test_bell_pair_stabilizers(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        gens = set()
        for i in range(2, 4):  # bit i of each column is stabilizer row i
            label = "".join("IXZY"[(s.x[j] >> i & 1) + 2 * (s.z[j] >> i & 1)] for j in range(2))
            gens.add(("-" if s.r >> i & 1 else "+") + label)
        assert gens == {"+XX", "+ZZ"}

    def test_cz_symmetric(self):
        a = scrambled(2, 5)
        b = scrambled(2, 5)
        a.cz(0, 1)
        b.cz(1, 0)
        assert canonical_tableau(a) == canonical_tableau(b)

    def test_validate_after_random_word(self):
        for seed in range(10):
            s = scrambled(4, seed)
            s.validate()

    def test_fan_gates_expand_to_cx_products(self):
        a = scrambled(4, 6)
        b = scrambled(4, 6)
        a.apply_gate(fanin(1, [0, 2, 3]))
        for t in (0, 2, 3):
            b.cx(1, t)
        assert canonical_tableau(a) == canonical_tableau(b)


class TestMeasurement:
    def test_z_deterministic_on_basis_state(self):
        s = StabilizerState(2)
        assert s.measure(0, "Z") == 0
        s.pauli_x(1)
        assert s.measure(1, "Z") == 1

    def test_bell_pair_correlated(self):
        # both outcomes are the same symbol: equal on every branch
        for basis in "ZX":
            s = StabilizerState(2)
            s.bell(0, 1)
            first = s.measure(0, basis)
            assert first == 0b10 and s.measure(1, basis) == first

    @pytest.mark.parametrize("state", [StabilizerState, ReferenceStabilizerState], ids=["bit-packed", "reference"])
    @pytest.mark.parametrize(
        "variant,zz,xx", [("phi+", 0, 0), ("phi-", 0, 1), ("psi+", 1, 0), ("psi-", 1, 1)]
    )
    def test_bell_variant_parities(self, state, variant, zz, xx):
        # cx leaves the ZZ parity on qubit 1 and the XX parity on qubit 0,
        # where h turns it into a Z measurement; 1 is a -1 sign
        s = state(2)
        s.bell(0, 1, variant)
        s.cx(0, 1)
        s.h(0)
        assert (s.measure(1, "Z"), s.measure(0, "Z")) == (zz, xx)

    def test_bell_variant_read_from_extended_json(self):
        doc = {"qubits": 2, "data": 0, "layers": [[{"kind": "bell", "q": [0, 1], "variant": "psi-"}]]}
        ext = ExtendedCircuit.from_json(doc)
        assert ext.gates == (Gate("bell", (0, 1), variant="psi-"),)
        s = StabilizerState(2)
        s.apply_gate(ext.gates[0])
        s.cx(0, 1)
        s.h(0)
        assert (s.measure(1, "Z"), s.measure(0, "Z")) == (1, 1)

    def test_x_measurement_uniform(self):
        # a fresh symbol with no constant: 0 on half the branches, 1 on the rest
        s = StabilizerState(1)
        assert s.measure(0, "X") == 0b10 and s.symbols == 1
        s.flip(0, "Z", 0b10)  # undo the outcome: |+> on every branch
        assert s.measure(0, "X") == 0 and s.symbols == 1

    def test_repeated_measurement_stable(self):
        s = StabilizerState(1)
        s.yhalf(0)
        first = s.measure(0, "Z")
        for _ in range(5):
            assert s.measure(0, "Z") == first

    def test_validate_after_measurements(self):
        s = scrambled(4, 9)
        for q in range(4):
            s.measure(q, "Z" if q % 2 else "X")
            s.validate()


class TestSymbolicMeasurement:
    def test_random_outcome_opens_a_symbol(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        first = s.measure(0, "Z")
        assert first == 0b10  # symbol 1, no constant
        assert s.measure(1, "Z") == first
        s.yhalf(0)
        assert s.measure(0, "Z") == 0b100
        s.validate()

    def test_deterministic_outcome_is_constant(self):
        s = StabilizerState(1)
        s.pauli_x(0)
        assert s.measure(0, "Z") == 1

    def test_branch_dependent_reduced_state(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        outcome = s.measure(0, "X")
        with pytest.raises(BranchDependentError):
            reduced_canonical(s, [1])  # |+> or |-> by the outcome
        with pytest.raises(BranchDependentError):
            canonical_tableau(s)
        s.flip(1, "Z", outcome ^ 1)
        want = StabilizerState(1)
        want.yhalf(0)
        want.pauli_z(0)  # |->
        assert reduced_canonical(s, [1]) == canonical_tableau(want)

    def test_symbolic_reset(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        s.reset(0)
        assert s.measure(0, "Z") == 0


class TestCanonicalForm:
    def test_equal_states_equal_bytes(self):
        a = StabilizerState(3)
        b = StabilizerState(3)
        a.cx(0, 1)
        a.cx(0, 1)
        assert canonical_tableau(a) == canonical_tableau(b)

    def test_different_states_differ(self):
        a = StabilizerState(2)
        b = StabilizerState(2)
        b.pauli_x(0)
        assert canonical_tableau(a) != canonical_tableau(b)
        c = StabilizerState(2)
        c.yhalf(0)
        assert canonical_tableau(a) != canonical_tableau(c)

    def test_generator_presentation_invariance(self):
        # same group reached through different gate words
        a = StabilizerState(2)
        a.bell(0, 1)
        b = StabilizerState(2)
        b.yhalf(1)
        b.cx(1, 0)
        assert canonical_tableau(a) == canonical_tableau(b)

    def test_reduced_state_detects_entanglement(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        with pytest.raises(ResidualEntanglementError):
            reduced_canonical(s, [0])


class TestChannelEquivalent:
    def test_telegate_against_logical(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        assert channel_equivalent(frag, logical)

    def test_dropped_corrections_detected(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        assert not channel_equivalent(frag, logical, drop_frame=True)

    def test_identity_extended_vs_empty(self):
        ext = ExtendedCircuit(2, 2, (), PauliFrame())
        empty = Circuit.from_layers(2, [])
        assert channel_equivalent(ext, empty)

    def test_distinguishes_close_channels(self):
        # cx vs cz on the same operands must be told apart
        ext = ExtendedCircuit(2, 2, (cz(0, 1),), PauliFrame())
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        assert not channel_equivalent(ext, logical)

    def test_wrong_single_qubit_gate_detected(self):
        ext = ExtendedCircuit(1, 1, (Gate("xhalf", (0,)),), PauliFrame())
        logical = Circuit.from_layers(1, [[yhalf(0)]])
        assert not channel_equivalent(ext, logical)

    def test_residual_entanglement_counts_data_qubits(self):
        # the communication qubit keeps a copy of the data qubit
        ext = ExtendedCircuit(1, 2, (cx(0, 1),), PauliFrame())
        empty = Circuit.from_layers(1, [])
        with pytest.raises(ResidualEntanglementError, match="with the 1 data qubits"):
            channel_equivalent(ext, empty)

    def test_branch_dependent_result_rejected(self):
        # measuring a data qubit leaves its state depending on the outcome
        ext = ExtendedCircuit(1, 1, (Gate("meas", (0,), basis="Z", bit=1),), PauliFrame())
        empty = Circuit.from_layers(1, [])
        assert not channel_equivalent(ext, empty)

    def test_wide_tableau(self):
        # 557 qubits: each column int holds 1114 row bits, so every row mask
        # and product spans many machine words
        graph = gen_rect_low(3)
        n = graph.node_count
        logical = half_cx_circuit(n, 128, random.Random(5))
        ext, _, _ = compile_circuit_flow(logical, Placement.identity(n), graph, "greedy")
        assert ext.num_qubits == 557
        assert channel_equivalent(ext, logical)
        assert not channel_equivalent(ext, logical, drop_frame=True)


SINGLE_QUBIT_OPS = ("h", "s", "xhalf", "yhalf", "zhalf", "pauli_x", "pauli_z")


class TestAgainstReference:
    """The bit-packed tableau against the numpy tableau in the oracles, on
    seeded random programs of gates, Bell preparations in every variant,
    measurements, resets and flips."""

    @staticmethod
    def result(fn, *args):
        try:
            return fn(*args)
        except (ResidualEntanglementError, BranchDependentError) as exc:
            return type(exc)

    def test_random_programs_match(self):
        for seed in range(120):
            rng = random.Random(seed)
            n = 1 + seed % 12
            state, ref = StabilizerState(n), ReferenceStabilizerState(n, symbolic=True)
            ops = ("gate", "gate", "single", "measure", "reset", "flip") + (("bell",) if n >= 2 else ())
            for _ in range(5 * n + 6):
                op = rng.choice(ops)
                q = rng.randrange(n)
                if op == "gate":
                    (g,) = random_clifford_prefix(n, rng, 1)
                    state.apply_gate(g)
                    ref.apply_gate(g)
                elif op == "single":
                    name = rng.choice(SINGLE_QUBIT_OPS)
                    getattr(state, name)(q)
                    getattr(ref, name)(q)
                elif op == "measure":
                    basis = rng.choice("XZ")
                    assert state.measure(q, basis) == ref.measure(q, basis)
                elif op == "reset":
                    state.reset(q)
                    ref.reset(q)
                elif op == "bell":
                    a, b = rng.sample(range(n), 2)
                    variant = rng.choice(sorted(BELL_PAULIS))
                    state.bell(a, b, variant)
                    ref.bell(a, b, variant)
                else:  # an affine value: a constant and any of the open symbols
                    axis = rng.choice("XZ")
                    value = rng.getrandbits(1) | rng.getrandbits(state.symbols) << 1
                    state.flip(q, axis, value)
                    ref.flip(q, axis, value)
            assert state.symbols == ref.symbols
            state.validate()
            assert self.result(canonical_tableau, state) == self.result(reference_canonical_tableau, ref)
            data = rng.sample(range(n), rng.randint(1, n))
            assert self.result(reduced_canonical, state, data) == self.result(
                reference_reduced_canonical, ref, data
            )

    def test_ghz_products_of_many_stabilizers_match(self):
        # a 12-qubit GHZ state along a seeded qubit chain; once qubit 0 is
        # measured, each other qubit's Z outcome is deterministic, the sign
        # of a product of up to 12 stabilizers
        rng = random.Random(12)
        n = 12
        chain = rng.sample(range(n), n)
        state, ref = StabilizerState(n), ReferenceStabilizerState(n, symbolic=True)
        for sim in (state, ref):
            sim.h(chain[0])
            for a, b in zip(chain, chain[1:]):
                sim.cx(a, b)
        assert state.measure(0, "Z") == ref.measure(0, "Z")
        for q in rng.sample(range(1, n), n - 1):
            assert state.measure(q, "Z") == ref.measure(q, "Z")
        assert state.symbols == ref.symbols == 1
        state.validate()


class TestGateDispatch:
    def test_conditioned_pauli_fires_on_bits(self):
        s = StabilizerState(1)
        bits = {3: 1}
        s.apply_gate(pauli(0, "X", ONE), bits)
        assert s.measure(0, "Z") == 1

    def test_prep_resets(self):
        s = scrambled(2, 15)
        s.apply_gate(prep(0))
        assert s.measure(0, "Z") == 0

    def test_prep_x_basis(self):
        s = StabilizerState(1)
        s.apply_gate(prep(0, "X"))
        assert s.measure(0, "X") == 0


def test_data_register_mismatch_refused():
    with pytest.raises(ValueError, match="^data register mismatch between circuits$"):
        channel_equivalent(ExtendedCircuit(1, 1, (), PauliFrame()), Circuit.from_layers(2, []))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: StabilizerState(1).flip(0, "Y", 1), "unknown Pauli axis 'Y', expected X or Z"),
        # a Gate checks nothing when built, so a direct caller can apply any kind
        (lambda: StabilizerState(2).apply_gate(Gate("swap", (0, 1))), "cannot apply gate kind 'swap'"),
        (lambda: StabilizerState(1).measure(0, "Y"), "unsupported measurement basis 'Y'"),
        (lambda: StabilizerState(-1), "qubit count must be non-negative, got -1"),
    ],
    ids=["flip-axis", "apply-unknown-kind", "measure-basis", "negative-qubits"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
