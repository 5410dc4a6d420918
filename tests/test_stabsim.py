import random

import pytest

from distqc.circuit import Circuit, Gate, cx, cz, fanin, pauli, prep, yhalf
from distqc.pauli import ONE, PauliFrame
from distqc.stabsim import (
    ResidualEntanglementError,
    StabilizerState,
    canonical_tableau,
    channel_equivalent,
    random_clifford_prefix,
    reduced_canonical,
)
from distqc.telegate import ExtendedCircuit, expand_telegate_cx


def scrambled(n, seed):
    rng = random.Random(seed)
    s = StabilizerState(n)
    for g in random_clifford_prefix(n, rng):
        s.apply_gate(g)
    return s


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
        t.pauli_y(0)
        assert canonical_tableau(s) == canonical_tableau(t)

    def test_bell_pair_stabilizers(self):
        s = StabilizerState(2)
        s.bell(0, 1)
        gens = set()
        for i in range(2, 4):
            label = "".join("IXZY"[s.x[i, j] + 2 * s.z[i, j]] for j in range(2))
            gens.add(("-" if s.r[i] else "+") + label)
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
        for seed in range(30):
            rng = random.Random(seed)
            s = StabilizerState(2)
            s.bell(0, 1)
            assert s.measure(0, "Z", rng) == s.measure(1, "Z", rng)

    def test_x_measurement_uniform(self):
        rng = random.Random(7)
        ones = 0
        trials = 1000
        for _ in range(trials):
            s = StabilizerState(1)
            ones += s.measure(0, "X", rng)
        # 4 sigma around the binomial mean
        sigma = (trials * 0.25) ** 0.5
        assert abs(ones - trials / 2) < 4 * sigma

    def test_repeated_measurement_stable(self):
        rng = random.Random(8)
        s = StabilizerState(1)
        s.yhalf(0)
        first = s.measure(0, "Z", rng)
        for _ in range(5):
            assert s.measure(0, "Z", rng) == first

    def test_random_outcome_without_rng_raises(self):
        s = StabilizerState(1)
        s.yhalf(0)
        with pytest.raises(RuntimeError):
            s.measure(0, "Z")

    def test_validate_after_measurements(self):
        rng = random.Random(9)
        s = scrambled(4, 9)
        for q in range(4):
            s.measure(q, "Z" if q % 2 else "X", rng)
            s.validate()


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
        assert channel_equivalent(frag, logical, trials=20, branches=10, rng=random.Random(10))

    def test_dropped_corrections_detected(self):
        frag = expand_telegate_cx(0, 1, [0, 1])
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        assert not channel_equivalent(
            frag, logical, trials=20, branches=10, rng=random.Random(11), drop_frame=True
        )

    def test_identity_extended_vs_empty(self):
        ext = ExtendedCircuit(2, 2, (), PauliFrame())
        empty = Circuit.from_layers(2, [])
        assert channel_equivalent(ext, empty, trials=10, branches=3, rng=random.Random(12))

    def test_distinguishes_close_channels(self):
        # cx vs cz on the same operands must be told apart
        ext = ExtendedCircuit(2, 2, (cz(0, 1),), PauliFrame())
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        assert not channel_equivalent(ext, logical, trials=20, branches=2, rng=random.Random(13))

    def test_wrong_single_qubit_gate_detected(self):
        ext = ExtendedCircuit(1, 1, (Gate("xhalf", (0,)),), PauliFrame())
        logical = Circuit.from_layers(1, [[yhalf(0)]])
        assert not channel_equivalent(ext, logical, trials=20, branches=2, rng=random.Random(14))

    @pytest.mark.parametrize("trials,branches", [(0, 10), (20, 0), (-1, 10)])
    def test_no_trial_or_branch_rejected(self, trials, branches):
        # with nothing sampled a wrong channel would pass unchecked
        ext = ExtendedCircuit(2, 2, (cz(0, 1),), PauliFrame())
        logical = Circuit.from_layers(2, [[cx(0, 1)]])
        with pytest.raises(ValueError, match="at least one trial and one branch"):
            channel_equivalent(ext, logical, trials=trials, branches=branches, rng=random.Random(15))


class TestGateDispatch:
    def test_conditioned_pauli_fires_on_bits(self):
        s = StabilizerState(1)
        bits = {3: 1}
        s.apply_gate(pauli(0, "X", ONE), bits)
        assert s.measure(0, "Z") == 1

    def test_prep_resets(self):
        rng = random.Random(15)
        s = scrambled(2, 15)
        s.apply_gate(prep(0), rng=rng)
        assert s.measure(0, "Z", rng) == 0

    def test_prep_x_basis(self):
        rng = random.Random(16)
        s = StabilizerState(1)
        s.apply_gate(prep(0, "X"), rng=rng)
        assert s.measure(0, "X", rng) == 0
