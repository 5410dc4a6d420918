"""The exact channel check against the sampled oracle on criterion-9 shaped
circuits, against mutated frames, and on the circuits it refuses."""

import random

import pytest

from distqc.circuit import Circuit, Placement, bell, cx, cz, meas, pauli, prep
from distqc.flow import compile_circuit_flow
from distqc.netmodel import gen_rect_low
from distqc.pauli import ONE, PauliFrame, XorExpr
from distqc.stabsim import channel_equivalent
from distqc.steiner import compile_circuit_steiner
from distqc.telegate import ExtendedCircuit
from oracles import random_clifford_circuit, sampled_channel_equivalent


def _corpus():
    lattice = gen_rect_low(2)
    rng = random.Random(505)
    out = []
    for _ in range(20):
        n = rng.randint(3, 6)
        circ = random_clifford_circuit(n, 20, rng)
        place = Placement.round_robin(n, lattice.node_count)
        out.append((circ, compile_circuit_flow(circ, place, lattice, "greedy")[0]))
        out.append((circ, compile_circuit_steiner(circ, place, lattice)[0]))
    return out


CORPUS = _corpus()


def exact(ext, circ, drop_frame=False):
    return channel_equivalent(ext, circ, drop_frame=drop_frame)


def touches_data(ext):
    return any(q < ext.num_data for q in ext.frame.qubits())


def test_agrees_with_sampled_oracle_and_known_answers():
    rng = random.Random(606)
    for circ, ext in CORPUS:
        for drop in (False, True):
            known = not drop or not touches_data(ext)
            assert sampled_channel_equivalent(ext, circ, 4, 4, rng, drop_frame=drop) == known
            assert exact(ext, circ, drop) == known


def test_rejects_dropped_frames_on_data_qubits():
    negatives = [exact(ext, circ, drop_frame=True) for circ, ext in CORPUS if touches_data(ext)]
    assert len(negatives) >= 30 and not any(negatives)


def _mutations(ext):
    """Per axis, the first data-qubit frame term with its first and its last
    bit removed (its constant toggled when it has no bit)."""
    for axis, entries in (("X", ext.frame.x), ("Z", ext.frame.z)):
        terms = [(q, e) for q, e in sorted(entries.items()) if q < ext.num_data]
        if not terms:
            continue
        q, expr = terms[0]
        bits = sorted(expr.bits)
        for flip in [XorExpr.of(b) for b in sorted({bits[0], bits[-1]})] if bits else [ONE]:
            frame = ext.frame.copy()
            frame.add(q, axis, flip)
            yield ExtendedCircuit(ext.num_data, ext.num_qubits, ext.gates, frame)


def test_rejects_single_bit_frame_mutations():
    verdicts = [exact(m, circ) for circ, ext in CORPUS for m in _mutations(ext)]
    assert len(verdicts) >= 30 and not any(verdicts)


def test_mutations_rejected_by_oracle_too():
    rng = random.Random(707)
    for circ, ext in CORPUS[:6]:
        for m in _mutations(ext):
            assert not sampled_channel_equivalent(m, circ, 4, 4, rng)


@pytest.mark.parametrize("trials,branches,seed", [(1, 1, 1), (20, 10, 2), (3, 50, 3)])
def test_verdict_ignores_sampling_settings(trials, branches, seed):
    for circ, ext in CORPUS:
        for drop in (False, True):
            got = channel_equivalent(
                ext, circ, trials=trials, branches=branches, rng=random.Random(seed), drop_frame=drop
            )
            assert got == exact(ext, circ, drop)


@pytest.mark.parametrize(
    "gate,name",
    [(prep(1), "prep"), (meas(1, "Z", 7), "meas"), (pauli(1, "X", XorExpr.of(7)), "pauli")],
)
def test_refuses_non_unitary_logical_circuit(gate, name):
    ext = ExtendedCircuit(2, 2, (cx(0, 1),), PauliFrame())
    message = f"logical layer 1: {name} on qubits \\[1\\] is not unitary"
    if name == "pauli":
        # a conditioned pauli reads a bit no earlier meas emits, or that
        # meas is refused first; the circuit itself refuses this one
        message = "^layer 1: pauli on qubit 1 reads bit 7, which no meas of an earlier layer emits$"
    with pytest.raises(ValueError, match=message):
        exact(ext, Circuit.from_layers(2, [[cx(0, 1)], [gate]]))


def test_refuses_logical_bell():
    # a logical bell is a preparation: the simulator would otherwise run it
    # as H then CX, while compilation drops its qubits' pending corrections
    ext = ExtendedCircuit(9, 9, (cx(0, 4),), PauliFrame())
    with pytest.raises(ValueError, match=r"^layer 1: bell on qubits \[0, 1\] is not a logical gate$"):
        exact(ext, Circuit.from_layers(9, [[cx(0, 4)], [bell(0, 1)]]))


def test_refuses_logical_qubit_out_of_range():
    # run, cz(0, 3) would act on a reference qubit of the 2-qubit Choi state
    ext = ExtendedCircuit(2, 2, (cz(0, 1),), PauliFrame())
    with pytest.raises(ValueError, match=r"^layer 0: qubit 3 out of range$"):
        exact(ext, Circuit.from_layers(2, [[cz(0, 3)]]))


def test_constant_pauli_is_unitary():
    logical = Circuit.from_layers(1, [[pauli(0, "X", ONE)]])
    frame = PauliFrame()
    frame.add(0, "X", ONE)
    assert exact(ExtendedCircuit(1, 1, (), frame), logical)
    assert not exact(ExtendedCircuit(1, 1, (), PauliFrame()), logical)
