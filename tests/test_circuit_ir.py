import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distqc.bench import gen_random_cz_circuit
from distqc.circuit import (
    Circuit,
    Commodity,
    CommoditySet,
    Gate,
    Placement,
    check_gate,
    cx,
    cz,
    extract_commodities,
    fanin,
    fanout,
    gate_from_json,
    gate_to_json,
    meas,
    pauli,
    validate,
    validate_layers,
    yhalf,
)
from distqc.cli import main
from distqc.flow import compile_circuit_flow, iterative_greedy, metrics
from distqc.netmodel import gen_rect_low
from distqc.pauli import XorExpr
from distqc.steiner import compile_circuit_steiner


def assert_refused(gate, reason):
    """`check_gate` refuses `gate` with `reason`, and a circuit holding it
    with the same reason for its layer."""
    with pytest.raises(ValueError) as checked:
        check_gate(gate)
    assert str(checked.value) == reason
    with pytest.raises(ValueError) as built:
        Circuit.from_layers(4, [[gate]])
    assert str(built.value) == f"layer 0: {reason}"


class TestGate:
    def test_operands_distinct(self):
        assert_refused(cx(1, 1), "cx gate on qubits [1, 1] repeats an operand")

    def test_fanin_needs_target(self):
        reason = "fanin gate on qubits [0] has the wrong number of operands, expected 2 or more"
        assert_refused(fanin(0, []), reason)

    @pytest.mark.parametrize(
        "kind,qubits,reason",
        [
            ("cx", (1, 1), "cx gate on qubits [1, 1] repeats an operand"),
            ("fanin", (0,), "fanin gate on qubits [0] has the wrong number of operands, expected 2 or more"),
            ("fanout", (2, 3, 2), "fanout gate on qubits [2, 3, 2] repeats an operand"),
        ],
        ids=["cx-qubits0", "fanin-qubits1", "fanout-qubits2"],
    )
    def test_direct_construction_validates(self, kind, qubits, reason):
        # building a gate checks nothing; the contract is check_gate's
        assert_refused(Gate(kind, qubits), reason)
        assert_refused(Gate(kind=kind, qubits=qubits, basis="Z"), reason)

    def test_replace_validates(self):
        assert cx(0, 1)._replace(qubits=(0, 2)) == cx(0, 2)
        assert_refused(cx(0, 1)._replace(qubits=(1, 1)), "cx gate on qubits [1, 1] repeats an operand")

    def test_immutable(self):
        g = cx(0, 1)
        with pytest.raises(AttributeError):
            g.kind = "cz"
        with pytest.raises(AttributeError):
            g.label = "extra"

    def test_equal_gates_hash_equal_and_share_a_route(self):
        a, b = meas(3, "X", 7), Gate(kind="meas", qubits=(3,), basis="X", bit=7)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != meas(3, "Z", 7)
        assert pauli(0, "X", XorExpr.of(1)) == pauli(0, "X", XorExpr.of(1))
        routes = {(2, cx(0, 1)): ["route"]}
        assert routes[(2, Gate("cx", (0, 1)))] == ["route"]
        assert (2, cx(1, 0)) not in routes and (1, cx(0, 1)) not in routes

    def test_repr(self):
        assert repr(cx(0, 1)) == "Gate(kind='cx', qubits=(0, 1), basis='', bit=-1, cond=None, variant='')"

    def test_roles(self):
        g = fanin(2, [0, 5])
        assert g.controls() == (2,) and g.targets() == (0, 5)
        h = fanout(3, [1, 4])
        assert h.targets() == (3,) and h.controls() == (1, 4)

    def test_diagonal(self):
        assert cz(0, 1).is_diagonal()
        assert fanin(0, [1], basis="Z").is_diagonal()
        assert not cx(0, 1).is_diagonal()


class TestValidateLayers:
    def test_shared_qubit_in_layer(self):
        with pytest.raises(ValueError, match=r"^layer 0: qubit 1 used twice in layer$"):
            Circuit.from_layers(4, [[cz(0, 1), cz(1, 2)]])

    def test_negative_qubit_out_of_range(self):
        # an index from the end would name a real qubit
        with pytest.raises(ValueError, match=r"^layer 0: qubit -1 out of range$"):
            validate_layers(Circuit.from_layers(3, [[cx(0, -1)]]))

    def test_empty_circuit_ok(self):
        assert validate_layers(Circuit.from_layers(3, [])) is None

    def test_duplicate_bit(self):
        with pytest.raises(ValueError, match=r"^layer 1: bit 7 emitted twice$"):
            Circuit.from_layers(2, [[meas(0, "Z", 7)], [meas(1, "Z", 7)]])

    def test_random_generator_layers_valid(self):
        rng = random.Random(3)
        c = gen_random_cz_circuit(49, 1024, rng)
        assert len(c.all_gates()) == 1024
        assert validate_layers(c) is None


class TestValidate:
    @pytest.mark.parametrize(
        "layer",
        [
            [pauli(2, "X", XorExpr.of(1))],
            [meas(0, "Z", 1), pauli(2, "X", XorExpr.of(1))],  # not an earlier layer
        ],
    )
    def test_condition_on_unmeasured_bit_rejected(self, layer):
        # compiled, the frame would read the remote CX's own measurement
        # of the same bit id
        msg = "layer 1: pauli on qubit 2 reads bit 1, which no meas of an earlier layer emits"
        for compile_ in (compile_circuit_flow, compile_circuit_steiner):
            with pytest.raises(ValueError, match=msg):
                compile_(Circuit.from_layers(3, [[cx(0, 1)], layer]), Placement.identity(3), gen_rect_low(2))

    @pytest.mark.parametrize("compile_", [compile_circuit_flow, compile_circuit_steiner])
    def test_unknown_gate_kind_rejected(self, compile_):
        # a remote swap would otherwise fail deep in the expansion's push rules
        with pytest.raises(ValueError, match=r"^layer 1: unknown gate kind 'swap'$"):
            compile_(
                Circuit.from_layers(4, [[cz(1, 2)], [Gate("swap", (0, 3))]]),
                Placement.identity(4),
                gen_rect_low(2),
            )


MALFORMED_GATES = [
    (Gate("cx", (0, 1, 2)), "cx gate on qubits [0, 1, 2] has the wrong number of operands, expected 2"),
    (fanin(0, [1], basis="Y"), "fanin gate on qubits [0, 1] has basis 'Y', expected X or Z"),
    (meas(0, "Q", 0), "meas gate on qubits [0] has basis 'Q', expected X or Z"),
    (Gate("cx", (0, 1), cond=XorExpr.of(0)), "cx gate on qubits [0, 1] carries a cond, which only a pauli may"),
    (Gate("cz", (0, 1), bit=0), "cz gate on qubits [0, 1] carries a bit, which only a meas may"),
    (Gate("cz", (0, 1), variant="phi+"), "cz gate on qubits [0, 1] carries a variant, which only a bell may"),
    (Gate("bell", (0, 1), variant="phi"),
     "bell gate on qubits [0, 1] has variant 'phi', expected one of phi+, phi-, psi+, psi-"),
    (Gate("cz", ()), "cz gate on qubits [] has the wrong number of operands, expected 2"),
]
MALFORMED_IDS = [
    "cx-three-qubits", "fanin-basis-y", "meas-basis-q", "cx-cond", "cz-bit", "cz-variant",
    "bell-variant-phi", "cz-no-qubits",
]


@pytest.mark.parametrize("gate,reason", MALFORMED_GATES, ids=MALFORMED_IDS)
def test_malformed_gate_rejected_everywhere(tmp_path, capsys, gate, reason):
    """One rule, one message: from Python, from JSON and from the command
    line alike."""
    with pytest.raises(ValueError) as built:
        Circuit.from_layers(3, [[gate]])
    assert str(built.value) == f"layer 0: {reason}"
    with pytest.raises(ValueError) as read:
        gate_from_json(gate_to_json(gate))
    assert str(read.value) == reason
    circ, topo = tmp_path / "circ.json", tmp_path / "topo.json"
    circ.write_text(json.dumps({"qubits": 3, "layers": [[gate_to_json(gate)]]}))
    topo.write_text(json.dumps(gen_rect_low(2).to_json()))
    rc = main(["compile", "--circuit", str(circ), "--topology", str(topo), "--backend", "flow-greedy"])
    assert rc == 2 and capsys.readouterr().err == f"distqc compile: error: {circ}: layer 0: {reason}\n"


class TestExtractCommodities:
    def test_cz_only_prec_empty(self):
        rng = random.Random(0)
        c = gen_random_cz_circuit(9, 40, rng)
        cs = extract_commodities(c, Placement.identity(9))
        assert cs.prec == frozenset()

    def test_conflict_pair(self):
        # CX(q1,q2) then CZ(q2,q3) on three processors: ordered and
        # quasi-parallel under the default predicate (shared qubit is the
        # CX target and a CZ operand).
        c = Circuit.from_layers(3, [[cx(0, 1)], [cz(1, 2)]])
        cs = extract_commodities(c, Placement.identity(3))
        assert cs.k == 2
        assert cs.prec == frozenset({(0, 1)})
        assert cs.qpar == frozenset({frozenset({0, 1})})

    def test_control_shared_not_quasi_parallel(self):
        c = Circuit.from_layers(3, [[cx(1, 0)], [cz(1, 2)]])
        cs = extract_commodities(c, Placement.identity(3))
        assert cs.prec == frozenset({(0, 1)})
        assert cs.qpar == frozenset()

    def test_single_processor_no_commodities(self):
        c = Circuit.from_layers(4, [[cx(0, 1)], [cz(2, 3)]])
        cs = extract_commodities(c, Placement(tuple([0] * 4)))
        assert cs.k == 0

    def test_fanin_one_commodity_per_remote_processor(self):
        c = Circuit.from_layers(5, [[fanin(0, [1, 2, 3, 4])]])
        place = Placement((0, 1, 1, 2, 0))
        cs = extract_commodities(c, place)
        assert cs.k == 2
        assert {c.target for c in cs.commodities} == {1, 2}
        by_target = {c.target: c.target_qubits for c in cs.commodities}
        assert by_target == {1: (1, 2), 2: (3,)}

    def test_deterministic_order(self):
        rng = random.Random(5)
        c = gen_random_cz_circuit(12, 30, rng)
        p = Placement.identity(12)
        a = extract_commodities(c, p)
        b = extract_commodities(c, p)
        assert a == b
        keys = [(com.layer, min(com.gate.qubits)) for com in a.commodities]
        assert keys == sorted(keys)

    def test_prec_respects_layers(self):
        rng = random.Random(6)
        layers = []
        for _ in range(8):
            a, b = rng.sample(range(6), 2)
            layers.append([rng.choice([cx, cz])(a, b)])
        c = Circuit.from_layers(6, layers)
        cs = extract_commodities(c, Placement.identity(6))
        for j, i in cs.prec:
            assert cs.commodities[j].layer < cs.commodities[i].layer

    def test_cz_only_schedule_ignores_prec(self):
        # with no order constraints, forcibly clearing prec changes nothing
        rng = random.Random(7)
        c = gen_random_cz_circuit(9, 24, rng)
        g = gen_rect_low(3)
        cs = extract_commodities(c, Placement.identity(9))
        stripped = type(cs)(cs.commodities, ((),) * cs.k, ((),) * cs.k)
        a = iterative_greedy(g, cs)
        b = iterative_greedy(g, stripped)
        assert metrics(a) == metrics(b)


class TestSerialization:
    def test_circuit_roundtrip(self):
        c = Circuit.from_layers(
            5, [[cx(0, 3), cz(1, 2)], [fanin(0, [1, 4])], [yhalf(2)]]
        )
        doc = json.loads(json.dumps(c.to_json()))
        assert Circuit.from_json(doc) == c

    def test_circuit_json_shape(self):
        c = Circuit.from_layers(4, [[cx(0, 3)]])
        assert c.to_json() == {"qubits": 4, "layers": [[{"kind": "cx", "q": [0, 3]}]]}

    def test_placement_roundtrip(self):
        p = Placement((0, 2, 1))
        assert Placement.from_json(json.loads(json.dumps(p.to_json()))) == p


@settings(max_examples=60)
@given(st.integers(2, 10), st.integers(0, 60), st.integers(0, 2**31))
def test_generated_circuits_always_layer_valid(n, k, seed):
    c = gen_random_cz_circuit(n, k, random.Random(seed))
    assert validate_layers(c) is None
    assert len(c.all_gates()) == k


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: validate(Circuit.from_layers(3, [[cz(0, 2)]]), Placement((0, 1)), gen_rect_low(2)),
         "placement maps 2 of 3 qubits"),
        (lambda: CommoditySet((Commodity(0, 1, 0, (1,), cx(0, 1)),), (), ((),)),
         "successor lists must have one entry per commodity (1)"),
    ],
    ids=["short-placement", "successor-list-count"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
