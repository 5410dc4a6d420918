"""Layered circuit IR, qubit placement, and commodity extraction.

A circuit is an ordered list of layers; each layer is a set of gates acting
on pairwise-disjoint qubits.  Non-local two-qubit interactions (the ones
whose operands sit on different processors under a given placement) become
*commodities*: routing demands (source processor, target processor) that the
scheduling backends consume.  Alongside the commodities we build two
relations: the order relation ``prec`` (which commodity must logically run
before which) and the quasi-parallel relation ``qpar`` (ordered pairs that
may nevertheless share a time step because their conflict resolves in the
classical correction layer).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from .pauli import XorExpr

if TYPE_CHECKING:
    from .netmodel import QuotientGraph

TWO_QUBIT_KINDS = {"cz", "cx"}
FAN_KINDS = {"fanin", "fanout"}


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    kind     one of: cz, cx, fanin, fanout, yhalf, pauli, prep, meas, bell
    qubits   operands; for cx: (control, target); for fanin: (control, *targets);
             for fanout: (target, *controls)
    basis    Pauli axis for pauli/prep/meas, and the interaction type ("X"/"Z")
             for fanin/fanout
    bit      classical bit id emitted by a meas gate
    cond     XOR-of-bits condition of a pauli gate
    variant  Bell state prepared by a bell gate: phi+, phi-, psi+, psi-
    """

    kind: str
    qubits: tuple[int, ...]
    basis: str = ""
    bit: int = -1
    cond: XorExpr | None = None
    variant: str = ""

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"gate operands must be distinct: {self}")
        if self.kind in FAN_KINDS and len(self.qubits) < 2:
            raise ValueError("fanin/fanout needs at least one remote operand")

    @property
    def hub(self) -> int:
        """Control of a fanin / target of a fanout / control of cx."""
        return self.qubits[0]

    @property
    def spokes(self) -> tuple[int, ...]:
        return self.qubits[1:]

    def controls(self) -> tuple[int, ...]:
        if self.kind == "cx":
            return (self.qubits[0],)
        if self.kind == "cz":
            return self.qubits  # diagonal: both operands act as controls
        if self.kind == "fanin":
            return (self.hub,)
        if self.kind == "fanout":
            return self.spokes
        return ()

    def targets(self) -> tuple[int, ...]:
        if self.kind == "cx":
            return (self.qubits[1],)
        if self.kind == "fanin":
            return self.spokes
        if self.kind == "fanout":
            return (self.hub,)
        return ()

    def is_diagonal(self) -> bool:
        return self.kind == "cz" or (self.kind in FAN_KINDS and self.basis == "Z")


def cz(a: int, b: int) -> Gate:
    return Gate("cz", (a, b))


def cx(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def fanin(control: int, targets: Iterable[int], basis: str = "X") -> Gate:
    return Gate("fanin", (control, *targets), basis=basis)


def fanout(target: int, controls: Iterable[int], basis: str = "X") -> Gate:
    return Gate("fanout", (target, *controls), basis=basis)


def yhalf(q: int) -> Gate:
    return Gate("yhalf", (q,))


def pauli(q: int, axis: str, cond: XorExpr) -> Gate:
    return Gate("pauli", (q,), basis=axis, cond=cond)


def prep(q: int, basis: str = "Z") -> Gate:
    return Gate("prep", (q,), basis=basis)


def meas(q: int, basis: str, bit: int) -> Gate:
    return Gate("meas", (q,), basis=basis, bit=bit)


def bell(a: int, b: int, variant: str = "phi+") -> Gate:
    return Gate("bell", (a, b), variant=variant)


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    layers: tuple[tuple[Gate, ...], ...]

    @staticmethod
    def from_layers(num_qubits: int, layers: Iterable[Iterable[Gate]]) -> "Circuit":
        fixed = tuple(tuple(sorted(layer, key=lambda g: min(g.qubits))) for layer in layers)
        return Circuit(num_qubits, fixed)

    def all_gates(self) -> list[Gate]:
        return [g for layer in self.layers for g in layer]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def to_json(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "layers": [[gate_to_json(g) for g in layer] for layer in self.layers],
        }

    @staticmethod
    def from_json(doc: dict) -> "Circuit":
        layers = [[gate_from_json(g) for g in layer] for layer in doc["layers"]]
        return Circuit.from_layers(doc["qubits"], layers)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=None, separators=(",", ":"))


def gate_to_json(g: Gate) -> dict:
    doc: dict = {"kind": g.kind, "q": list(g.qubits)}
    if g.basis:
        doc["basis"] = g.basis
    if g.bit >= 0:
        doc["bit"] = g.bit
    if g.cond is not None:
        doc["cond"] = g.cond.tokens()
    if g.variant:
        doc["variant"] = g.variant
    return doc


def gate_from_json(doc: dict) -> Gate:
    cond = XorExpr.from_tokens(doc["cond"]) if "cond" in doc else None
    return Gate(
        kind=doc["kind"],
        qubits=tuple(doc["q"]),
        basis=doc.get("basis", ""),
        bit=doc.get("bit", -1),
        cond=cond,
        variant=doc.get("variant", ""),
    )


@dataclass(frozen=True)
class LayerViolation:
    layer: int
    gates: tuple[Gate, ...]
    reason: str


def validate_layers(circuit: Circuit) -> LayerViolation | None:
    """Check per-layer qubit disjointness and global measurement-bit uniqueness.

    Returns None when the circuit is well formed, else the first violation.
    """
    seen_bits: dict[int, tuple[int, Gate]] = {}
    for li, layer in enumerate(circuit.layers):
        used: dict[int, Gate] = {}
        for g in layer:
            for q in g.qubits:
                if q in used:
                    return LayerViolation(li, (used[q], g), f"qubit {q} used twice in layer")
                if q >= circuit.num_qubits:
                    return LayerViolation(li, (g,), f"qubit {q} out of range")
                used[q] = g
            if g.kind == "meas":
                if g.bit in seen_bits:
                    return LayerViolation(li, (seen_bits[g.bit][1], g), f"bit {g.bit} emitted twice")
                seen_bits[g.bit] = (li, g)
    return None


def validate(circuit: Circuit, placement: Placement, graph: QuotientGraph) -> None:
    """Reject a malformed compile input with a ValueError naming the fault:
    a layer violation, a placement missing a qubit, or a processor outside
    the graph."""
    bad = validate_layers(circuit)
    if bad is not None:
        raise ValueError(f"layer {bad.layer}: {bad.reason}")
    procs = placement.qubit_to_processor
    if len(procs) < circuit.num_qubits:
        raise ValueError(f"placement maps {len(procs)} of {circuit.num_qubits} qubits")
    for q, p in enumerate(procs):
        if not 0 <= p < graph.node_count:
            raise ValueError(f"qubit {q} on processor {p} of a {graph.node_count}-node graph")


@dataclass(frozen=True)
class Placement:
    """Total map from circuit qubits to processor ids of a quotient graph."""

    qubit_to_processor: tuple[int, ...]

    def proc(self, q: int) -> int:
        return self.qubit_to_processor[q]

    @staticmethod
    def identity(n: int) -> "Placement":
        return Placement(tuple(range(n)))

    @staticmethod
    def round_robin(num_qubits: int, num_procs: int) -> "Placement":
        return Placement(tuple(q % num_procs for q in range(num_qubits)))

    def to_json(self) -> dict:
        return {"map": list(self.qubit_to_processor)}

    @staticmethod
    def from_json(doc: dict) -> "Placement":
        return Placement(tuple(doc["map"]))


@dataclass(frozen=True)
class Commodity:
    """One remote interaction demanding an entanglement path.

    ``control_qubits``/``target_qubits`` are the data operands that the
    telegate expander needs; for commodities cut out of a fanin/fanout they
    are the hub qubit and the spoke qubits living on the target processor.
    """

    source: int
    target: int
    layer: int
    kind: str  # "cx" or "cz" interaction along the path
    control_qubit: int
    target_qubits: tuple[int, ...]
    gate: Gate


@dataclass(frozen=True)
class OrderIndex:
    """Per-commodity view of ``prec``: sorted predecessors, and successors
    split by whether they need a strictly later step or may share one."""

    preds: tuple[tuple[int, ...], ...]
    strict_succs: tuple[tuple[int, ...], ...]
    qpar_succs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CommoditySet:
    commodities: tuple[Commodity, ...]
    prec: frozenset[tuple[int, int]]  # (j, i): commodity j must run before i
    qpar: frozenset[frozenset[int]]  # unordered quasi-parallel pairs

    @property
    def k(self) -> int:
        return len(self.commodities)

    @cached_property
    def order(self) -> OrderIndex:
        """The order relation indexed per commodity, built once in O(|prec|)."""
        preds: list[list[int]] = [[] for _ in range(self.k)]
        strict: list[list[int]] = [[] for _ in range(self.k)]
        qpar: list[list[int]] = [[] for _ in range(self.k)]
        for j, i in self.prec:
            preds[i].append(j)
            (qpar if frozenset((j, i)) in self.qpar else strict)[j].append(i)
        return OrderIndex(
            tuple(tuple(sorted(p)) for p in preds),
            tuple(tuple(sorted(s)) for s in strict),
            tuple(tuple(sorted(s)) for s in qpar),
        )

    def quasi_parallel(self, i: int, j: int) -> bool:
        return frozenset({i, j}) in self.qpar


QparPredicate = Callable[[Gate, Gate, int], bool]


def default_qpar(earlier: Gate, later: Gate, shared_qubit: int) -> bool:
    """Quasi-parallelism for one ordered pair sharing exactly one qubit.

    Safe pattern: the shared qubit is the target of the earlier gate and a
    control of the later one (the later telegate's control-side injection can
    ride in the same entanglement round, with the conflict repaired in the
    correction layer), or both gates are diagonal.
    """
    if earlier.is_diagonal() and later.is_diagonal():
        return True
    return shared_qubit in earlier.targets() and shared_qubit in later.controls()


def _gate_commodities(g: Gate, li: int, placement: Placement) -> list[Commodity]:
    out: list[Commodity] = []
    if g.kind in TWO_QUBIT_KINDS:
        a, b = g.qubits
        pa, pb = placement.proc(a), placement.proc(b)
        if pa != pb:
            out.append(Commodity(pa, pb, li, g.kind, a, (b,), g))
    elif g.kind in FAN_KINDS:
        hub = g.hub
        hub_proc = placement.proc(hub)
        by_proc: dict[int, list[int]] = {}
        for q in g.spokes:
            p = placement.proc(q)
            if p != hub_proc:
                by_proc.setdefault(p, []).append(q)
        kind = "cz" if g.basis == "Z" else "cx"
        for p in sorted(by_proc, key=lambda p: min(by_proc[p])):
            out.append(Commodity(hub_proc, p, li, kind, hub, tuple(sorted(by_proc[p])), g))
    return out


def extract_commodities(
    circuit: Circuit,
    placement: Placement,
    qpar_predicate: QparPredicate = default_qpar,
) -> CommoditySet:
    """Enumerate remote interactions and build the prec / qpar relations.

    Commodity order is deterministic: lexicographic by (layer index, smallest
    operand qubit, smallest target qubit).  The order relation is the
    conservative default: j before i whenever gate(j) lies in a strictly
    earlier layer, shares a qubit with gate(i), and at least one of the two
    gates is not diagonal (commuting diagonal pairs get no constraint).
    Only commodities on one of gate(i)'s qubits can relate to i, so each is
    compared with those alone, found through a per-qubit history.
    """
    commodities: list[Commodity] = []
    for li, layer in enumerate(circuit.layers):
        layer_comms: list[Commodity] = []
        for g in layer:
            layer_comms.extend(_gate_commodities(g, li, placement))
        layer_comms.sort(key=lambda c: (min(c.gate.qubits), min(c.target_qubits)))
        commodities.extend(layer_comms)

    # history[q]: indices of the commodities already emitted on qubit q, ascending
    history: dict[int, list[int]] = {}
    diagonal = [c.gate.is_diagonal() for c in commodities]
    prec: set[tuple[int, int]] = set()
    qpar: set[frozenset[int]] = set()
    for i, ci in enumerate(commodities):
        qi = ci.gate.qubits
        candidates: set[int] = set()
        for q in qi:
            candidates.update(history.setdefault(q, []))
        for j in sorted(candidates):
            cj = commodities[j]
            if cj.layer >= ci.layer or (diagonal[j] and diagonal[i]):
                continue
            prec.add((j, i))
            shared = set(cj.gate.qubits).intersection(qi)
            if len(shared) == 1 and qpar_predicate(cj.gate, ci.gate, next(iter(shared))):
                qpar.add(frozenset({j, i}))
        for q in qi:
            history[q].append(i)
    return CommoditySet(tuple(commodities), frozenset(prec), frozenset(qpar))
