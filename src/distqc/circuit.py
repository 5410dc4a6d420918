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
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .pauli import XorExpr, set_bits

if TYPE_CHECKING:
    from .netmodel import QuotientGraph

TWO_QUBIT_KINDS = {"cz", "cx"}
FAN_KINDS = {"fanin", "fanout"}


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    basis: str = ""
    bit: int = -1
    cond: XorExpr | None = None
    variant: str = ""


class Gate(_GateFields):
    """One circuit operation: an immutable tuple, compared and hashed by value.

    kind     a key of GATE_KINDS
    qubits   operands; for cx: (control, target); for fanin: (control, *targets);
             for fanout: (target, *controls)
    basis    Pauli axis for pauli/prep/meas, and the interaction type ("X"/"Z")
             for fanin/fanout
    bit      classical bit id emitted by a meas gate
    cond     XOR-of-bits condition of a pauli gate
    variant  Bell state prepared by a bell gate: phi+, phi-, psi+, psi-

    Every construction, `_make` and `_replace` included, rejects a repeated
    operand and a fan gate with fewer than two operands.  It is a tuple
    because the expansion builds one per emitted gate, and a tuple is the
    cheapest immutable record to construct.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        qubits: tuple[int, ...],
        basis: str = "",
        bit: int = -1,
        cond: XorExpr | None = None,
        variant: str = "",
    ) -> "Gate":
        n = len(qubits)
        if n > 1 and len(set(qubits)) != n:
            raise ValueError(f"{kind} gate on qubits {list(qubits)} repeats an operand")
        if n < 2 and kind in FAN_KINDS:
            raise ValueError("fanin/fanout needs at least one remote operand")
        return tuple.__new__(cls, (kind, qubits, basis, bit, cond, variant))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gate":
        return cls(*iterable)

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
        return Circuit.from_layers(json_int(doc["qubits"], "qubit count"), layers)

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


# the Pauli on the first qubit of a phi+ pair that makes each Bell state;
# a bell gate's empty variant is phi+
BELL_PAULIS = {"phi+": "", "phi-": "Z", "psi+": "X", "psi-": "XZ"}
# every gate kind, with its operand count (for a FAN_KINDS gate, the least:
# a hub and one spoke) and the bases it may name; "" is the default of prep
# and meas (Z) and of fanin and fanout (X), and a pauli has no default axis
GATE_KINDS = {
    "cx": (2, ("",)),
    "cz": (2, ("",)),
    "bell": (2, ("",)),
    "yhalf": (1, ("",)),
    "xhalf": (1, ("",)),
    "zhalf": (1, ("",)),
    "pauli": (1, ("X", "Z")),
    "prep": (1, ("", "X", "Z")),
    "meas": (1, ("", "X", "Z")),
    "fanin": (2, ("", "X", "Z")),
    "fanout": (2, ("", "X", "Z")),
}


def json_int(value, what: str) -> int:
    """`value` if it is a non-negative JSON integer; anything else, a float
    or a boolean too, is a ValueError naming `what`."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {json.dumps(value)}")
    return value


def gate_from_json(doc: dict) -> Gate:
    """Read one gate, rejecting an unknown kind, a wrong operand count, and
    a qubit, bit, basis or Bell variant the simulator and the compiler
    would misread."""
    kind = doc["kind"]
    if type(kind) is not str or kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {json.dumps(kind)}")
    count, bases = GATE_KINDS[kind]
    qubits = tuple(json_int(q, f"{kind} gate qubit") for q in doc["q"])
    basis, variant = doc.get("basis", ""), doc.get("variant", "")
    fan = kind in FAN_KINDS
    if len(qubits) < count or (len(qubits) > count and not fan):
        raise ValueError(
            f"{kind} gate on qubits {list(qubits)} has the wrong number of operands, "
            f"expected {count}{' or more' if fan else ''}"
        )
    if basis not in bases:
        expected = " or ".join(b for b in bases if b) or "none"
        raise ValueError(f"{kind} gate on qubits {list(qubits)} has basis {basis!r}, expected {expected}")
    if kind == "bell" and variant and variant not in BELL_PAULIS:
        raise ValueError(
            f"bell gate on qubits {list(qubits)} has variant {variant!r}, "
            f"expected one of {', '.join(BELL_PAULIS)}"
        )
    bit = json_int(doc["bit"], f"{kind} gate bit") if "bit" in doc else -1
    cond = XorExpr.from_tokens(doc["cond"]) if "cond" in doc else None
    return Gate(kind=kind, qubits=qubits, basis=basis, bit=bit, cond=cond, variant=variant)


def validate_layers(circuit: Circuit) -> None:
    """Check per-layer qubit disjointness, global measurement-bit uniqueness,
    and that no gate is a `bell`: Bell preparations belong to the expansion.

    Raises ValueError("layer {i}: {reason}") at the first violation.
    """
    seen_bits: set[int] = set()
    for li, layer in enumerate(circuit.layers):
        used: set[int] = set()
        for g in layer:
            for q in g.qubits:
                if q in used:
                    raise ValueError(f"layer {li}: qubit {q} used twice in layer")
                if not 0 <= q < circuit.num_qubits:
                    raise ValueError(f"layer {li}: qubit {q} out of range")
                used.add(q)
            if g.kind == "bell":
                raise ValueError(f"layer {li}: bell on qubits {list(g.qubits)} is not a logical gate")
            if g.kind == "meas":
                if g.bit in seen_bits:
                    raise ValueError(f"layer {li}: bit {g.bit} emitted twice")
                seen_bits.add(g.bit)


def unemitted_bit(expr: XorExpr, emitted: int) -> int | None:
    """The lowest bit that ``expr`` reads outside the mask ``emitted``, or None."""
    extra = expr.mask & ~emitted
    return set_bits(extra)[0] - 1 if extra else None


def check_reads(layers: Iterable[Iterable[Gate]]) -> int:
    """Reject, with a ValueError, a condition reading a bit that no meas of
    an earlier layer emits.  Returns the XorExpr mask of every emitted bit,
    with the constant set."""
    emitted = 1
    for li, layer in enumerate(layers):
        measured = 0
        for g in layer:
            bit = None if g.cond is None else unemitted_bit(g.cond, emitted)
            if bit is not None:
                raise ValueError(
                    f"layer {li}: {g.kind} on qubit {g.qubits[0]} reads bit {bit}, "
                    "which no meas of an earlier layer emits"
                )
            if g.kind == "meas":
                if g.bit < 0:
                    raise ValueError(f"layer {li}: meas on qubit {g.qubits[0]} emits no bit")
                measured |= 2 << g.bit
        emitted |= measured
    return emitted


def validate(circuit: Circuit, placement: Placement, graph: QuotientGraph) -> None:
    """Reject a malformed compile input with a ValueError naming the fault:
    a layer violation, a condition reading a bit that no meas of an earlier
    layer emits, a placement missing a qubit, or a processor outside the
    graph."""
    validate_layers(circuit)
    check_reads(circuit.layers)
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
        return Placement(tuple(json_int(p, "placement processor") for p in doc["map"]))


@dataclass(frozen=True)
class Commodity:
    """One remote interaction demanding an entanglement path from processor
    ``source`` (that of ``gate``'s first operand) to ``target``.

    ``target_qubits`` are the gate's operands on the target processor: for
    a commodity cut out of a fanin/fanout, the spokes living there.  The
    interaction kind and the control qubit come from ``gate``.
    """

    source: int
    target: int
    layer: int
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


def spokes_by_proc(g: Gate, placement: Placement) -> dict[int, list[int]]:
    """The spokes of a two-qubit or fan gate grouped by processor: qubits
    ascending, processors in order of their lowest spoke.  A cx or cz is a
    fan with one spoke."""
    out: dict[int, list[int]] = {}
    for q in sorted(g.spokes):
        out.setdefault(placement.proc(q), []).append(q)
    return out


def _gate_commodities(g: Gate, li: int, placement: Placement) -> list[Commodity]:
    if g.kind not in TWO_QUBIT_KINDS | FAN_KINDS:
        return []
    hub_proc = placement.proc(g.hub)
    return [
        Commodity(hub_proc, p, li, tuple(qs), g)
        for p, qs in spokes_by_proc(g, placement).items()
        if p != hub_proc
    ]


def extract_commodities(circuit: Circuit, placement: Placement) -> CommoditySet:
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
            if len(shared) == 1 and default_qpar(cj.gate, ci.gate, next(iter(shared))):
                qpar.add(frozenset({j, i}))
        for q in qi:
            history[q].append(i)
    return CommoditySet(tuple(commodities), frozenset(prec), frozenset(qpar))
