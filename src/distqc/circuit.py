"""Layered circuit IR, qubit placement, and commodity extraction.

A `Circuit` is an ordered list of layers, each a set of gates on disjoint
qubits; it checks that, each gate (`check_gate`) and its bit reads when
built.  Remote two-qubit interactions (those whose operands sit on different
processors under a given placement) become *commodities*: routing demands
(source processor, target processor) that the scheduling backends consume.
Alongside them we build the order relation, stored per commodity as two
ascending successor lists: those that must run in a strictly later time
step, and the quasi-parallel ones that may share its step because their
conflict resolves in the classical correction layer.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import lt
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, TypeVar

from .pauli import XorExpr, check_bit_id, set_bits

if TYPE_CHECKING:
    from .netmodel import QuotientGraph

TWO_QUBIT_KINDS = {"cz", "cx"}
FAN_KINDS = {"fanin", "fanout"}


class Gate(NamedTuple):
    """One circuit operation: an immutable tuple, compared and hashed by value.

    kind     a key of GATE_KINDS
    qubits   operands; for cx: (control, target); for fanin: (control, *targets);
             for fanout: (target, *controls)
    basis    Pauli axis for pauli/prep/meas, and the interaction type ("X"/"Z")
             for fanin/fanout
    bit      classical bit id emitted by a meas gate
    cond     XOR-of-bits condition of a pauli gate
    variant  Bell state prepared by a bell gate: phi+, phi-, psi+, psi-

    A plain record: building one checks nothing.  `check_gate` is the one
    gate contract, and every gate entering from outside the compiler passes
    it (`Circuit` runs it on each of its gates, `gate_from_json` on each
    gate it reads).  It is a tuple because the expansion builds one per
    emitted gate, and a tuple is the cheapest immutable record to construct.
    """

    kind: str
    qubits: tuple[int, ...]
    basis: str = ""
    bit: int = -1
    cond: XorExpr | None = None
    variant: str = ""

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


_F = TypeVar("_F", bound=Callable)


def gc_paused(fn: _F) -> _F:
    """Run `fn` with the cyclic garbage collector disabled, then restore the
    caller's state: enabled again only if it was enabled before.

    A compile builds tens of thousands of `Gate` tuples, and CPython never
    untracks a tuple subclass, so each collection during a compile rescans
    them all.  No compile leaves a reference cycle, so the pause frees
    nothing later than a running collector would.  The state is
    process-global: another thread sees the collector paused as well.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


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
    """A layered circuit, well-formed by construction: every build, `from_json`
    and `dataclasses.replace` too, runs `validate_layers` and `check_reads`."""

    num_qubits: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self) -> None:
        validate_layers(self)
        check_reads(self.layers)

    @staticmethod
    def from_layers(num_qubits: int, layers: Iterable[Iterable[Gate]]) -> "Circuit":
        fixed = tuple(tuple(sorted(layer, key=lambda g: min(g.qubits, default=-1))) for layer in layers)
        return Circuit(num_qubits, fixed)

    def all_gates(self) -> list[Gate]:
        return [g for layer in self.layers for g in layer]

    def to_json(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "layers": [[gate_to_json(g) for g in layer] for layer in self.layers],
        }

    @staticmethod
    def from_json(doc: dict) -> "Circuit":
        check_keys(doc, frozenset({"qubits", "layers"}), "circuit")
        return Circuit.from_layers(json_int(doc["qubits"], "qubit count"), json_layers(doc))

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


def _named(g: Gate) -> str:
    return f"{g.kind} gate on qubits {list(g.qubits)}"


def check_gate(g: Gate) -> None:
    """Reject, with a ValueError, a kind outside GATE_KINDS, a wrong operand
    count for the kind (a fan gate needs at least two), a repeated operand, a
    wrong basis for the kind, a field off its default on a kind not owning
    it (only a meas emits a bit, only a pauli has a cond, only a bell has a
    variant), and a variant outside BELL_PAULIS."""
    if g.kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {g.kind!r}")
    (count, bases), fan = GATE_KINDS[g.kind], g.kind in FAN_KINDS
    if len(g.qubits) != count and not (fan and len(g.qubits) > count):
        more = " or more" if fan else ""
        raise ValueError(f"{_named(g)} has the wrong number of operands, expected {count}{more}")
    if len(set(g.qubits)) != len(g.qubits):
        raise ValueError(f"{_named(g)} repeats an operand")
    if g.basis not in bases:
        expected = " or ".join(b for b in bases if b) or "none"
        raise ValueError(f"{_named(g)} has basis {g.basis!r}, expected {expected}")
    for field, owner in (("bit", "meas"), ("cond", "pauli"), ("variant", "bell")):
        if g.kind != owner and getattr(g, field) != Gate._field_defaults[field]:
            raise ValueError(f"{_named(g)} carries a {field}, which only a {owner} may")
    if g.variant and g.variant not in BELL_PAULIS:
        expected = ", ".join(BELL_PAULIS)
        raise ValueError(f"{_named(g)} has variant {g.variant!r}, expected one of {expected}")


def json_int(value, what: str) -> int:
    """`value` if it is a non-negative JSON integer; anything else, a float
    or a boolean too, is a ValueError naming `what`."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {json.dumps(value)}")
    return value


def json_list(value, what: str) -> list:
    """`value` if it is a JSON array; anything else is a ValueError naming `what`."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON array, got {json.dumps(value)}")
    return value


def json_layers(doc: dict) -> list[list[Gate]]:
    """A circuit document's "layers", each a JSON array of gates read by
    `gate_from_json`; a gate's fault is a ValueError("layer {i}: {reason}")."""
    layers = []
    for li, layer in enumerate(json_list(doc["layers"], '"layers"')):
        gates = json_list(layer, f"layer {li}")
        try:
            layers.append([gate_from_json(g) for g in gates])
        except KeyError as exc:
            raise ValueError(f"layer {li}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"layer {li}: {exc}") from None
    return layers


def check_keys(doc, known: frozenset[str], what: str) -> None:
    """Reject, with a ValueError naming `what`, a `doc` that is not a JSON
    object or has a key outside `known` (the least such key is named): a
    misspelt optional key would otherwise read as absent."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = doc.keys() - known
    if unknown:
        raise ValueError(f"{what} has unknown key {json.dumps(min(unknown))}")


GATE_KEYS = frozenset({"kind", "q", "basis", "bit", "cond", "variant"})


def gate_from_json(doc: dict) -> Gate:
    """Read one gate: a JSON object, its kind a known string, no key outside
    `GATE_KEYS`, its qubits and bit JSON integers (the bit at most
    `pauli.MAX_BIT_ID`), its cond a token list; `check_gate` then rejects
    what the simulator and the compiler would misread."""
    if not isinstance(doc, dict):
        raise ValueError("gate must be a JSON object")
    kind = doc["kind"]
    if type(kind) is not str or kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {json.dumps(kind)}")
    check_keys(doc, GATE_KEYS, f"{kind} gate")
    qubits = tuple(json_int(q, f"{kind} gate qubit") for q in json_list(doc["q"], f'{kind} gate "q"'))
    bit = check_bit_id(json_int(doc["bit"], f"{kind} gate bit")) if "bit" in doc else -1
    cond = XorExpr.from_tokens(json_list(doc["cond"], f'{kind} gate "cond"')) if "cond" in doc else None
    gate = Gate(kind, qubits, doc.get("basis", ""), bit, cond, doc.get("variant", ""))
    check_gate(gate)
    return gate


def validate_layers(circuit: Circuit) -> None:
    """Check every gate (`check_gate`), that each layer's qubits are distinct
    and in range, and that no gate is a `bell`, which belongs to the
    expansion.  Raises ValueError("layer {i}: {reason}") at the first fault."""
    for li, layer in enumerate(circuit.layers):
        used: set[int] = set()
        for g in layer:
            try:
                check_gate(g)
            except ValueError as exc:
                raise ValueError(f"layer {li}: {exc}") from None
            for q in g.qubits:
                if q in used:
                    raise ValueError(f"layer {li}: qubit {q} used twice in layer")
                if not 0 <= q < circuit.num_qubits:
                    raise ValueError(f"layer {li}: qubit {q} out of range")
                used.add(q)
            if g.kind == "bell":
                raise ValueError(f"layer {li}: bell on qubits {list(g.qubits)} is not a logical gate")


def unemitted_bit(expr: XorExpr, emitted: int) -> int | None:
    """The lowest bit that ``expr`` reads outside the mask ``emitted``, or None."""
    extra = expr.mask & ~emitted
    return set_bits(extra)[0] - 1 if extra else None


def check_reads(layers: Iterable[Iterable[Gate]]) -> int:
    """Reject, with a ValueError, a meas emitting no bit or a bit emitted
    before, and a condition reading a bit that no meas of an earlier layer
    emits.  Returns the XorExpr mask of every emitted bit, constant set."""
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
                if (emitted | measured) & (2 << g.bit):
                    raise ValueError(f"layer {li}: bit {g.bit} emitted twice")
                measured |= 2 << g.bit
        emitted |= measured
    return emitted


def validate(circuit: Circuit, placement: Placement, graph: QuotientGraph) -> None:
    """Reject a placement missing a qubit of `circuit` or a processor outside
    `graph`, with a ValueError naming the fault; a `Circuit` checks itself."""
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
        check_keys(doc, frozenset({"map"}), "placement")
        procs = json_list(doc["map"], 'placement "map"')
        return Placement(tuple(json_int(p, "placement processor") for p in procs))


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
class CommoditySet:
    """Commodities in index order and the order relation stored per commodity.

    ``strict_succs[j]`` lists, ascending, the commodities that must run in a
    strictly later step than j; ``qpar_succs[j]`` those that must not run
    earlier but may share j's step (quasi-parallel).  Every successor has a
    larger index than its commodity, so index order is a topological order
    and the relation has no cycle; anything else is refused when built.
    """

    commodities: tuple[Commodity, ...]
    strict_succs: tuple[tuple[int, ...], ...]
    qpar_succs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = self.k
        if not len(self.strict_succs) == len(self.qpar_succs) == k:
            raise ValueError(f"successor lists must have one entry per commodity ({k})")
        for lists in (self.strict_succs, self.qpar_succs):
            for j, succs in enumerate(lists):
                if succs and not (j < succs[0] and succs[-1] < k and all(map(lt, succs, succs[1:]))):
                    raise ValueError(
                        f"commodity {j} lists successors {succs}, which must ascend above {j} and below {k}"
                    )

    @property
    def k(self) -> int:
        return len(self.commodities)

    @cached_property
    def preds(self) -> tuple[tuple[int, ...], ...]:
        """Each commodity's predecessors, strict and quasi-parallel, ascending."""
        preds: list[list[int]] = [[] for _ in range(self.k)]
        for j in range(self.k):
            for i in (*self.strict_succs[j], *self.qpar_succs[j]):
                preds[i].append(j)
        return tuple(map(tuple, preds))

    @cached_property
    def tails(self) -> tuple[int, ...]:
        """Per commodity i, the most strict-precedence pairs on one chain of
        the relation that starts at i: the steps that must follow i's own.
        A quasi-parallel pair on the chain adds 0."""
        tail = [0] * self.k
        get = tail.__getitem__
        for i in reversed(range(self.k)):  # successors have larger indices
            strict, qpar = self.strict_succs[i], self.qpar_succs[i]
            if strict or qpar:
                tail[i] = max(max(map(get, strict), default=-1) + 1, max(map(get, qpar), default=0))
        return tuple(tail)

    @cached_property
    def prec(self) -> frozenset[tuple[int, int]]:
        """The relation as (j, i) pairs, j before i (in the same step when quasi-parallel)."""
        return frozenset(
            (j, i) for j in range(self.k) for i in (*self.strict_succs[j], *self.qpar_succs[j])
        )

    @cached_property
    def qpar(self) -> frozenset[frozenset[int]]:
        """The quasi-parallel pairs of ``prec``, unordered."""
        return frozenset(frozenset((j, i)) for j, succs in enumerate(self.qpar_succs) for i in succs)


def default_qpar(earlier: Gate, later: Gate, shared_qubit: int) -> bool:
    """Quasi-parallelism for one ordered pair sharing exactly one qubit, at
    least one of the two not diagonal.

    Safe pattern: the shared qubit is the target of the earlier gate and a
    control of the later one (the later telegate's control-side injection can
    ride in the same entanglement round, with the conflict repaired in the
    correction layer).  A pair of diagonal gates commutes and is never
    asked: `extract_commodities` gives it no constraint at all.
    """
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
    """Enumerate remote interactions and build their order relation.

    Commodity order is deterministic: lexicographic by (layer index, smallest
    operand qubit, smallest target qubit).  The order relation is the
    conservative default: j before i whenever gate(j) lies in a strictly
    earlier layer, shares a qubit with gate(i), and at least one of the two
    gates is not diagonal (commuting diagonal pairs get no constraint).
    Only commodities on one of gate(i)'s qubits can relate to i, so each is
    compared with those alone, found through a per-qubit history.  A
    predecessor sits in an earlier layer, hence at a lower index, and i is
    appended to its successor list in ascending i.
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
    strict: list[list[int]] = [[] for _ in commodities]
    qpar: list[list[int]] = [[] for _ in commodities]
    for i, ci in enumerate(commodities):
        qi = ci.gate.qubits
        candidates: set[int] = set()
        for q in qi:
            candidates.update(history.setdefault(q, []))
        for j in candidates:
            cj = commodities[j]
            if cj.layer >= ci.layer or (diagonal[j] and diagonal[i]):
                continue
            shared = set(cj.gate.qubits).intersection(qi)
            if len(shared) == 1 and default_qpar(cj.gate, ci.gate, next(iter(shared))):
                qpar[j].append(i)
            else:
                strict[j].append(i)
        for q in qi:
            history[q].append(i)
    return CommoditySet(tuple(commodities), tuple(map(tuple, strict)), tuple(map(tuple, qpar)))
