"""Pushing conditioned Pauli operations to the end of a Clifford circuit.

The rewrite rules commute an ``X^b`` / ``Z^b`` past the supported gates:

    cx:     X^b (x) 1 -> X^b (x) X^b        1 (x) Z^b -> Z^b (x) Z^b
            1 (x) X^b -> 1 (x) X^b          Z^b (x) 1 -> Z^b (x) 1
    cz:     X^b (x) 1 -> X^b (x) Z^b        Z^b (x) 1 -> Z^b (x) 1
    yhalf:  X^b -> Z^b (up to global phase)     Z^b -> X^b

A Pauli meeting a measurement in the same basis is dropped; an anticommuting
Pauli folds into the emitted bit (the outcome flips whenever the condition
held).  Chaining these rules over a whole circuit relocates every correction
into a terminal Pauli frame, leaving a branch-independent quantum circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate
from .pauli import ZERO, PauliFrame, XorExpr, set_bits


@dataclass(frozen=True)
class CondPauli:
    qubit: int
    axis: str  # "X" or "Z"
    expr: XorExpr  # carried, never inspected: FrameNormalizer passes int masks


def push_pauli(gate: Gate, p: CondPauli) -> list[CondPauli]:
    """Commute one conditioned Pauli from before `gate` to after it."""
    if p.qubit not in gate.qubits:
        return [p]
    if gate.kind == "cx":
        c, t = gate.qubits
        if p.axis == "X":
            if p.qubit == c:
                return [CondPauli(c, "X", p.expr), CondPauli(t, "X", p.expr)]
            return [p]
        if p.qubit == t:
            return [CondPauli(c, "Z", p.expr), CondPauli(t, "Z", p.expr)]
        return [p]
    if gate.kind == "cz":
        if p.axis == "X":
            other = gate.qubits[1] if p.qubit == gate.qubits[0] else gate.qubits[0]
            return [p, CondPauli(other, "Z", p.expr)]
        return [p]
    if gate.kind == "yhalf":
        return [CondPauli(p.qubit, "Z" if p.axis == "X" else "X", p.expr)]
    if gate.kind in ("fanin", "fanout"):
        return _push_fan(gate, p)
    if gate.kind in ("xhalf", "zhalf"):
        # the rotation axis is preserved; the other Pauli maps to Y, handled
        # as the X*Z product (X^{1/2}: Z -> Y, Z^{1/2}: X -> Y)
        preserved = "X" if gate.kind == "xhalf" else "Z"
        if p.axis == preserved:
            return [p]
        return [CondPauli(p.qubit, "X", p.expr), CondPauli(p.qubit, "Z", p.expr)]
    raise ValueError(f"no push rule through gate kind {gate.kind!r}")


def _push_fan(gate: Gate, p: CondPauli) -> list[CondPauli]:
    """Fan gates are products of cx/cz sharing the hub: push through each."""
    if gate.kind == "fanin":
        pairs = [(gate.hub, t) for t in gate.spokes]
    else:
        pairs = [(c, gate.hub) for c in gate.spokes]
    sub = Gate("cz" if gate.basis == "Z" else "cx", pairs[0])
    current = [p]
    for c, t in pairs:
        g2 = Gate(sub.kind, (c, t))
        nxt: list[CondPauli] = []
        for cp in current:
            nxt.extend(push_pauli(g2, cp) if cp.qubit in (c, t) else [cp])
        current = nxt
    return current


def push_through_measurement(p: CondPauli, measurement: Gate) -> XorExpr:
    """Fold a conditioned Pauli into the measurement's emitted bit.

    Returns the flip expression for the bit: nonzero when the Pauli
    anticommutes with the measured observable (X before <Z>, Z before <X>);
    commuting Paulis drop without a trace.
    """
    if measurement.kind != "meas" or p.qubit != measurement.qubits[0]:
        raise ValueError("pauli and measurement must share a qubit")
    basis = measurement.basis or "Z"
    if p.axis != basis:
        return p.expr
    return ZERO


@dataclass(frozen=True)
class NormalFormCircuit:
    """Clifford normal form: preps, CZ block, CX block, Y^{1/2} layer, CZ block, meas.

    Built by generators and tests; the compiler backends consume the blocks
    separately (the CZ blocks need no order relation, the CX block does).
    """

    num_qubits: int
    prep_layer: tuple[Gate, ...]
    cz_block_1: tuple[tuple[Gate, ...], ...]
    cx_block: tuple[tuple[Gate, ...], ...]
    yhalf_layer: tuple[Gate, ...]
    cz_block_2: tuple[tuple[Gate, ...], ...]
    meas_layer: tuple[Gate, ...]

    def __post_init__(self) -> None:
        for g in self.prep_layer:
            if g.kind != "prep":
                raise ValueError("prep layer may contain only prep gates")
        for layer in self.cz_block_1 + self.cz_block_2:
            for g in layer:
                if not (g.kind == "cz" or (g.kind in ("fanin", "fanout") and g.basis == "Z")):
                    raise ValueError("cz blocks may contain only diagonal gates")
        for layer in self.cx_block:
            for g in layer:
                if not (g.kind == "cx" or (g.kind in ("fanin", "fanout") and g.basis == "X")):
                    raise ValueError("cx block may contain only cx-type gates")
        for g in self.yhalf_layer:
            if g.kind != "yhalf":
                raise ValueError("yhalf layer may contain only yhalf gates")
        for g in self.meas_layer:
            if g.kind != "meas":
                raise ValueError("meas layer may contain only meas gates")

    def to_circuit(self) -> Circuit:
        layers: list[tuple[Gate, ...]] = []
        if self.prep_layer:
            layers.append(self.prep_layer)
        layers.extend(self.cz_block_1)
        layers.extend(self.cx_block)
        if self.yhalf_layer:
            layers.append(self.yhalf_layer)
        layers.extend(self.cz_block_2)
        if self.meas_layer:
            layers.append(self.meas_layer)
        return Circuit.from_layers(self.num_qubits, layers)


_QUANTUM_KINDS = {"cx", "cz", "yhalf", "xhalf", "zhalf", "fanin", "fanout", "bell"}


class FrameNormalizer:
    """Streaming frame normalization over int-mask expressions.

    Fed one gate at a time, it carries per-qubit pending X and Z masks (the
    ``XorExpr.mask`` layout: bit 0 the constant, bit ``b + 1`` measurement
    bit ``b``).  A `pauli` gate, or a correction handed to `add`, XORs into
    the pending masks; quantum gates conjugate them (cx and cz directly on
    the masks, other kinds through `push_pauli`); a measurement stores the
    anticommuting mask as its bit's flip and drops the rest.  Every gate but
    `pauli` goes to `gates`.
    """

    def __init__(self) -> None:
        self.x: dict[int, int] = {}  # qubit -> pending X mask, never 0
        self.z: dict[int, int] = {}
        self.flips: dict[int, int] = {}  # bit -> mask its outcome flips by
        self.gates: list[Gate] = []

    def rewrite(self, mask: int) -> int:
        """Substitute ``b -> b ^ flips[b]`` for every bit of `mask` with a flip."""
        flips = self.flips
        for b in set_bits(mask >> 1):
            extra = flips.get(b)
            if extra is not None:
                mask ^= extra
        return mask

    def add(self, q: int, axis: str, mask: int) -> None:
        """XOR an already rewritten mask into qubit q's pending Pauli."""
        if axis == "X":
            pending = self.x
        elif axis == "Z":
            pending = self.z
        else:
            raise ValueError(f"unknown Pauli axis {axis!r}")
        mask ^= pending.get(q, 0)
        if mask:
            pending[q] = mask
        else:
            pending.pop(q, None)

    def feed(self, g: Gate) -> None:
        kind = g.kind
        x, z = self.x, self.z
        if kind == "cx":
            c, t = g.qubits
            xc = x.get(c)
            if xc:
                self.add(t, "X", xc)
            zt = z.get(t)
            if zt:
                self.add(c, "Z", zt)
        elif kind == "cz":
            a, b = g.qubits
            xa, xb = x.get(a), x.get(b)
            if xa:
                self.add(b, "Z", xa)
            if xb:
                self.add(a, "Z", xb)
        elif kind == "pauli":
            self.add(g.qubits[0], g.basis, self.rewrite(g.cond.mask) if g.cond is not None else 1)
            return
        elif kind == "meas":
            q = g.qubits[0]
            xq, zq = x.pop(q, 0), z.pop(q, 0)
            anti = xq if (g.basis or "Z") == "Z" else zq
            if anti:
                self.flips[g.bit] = anti
        elif kind == "prep" or kind == "bell":
            for q in g.qubits:  # both overwrite their qubits
                x.pop(q, None)
                z.pop(q, None)
        elif kind in _QUANTUM_KINDS:
            live = [
                CondPauli(q, axis, pending.pop(q))
                for q in g.qubits
                for axis, pending in (("X", x), ("Z", z))
                if q in pending
            ]
            for p in live:
                for moved in push_pauli(g, p):
                    self.add(moved.qubit, moved.axis, moved.expr)
        else:
            raise ValueError(f"normalize_frame cannot handle gate kind {kind!r}")
        self.gates.append(g)

    def finish(self, frame: PauliFrame | None = None) -> tuple[tuple[Gate, ...], PauliFrame]:
        """The gates fed so far and the terminal frame: the pending Paulis
        plus `frame`, whose expressions are rewritten by the flips."""
        if frame is not None:
            for q, e in frame.x.items():
                self.add(q, "X", self.rewrite(e.mask))
            for q, e in frame.z.items():
                self.add(q, "Z", self.rewrite(e.mask))
        out = PauliFrame(
            {q: XorExpr.from_mask(m) for q, m in self.x.items()},
            {q: XorExpr.from_mask(m) for q, m in self.z.items()},
        )
        return tuple(self.gates), out


def normalize_frame(ec):
    """Relocate every conditioned Pauli of an extended circuit into its frame.

    Feeds the gate list once through a `FrameNormalizer`.  The output
    circuit contains no inline `pauli` gates at all and its frame holds the
    terminal corrections over raw measurement outcomes.
    """
    from .telegate import ExtendedCircuit

    n = FrameNormalizer()
    for g in ec.gates:
        n.feed(g)
    gates, frame = n.finish(ec.frame)
    return ExtendedCircuit(ec.num_data, ec.num_qubits, gates, frame)
