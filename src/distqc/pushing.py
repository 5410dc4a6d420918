"""Pushing conditioned Pauli operations to the end of a Clifford circuit.

`FrameNormalizer.feed` is the one implementation of the rules that commute
a pending ``X^b`` / ``Z^b`` past a gate.  It applies them to int masks; a
Pauli that no rule names passes unchanged:

    cx(c, t):   X on c -> X on c and t          Z on t -> Z on c and t
    cz(a, b):   X on a -> X on a, Z on b        X on b -> X on b, Z on a
    yhalf:      X -> Z, Z -> X (up to global phase)
    xhalf:      Z -> X Z (the Y it becomes)     zhalf:  X -> X Z
    fanin, fanout:  the cx (basis X) or cz (basis Z) from each control to
                each target (`Gate.controls`, `Gate.targets`)

A Pauli meeting a measurement in the same basis is dropped; an anticommuting
Pauli folds into the emitted bit (the outcome flips whenever the condition
held).  Chaining these rules over a whole circuit relocates every correction
into a terminal Pauli frame, leaving a branch-independent quantum circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .circuit import FAN_KINDS, Gate
from .pauli import PauliFrame, XorExpr, by_axis, set_bits, xor_entry


@dataclass(frozen=True)
class CondPauli:
    qubit: int
    axis: str  # "X" or "Z"
    expr: XorExpr  # carried, never inspected: the push rules act on masks


def push_pauli(gate: Gate, p: CondPauli) -> list[CondPauli]:
    """Commute one conditioned Pauli from before the unitary `gate` to after
    it, by `FrameNormalizer.feed`'s rules."""
    if gate.kind in ("pauli", "prep", "meas", "bell"):
        raise ValueError(f"no push rule through gate kind {gate.kind!r}")
    n = FrameNormalizer()
    n.add(p.qubit, p.axis, 1)  # the rules are linear: every mask out is this 1
    n.feed(gate)
    return [CondPauli(q, axis, p.expr) for axis, pending in (("X", n.x), ("Z", n.z)) for q in pending]


class FrameNormalizer:
    """Streaming frame normalization over int-mask expressions.

    Fed one gate at a time, it carries per-qubit pending X and Z masks (the
    ``XorExpr.mask`` layout: bit 0 the constant, bit ``b + 1`` measurement
    bit ``b``).  A `pauli` gate, or a correction handed to `add`, XORs into
    the pending masks; unitary gates conjugate them by the rules in the
    module docstring; a measurement stores the anticommuting mask as its
    bit's flip and drops the rest, and a prep or bell drops its qubits'
    masks.  Every gate but `pauli` goes to `gates`.  Its subclass
    `telegate.CircuitExpander` adds the remote-gate protocols.
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
        xor_entry(by_axis(axis, self.x, self.z), q, mask)

    def _cx(self, c: int, t: int) -> None:
        xc = self.x.get(c)
        if xc:
            xor_entry(self.x, t, xc)
        zt = self.z.get(t)
        if zt:
            xor_entry(self.z, c, zt)

    def _cz(self, a: int, b: int) -> None:
        xa, xb = self.x.get(a), self.x.get(b)
        if xa:
            xor_entry(self.z, b, xa)
        if xb:
            xor_entry(self.z, a, xb)

    def feed(self, g: Gate) -> None:
        kind = g.kind
        x, z = self.x, self.z
        if kind == "cx":
            self._cx(*g.qubits)
        elif kind == "cz":
            self._cz(*g.qubits)
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
        elif kind == "yhalf":
            q = g.qubits[0]
            xq, zq = x.pop(q, 0), z.pop(q, 0)
            if zq:
                x[q] = zq
            if xq:
                z[q] = xq
        elif kind == "xhalf":
            xor_entry(x, g.qubits[0], z.get(g.qubits[0], 0))
        elif kind == "zhalf":
            xor_entry(z, g.qubits[0], x.get(g.qubits[0], 0))
        elif kind in FAN_KINDS:
            rule = self._cz if g.basis == "Z" else self._cx
            for c, t in product(g.controls(), g.targets()):
                rule(c, t)
        else:
            raise ValueError(f"no push rule for gate kind {kind!r}")
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
