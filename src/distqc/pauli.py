"""XOR expressions over classical measurement bits and per-qubit Pauli frames.

A deferred Pauli correction is ``X^e`` or ``Z^e`` where ``e`` is an affine
GF(2) expression in measurement-outcome bits.  Keeping corrections in this
form (instead of emitting conditioned quantum gates) lets the whole
post-processing layer run on a classical computer after the quantum part of
the circuit has finished.

An expression is one int, ``mask``: bit 0 is the constant and bit ``b + 1``
is measurement bit ``b`` (logical ``meas`` gates may emit bit 0), the layout
of the symbolic signs in ``stabsim``.  XOR of two expressions is one int XOR.
``telegate.CircuitExpander``, a ``pushing.FrameNormalizer``, normalizes
its frame as it emits gates: local gates are pushed one by one, each
target of a remote gate by its logical interaction's push rule, and the
textbook protocols' closed-form corrections go straight into per-qubit
masks, so they never become inline ``pauli`` gates.  A mask is as wide as its
highest bit id, so input files may name bit ids up to ``MAX_BIT_ID`` only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_BIT_TOKEN = re.compile(r"b(0|[1-9][0-9]*)")  # a measurement bit in JSON
_QUBIT_KEY = re.compile(r"q(0|[1-9][0-9]*)")  # a frame entry's qubit in JSON
# the largest bit id a JSON input may name: about 15 times the bits of the
# largest paper-matrix compile (hex, k = 4096, about 71k bits)
MAX_BIT_ID = 1 << 20


def check_bit_id(bit: int) -> int:
    """`bit`, or a ValueError if it is above `MAX_BIT_ID`."""
    if bit > MAX_BIT_ID:
        raise ValueError(f"bit id {bit} is above the cap {MAX_BIT_ID}")
    return bit


def set_bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of a non-negative int, found with
    one ``bin()`` scan instead of a shift per bit."""
    s = bin(mask)[:1:-1]  # least significant digit first, "0b" dropped
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def _tokens(mask: int, names: dict[int, str]) -> list[str]:
    """The JSON tokens of an expression mask: ``"b<id>"`` per bit, ascending,
    then ``"1"`` for the constant.  `names` keeps the string written for each
    bit, so masks that share it also share one string per bit."""
    toks = [names.get(b) or names.setdefault(b, f"b{b}") for b in set_bits(mask >> 1)]
    if mask & 1:
        toks.append("1")
    return toks


class XorExpr:
    """Affine GF(2) expression: XOR of bit ids plus an optional constant 1.

    ``XorExpr(frozenset({1, 3}), True)`` stands for ``b1 ^ b3 ^ 1``; its mask
    is ``0b10101``.  Immutable.
    """

    __slots__ = ("mask",)

    def __init__(self, bits: frozenset[int] = frozenset(), const: bool = False):
        mask = 1 if const else 0
        for b in bits:
            mask |= 2 << b
        object.__setattr__(self, "mask", mask)

    @staticmethod
    def from_mask(mask: int) -> "XorExpr":
        e = object.__new__(XorExpr)
        object.__setattr__(e, "mask", mask)
        return e

    def __setattr__(self, name, value):
        raise AttributeError("XorExpr is immutable")

    @staticmethod
    def of(*bits: int, const: bool = False) -> "XorExpr":
        return XorExpr(frozenset(bits), const)

    @property
    def bits(self) -> frozenset[int]:
        return frozenset(set_bits(self.mask >> 1))

    @property
    def const(self) -> bool:
        return bool(self.mask & 1)

    def __xor__(self, other: "XorExpr") -> "XorExpr":
        return XorExpr.from_mask(self.mask ^ other.mask)

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XorExpr):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"XorExpr({self.bits!r}, {self.const})"

    def __reduce__(self):
        return (XorExpr.from_mask, (self.mask,))

    def evaluate(self, assignment: dict[int, int]) -> int:
        """XOR of the assigned bit values and the constant.  A value is 0 or
        1, or an affine value of a symbolic stabilizer state (an int whose
        bit 0 is the constant)."""
        value = self.mask & 1
        for b in set_bits(self.mask >> 1):
            value ^= assignment[b]
        return value

    def tokens(self) -> list[str]:
        return _tokens(self.mask, {})

    @staticmethod
    def from_tokens(tokens: list[str]) -> "XorExpr":
        """Read ``tokens()`` back: ``"1"`` or ``"b<bit>"`` strings (no leading
        zero, bit at most `MAX_BIT_ID`), a repeated token cancelling;
        anything else is a ValueError."""
        mask = 0
        for tok in tokens:
            if tok == "1":
                mask ^= 1
            elif isinstance(tok, str) and _BIT_TOKEN.fullmatch(tok):
                mask ^= 2 << check_bit_id(int(tok[1:]))
            else:
                raise ValueError(f"bad xor token: {tok!r}")
        return XorExpr.from_mask(mask)

    def __str__(self) -> str:
        return "(" + "^".join(self.tokens()) + ")" if self else "0"


ZERO = XorExpr()
ONE = XorExpr(const=True)


def by_axis(axis: str, x, z):
    """`x` for Pauli axis "X", `z` for "Z"; any other axis is a ValueError."""
    if axis == "X":
        return x
    if axis == "Z":
        return z
    raise ValueError(f"unknown Pauli axis {axis!r}, expected X or Z")


def xor_entry(entries: dict, q: int, value) -> None:
    """XOR `value` into `entries[q]` (a missing entry reads 0) and drop an
    entry that becomes 0, so no stored entry is ever 0.  The one frame-entry
    update: entries and value are both `XorExpr`s or both int masks."""
    old = entries.get(q)
    if old is not None:
        value ^= old
    if value:
        entries[q] = value
    else:
        entries.pop(q, None)


@dataclass
class PauliFrame:
    """Per-qubit pair of XOR expressions: the deferred ``X`` and ``Z`` parts.

    The frame entry for qubit ``q`` means: after the quantum circuit, apply
    ``X^x(q)`` and ``Z^z(q)`` where the exponents are evaluated from the
    recorded measurement bits.  `add` updates an entry by `xor_entry`, so
    no stored expression is ever 0.
    """

    x: dict[int, XorExpr] = field(default_factory=dict)
    z: dict[int, XorExpr] = field(default_factory=dict)

    def x_of(self, q: int) -> XorExpr:
        return self.x.get(q, ZERO)

    def z_of(self, q: int) -> XorExpr:
        return self.z.get(q, ZERO)

    def add(self, q: int, axis: str, e: XorExpr) -> None:
        xor_entry(by_axis(axis, self.x, self.z), q, e)

    def qubits(self) -> set[int]:
        return set(self.x) | set(self.z)

    def is_empty(self) -> bool:
        return not self.x and not self.z

    def copy(self) -> "PauliFrame":
        return PauliFrame(dict(self.x), dict(self.z))

    def to_json(self) -> dict:
        """Each entry's x and z lists as `XorExpr.tokens()` writes them, with
        one ``"b<id>"`` string per bit, shared by every entry that names the
        bit: a large compile's entries name each bit many times over."""
        names: dict[int, str] = {}
        return {
            f"q{q}": {"x": _tokens(self.x_of(q).mask, names), "z": _tokens(self.z_of(q).mask, names)}
            for q in sorted(self.qubits())
        }

    @staticmethod
    def from_json(doc: dict, num_qubits: int) -> "PauliFrame":
        """Read ``to_json()`` back, rejecting a key that ``to_json`` would not
        write (``q0``, ``q1``, ...: no leading zero), names a qubit outside
        ``0..num_qubits-1`` or holds anything but x and z token lists."""
        if not isinstance(doc, dict):
            raise ValueError("frame must map q<qubit> keys to x and z token lists")
        frame = PauliFrame()
        for key, parts in doc.items():
            if not _QUBIT_KEY.fullmatch(key):
                raise ValueError(f"bad frame key {key!r}, expected q<qubit>")
            q = int(key[1:])
            if q >= num_qubits:
                raise ValueError(f"frame entry {key} of a {num_qubits}-qubit circuit")
            if (
                not isinstance(parts, dict)
                or not parts.keys() <= {"x", "z"}
                or not all(type(tokens) is list for tokens in parts.values())
            ):
                raise ValueError(f"frame entry {key} must hold only x and z token lists")
            frame.add(q, "X", XorExpr.from_tokens(parts.get("x", [])))
            frame.add(q, "Z", XorExpr.from_tokens(parts.get("z", [])))
        return frame
