"""XOR expressions over classical measurement bits and per-qubit Pauli frames.

A deferred Pauli correction is ``X^e`` or ``Z^e`` where ``e`` is an affine
GF(2) expression in measurement-outcome bits.  Keeping corrections in this
form (instead of emitting conditioned quantum gates) lets the whole
post-processing layer run on a classical computer after the quantum part of
the circuit has finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class XorExpr:
    """Affine GF(2) expression: XOR of bit ids plus an optional constant 1.

    ``XorExpr(frozenset({1, 3}), True)`` stands for ``b1 ^ b3 ^ 1``.
    """

    bits: frozenset[int] = frozenset()
    const: bool = False

    @staticmethod
    def zero() -> "XorExpr":
        return XorExpr()

    @staticmethod
    def one() -> "XorExpr":
        return XorExpr(const=True)

    @staticmethod
    def of(*bits: int, const: bool = False) -> "XorExpr":
        return XorExpr(frozenset(bits), const)

    def __xor__(self, other: "XorExpr") -> "XorExpr":
        return XorExpr(self.bits ^ other.bits, self.const ^ other.const)

    def __bool__(self) -> bool:
        return bool(self.bits) or self.const

    def is_zero(self) -> bool:
        return not self

    def evaluate(self, assignment: dict[int, int]) -> bool:
        value = self.const
        for b in self.bits:
            value ^= bool(assignment[b])
        return value

    def rewrite(self, flips: dict[int, "XorExpr"]) -> "XorExpr":
        """Substitute ``b -> b ^ flips[b]`` for every bit with a recorded flip."""
        out = self
        for b in self.bits:
            extra = flips.get(b)
            if extra is not None:
                out = out ^ extra
        return out

    def tokens(self) -> list[str]:
        toks = [f"b{b}" for b in sorted(self.bits)]
        if self.const:
            toks.append("1")
        return toks

    @staticmethod
    def from_tokens(tokens: list[str]) -> "XorExpr":
        bits: set[int] = set()
        const = False
        for tok in tokens:
            if tok == "1":
                const = not const
            else:
                if not tok.startswith("b"):
                    raise ValueError(f"bad xor token: {tok!r}")
                b = int(tok[1:])
                if b in bits:
                    bits.remove(b)
                else:
                    bits.add(b)
        return XorExpr(frozenset(bits), const)

    def __str__(self) -> str:
        return "(" + "^".join(self.tokens()) + ")" if self else "0"


ZERO = XorExpr.zero()
ONE = XorExpr.one()


@dataclass
class PauliFrame:
    """Per-qubit pair of XOR expressions: the deferred ``X`` and ``Z`` parts.

    The frame entry for qubit ``q`` means: after the quantum circuit, apply
    ``X^x(q)`` and ``Z^z(q)`` where the exponents are evaluated from the
    recorded measurement bits.
    """

    x: dict[int, XorExpr] = field(default_factory=dict)
    z: dict[int, XorExpr] = field(default_factory=dict)

    def x_of(self, q: int) -> XorExpr:
        return self.x.get(q, ZERO)

    def z_of(self, q: int) -> XorExpr:
        return self.z.get(q, ZERO)

    def add_x(self, q: int, e: XorExpr) -> None:
        val = self.x_of(q) ^ e
        if val:
            self.x[q] = val
        else:
            self.x.pop(q, None)

    def add_z(self, q: int, e: XorExpr) -> None:
        val = self.z_of(q) ^ e
        if val:
            self.z[q] = val
        else:
            self.z.pop(q, None)

    def add(self, q: int, axis: str, e: XorExpr) -> None:
        if axis == "X":
            self.add_x(q, e)
        elif axis == "Z":
            self.add_z(q, e)
        else:
            raise ValueError(f"unknown Pauli axis {axis!r}")

    def qubits(self) -> set[int]:
        return set(self.x) | set(self.z)

    def is_empty(self) -> bool:
        return not self.x and not self.z

    def copy(self) -> "PauliFrame":
        return PauliFrame(dict(self.x), dict(self.z))

    def to_json(self) -> dict:
        out: dict[str, dict[str, list[str]]] = {}
        for q in sorted(self.qubits()):
            out[f"q{q}"] = {"x": self.x_of(q).tokens(), "z": self.z_of(q).tokens()}
        return out

    @staticmethod
    def from_json(doc: dict) -> "PauliFrame":
        frame = PauliFrame()
        for key, parts in doc.items():
            q = int(key.lstrip("q"))
            frame.add_x(q, XorExpr.from_tokens(parts.get("x", [])))
            frame.add_z(q, XorExpr.from_tokens(parts.get("z", [])))
        return frame
