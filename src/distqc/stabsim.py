"""Stabilizer-tableau simulator: the equivalence oracle for compiled circuits.

Binary symplectic tableau with explicit sign bits, 2n generators
(destabilizers then stabilizers) per the Aaronson-Gottesman scheme.  All gate
updates are vectorized over the generator rows, so a gate costs O(n) numpy
work.  Measurements in the Z or X basis return deterministic outcomes when
the observable is in the stabilizer group and fair coin flips otherwise.
"""

from __future__ import annotations

import random

import numpy as np

from .circuit import Gate
from .pauli import PauliFrame

_BELL_PAULIS = {"phi+": "", "phi-": "Z", "psi+": "X", "psi-": "XZ"}


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        idx = np.arange(n)
        self.x[idx, idx] = 1          # destabilizer i = X_i
        self.z[n + idx, idx] = 1      # stabilizer i = Z_i

    # -- elementary gates ---------------------------------------------------

    def h(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def s(self, q: int) -> None:
        self.r ^= self.x[:, q] & self.z[:, q]
        self.z[:, q] ^= self.x[:, q]

    def cx(self, c: int, t: int) -> None:
        self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
        self.x[:, t] ^= self.x[:, c]
        self.z[:, c] ^= self.z[:, t]

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def pauli_x(self, q: int) -> None:
        self.r ^= self.z[:, q]

    def pauli_z(self, q: int) -> None:
        self.r ^= self.x[:, q]

    def pauli_y(self, q: int) -> None:
        self.r ^= self.x[:, q] ^ self.z[:, q]

    def xhalf(self, q: int) -> None:
        # conjugation: Z -> -Y, Y -> Z, X -> X
        self.r ^= self.z[:, q] & (self.x[:, q] ^ 1)
        self.x[:, q] ^= self.z[:, q]

    def zhalf(self, q: int) -> None:
        self.s(q)

    def yhalf(self, q: int) -> None:
        # conjugation: X -> -Z, Z -> X (same map as H up to the sign on X)
        self.r ^= self.x[:, q] & (self.z[:, q] ^ 1)
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def bell(self, a: int, b: int, variant: str = "phi+") -> None:
        """Entangle two fresh qubits into the requested Bell state."""
        self.h(a)
        self.cx(a, b)
        for p in _BELL_PAULIS[variant]:
            if p == "X":
                self.pauli_x(a)
            else:
                self.pauli_z(a)

    # -- measurement ----------------------------------------------------------

    def measure(self, q: int, basis: str = "Z", rng: random.Random | None = None) -> int:
        """Measure qubit q along Z or X, collapsing the tableau.

        Deterministic outcomes need no randomness; a random outcome without a
        supplied rng is an error (sampling must always be seeded).
        """
        if basis == "X":
            self.h(q)
            out = self.measure(q, "Z", rng)
            self.h(q)
            return out
        if basis != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
        n = self.n
        anticommuting = np.flatnonzero(self.x[n:, q]) + n
        if anticommuting.size:
            p = int(anticommuting[0])
            others = np.flatnonzero(self.x[:, q])
            others = others[others != p]
            _rowsum(self.x, self.z, self.r, others, p)
            # old stabilizer p becomes the destabilizer of the new Z_q row
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            if rng is None:
                raise RuntimeError("random measurement outcome requires an rng")
            outcome = rng.randrange(2)
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self.r[p] = outcome
            return outcome
        # deterministic: accumulate the stabilizers indexed by anticommuting
        # destabilizers into a scratch row
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr = 0
        for i in np.flatnonzero(self.x[:n, q]):
            g = int(_phase_sum(self.x[n + i], self.z[n + i], sx[None, :], sz[None, :])[0])
            sr = (sr + 2 * int(self.r[n + i]) + g) % 4
            sx ^= self.x[n + i]
            sz ^= self.z[n + i]
        return sr // 2

    def reset(self, q: int, rng: random.Random | None = None) -> None:
        """Force qubit q back to |0>."""
        if self.measure(q, "Z", rng):
            self.pauli_x(q)

    # -- circuit-level dispatch ----------------------------------------------

    def apply_gate(
        self,
        gate: Gate,
        bits: dict[int, int] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        """Apply one IR gate; measurement outcomes are recorded into `bits`."""
        k = gate.kind
        if k == "cx":
            self.cx(*gate.qubits)
        elif k == "cz":
            self.cz(*gate.qubits)
        elif k == "yhalf":
            self.yhalf(gate.qubits[0])
        elif k == "xhalf":
            self.xhalf(gate.qubits[0])
        elif k == "zhalf":
            self.zhalf(gate.qubits[0])
        elif k == "fanin":
            hub = gate.hub
            for t in gate.spokes:
                self.cz(hub, t) if gate.basis == "Z" else self.cx(hub, t)
        elif k == "fanout":
            hub = gate.hub
            for c in gate.spokes:
                self.cz(c, hub) if gate.basis == "Z" else self.cx(c, hub)
        elif k == "bell":
            self.bell(gate.qubits[0], gate.qubits[1], gate.variant or "phi+")
        elif k == "pauli":
            cond = gate.cond
            fire = True if cond is None else cond.evaluate({} if bits is None else bits)
            if fire:
                (self.pauli_x if gate.basis == "X" else self.pauli_z)(gate.qubits[0])
        elif k == "prep":
            self.reset(gate.qubits[0], rng)
            if gate.basis == "X":
                self.h(gate.qubits[0])
        elif k == "meas":
            out = self.measure(gate.qubits[0], gate.basis or "Z", rng)
            if bits is not None:
                bits[gate.bit] = out
        else:
            raise ValueError(f"cannot apply gate kind {k!r}")

    def apply_frame(self, frame: PauliFrame, bits: dict[int, int]) -> None:
        for q, e in sorted(frame.x.items()):
            if e.evaluate(bits):
                self.pauli_x(q)
        for q, e in sorted(frame.z.items()):
            if e.evaluate(bits):
                self.pauli_z(q)

    # -- diagnostics -----------------------------------------------------------

    def validate(self) -> None:
        """Tableau sanity: full rank, stabilizers commute, destab pairing."""
        n = self.n
        m = np.concatenate([self.x, self.z], axis=1).astype(np.uint8)
        if _gf2_rank(m.copy()) != 2 * n:
            raise AssertionError("tableau rows are not independent")
        sx, sz = self.x[n:], self.z[n:]
        sym = (sx @ sz.T + sz @ sx.T) % 2
        if sym.any():
            raise AssertionError("stabilizers do not mutually commute")
        dx, dz = self.x[:n], self.z[:n]
        pairing = (dx @ sz.T + dz @ sx.T) % 2
        if not np.array_equal(pairing, np.eye(n, dtype=pairing.dtype)):
            raise AssertionError("destabilizer/stabilizer pairing broken")


def _phase_sum(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Sum over qubits of the AG g-exponent for (row1) * (rows2); rows2 is 2-D."""
    x1i = x1.astype(np.int64)
    z1i = z1.astype(np.int64)
    x2i = x2.astype(np.int64)
    z2i = z2.astype(np.int64)
    g = (
        (x1i & z1i) * (z2i - x2i)
        + (x1i & (1 - z1i)) * (z2i * (2 * x2i - 1))
        + ((1 - x1i) & z1i) * (x2i * (1 - 2 * z2i))
    )
    return g.sum(axis=1)


def _rowsum(x: np.ndarray, z: np.ndarray, r: np.ndarray, rows: np.ndarray, src: int) -> None:
    """Multiply each signed Pauli row in `rows` by row `src`, in place (phase-exact)."""
    if rows.size == 0:
        return
    g = _phase_sum(x[src], z[src], x[rows], z[rows])
    total = 2 * r[rows].astype(np.int64) + 2 * int(r[src]) + g
    r[rows] = ((total % 4) // 2).astype(np.uint8)
    x[rows] ^= x[src]
    z[rows] ^= z[src]


def _gf2_rank(m: np.ndarray) -> int:
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        piv = None
        for i in range(rank, rows):
            if m[i, c]:
                piv = i
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != rank]
        m[hit] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def canonical_tableau(state: StabilizerState) -> bytes:
    """Canonical byte form of the stabilizer group (row-reduced, signs kept)."""
    return reduced_canonical(state, list(range(state.n)))


def _reduce(x: np.ndarray, z: np.ndarray, r: np.ndarray, coords: list[tuple[str, int]]) -> None:
    """In-place Gaussian elimination of the rows (x, z, r) over the given
    coordinate order: every processed coordinate that gets a pivot row ends
    with zero support on all other rows."""
    used: set[int] = set()
    nrows = x.shape[0]
    for axis, q in coords:
        col = x[:, q] if axis == "x" else z[:, q]
        candidates = [i for i in range(nrows) if col[i] and i not in used]
        if not candidates:
            continue
        p = candidates[0]
        used.add(p)
        others = np.array([i for i in range(nrows) if col[i] and i != p], dtype=np.int64)
        _rowsum(x, z, r, others, p)


class ResidualEntanglementError(RuntimeError):
    """Communication qubits stayed entangled with the data register: the
    compiled fragment is wrong, not merely inequivalent."""


def reduced_canonical(state: StabilizerState, data_qubits: list[int]) -> bytes:
    """Canonical tableau of the reduced state on `data_qubits`.

    Requires the complement (communication qubits) to be in a product state
    with the data register; raises ResidualEntanglementError otherwise.
    """
    n = state.n
    data = sorted(data_qubits)
    comm = [q for q in range(n) if q not in set(data)]
    x, z, r = state.x[n:].copy(), state.z[n:].copy(), state.r[n:].copy()
    _reduce(x, z, r, [(a, q) for q in comm for a in ("x", "z")])
    comm_idx = np.array(comm, dtype=np.int64)
    data_only = np.array(
        [i for i in range(n) if not (x[i, comm_idx].any() or z[i, comm_idx].any())], dtype=np.int64
    )
    if len(data_only) != len(data):
        raise ResidualEntanglementError(
            f"{len(data)} data qubits but {len(data_only)} data-supported generators"
        )
    data_idx = np.array(data, dtype=np.int64)
    x, z, r = x[data_only][:, data_idx], z[data_only][:, data_idx], r[data_only]
    _reduce(x, z, r, [(a, q) for a in ("x", "z") for q in range(len(data))])
    order = np.lexsort(np.concatenate([x, z], axis=1).T[::-1])
    return b"".join(np.concatenate([x[i], z[i], r[i : i + 1]]).tobytes() for i in order)


def random_clifford_prefix(n: int, rng: random.Random, length: int | None = None) -> list[Gate]:
    """A random Clifford word used to scramble the input register."""
    from . import circuit as ir

    if length is None:
        length = 3 * n + 4
    gates: list[Gate] = []
    for _ in range(length):
        kind = rng.choice(["zhalf", "xhalf", "yhalf", "cx", "cz"])
        if kind in ("cx", "cz") and n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append(ir.cx(a, b) if kind == "cx" else ir.cz(a, b))
        elif kind in ("cx", "cz"):
            gates.append(Gate("xhalf", (0,)))
        else:
            gates.append(Gate(kind, (rng.randrange(n),)))
    return gates


def _apply_prefix(state: StabilizerState, prefix: list[Gate]) -> None:
    for g in prefix:
        state.apply_gate(g)


def run_extended(
    extended,
    prefix: list[Gate],
    rng: random.Random,
    apply_frame: bool = True,
) -> tuple[StabilizerState, dict[int, int]]:
    """Run an extended circuit on a prefix-scrambled input, one sampled branch."""
    state = StabilizerState(extended.num_qubits)
    _apply_prefix(state, prefix)
    bits: dict[int, int] = {}
    for g in extended.gates:
        state.apply_gate(g, bits, rng)
    if apply_frame:
        state.apply_frame(extended.frame, bits)
    return state, bits


def channel_equivalent(
    extended,
    logical,
    trials: int = 20,
    branches: int = 10,
    rng: random.Random | None = None,
    drop_frame: bool = False,
) -> bool:
    """Compare a compiled extended circuit against its logical source.

    For each trial a random stabilizer input is prepared on the data qubits;
    the extended circuit is run over `branches` sampled measurement branches,
    its Pauli frame applied, the communication qubits traced out, and the
    reduced canonical tableau compared against the logical circuit's output.
    `drop_frame=True` skips the corrections (negative control).
    """
    if rng is None:
        raise ValueError("channel_equivalent needs a seeded rng")
    n = logical.num_qubits
    if extended.num_data != n:
        raise ValueError("data register mismatch between circuits")
    data = list(range(n))
    for _ in range(trials):
        prefix = random_clifford_prefix(n, rng)
        ref = StabilizerState(n)
        _apply_prefix(ref, prefix)
        bits: dict[int, int] = {}
        for g in logical.all_gates():
            ref.apply_gate(g, bits, rng)
        ref_canon = canonical_tableau(ref)
        for _ in range(branches):
            state, _ = run_extended(extended, prefix, rng, apply_frame=not drop_frame)
            red = reduced_canonical(state, data)
            if red != ref_canon:
                return False
    return True
