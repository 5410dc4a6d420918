"""Stabilizer-tableau simulator: the equivalence oracle for compiled circuits.

Binary symplectic tableau with explicit sign bits, 2n generators
(destabilizers then stabilizers) per the Aaronson-Gottesman scheme.  All gate
updates are vectorized over the generator rows, so a gate costs O(n) numpy
work.  Measurements in the Z or X basis return deterministic outcomes when
the observable is in the stabilizer group and fair coin flips otherwise.

A symbolic state keeps every random outcome open instead of flipping a coin:
each sign is then an affine GF(2) function of fresh outcome symbols, as in
Stim (arXiv:2103.02202).  Such a value is a Python int whose bit 0 is the
constant and whose bit j >= 1 is the coefficient of symbol j, so a concrete
outcome 0 or 1 is the same value with no symbols.  Gates touch only the
constant part `r`; the symbol part `sym` changes in row products,
measurements and conditioned Paulis.  One run of a compiled circuit on the
Choi state of its data register then covers every input and every
measurement branch at once (`channel_equivalent`).
"""

from __future__ import annotations

import random

import numpy as np

from .circuit import Gate
from .pauli import PauliFrame

_BELL_PAULIS = {"phi+": "", "phi-": "Z", "psi+": "X", "psi-": "XZ"}


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>.

    With `symbolic=True` a random measurement outcome opens a new symbol
    instead of drawing from an rng (see the module docstring).
    """

    def __init__(self, n: int, symbolic: bool = False):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.uint8)
        self.z = np.zeros((2 * n, n), dtype=np.uint8)
        self.r = np.zeros(2 * n, dtype=np.uint8)
        self.sym = np.zeros(2 * n, dtype=object)  # symbol part of each sign
        self.symbolic = symbolic
        self.symbols = 0
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

    def flip(self, q: int, axis: str, value: int) -> None:
        """Apply X or Z on q raised to an affine outcome value: the value is
        added to the sign of every row that anticommutes with the Pauli."""
        hit = self.z[:, q] if axis == "X" else self.x[:, q]
        if value & 1:
            self.r ^= hit
        if value >> 1:
            self.sym[hit.astype(bool)] ^= value & ~1

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
        supplied rng is an error (sampling must always be seeded), unless the
        state is symbolic, where it is a new symbol.  The outcome is an
        affine value: 0 or 1 on a concrete state.
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
            _rowsum(self.x, self.z, self.r, self.sym, others, p)
            # old stabilizer p becomes the destabilizer of the new Z_q row
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.sym[p - n] = self.sym[p]
            if self.symbolic:
                self.symbols += 1
                outcome = 1 << self.symbols
            elif rng is None:
                raise RuntimeError("random measurement outcome requires an rng")
            else:
                outcome = rng.randrange(2)
            self.x[p] = 0
            self.z[p] = 0
            self.z[p, q] = 1
            self.r[p] = outcome & 1
            self.sym[p] = outcome & ~1
            return outcome
        # deterministic: accumulate the stabilizers indexed by anticommuting
        # destabilizers into a scratch row
        sx = np.zeros(n, dtype=np.uint8)
        sz = np.zeros(n, dtype=np.uint8)
        sr = 0
        symbols = 0
        for i in np.flatnonzero(self.x[:n, q]):
            g = int(_phase_sum(self.x[n + i], self.z[n + i], sx[None, :], sz[None, :])[0])
            sr = (sr + 2 * int(self.r[n + i]) + g) % 4
            symbols ^= self.sym[n + i]
            sx ^= self.x[n + i]
            sz ^= self.z[n + i]
        return sr // 2 | symbols

    def reset(self, q: int, rng: random.Random | None = None) -> None:
        """Force qubit q back to |0>."""
        self.flip(q, "X", self.measure(q, "Z", rng))

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
            value = 1 if gate.cond is None else gate.cond.evaluate({} if bits is None else bits)
            self.flip(gate.qubits[0], gate.basis, value)
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
            self.flip(q, "X", e.evaluate(bits))
        for q, e in sorted(frame.z.items()):
            self.flip(q, "Z", e.evaluate(bits))

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
    """Sum over qubits, modulo 4, of the AG g-exponent for (row1) * (rows2);
    rows2 is 2-D.  g is 0 where the Paulis commute, -1 (3 mod 4) for the
    pairs XZ, YX and ZY, and +1 for the other anticommuting pairs."""
    anti = (x1 & z2) ^ (z1 & x2)
    minus = anti & (x1 ^ x2 ^ z1 ^ z2 ^ (x1 & z2))
    return (anti.sum(axis=1) + 2 * minus.sum(axis=1)) % 4


def _rowsum(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, sym: np.ndarray, rows: np.ndarray, src: int
) -> None:
    """Multiply each signed Pauli row in `rows` by row `src`, in place (phase-exact)."""
    if rows.size == 0:
        return
    g = _phase_sum(x[src], z[src], x[rows], z[rows])
    r[rows] ^= r[src] ^ (g >> 1).astype(np.uint8)
    if sym[src]:
        sym[rows] ^= sym[src]
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
    """Canonical byte form of the stabilizer group (row-reduced, signs kept).

    Raises BranchDependentError when a sign depends on a measurement symbol.
    """
    return reduced_canonical(state, list(range(state.n)))


def _reduce(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, sym: np.ndarray, coords: list[tuple[str, int]]
) -> None:
    """In-place Gaussian elimination of the rows (x, z, r, sym) over the given
    coordinate order: every processed coordinate that gets a pivot row ends
    with zero support on all other rows."""
    free = np.ones(x.shape[0], dtype=bool)
    for axis, q in coords:
        col = (x[:, q] if axis == "x" else z[:, q]).astype(bool)
        candidates = np.flatnonzero(col & free)
        if not candidates.size:
            continue
        p = int(candidates[0])
        free[p] = False
        col[p] = False
        _rowsum(x, z, r, sym, np.flatnonzero(col), p)


class ResidualEntanglementError(RuntimeError):
    """Communication qubits stayed entangled with the data register: the
    compiled fragment is wrong, not merely inequivalent."""


class BranchDependentError(RuntimeError):
    """A sign of the state depends on a measurement symbol, so the state
    differs between measurement branches and has no single canonical form."""


def reduced_canonical(state: StabilizerState, data_qubits: list[int]) -> bytes:
    """Canonical tableau of the reduced state on `data_qubits`.

    Requires the complement (communication qubits) to be in a product state
    with the data register; raises ResidualEntanglementError otherwise.
    Raises BranchDependentError when a sign of the reduced state depends on
    a measurement symbol.
    """
    n = state.n
    data = sorted(data_qubits)
    comm = [q for q in range(n) if q not in set(data)]
    x, z, r, sym = state.x[n:].copy(), state.z[n:].copy(), state.r[n:].copy(), state.sym[n:].copy()
    _reduce(x, z, r, sym, [(a, q) for q in comm for a in ("x", "z")])
    comm_idx = np.array(comm, dtype=np.int64)
    data_only = np.array(
        [i for i in range(n) if not (x[i, comm_idx].any() or z[i, comm_idx].any())], dtype=np.int64
    )
    if len(data_only) != len(data):
        raise ResidualEntanglementError(
            f"{len(data)} kept qubits but {len(data_only)} generators supported on them"
        )
    if any(sym[data_only]):
        raise BranchDependentError("a sign of the reduced state depends on a measurement outcome")
    data_idx = np.array(data, dtype=np.int64)
    x, z, r = x[data_only][:, data_idx], z[data_only][:, data_idx], r[data_only]
    _reduce(x, z, r, sym[data_only], [(a, q) for a in ("x", "z") for q in range(len(data))])
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


def choi_state(num_qubits: int, num_data: int) -> StabilizerState:
    """Symbolic state with qubit i < num_data in a Bell pair with reference
    qubit num_qubits + i, the other qubits in |0>.  A channel on the first
    num_qubits qubits is fixed by what it makes of this one state."""
    state = StabilizerState(num_qubits + num_data, symbolic=True)
    for i in range(num_data):
        state.bell(i, num_qubits + i)
    return state


def run_extended(extended, apply_frame: bool = True) -> StabilizerState:
    """Run an extended circuit once on the Choi state of its data register,
    every random measurement outcome a symbol, then apply its frame."""
    state = choi_state(extended.num_qubits, extended.num_data)
    bits: dict[int, int] = {}
    for g in extended.gates:
        state.apply_gate(g, bits)
    if apply_frame:
        state.apply_frame(extended.frame, bits)
    return state


def _require_unitary(logical) -> None:
    for li, layer in enumerate(logical.layers):
        for g in layer:
            if g.kind in ("prep", "meas") or (g.kind == "pauli" and g.cond is not None and g.cond.mask >> 1):
                raise ValueError(
                    f"logical layer {li}: {g.kind} on qubits {list(g.qubits)} is not unitary; "
                    "only unitary logical circuits can be verified"
                )


def channel_equivalent(
    extended,
    logical,
    trials: int = 20,
    branches: int = 10,
    rng: random.Random | None = None,
    drop_frame: bool = False,
) -> bool:
    """Prove a compiled extended circuit equivalent to its unitary logical source.

    Both circuits run once on the Choi state of the data register, which
    stands for every input at once.  The extended run keeps its random
    measurement outcomes as symbols, so it covers every branch too.  After
    its frame and the trace over the communication qubits, the circuits are
    equivalent exactly when every remaining sign is constant and the
    canonical tableaus agree.  `drop_frame=True` skips the corrections
    (negative control).  A logical circuit with a prep, a meas or a
    conditioned pauli is refused with a ValueError, and an extended circuit
    that leaves communication qubits entangled with the data register raises
    ResidualEntanglementError.

    `trials`, `branches` and `rng` do not change the verdict; they are still
    checked (an rng, at least one trial and one branch) so that callers
    passing sampling settings keep their contract.
    """
    if rng is None:
        raise ValueError("channel_equivalent needs a seeded rng")
    if trials < 1 or branches < 1:
        raise ValueError(f"need at least one trial and one branch, got {trials} and {branches}")
    n = logical.num_qubits
    if extended.num_data != n:
        raise ValueError("data register mismatch between circuits")
    _require_unitary(logical)
    ref = choi_state(n, n)
    for g in logical.all_gates():
        ref.apply_gate(g)
    state = run_extended(extended, apply_frame=not drop_frame)
    m = extended.num_qubits
    try:
        red = reduced_canonical(state, [*range(n), *range(m, m + n)])
    except ResidualEntanglementError:
        raise ResidualEntanglementError(
            f"communication qubits stay entangled with the {n} data qubits"
        ) from None
    except BranchDependentError:
        return False
    return red == canonical_tableau(ref)
