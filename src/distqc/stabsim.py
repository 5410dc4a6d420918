"""Stabilizer-tableau simulator: the equivalence oracle for compiled circuits.

Aaronson-Gottesman tableau (arXiv:quant-ph/0406196): 2n signed Pauli rows,
destabilizers 0..n-1 then stabilizers n..2n-1, stored by column as bitsets
as in Stim (arXiv:2103.02202).  Qubit q has one Python int `x[q]` and one
int `z[q]`, whose bit i is row i's X and Z part on q, and bit i of the int
`r` is row i's constant sign.  A gate is a few int operations on whole
columns, with no loop over rows.  The one row product, `_rowmul`, serves
both kinds of measurement and `reduced_canonical`: it walks the columns
where its source row has support and keeps the phase of every target row at
once in a bit-sliced two-bit counter.  Finding that support scans the
columns, so each row product takes O(n) Python steps: below about 550
qubits that beats the per-call overhead of a numpy tableau, above it a
numpy tableau is faster (README, Verification).

A measurement in the Z or X basis returns an affine GF(2) value: the
sign of the observable, multiplied out of the stabilizers in a transient
scratch row 2n, when it is in the stabilizer group, a fresh outcome symbol
otherwise, so every sign is an affine function of the symbols, as in
Stim.  Such a value is a Python int whose bit 0 is the constant and whose
bit j >= 1 is the coefficient of symbol j, so a concrete outcome 0 or 1 is
the same value with no symbols.  Gates touch only the constant part `r`;
the symbol part, one int per row in `sym`, changes in row products,
measurements and conditioned Paulis.  One run of a compiled circuit on the
Choi state of its data register then covers every input and every
measurement branch at once (`channel_equivalent`).
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from .circuit import BELL_PAULIS, FAN_KINDS, Gate
from .pauli import PauliFrame, by_axis, set_bits

if TYPE_CHECKING:
    import random


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>; n = 0 is the empty state.

    `x`, `z` and `r` hold the tableau columns and constant signs described in
    the module docstring, `sym[i]` the symbol part of row i's sign and
    `symbols` the number of outcome symbols opened so far.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"qubit count must be non-negative, got {n}")
        self.n = n
        self.x = [1 << q for q in range(n)]  # destabilizer q = X_q
        self.z = [1 << (n + q) for q in range(n)]  # stabilizer q = Z_q
        self.r = 0
        self.sym = [0] * (2 * n)
        self.symbols = 0

    # -- elementary gates ---------------------------------------------------

    def h(self, q: int) -> None:
        x, z = self.x[q], self.z[q]
        self.r ^= x & z
        self.x[q], self.z[q] = z, x

    def s(self, q: int) -> None:
        x = self.x[q]
        self.r ^= x & self.z[q]
        self.z[q] ^= x

    def cx(self, c: int, t: int) -> None:
        x, z = self.x, self.z
        xc, zt = x[c], z[t]
        self.r ^= xc & zt & ~(x[t] ^ z[c])
        x[t] ^= xc
        z[c] ^= zt

    def cz(self, a: int, b: int) -> None:
        # H(b) CX(a, b) H(b), multiplied out
        x, z = self.x, self.z
        xa, xb = x[a], x[b]
        self.r ^= xa & xb & (z[a] ^ z[b])
        z[a] ^= xb
        z[b] ^= xa

    def pauli_x(self, q: int) -> None:
        self.r ^= self.z[q]

    def pauli_z(self, q: int) -> None:
        self.r ^= self.x[q]

    def flip(self, q: int, axis: str, value: int) -> None:
        """Apply X or Z on q raised to an affine outcome value: the value is
        added to the sign of every row that anticommutes with the Pauli."""
        hit = by_axis(axis, self.z, self.x)[q]
        if value & 1:
            self.r ^= hit
        symbols = value & ~1
        if symbols:
            sym = self.sym
            for i in set_bits(hit):
                sym[i] ^= symbols

    def xhalf(self, q: int) -> None:
        # conjugation: Z -> -Y, Y -> Z, X -> X
        x, z = self.x[q], self.z[q]
        self.r ^= z & ~x
        self.x[q] = x ^ z

    def zhalf(self, q: int) -> None:
        self.s(q)

    def yhalf(self, q: int) -> None:
        # conjugation: X -> -Z, Z -> X (same map as H up to the sign on X)
        x, z = self.x[q], self.z[q]
        self.r ^= x & ~z
        self.x[q], self.z[q] = z, x

    def bell(self, a: int, b: int, variant: str = "phi+") -> None:
        """Entangle two fresh qubits into the requested Bell state."""
        self.h(a)
        self.cx(a, b)
        for p in BELL_PAULIS[variant]:
            if p == "X":
                self.pauli_x(a)
            else:
                self.pauli_z(a)

    # -- measurement ----------------------------------------------------------

    def measure(self, q: int, basis: str = "Z") -> int:
        """Measure qubit q along Z or X, collapsing the tableau.  The outcome
        is an affine value: a new symbol when it is random; when it is
        deterministic, the sign of the stabilizer product that equals +-Z_q,
        multiplied out by `_rowmul` like every other row product."""
        if basis == "X":
            self.h(q)
            out = self.measure(q, "Z")
            self.h(q)
            return out
        if basis != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
        n = self.n
        x, z = self.x, self.z
        anticommuting = x[q] >> n  # stabilizers with an X part on q
        if not anticommuting:
            # the stabilizers paired with the destabilizers that have an X
            # part on q multiply to +-Z_q: build the product in a scratch
            # row 2n, read its sign and clear the row; only columns where a
            # factor has support change
            scratch = 1 << 2 * n
            factors = x[q] & ((1 << n) - 1)
            rows = factors << n
            cols = [j for j in range(n) if (x[j] | z[j]) & rows]
            self.sym.append(0)
            for i in set_bits(factors):
                self.r = _rowmul(x, z, self.r, self.sym, scratch, n + i, cols)
            for j in cols:
                x[j] &= ~scratch
                z[j] &= ~scratch
            out = self.r >> 2 * n & 1 | self.sym.pop()
            self.r &= ~scratch
            return out
        self.symbols += 1
        outcome = 1 << self.symbols
        # the first anticommuting stabilizer p multiplies into every other row
        # with an X part on q, then becomes the destabilizer p - n of the new
        # Z_q row; only columns where row p or row p - n has support change
        dbit = anticommuting & -anticommuting
        pbit = dbit << n
        p = pbit.bit_length() - 1
        both = pbit | dbit
        cols = [j for j in range(n) if (x[j] | z[j]) & both]
        self.r = _rowmul(x, z, self.r, self.sym, x[q] ^ pbit, p, cols)
        keep = ~both
        for j in cols:
            xj, zj = x[j], z[j]
            x[j] = (xj & keep) | (xj & pbit) >> n
            z[j] = (zj & keep) | (zj & pbit) >> n
        z[q] |= pbit
        r = self.r
        self.r = (r & keep) | (r & pbit) >> n
        self.sym[p - n] = self.sym[p]
        self.sym[p] = outcome
        return outcome

    def reset(self, q: int) -> None:
        """Force qubit q back to |0>."""
        self.flip(q, "X", self.measure(q, "Z"))

    # -- circuit-level dispatch ----------------------------------------------

    def apply_gate(self, gate: Gate, bits: dict[int, int] | None = None) -> None:
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
        elif k in FAN_KINDS:
            op = self.cz if gate.basis == "Z" else self.cx
            for c, t in product(gate.controls(), gate.targets()):
                op(c, t)
        elif k == "bell":
            self.bell(gate.qubits[0], gate.qubits[1], gate.variant or "phi+")
        elif k == "pauli":
            value = 1 if gate.cond is None else gate.cond.evaluate({} if bits is None else bits)
            self.flip(gate.qubits[0], gate.basis, value)
        elif k == "prep":
            self.reset(gate.qubits[0])
            if gate.basis == "X":
                self.h(gate.qubits[0])
        elif k == "meas":
            out = self.measure(gate.qubits[0], gate.basis or "Z")
            if bits is not None:
                bits[gate.bit] = out
        else:
            raise ValueError(f"cannot apply gate kind {k!r}")

    def apply_frame(self, frame: PauliFrame, bits: dict[int, int]) -> None:
        """Apply each frame entry; an entry only XORs sign bits, so their
        order cannot change the state."""
        for q, e in frame.x.items():
            self.flip(q, "X", e.evaluate(bits))
        for q, e in frame.z.items():
            self.flip(q, "Z", e.evaluate(bits))

    # -- diagnostics -----------------------------------------------------------

    def validate(self) -> None:
        """Tableau sanity: full rank, stabilizers commute, destab pairing."""
        n = self.n
        pivots: dict[int, int] = {}  # the rows' rank is the columns' rank
        for v in (*self.x, *self.z):
            while v:
                top = v.bit_length()
                if top not in pivots:
                    pivots[top] = v
                    break
                v ^= pivots[top]
        if len(pivots) != 2 * n:
            raise AssertionError("tableau rows are not independent")
        stabilizers = ((1 << n) - 1) << n
        anti = []  # anti[i]: the stabilizers that anticommute with row i
        for i in range(2 * n):
            bit = 1 << i
            a = 0
            for xj, zj in zip(self.x, self.z):
                if xj & bit:
                    a ^= zj
                if zj & bit:
                    a ^= xj
            anti.append(a & stabilizers)
        if any(anti[n:]):
            raise AssertionError("stabilizers do not mutually commute")
        if any(anti[i] != 1 << (n + i) for i in range(n)):
            raise AssertionError("destabilizer/stabilizer pairing broken")


def _rowmul(x: list[int], z: list[int], r: int, sym: list[int], rows: int, src: int, cols) -> int:
    """Multiply each row in the bitmask `rows` by row `src`, in place and
    phase-exact, and return the new sign bits.  `cols` must list every
    column where row src has support; other columns in it are skipped."""
    bit = 1 << src
    # each target row's phase exponent mod 4, as a bit-sliced two-bit
    # counter: a row in `anti` adds 1 on this column, one in `minus` 2 more
    c0 = c1 = 0
    for j in cols:
        xj, zj = x[j], z[j]
        if xj & bit:
            x[j] = xj ^ rows
            if zj & bit:  # Y times X is -iZ
                z[j] = zj ^ rows
                x2, z2 = xj & rows, zj & rows
                anti, minus = x2 ^ z2, x2 & ~z2
            else:  # X times Z is -iY
                z2 = zj & rows
                anti, minus = z2, z2 & ~xj
        elif zj & bit:  # Z times Y is -iX
            z[j] = zj ^ rows
            x2 = xj & rows
            anti, minus = x2, x2 & zj
        else:
            continue
        c1 ^= (c0 & anti) ^ minus
        c0 ^= anti
    if sym[src]:
        for i in set_bits(rows):
            sym[i] ^= sym[src]
    return r ^ c1 ^ (rows if r & bit else 0)


def canonical_tableau(state: StabilizerState) -> bytes:
    """Canonical byte form of the stabilizer group (row-reduced, signs kept).

    Raises BranchDependentError when a sign depends on a measurement symbol.
    """
    return reduced_canonical(state, list(range(state.n)))


def _reduce(x: list[int], z: list[int], r: int, sym: list[int], rows: int, coords) -> int:
    """Gaussian elimination of the rows in the bitmask `rows` over the given
    coordinate order, each a column list (x or z) and a qubit, listing both
    coordinates of every qubit it names: every coordinate that gets a pivot
    row ends with zero support on all other rows.  x and z change in place;
    returns the new sign bits."""
    free = rows
    # A row still free when both coordinates of qubit q are done has no
    # support on q, so later pivots' support is looked for only elsewhere.
    live = set(range(len(x)))
    seen = set()
    for col, q in coords:
        hit = col[q] & free
        if hit:
            pivot = hit & -hit
            free ^= pivot
            others = col[q] ^ pivot
            if others:
                cols = [j for j in live if (x[j] | z[j]) & pivot]
                r = _rowmul(x, z, r, sym, others, pivot.bit_length() - 1, cols)
        if q in seen:
            live.discard(q)
        seen.add(q)
    return r


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
    kept = set(data)
    comm = [q for q in range(n) if q not in kept]
    # the stabilizer rows, shifted down to bits 0..n-1
    x = [v >> n for v in state.x]
    z = [v >> n for v in state.z]
    sym = state.sym[n:]
    r = _reduce(x, z, state.r >> n, sym, (1 << n) - 1, [(c, q) for q in comm for c in (x, z)])
    on_comm = 0
    for q in comm:
        on_comm |= x[q] | z[q]
    data_only = ((1 << n) - 1) & ~on_comm
    rows = set_bits(data_only)
    if len(rows) != len(data):
        raise ResidualEntanglementError(
            f"{len(data)} kept qubits but {len(rows)} generators supported on them"
        )
    if any(sym[i] for i in rows):
        raise BranchDependentError("a sign of the reduced state depends on a measurement outcome")
    x = [x[q] & data_only for q in data]
    z = [z[q] & data_only for q in data]
    r = _reduce(x, z, r, sym, data_only, [(c, q) for c in (x, z) for q in range(len(data))])
    # one byte per X part, per Z part and for the sign; rows in lexicographic order
    return b"".join(
        sorted(bytes([*(c >> i & 1 for c in x), *(c >> i & 1 for c in z), r >> i & 1]) for i in rows)
    )


def choi_state(num_qubits: int, num_data: int) -> StabilizerState:
    """State with qubit i < num_data in a Bell pair with reference
    qubit num_qubits + i, the other qubits in |0>.  A channel on the first
    num_qubits qubits is fixed by what it makes of this one state."""
    state = StabilizerState(num_qubits + num_data)
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
    (negative control).  A logical circuit with a prep or a meas (which a
    conditioned pauli needs) is refused with a ValueError, and an extended
    circuit that leaves communication qubits entangled with the data
    register raises ResidualEntanglementError.

    `trials`, `branches` and `rng` are ignored: the check samples nothing.
    They remain only for the callers that still pass them: acceptance
    criterion 9, ``test_verdict_ignores_sampling_settings`` and the
    verify-corpus workload of ``perfbench`` (ROADMAP open item 1).
    """
    n = logical.num_qubits
    if extended.num_data != n:
        raise ValueError("data register mismatch between circuits")
    ref = choi_state(n, n)
    for li, layer in enumerate(logical.layers):
        for g in layer:
            if g.kind in ("prep", "meas"):
                raise ValueError(
                    f"logical layer {li}: {g.kind} on qubits {list(g.qubits)} is not unitary; "
                    "only unitary logical circuits can be verified"
                )
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
