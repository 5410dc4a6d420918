"""Expansion of scheduled non-local gates into measurement-based protocols.

A remote interaction between processors connected by an entanglement path
(or tree) becomes: Bell preparations on every link, one layer of local
injection gates, one simultaneous measurement layer, and deferred Pauli
corrections.  The builder feeds every gate it emits to the pushing rewriter
as it goes and hands it the textbook protocols' corrections directly, so
every correction lands in the terminal Pauli frame without ever becoming an
inline conditioned Pauli gate.  That keeps the quantum part of a fragment at
depth 3 (preparation, injection, measurement) plus one classical correction
slot, for any path length.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .circuit import FAN_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, bell, cx, cz, meas, yhalf
from .circuit import check_reads, gate_from_json, gate_to_json, json_int, spokes_by_proc, unemitted_bit
from .netmodel import QuotientGraph
from .pauli import PauliFrame
from .pushing import FrameNormalizer


@dataclass(frozen=True)
class ExtendedCircuit:
    """Gate list over data + communication qubits with a terminal Pauli frame.

    Data qubits are 0..num_data-1; communication qubits follow.  After
    normalization no `pauli` gate appears in the list: every correction lives
    in the frame, evaluated classically from the measurement bits.
    """

    num_data: int
    num_qubits: int
    gates: tuple[Gate, ...]
    frame: PauliFrame

    @property
    def e_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "bell")

    def time_slices(self) -> list[list[Gate]]:
        """Greedy ASAP layering of the quantum gates.  A conditioned gate
        goes after the slice of each meas whose bit it reads, the order
        ``from_json`` requires."""
        slices: list[list[Gate]] = []
        last: dict[int, int] = {}
        measured_at: dict[int, int] = {}
        for g in self.gates:
            at = max((last.get(q, -1) for q in g.qubits), default=-1) + 1
            if g.cond is not None:
                at = max([at, *(measured_at.get(b, -1) + 1 for b in g.cond.bits)])
            while len(slices) <= at:
                slices.append([])
            slices[at].append(g)
            for q in g.qubits:
                last[q] = at
            if g.kind == "meas":
                measured_at[g.bit] = at
        return slices

    def depth(self) -> int:
        """Quantum slice count plus one terminal slot for frame corrections."""
        return len(self.time_slices()) + (0 if self.frame.is_empty() else 1)

    def to_json(self) -> dict:
        return {
            "qubits": self.num_qubits,
            "data": self.num_data,
            "layers": [[gate_to_json(g) for g in sl] for sl in self.time_slices()],
            "frame": self.frame.to_json(),
        }

    @staticmethod
    def from_json(doc: dict) -> "ExtendedCircuit":
        """Read ``to_json()`` back, rejecting a qubit outside the circuit and
        a condition or frame entry reading a bit that no meas emits first."""
        layers = [[gate_from_json(g) for g in layer] for layer in doc["layers"]]
        gates = tuple(g for layer in layers for g in layer)
        n, data = json_int(doc["qubits"], "qubit count"), json_int(doc["data"], "data qubit count")
        if data > n:
            raise ValueError(f"{data} data qubits in a {n}-qubit circuit")
        for g in gates:
            if not all(0 <= q < n for q in g.qubits):
                raise ValueError(f"{g.kind} gate on qubits {list(g.qubits)} of a {n}-qubit circuit")
        emitted = check_reads(layers)
        frame = PauliFrame.from_json(doc.get("frame", {}), n)
        for axis, exprs in (("x", frame.x), ("z", frame.z)):
            for q, e in exprs.items():
                bit = unemitted_bit(e, emitted)
                if bit is not None:
                    raise ValueError(f"frame entry q{q} {axis} reads bit {bit}, which no meas emits")
        return ExtendedCircuit(data, n, gates, frame)


class InvalidPathError(ValueError):
    pass


Hop = tuple[int, int]
Route = tuple[tuple[Hop, ...], tuple[int, ...]]


def _orient(
    root: int, edges: Iterable[Hop], terminals: Iterable[int], graph: QuotientGraph | None
) -> tuple[Hop, ...]:
    """The edges of one tree as (parent, child) hops in breadth-first order
    from root, lower-numbered neighbours first: the order `emit_tree` takes.

    Rejects an edge missing from graph, a repeated edge (in either
    orientation), a cycle, an edge not connected to root, and a terminal
    the tree does not reach.
    """
    capacity = None if graph is None else graph.capacity
    adj: dict[int, list[int]] = {}
    seen: set[Hop] = set()
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if capacity is not None and e not in capacity:
            raise InvalidPathError(f"tree edge ({u},{v}) missing from graph")
        if e in seen:
            raise InvalidPathError(f"tree edge ({u},{v}) repeated")
        seen.add(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    hops: list[Hop] = []
    reached = {root}
    queue = [root]
    for u in queue:
        for v in sorted(adj.get(u, ())):
            if v not in reached:
                reached.add(v)
                hops.append((u, v))
                queue.append(v)
    if len(hops) != len(seen):
        if reached.issuperset(adj):
            raise InvalidPathError("edge set has a cycle")
        raise InvalidPathError(f"edge set is not connected to processor {root}")
    if not reached.issuperset(terminals):
        raise InvalidPathError(f"tree does not span terminals {sorted(set(terminals) - reached)}")
    return tuple(hops)


def _path_hops(path: list[int], source: int, target: int, graph: QuotientGraph | None) -> tuple[Hop, ...]:
    """The hops of a simple path from source to target over graph edges."""
    if len(path) < 2 or (path[0], path[-1]) != (source, target):
        raise InvalidPathError(f"path {list(path)} must run from processor {source} to {target}")
    return _orient(source, zip(path, path[1:]), (target,), graph)


class FragmentBuilder:
    """Allocates communication qubits and bit ids while emitting gates, and
    normalizes the Pauli frame as it goes."""

    def __init__(self, num_data: int, first_bit: int = 1):
        self.num_data = num_data
        self.next_qubit = num_data
        self.next_bit = first_bit
        self.normalizer = FrameNormalizer()

    def emit(self, g: Gate) -> None:
        self.normalizer.feed(g)

    def correct(self, q: int, axis: str, bit: int) -> None:
        """Apply ``axis^b`` to qubit q, b the outcome of an expansion
        measurement.  Each such bit feeds exactly one correction, so its
        flip is consumed here."""
        self.normalizer.add(q, axis, (2 << bit) ^ self.normalizer.flips.pop(bit, 0))

    def emit_tree(
        self,
        root: int,
        hops: tuple[Hop, ...],
        control_qubit: int,
        targets_by_proc: dict[int, list[int]],
        kind: str,
    ) -> None:
        """Entanglement-tree protocol rooted at the control's processor.

        `hops` are the tree's (parent u, child v) edges in breadth-first
        order from root (see `_orient`); `targets_by_proc` lists, in
        ascending order, the data targets each processor holds.  Per hop: a
        Bell pair with near qubit at u and far qubit at v; the parent's
        proxy injects into the near qubit, which is measured in Z (bit feeds
        an X fix on the far qubit); the far qubit becomes v's proxy,
        interacting locally with v's data targets.  Finally each proxy is
        measured in X, kicking a Z onto the control.  Bits come in wire
        order: per hop, the Z-basis bit then the X-basis bit.
        """
        interact = cx if kind == "cx" else cz
        feed, correct = self.normalizer.feed, self.correct
        for tq in targets_by_proc.get(root, ()):
            feed(interact(control_qubit, tq))
        # hop i uses qubits q0 + 2i (near) and q0 + 2i + 1 (far), and bits
        # b0 + 2i (Z basis) and b0 + 2i + 1 (X basis)
        q0, b0 = self.next_qubit, self.next_bit
        self.next_qubit += 2 * len(hops)
        self.next_bit += 2 * len(hops)
        for i in range(len(hops)):
            feed(bell(q0 + 2 * i, q0 + 2 * i + 1))
        proxy = {root: control_qubit}
        for i, (u, v) in enumerate(hops):
            near, far = q0 + 2 * i, q0 + 2 * i + 1
            feed(cx(proxy[u], near))
            feed(meas(near, "Z", b0 + 2 * i))
            correct(far, "X", b0 + 2 * i)
            for tq in targets_by_proc.get(v, ()):
                feed(interact(far, tq))
            proxy[v] = far
        for i in range(len(hops)):
            feed(meas(q0 + 2 * i + 1, "X", b0 + 2 * i + 1))
            correct(control_qubit, "Z", b0 + 2 * i + 1)

    def emit_mirror_layer(self, qubits: tuple[int, ...]) -> None:
        """Basis-exchange layer: Z then Y^{1/2} per qubit acts as a Hadamard
        up to global phase; the Z constants end up in the frame."""
        for q in qubits:
            self.normalizer.add(q, "Z", 1)
            self.emit(yhalf(q))

    def build(self) -> ExtendedCircuit:
        gates, frame = self.normalizer.finish()
        return ExtendedCircuit(self.num_data, self.next_qubit, gates, frame)


def _expand_telegate(
    kind: str, control_proc: int, target_proc: int, path: list[int], graph: QuotientGraph | None
) -> ExtendedCircuit:
    hops = _path_hops(path, control_proc, target_proc, graph)
    b = FragmentBuilder(num_data=2)
    b.emit_tree(control_proc, hops, 0, {target_proc: [1]}, kind)
    return b.build()


def expand_telegate_cx(
    control_proc: int,
    target_proc: int,
    path: list[int],
    graph: QuotientGraph | None = None,
) -> ExtendedCircuit:
    """Remote CX over an entanglement path; data qubits: 0 control, 1 target.

    Consumes one Bell pair per path link.  Corrections land in the frame as
    Z^(xor of X-basis bits) on the control and X^(xor of Z-basis bits) on the
    target, matching the two-processor and entanglement-swap protocols.
    """
    return _expand_telegate("cx", control_proc, target_proc, path, graph)


def expand_telegate_cz(
    control_proc: int,
    target_proc: int,
    path: list[int],
    graph: QuotientGraph | None = None,
) -> ExtendedCircuit:
    """Remote CZ over an entanglement path; both corrections are Z-type."""
    return _expand_telegate("cz", control_proc, target_proc, path, graph)


def expand_fanin_tree(
    control_proc: int,
    target_procs: set[int],
    tree: Iterable[Hop],
    graph: QuotientGraph | None = None,
    basis: str = "X",
) -> ExtendedCircuit:
    """Fan-in over an entanglement tree spanning control and target processors.

    Data qubits: 0 is the control; targets follow in ascending processor
    order.  E-count equals the number of tree edges.
    """
    hops = _orient(control_proc, tree, target_procs, graph)
    targets = sorted(set(target_procs))
    targets_by_proc = {p: [1 + i] for i, p in enumerate(targets)}
    b = FragmentBuilder(num_data=1 + len(targets))
    b.emit_tree(control_proc, hops, 0, targets_by_proc, "cx" if basis == "X" else "cz")
    return b.build()


class CircuitExpander:
    """Expands a whole placed circuit, gate by gate, into one extended circuit.

    Local gates pass through; remote interactions are handed routes (paths or
    trees on the quotient graph) by the scheduling backend.  Fan-outs are
    compiled as fan-ins conjugated by basis-exchange layers.  The builder
    moves every correction into the frame as the gates are emitted.
    """

    def __init__(self, circuit: Circuit, placement):
        self.circuit = circuit
        self.placement = placement
        # expansion bits follow the logical circuit's own measurement bits
        last_bit = max((g.bit for g in circuit.all_gates() if g.kind == "meas"), default=0)
        self.builder = FragmentBuilder(circuit.num_qubits, first_bit=last_bit + 1)

    def expand(self, routes: dict[tuple[int, Gate], list[Route]]) -> ExtendedCircuit:
        """Emit every layer in its gate order; the frame is normalized as it goes.

        `routes[(layer index, gate)]` holds the routes of a gate the backend
        scheduled as remote (see `emit_remote`); every other gate is local.
        """
        for li, layer in enumerate(self.circuit.layers):
            for g in layer:
                if (li, g) in routes:
                    self.emit_remote(g, routes[(li, g)])
                else:
                    self.builder.emit(g)
        return self.builder.build()

    def emit_remote(self, g: Gate, routes: list[Route]) -> None:
        """Expand one two-qubit or fan gate over the given routes.

        A route is `(hops, procs)`: the hops of a path or tree in the order
        `emit_tree` takes (from the processor of the gate's first operand),
        and the target processors it serves.  The operands on the first
        operand's processor interact locally; then each route is expanded
        once, in order of its lowest target processor.
        """
        if g.kind in TWO_QUBIT_KINDS:
            kind = g.kind
        elif g.kind in FAN_KINDS:
            kind = "cz" if g.basis == "Z" else "cx"
        else:
            raise ValueError(f"gate kind {g.kind!r} is not a remote interaction")
        hub = g.hub
        hub_proc = self.placement.proc(hub)
        mirror = g.kind == "fanout" and kind == "cx"
        if mirror:
            self.builder.emit_mirror_layer(g.qubits)
        targets_by_proc = spokes_by_proc(g, self.placement)
        self.builder.emit_tree(hub_proc, (), hub, targets_by_proc, kind)  # the local targets
        for hops, procs in sorted(routes, key=lambda r: min(r[1])):
            sub = {p: targets_by_proc[p] for p in procs}
            self.builder.emit_tree(hub_proc, hops, hub, sub, kind)
        if mirror:
            self.builder.emit_mirror_layer(g.qubits)
