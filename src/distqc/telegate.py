"""Expansion of scheduled non-local gates into measurement-based protocols.

A remote interaction between processors connected by an entanglement path
(or tree) becomes: Bell preparations on every link, one layer of local
injection gates, one simultaneous measurement layer, and deferred Pauli
corrections.  `CircuitExpander` feeds local gates to the pushing rewriter as
it goes.  A remote gate's own gates skip it: the fragment moves the pending
frame exactly as the logical interaction does, so the rewriter's push rule
for that interaction is applied once per target, and the protocols'
closed-form corrections are added to the frame directly.  Every correction
thus lands in the terminal Pauli frame without ever becoming an inline
conditioned Pauli gate.  That keeps the quantum part of a fragment at depth
3 (preparation, injection, measurement) plus one classical correction slot,
for any path length.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .circuit import FAN_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, Placement, cx, cz, fanin
from .circuit import check_keys, check_reads, gate_to_json, json_int, json_layers
from .circuit import spokes_by_proc, unemitted_bit, yhalf
from .netmodel import QuotientGraph
from .pauli import PauliFrame, check_bit_id
from .pushing import FrameNormalizer

EXTENDED_KEYS = frozenset({"qubits", "data", "layers", "frame"})


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
        """Read ``to_json()`` back, rejecting a key ``to_json`` does not
        write, a qubit outside the circuit, a `bell` on a data qubit or on a
        qubit an earlier gate acts on (a bell prepares fresh qubits; the
        simulator would entangle whatever they hold), and a condition or
        frame entry reading a bit that no meas emits first."""
        check_keys(doc, EXTENDED_KEYS, "extended circuit")
        layers = json_layers(doc)
        gates = tuple(g for layer in layers for g in layer)
        n, data = json_int(doc["qubits"], "qubit count"), json_int(doc["data"], "data qubit count")
        if data > n:
            raise ValueError(f"{data} data qubits in a {n}-qubit circuit")
        touched: set[int] = set()
        for g in gates:
            if not all(0 <= q < n for q in g.qubits):
                raise ValueError(f"{g.kind} gate on qubits {list(g.qubits)} of a {n}-qubit circuit")
            if g.kind == "bell":
                for q in g.qubits:
                    if q < data or q in touched:
                        why = "is a data qubit" if q < data else "is acted on by an earlier gate"
                        raise ValueError(
                            f"bell gate on qubits {list(g.qubits)} needs fresh qubits: qubit {q} {why}"
                        )
            touched.update(g.qubits)
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
    edges = list(edges)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        if graph is not None and not graph.has_edge(u, v):
            raise InvalidPathError(f"tree edge ({u},{v}) missing from graph")
        if v in adj.get(u, ()):
            raise InvalidPathError(f"tree edge ({u},{v}) repeated")
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
    if len(hops) != len(edges):
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


def _expand_gate(g: Gate, procs: tuple[int, ...], route: Route) -> ExtendedCircuit:
    """Expand the one-gate circuit `g`, qubit i on processor procs[i], over `route`."""
    circuit = Circuit(len(procs), ((g,),))
    return CircuitExpander(circuit, Placement(procs)).expand({(0, g): [route]})


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
    hops = _path_hops(path, control_proc, target_proc, graph)
    return _expand_gate(cx(0, 1), (control_proc, target_proc), (hops, (target_proc,)))


def expand_telegate_cz(
    control_proc: int,
    target_proc: int,
    path: list[int],
    graph: QuotientGraph | None = None,
) -> ExtendedCircuit:
    """Remote CZ over an entanglement path; both corrections are Z-type."""
    hops = _path_hops(path, control_proc, target_proc, graph)
    return _expand_gate(cz(0, 1), (control_proc, target_proc), (hops, (target_proc,)))


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
    g = fanin(0, range(1, 1 + len(targets)), basis)
    # a target on the control's processor interacts locally, outside the route
    served = tuple(p for p in targets if p != control_proc)
    return _expand_gate(g, (control_proc, *targets), (hops, served))


class CircuitExpander:
    """Expands a whole placed circuit, gate by gate, into one extended circuit.

    Local gates pass through; remote interactions are handed routes (paths or
    trees on the quotient graph) by the scheduling backend.  Fan-outs are
    compiled as fan-ins conjugated by basis-exchange layers.  A
    `FrameNormalizer` moves every correction into the frame: local gates and
    the basis-exchange layers are fed to it gate by gate; each target of a
    remote interaction costs it one logical push (and, off the control's
    processor, one closed-form correction), and each route one closed-form
    correction on the control (see `emit_tree`).
    """

    def __init__(self, circuit: Circuit, placement: Placement):
        self.circuit = circuit
        self.placement = placement
        self.next_qubit = circuit.num_qubits
        # expansion bits follow the logical circuit's own measurement bits
        last_bit = max((g.bit for g in circuit.all_gates() if g.kind == "meas"), default=0)
        self.next_bit = last_bit + 1
        self.normalizer = FrameNormalizer()

    def expand(self, routes: dict[tuple[int, Gate], list[Route]]) -> ExtendedCircuit:
        """Emit every layer in its gate order; the frame is normalized as it goes.

        `routes[(layer index, gate)]` holds the routes of a gate the backend
        scheduled as remote (see `emit_remote`); every other gate is local.
        Refuses, with `pauli.check_bit_id`'s ValueError, an expansion whose
        last bit is above `pauli.MAX_BIT_ID`, which ``from_json`` could not
        read back.
        """
        feed = self.normalizer.feed
        for li, layer in enumerate(self.circuit.layers):
            for g in layer:
                if (li, g) in routes:
                    self.emit_remote(g, routes[(li, g)])
                else:
                    feed(g)
        check_bit_id(self.next_bit - 1)
        gates, frame = self.normalizer.finish()
        return ExtendedCircuit(self.circuit.num_qubits, self.next_qubit, gates, frame)

    def emit_remote(self, g: Gate, routes: list[Route]) -> None:
        """Expand one two-qubit or fan gate over the given routes.

        A route is `(hops, procs)`: the hops of a path or tree in the order
        `emit_tree` takes (from the processor of the gate's first operand),
        and the target processors it serves.  The operands on the first
        operand's processor interact locally; then each route is expanded
        once, in order of its lowest target processor (a route serving none
        goes first).
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
            self.emit_mirror_layer(g.qubits)
        targets_by_proc = spokes_by_proc(g, self.placement)
        self.emit_tree(hub_proc, (), hub, targets_by_proc, kind)  # the local targets
        for hops, procs in sorted(routes, key=lambda r: min(r[1], default=-1)):
            sub = {p: targets_by_proc[p] for p in procs}
            self.emit_tree(hub_proc, hops, hub, sub, kind)
        if mirror:
            self.emit_mirror_layer(g.qubits)

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
        proxy injects into the near qubit, which is measured in Z; the far
        qubit becomes v's proxy, interacting locally with v's data targets.
        Finally each proxy is measured in X.  Bits come in wire order: per
        hop, the Z-basis bit then the X-basis bit.

        Targets on root interact with the control directly: the zero-hop
        case, with no Bell pair and no correction.  The fragment's gates go
        straight to the normalizer's gate list, none through `feed`: its
        communication qubits are fresh and all measured inside it, so on the
        pending frame it acts as the logical interaction does, applied once
        per target by the normalizer's push rule, plus the protocol's
        closed-form corrections.  A target at v gets X (cx) or Z (cz) with
        the XOR of the Z-basis bits on the hops from root to v; the control
        gets Z with the XOR of every X-basis bit.  Those masks are built
        relative to b0, with bit 2i (Z basis) or 2i + 1 (X basis) for hop
        i, and shifted to bit ids only as they reach the normalizer: a
        hop's XOR then costs the tree's width, not the largest bit id.

        The gates are built in bulk, as plain `Gate` tuples with no helper
        call per gate: the Bell preparations (qubits q0, q0 + 2, ...) and
        the X-basis measurements (qubits q0 + 1, q0 + 3, ... with bits
        b0 + 1, b0 + 3, ...) are arithmetic progressions, one comprehension
        each, and the control's X-bit mask over h hops, bits 1, 3, ...,
        2h - 1, is ``((1 << 2h) - 1) // 3 * 2``.
        """
        normalizer = self.normalizer
        push, fix = (normalizer._cx, "X") if kind == "cx" else (normalizer._cz, "Z")
        gates, add = normalizer.gates, normalizer.add
        emit = gates.append
        new = tuple.__new__  # a Gate record without the NamedTuple constructor's frame
        for tq in targets_by_proc.get(root, ()):
            emit(new(Gate, (kind, (control_qubit, tq), "", -1, None, "")))
            push(control_qubit, tq)
        # hop i uses qubits q0 + 2i (near) and q0 + 2i + 1 (far), and bits
        # b0 + 2i (Z basis) and b0 + 2i + 1 (X basis)
        n = len(hops)
        q0, b0 = self.next_qubit, self.next_bit
        self.next_qubit += 2 * n
        self.next_bit += 2 * n
        gates.extend([
            new(Gate, ("bell", (q, q + 1), "", -1, None, "phi+")) for q in range(q0, q0 + 2 * n, 2)
        ])
        shift = b0 + 1  # a mask's bit b + 1 stands for bit id b (bit 0: the constant)
        proxy = {root: control_qubit}
        z_bits = {root: 0}  # per processor, the Z-basis bits from root, relative to b0
        for i, (u, v) in enumerate(hops):
            near = q0 + 2 * i
            emit(new(Gate, ("cx", (proxy[u], near), "", -1, None, "")))
            emit(new(Gate, ("meas", (near,), "Z", b0 + 2 * i, None, "")))
            z_bits[v] = z_bits[u] ^ (1 << 2 * i)
            proxy[v] = far = near + 1
            for tq in targets_by_proc.get(v, ()):
                emit(new(Gate, (kind, (far, tq), "", -1, None, "")))
                push(control_qubit, tq)
                add(tq, fix, z_bits[v] << shift)
        gates.extend([
            new(Gate, ("meas", (q,), "X", q - q0 + b0, None, "")) for q in range(q0 + 1, q0 + 2 * n, 2)
        ])
        # the X-basis bits 1, 3, ..., 2n - 1: the mask 0b1010...10
        add(control_qubit, "Z", ((1 << 2 * n) - 1) // 3 * 2 << shift)

    def emit_mirror_layer(self, qubits: tuple[int, ...]) -> None:
        """Basis-exchange layer: Z then Y^{1/2} per qubit acts as a Hadamard
        up to global phase; the Z constants end up in the frame."""
        for q in qubits:
            self.normalizer.add(q, "Z", 1)
            self.normalizer.feed(yhalf(q))
