"""Expansion of scheduled non-local gates into measurement-based protocols.

A remote interaction between processors connected by an entanglement path
(or tree) becomes: Bell preparations on every link, one layer of local
injection gates, one simultaneous measurement layer, and deferred Pauli
corrections.  Fragments are built naively first, with the conditioned Pauli
gates of the textbook protocols inline, and then run through the pushing
rewriter, which relocates every correction into the terminal Pauli frame.
That keeps the quantum part of a fragment at depth 3 (preparation,
injection, measurement) plus one classical correction slot, for any path
length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import FAN_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, bell, cx, cz, meas, pauli, yhalf
from .circuit import gate_from_json, gate_to_json
from .netmodel import QuotientGraph
from .pauli import ONE, PauliFrame, XorExpr
from .pushing import normalize_frame

_BELL_UNDO = {"phi+": "", "phi-": "Z", "psi+": "X", "psi-": "XZ"}


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
        """Greedy ASAP layering of the quantum gates (conditions ignored)."""
        slices: list[list[Gate]] = []
        last: dict[int, int] = {}
        for g in self.gates:
            at = max((last.get(q, -1) for q in g.qubits), default=-1) + 1
            while len(slices) <= at:
                slices.append([])
            slices[at].append(g)
            for q in g.qubits:
                last[q] = at
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
        gates = tuple(gate_from_json(g) for layer in doc["layers"] for g in layer)
        n = doc["qubits"]
        if not 0 <= doc["data"] <= n:
            raise ValueError(f"{doc['data']} data qubits in a {n}-qubit circuit")
        for g in gates:
            if not all(0 <= q < n for q in g.qubits):
                raise ValueError(f"{g.kind} gate on qubits {list(g.qubits)} of a {n}-qubit circuit")
        return ExtendedCircuit(doc["data"], n, gates, PauliFrame.from_json(doc.get("frame", {})))


class InvalidPathError(ValueError):
    pass


def _check_tree(edges, terminals: set[int], graph: QuotientGraph | None) -> None:
    """Reject an edge list that is not one tree spanning the terminals over
    graph edges.  A repeated edge counts twice, so the hops of a path that
    revisits a processor are rejected too."""
    edges = list(edges)
    if not edges:
        if len(terminals) > 1:
            raise InvalidPathError("empty tree cannot span several terminals")
        return
    nodes: set[int] = set()
    for u, v in edges:
        nodes |= {u, v}
        if graph is not None and not graph.has_edge(u, v):
            raise InvalidPathError(f"tree edge ({u},{v}) missing from graph")
    if len(edges) != len(nodes) - 1:
        raise InvalidPathError("edge set is not a tree")
    adj: dict[int, set[int]] = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if seen != nodes:
        raise InvalidPathError("edge set is not connected")
    if not terminals <= nodes:
        raise InvalidPathError(f"tree does not span terminals {sorted(terminals - nodes)}")


def _path_hops(
    path: list[int], source: int, target: int, graph: QuotientGraph | None
) -> list[tuple[int, int]]:
    """The hops of a simple path from source to target over graph edges."""
    hops = list(zip(path, path[1:]))
    if not hops or (path[0], path[-1]) != (source, target):
        raise InvalidPathError(f"path {list(path)} must run from processor {source} to {target}")
    _check_tree(hops, {source, target}, graph)
    return hops


class FragmentBuilder:
    """Allocates communication qubits and bit ids while emitting gates."""

    def __init__(self, num_data: int, first_qubit: int | None = None, first_bit: int = 1):
        self.num_data = num_data
        self.next_qubit = num_data if first_qubit is None else first_qubit
        self.next_bit = first_bit
        self.gates: list[Gate] = []

    def alloc_qubit(self) -> int:
        q = self.next_qubit
        self.next_qubit += 1
        return q

    def alloc_bit(self) -> int:
        b = self.next_bit
        self.next_bit += 1
        return b

    def emit(self, g: Gate) -> None:
        self.gates.append(g)

    def emit_tree(
        self,
        root: int,
        tree: set[tuple[int, int]],
        control_qubit: int,
        targets_by_proc: dict[int, list[int]],
        kind: str,
    ) -> None:
        """Entanglement-tree protocol rooted at the control's processor.

        Per tree edge (parent u, child v): a Bell pair with near qubit at u
        and far qubit at v; the parent's proxy injects into the near qubit,
        which is measured in Z (bit feeds an X fix on the far qubit); the far
        qubit becomes v's proxy, interacting locally with v's data targets.
        Finally each proxy is measured in X, kicking a Z onto the control.
        Bits come in wire order: per edge, the Z-basis bit then the X-basis
        bit.
        """
        interact = cx if kind == "cx" else cz
        for tq in sorted(targets_by_proc.get(root, [])):
            self.emit(interact(control_qubit, tq))
        if not tree:
            return
        adj: dict[int, list[int]] = {}
        for u, v in tree:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        order: list[tuple[int, int]] = []  # oriented edges, BFS from root
        seen = {root}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj.get(u, [])):
                if v not in seen:
                    seen.add(v)
                    order.append((u, v))
                    queue.append(v)
        if len(order) != len(tree):
            raise InvalidPathError("route edges are not connected to the control processor")
        near: dict[tuple[int, int], int] = {}
        far: dict[tuple[int, int], int] = {}
        bit_z: dict[tuple[int, int], int] = {}
        bit_x: dict[tuple[int, int], int] = {}
        for e in order:
            near[e] = self.alloc_qubit()
            far[e] = self.alloc_qubit()
            bit_z[e] = self.alloc_bit()
            bit_x[e] = self.alloc_bit()
            self.emit(bell(near[e], far[e]))
        proxy = {root: control_qubit}
        for e in order:
            u, v = e
            self.emit(cx(proxy[u], near[e]))
            self.emit(meas(near[e], "Z", bit_z[e]))
            self.emit(pauli(far[e], "X", XorExpr.of(bit_z[e])))
            for tq in sorted(targets_by_proc.get(v, [])):
                self.emit(interact(far[e], tq))
            proxy[v] = far[e]
        for e in order:
            self.emit(meas(far[e], "X", bit_x[e]))
            self.emit(pauli(control_qubit, "Z", XorExpr.of(bit_x[e])))

    def emit_mirror_layer(self, qubits: list[int]) -> None:
        """Basis-exchange layer: Z then Y^{1/2} per qubit acts as a Hadamard
        up to global phase; the Z constants end up in the frame."""
        for q in qubits:
            self.emit(pauli(q, "Z", ONE))
            self.emit(yhalf(q))

    def raw(self, num_qubits: int | None = None) -> ExtendedCircuit:
        n = self.next_qubit if num_qubits is None else num_qubits
        return ExtendedCircuit(self.num_data, n, tuple(self.gates), PauliFrame())

    def build(self) -> ExtendedCircuit:
        return normalize_frame(self.raw())


def _expand_telegate(
    kind: str, control_proc: int, target_proc: int, path: list[int], graph: QuotientGraph | None
) -> ExtendedCircuit:
    hops = _path_hops(path, control_proc, target_proc, graph)
    b = FragmentBuilder(num_data=2)
    b.emit_tree(control_proc, set(hops), 0, {target_proc: [1]}, kind)
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
    tree: set[tuple[int, int]],
    graph: QuotientGraph | None = None,
    basis: str = "X",
) -> ExtendedCircuit:
    """Fan-in over an entanglement tree spanning control and target processors.

    Data qubits: 0 is the control; targets follow in ascending processor
    order.  E-count equals the number of tree edges.
    """
    tree = {(min(u, v), max(u, v)) for u, v in tree}
    _check_tree(tree, {control_proc} | set(target_procs), graph)
    targets = sorted(set(target_procs))
    targets_by_proc = {p: [1 + i] for i, p in enumerate(targets)}
    b = FragmentBuilder(num_data=1 + len(targets))
    b.emit_tree(control_proc, tree, 0, targets_by_proc, "cx" if basis == "X" else "cz")
    return b.build()


def expand_teleport(src_proc: int, dst_proc: int, path: list[int] | None = None) -> tuple[ExtendedCircuit, int]:
    """Move a data qubit to the destination processor.

    Returns the fragment and the receiving qubit id.  The payload is data
    qubit 0; after the protocol it lives on the returned communication qubit
    with corrections Z^(b1) and X^(b2) recorded in the frame.
    """
    if path is None:
        path = [src_proc, dst_proc]
    hops = _path_hops(path, src_proc, dst_proc, None)
    b = FragmentBuilder(num_data=1)
    carrier = 0
    for _u, _v in hops:
        a = b.alloc_qubit()
        f = b.alloc_qubit()
        b1 = b.alloc_bit()
        b2 = b.alloc_bit()
        b.emit(bell(a, f))
        b.emit(cx(carrier, a))
        b.emit(meas(carrier, "X", b1))
        b.emit(meas(a, "Z", b2))
        b.emit(pauli(f, "Z", XorExpr.of(b1)))
        b.emit(pauli(f, "X", XorExpr.of(b2)))
        carrier = f
    return b.build(), carrier


def expand_entanglement_swap(left_proc: int, mid_proc: int, right_proc: int) -> ExtendedCircuit:
    """Fuse two Bell pairs at the middle processor into one end-to-end pair.

    Qubits: 0 at the left end, 1 and 2 at the middle, 3 at the right end.
    Bit 1 is the X-basis outcome, bit 2 the Z-basis outcome.  The frame holds
    Z^(b1) on the left qubit and X^(b2) on the right one, which provably
    leaves the ends in the standard Bell state on every branch (the Z fix
    fires on the X-basis outcome, as in the teleportation and telegate
    protocols).
    """
    if len({left_proc, mid_proc, right_proc}) != 3:
        raise InvalidPathError("swap needs three distinct processors")
    b = FragmentBuilder(num_data=0, first_qubit=0)
    q_left, q_mid1, q_mid2, q_right = 0, 1, 2, 3
    b.next_qubit = 4
    b1 = b.alloc_bit()
    b2 = b.alloc_bit()
    b.emit(bell(q_left, q_mid1))
    b.emit(bell(q_mid2, q_right))
    b.emit(cx(q_mid1, q_mid2))
    b.emit(meas(q_mid1, "X", b1))
    b.emit(meas(q_mid2, "Z", b2))
    b.emit(pauli(q_left, "Z", XorExpr.of(b1)))
    b.emit(pauli(q_right, "X", XorExpr.of(b2)))
    return b.build()


def expand_with_bell_variant(fragment: ExtendedCircuit, variants) -> ExtendedCircuit:
    """Swap Bell preparations for heralded variants, folding the compensation
    into the classical corrections.

    `variants` is a single variant name applied to every Bell preparation, or
    a sequence/mapping indexed by preparation occurrence.  No quantum gate is
    added: the Paulis that would restore the standard pair become constant
    terms in the correction expressions.
    """
    if isinstance(variants, str):
        lookup = lambda k: variants  # noqa: E731
    elif isinstance(variants, dict):
        lookup = lambda k: variants.get(k, "phi+")  # noqa: E731
    else:
        seq = list(variants)
        lookup = lambda k: seq[k]  # noqa: E731
    gates: list[Gate] = []
    count = 0
    for g in fragment.gates:
        if g.kind != "bell":
            gates.append(g)
            continue
        v = lookup(count)
        count += 1
        if v not in _BELL_UNDO:
            raise ValueError(f"unknown Bell variant {v!r}")
        gates.append(bell(g.qubits[0], g.qubits[1], v))
        for axis in _BELL_UNDO[v]:
            gates.append(pauli(g.qubits[0], axis, ONE))
    return normalize_frame(
        ExtendedCircuit(fragment.num_data, fragment.num_qubits, tuple(gates), fragment.frame.copy())
    )


class CircuitExpander:
    """Expands a whole placed circuit, gate by gate, into one extended circuit.

    Local gates pass through; remote interactions are handed routes (paths or
    trees on the quotient graph) by the scheduling backend.  Fan-outs are
    compiled as fan-ins conjugated by basis-exchange layers.  A single
    normalization at the end moves all corrections into the frame.
    """

    def __init__(self, circuit: Circuit, placement, graph: QuotientGraph):
        self.circuit = circuit
        self.placement = placement
        self.graph = graph
        self.builder = FragmentBuilder(circuit.num_qubits)

    def expand(self, routes: dict[tuple[int, Gate], dict[int, set[tuple[int, int]]]]) -> ExtendedCircuit:
        """Emit every layer in its gate order and normalize the frame.

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

    def emit_remote(self, g: Gate, routes: dict[int, set[tuple[int, int]]]) -> None:
        """Expand one gate whose commodities got the given routes.

        `routes` maps a target processor to the edge set (path or tree
        segment) that reaches it; a single multi-terminal tree may be passed
        under each target processor (identical sets are merged).
        """
        place = self.placement
        if g.kind in TWO_QUBIT_KINDS:
            a, t = g.qubits
            edges = routes[place.proc(t)]
            self.builder.emit_tree(place.proc(a), edges, a, {place.proc(t): [t]}, g.kind)
            return
        if g.kind not in FAN_KINDS:
            raise ValueError(f"gate kind {g.kind!r} is not a remote interaction")
        hub = g.hub
        hub_proc = place.proc(hub)
        kind = "cz" if g.basis == "Z" else "cx"
        mirror = g.kind == "fanout" and kind == "cx"
        involved = [hub, *g.spokes]
        if mirror:
            self.builder.emit_mirror_layer(involved)
        targets_by_proc: dict[int, list[int]] = {}
        for q in g.spokes:
            targets_by_proc.setdefault(place.proc(q), []).append(q)
        local = targets_by_proc.pop(hub_proc, [])
        # group target processors by the route they were assigned: one tree
        # per distinct edge set, so a shared Steiner tree expands only once
        groups: dict[frozenset[tuple[int, int]], list[int]] = {}
        for p in sorted(targets_by_proc):
            groups.setdefault(frozenset(routes[p]), []).append(p)
        if local:
            self.builder.emit_tree(hub_proc, set(), hub, {hub_proc: local}, kind)
        for edge_set, procs in sorted(groups.items(), key=lambda kv: min(kv[1])):
            sub = {p: targets_by_proc[p] for p in procs}
            self.builder.emit_tree(hub_proc, set(edge_set), hub, sub, kind)
        if mirror:
            self.builder.emit_mirror_layer(involved)
