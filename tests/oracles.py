"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's solver code paths: plain recursive
enumeration for schedules, subset enumeration for Steiner trees, and
networkx's lattice generators for the three topology families.  The
reference commodity extraction and greedy scheduler are the plain quadratic
versions that the indexed library code must match output for output, and
the scalar Dreyfus-Wagner program (dict rows, a heap Dijkstra grow step and
a recorded choice per entry) is the reference the vectorized one must match
tree for tree; the Steiner approximation's Prim step, which rescans every
pair of tree and outside terminals for each terminal it adds, is the
reference its keyed Prim must match tree for tree.  The sampled channel check runs concrete inputs and
measurement branches, where the library's check runs one symbolic Choi
state, and it runs them on the numpy tableau (`ReferenceStabilizerState`)
that the library's bit-packed tableau must match outcome for outcome and
byte for byte.  The gate-by-gate expander feeds every fragment gate to the
frame normalizer and hands it each protocol correction as its bit is
measured; the library's expander, which applies each remote target's
logical push rule once plus closed-form corrections, must match it gate
for gate and mask for mask.  The reference densifier rescans every pair
count for each qubit's partners; the library's, which keeps each qubit's
uncovered pairs, must match it layer for layer.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Iterable

import networkx as nx
import numpy as np

from distqc.circuit import (
    Circuit,
    Commodity,
    CommoditySet,
    Gate,
    Placement,
    bell,
    cx,
    cz,
    default_qpar,
    fanin,
    meas,
    remote_spokes,
    yhalf,
)
from distqc.flow import DETOUR_SLACK, FlowSchedule
from distqc.netmodel import QuotientGraph, edge_key, trace_path
from distqc.pauli import PauliFrame
from distqc.stabsim import BranchDependentError, ResidualEntanglementError
from distqc.steiner import EXACT_MAX_TERMINALS, Edge, FanInLayering, SteinerInstance
from distqc.telegate import CircuitExpander, Hop


def to_nx(q: QuotientGraph) -> nx.Graph:
    """The quotient graph as a networkx graph with a ``capacity`` per edge."""
    g = nx.Graph()
    g.add_nodes_from(range(q.node_count))
    for u, v, c in q.edges:
        g.add_edge(u, v, capacity=c)
    return g


def _from_nx(h: nx.Graph) -> QuotientGraph:
    order = {node: i for i, node in enumerate(sorted(h.nodes()))}
    edges = sorted((min(order[a], order[b]), max(order[a], order[b]), 1) for a, b in h.edges())
    return QuotientGraph(h.number_of_nodes(), tuple(edges))


# the lattice families built by networkx's generators, nodes numbered in
# sorted order: the reference the library's plain-Python generators match
NX_LATTICES = {
    "rect-low": lambda g: _from_nx(nx.grid_2d_graph((g + 3) // 2, (g + 4) // 2)),
    "rect-high": lambda g: _from_nx(nx.grid_2d_graph(g + 1, g + 1)),
    "hex": lambda g: _from_nx(nx.hexagonal_lattice_graph((g + 2) // 2, (g + 1) // 2)),
}


def all_simple_paths(q: QuotientGraph, s: int, t: int) -> list[tuple[int, ...]]:
    g = to_nx(q)
    return [tuple(p) for p in nx.all_simple_paths(g, s, t)]


def enumerate_schedules(q: QuotientGraph, cs: CommoditySet, d: int):
    """Yield every feasible (steps, paths) assignment within horizon d."""
    options = []
    for c in cs.commodities:
        paths = all_simple_paths(q, c.source, c.target)
        options.append([(tau, p) for tau in range(1, d + 1) for p in paths])

    k = cs.k
    preds = {i: [j for (j, i2) in cs.prec if i2 == i] for i in range(k)}

    def feasible_prefix(chosen):
        usage: dict = {}
        for i, (tau, path) in enumerate(chosen):
            for u, v in zip(path, path[1:]):
                e = (min(u, v), max(u, v), tau)
                usage[e] = usage.get(e, 0) + 1
                if usage[e] > q.cap(e[0], e[1]):
                    return False
        for i, (tau, _p) in enumerate(chosen):
            for j in preds[i]:
                if j < len(chosen):
                    tj = chosen[j][0]
                    if frozenset({i, j}) in cs.qpar:
                        if tj > tau:
                            return False
                    elif tj >= tau:
                        return False
        return True

    def rec(pos, chosen):
        if not feasible_prefix(chosen):
            return
        if pos == k:
            yield tuple(chosen)
            return
        for opt in options[pos]:
            chosen.append(opt)
            yield from rec(pos + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


def brute_min_flow(q: QuotientGraph, cs: CommoditySet, d: int) -> int | None:
    """Minimum total path length over all feasible schedules at horizon d."""
    best = None
    for sched in enumerate_schedules(q, cs, d):
        f = sum(len(p) - 1 for _tau, p in sched)
        if best is None or f < best:
            best = f
    return best


def brute_quickest(q: QuotientGraph, cs: CommoditySet) -> tuple[int, int] | None:
    """Smallest feasible horizon and the minimum flow at that horizon."""
    for d in range(1, cs.k + 1):
        f = brute_min_flow(q, cs, d)
        if f is not None:
            return d, f
    return None


def brute_steiner_weight(q: QuotientGraph, terminals: set[int]) -> int:
    """Minimum Steiner weight by enumerating Steiner-point subsets."""
    g = to_nx(q)
    others = [v for v in range(q.node_count) if v not in terminals]
    best = None
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            nodes = set(terminals) | set(extra)
            sub = g.subgraph(nodes)
            if not nx.is_connected(sub):
                continue
            w = len(nodes) - 1
            if best is None or w < best:
                best = w
    if best is None:
        raise ValueError("terminals cannot be connected")
    return best


def reference_steiner_tree_exact(inst: SteinerInstance) -> frozenset[Edge]:
    """Minimum Steiner tree by the Dreyfus-Wagner subset dynamic program.

    Unit edge weights (each edge is one Bell pair).  Guarded to at most
    EXACT_MAX_TERMINALS terminals; exponential in the terminal count only.
    """
    q = inst.graph
    terms = sorted(inst.terminals)
    if len(terms) > EXACT_MAX_TERMINALS:
        raise ValueError(f"exact Steiner limited to {EXACT_MAX_TERMINALS} terminals")
    if len(terms) == 1:
        return frozenset()
    root, rest = terms[0], terms[1:]
    full = (1 << len(rest)) - 1
    INF = float("inf")
    n = q.node_count
    f: dict[int, list[float]] = {}
    choice: dict[tuple[int, int], tuple] = {}
    for i, t in enumerate(rest):
        mask = 1 << i
        dist = q.bfs(t)[0]
        f[mask] = [dist.get(v, INF) for v in range(n)]
        for v in range(n):
            choice[(mask, v)] = ("leaf", t)
    for mask in range(1, full + 1):
        if mask in f:
            continue
        base = [INF] * n
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each split once
                fs, fo = f[sub], f[other]
                for v in range(n):
                    w = fs[v] + fo[v]
                    if w < base[v]:
                        base[v] = w
                        choice[(mask, v)] = ("merge", sub)
            sub = (sub - 1) & mask
        # grow: Dijkstra relaxation from the merged values
        heap = [(base[v], v) for v in range(n) if base[v] < INF]
        heapq.heapify(heap)
        best = base[:]
        while heap:
            w, v = heapq.heappop(heap)
            if w > best[v]:
                continue
            for u, _ in q.neighbours[v]:
                if w + 1 < best[u]:
                    best[u] = w + 1
                    choice[(mask, u)] = ("grow", v)
                    heapq.heappush(heap, (w + 1, u))
        f[mask] = best

    # rebuild the tree from the recorded choices, depth first, a merge's
    # `sub` part before the rest; an explicit stack, because a recursive
    # closure is a reference cycle that keeps `choice` and `f` alive until
    # a full collection
    edges: set[Edge] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        kind, arg = choice[(mask, v)]
        if kind == "leaf":
            path = q.shortest_path(arg, v)
            edges.update(edge_key(a, b) for a, b in zip(path, path[1:]))
        elif kind == "grow":
            edges.add(edge_key(arg, v))
            stack.append((mask, arg))
        else:
            stack.append((mask ^ arg, v))
            stack.append((arg, v))
    weight = int(f[full][root])
    if len(edges) != weight:
        raise AssertionError("Steiner reconstruction produced a non-tree edge multiset")
    return frozenset(edges)


def reference_steiner_tree_approx(inst: SteinerInstance) -> frozenset[Edge]:
    """The metric-closure approximation with a plain Prim step: each terminal
    joins by the least (hops, u, v) over every tree terminal u and outside
    terminal v, rescanned for each terminal added.  The union of the paths
    is then pruned as the library does."""
    q = inst.graph
    terms = sorted(inst.terminals)
    if len(terms) == 1:
        return frozenset()
    in_tree = {terms[0]}
    usable = [0] * q.edge_count
    while len(in_tree) < len(terms):
        _, u, v = min(
            (q.hops(u, v), u, v) for u in sorted(in_tree) for v in terms if v not in in_tree
        )
        for e in q.edge_ids(q.shortest_path(u, v)):
            usable[e] = 1
        in_tree.add(v)
    parent = q.bfs(terms[0], usable)[1]
    kept = set(terms)
    tree: set[Edge] = set()
    for v in reversed(parent):
        if v in kept and v != terms[0]:
            tree.add(edge_key(parent[v], v))
            kept.add(parent[v])
    return frozenset(tree)


def reference_cz_to_dense_fanin(circuit: Circuit) -> FanInLayering:
    """The densifier as a plain scan: pair counts modulo 2, and each
    qubit's partners found by walking every pair count, once per qubit in
    every pass."""
    counts: dict[Edge, int] = {}
    for g in circuit.all_gates():
        e = edge_key(*g.qubits)
        counts[e] = counts.get(e, 0) + 1
    counts = {e: c % 2 for e, c in counts.items() if c % 2}
    incidence = {q: 0 for q in range(circuit.num_qubits)}
    for (u, v), c in counts.items():
        incidence[u] += c
        incidence[v] += c
    order = sorted(range(circuit.num_qubits), key=lambda q: (-incidence[q], q))
    layers: list[tuple[Gate, ...]] = []
    while any(counts.values()):
        for q in order:
            partners = sorted(
                t for (u, v), c in counts.items() if c for t in ((v,) if u == q else (u,) if v == q else ())
            )
            if not partners:
                continue
            for t in partners:
                counts[edge_key(q, t)] -= 1
            layers.append((fanin(q, partners, basis="Z"),))
    return FanInLayering(circuit.num_qubits, tuple(layers))


def random_connected_graph(rng: random.Random, n: int, max_cap: int = 2) -> QuotientGraph:
    """Random spanning tree plus extra edges, capacities in 1..max_cap."""
    edges: set[tuple[int, int]] = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        u = nodes[rng.randrange(i)]
        v = nodes[i]
        edges.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return QuotientGraph(
        n, tuple(sorted((u, v, rng.randint(1, max_cap)) for u, v in edges))
    )


def commodity_set(
    commodities: Iterable[Commodity], prec: Iterable[tuple[int, int]], qpar: Iterable[frozenset[int]]
) -> CommoditySet:
    """A CommoditySet from its relation as sets: (j, i) pairs, j before i, and
    the unordered pairs among them that may share a step."""
    commodities = tuple(commodities)
    qpar = set(qpar)
    strict: list[list[int]] = [[] for _ in commodities]
    par: list[list[int]] = [[] for _ in commodities]
    for j, i in sorted(prec):
        (par if frozenset({j, i}) in qpar else strict)[j].append(i)
    return CommoditySet(commodities, tuple(map(tuple, strict)), tuple(map(tuple, par)))


def random_order_relation(
    rng: random.Random, q: QuotientGraph, k: int, qpar_prob: float = 0.3
) -> tuple[list[Commodity], set[tuple[int, int]], set[frozenset[int]]]:
    """Random commodities with a random order DAG (edges only j -> i, j < i),
    as ``commodity_set`` arguments."""
    comms = []
    for i in range(k):
        s, t = rng.sample(range(q.node_count), 2)
        comms.append(Commodity(s, t, i, (1,), cz(0, 1)))
    prec = set()
    qpar = set()
    for i in range(k):
        for j in range(i):
            if rng.random() < 0.4:
                prec.add((j, i))
                if rng.random() < qpar_prob:
                    qpar.add(frozenset({j, i}))
    return comms, prec, qpar


def random_commodity_set(
    rng: random.Random, q: QuotientGraph, k: int, qpar_prob: float = 0.3
) -> CommoditySet:
    return commodity_set(*random_order_relation(rng, q, k, qpar_prob))


def reference_order_relation(
    circuit: Circuit, placement: Placement
) -> tuple[list[Commodity], set[tuple[int, int]], set[frozenset[int]]]:
    """Commodity extraction comparing every pair of commodities, O(k^2), as
    ``commodity_set`` arguments."""
    commodities: list[Commodity] = []
    for li, layer in enumerate(circuit.layers):
        layer_comms: list[Commodity] = []
        for g in layer:
            for p, qs in remote_spokes(g, placement).items():
                layer_comms.append(Commodity(placement.proc(g.hub), p, li, tuple(qs), g))
        layer_comms.sort(key=lambda c: (min(c.gate.qubits), min(c.target_qubits)))
        commodities.extend(layer_comms)

    prec: set[tuple[int, int]] = set()
    qpar: set[frozenset[int]] = set()
    for i, ci in enumerate(commodities):
        for j in range(i):
            cj = commodities[j]
            if cj.layer >= ci.layer:
                continue
            shared = set(cj.gate.qubits) & set(ci.gate.qubits)
            if not shared:
                continue
            if cj.gate.is_diagonal() and ci.gate.is_diagonal():
                continue
            prec.add((j, i))
            if len(shared) == 1 and default_qpar(cj.gate, ci.gate, next(iter(shared))):
                qpar.add(frozenset({j, i}))
    return commodities, prec, qpar


def reference_extract_commodities(circuit: Circuit, placement: Placement) -> CommoditySet:
    return commodity_set(*reference_order_relation(circuit, placement))


def reference_tails(cs: CommoditySet) -> list[int]:
    """Per commodity j, the most strict pairs on one chain of ``cs.prec``
    that starts at j, by recursion over the pair set; a quasi-parallel pair
    adds 0.  Each commodity's result is kept once found, so a chain shared
    by many is followed once."""
    succs: dict[int, list[int]] = {j: [] for j in range(cs.k)}
    for j, i in cs.prec:
        succs[j].append(i)
    tails: dict[int, int] = {}

    def tail(j: int) -> int:
        if j not in tails:
            tails[j] = max((tail(i) + (frozenset({j, i}) not in cs.qpar) for i in succs[j]), default=0)
        return tails[j]

    return [tail(j) for j in reversed(range(cs.k))][::-1]


def residual_path(q: QuotientGraph, s: int, t: int, usable: list[int]) -> tuple[int, ...] | None:
    """The BFS shortest s-t path over edges with ``usable[e] >= 1``, or None."""
    parent = q.bfs(s, usable, t)[1]
    return trace_path(parent, t) if t in parent else None


def reference_iterative_greedy(q: QuotientGraph, cs: CommoditySet) -> FlowSchedule:
    """Greedy scheduling that re-tests readiness of every remaining commodity
    by scanning all of prec, and searches afresh for every ready commodity,
    on every pass.  Ready commodities go in (-tail, hops, index) order, and
    each takes its shortest residual path unless that path has more than
    hops + ``DETOUR_SLACK`` links."""
    steps: dict[int, int] = {}
    paths: dict[int, tuple[int, ...]] = {}
    preds = {i: sorted(j for (j, i2) in cs.prec if i2 == i) for i in range(cs.k)}
    sp_len = {i: q.hops(c.source, c.target) for i, c in enumerate(cs.commodities)}
    tails = reference_tails(cs)
    remaining = set(range(cs.k))
    tau = 0
    while remaining:
        tau += 1
        residual = [cap for _, _, cap in q.edges]

        def ready(i: int) -> bool:
            for j in preds[i]:
                done = j in steps
                if frozenset({i, j}) in cs.qpar:
                    if not (done and steps[j] <= tau):
                        return False
                elif not (done and steps[j] < tau):
                    return False
            return True

        progress = True
        while progress:
            progress = False
            batch = sorted((i for i in remaining if ready(i)), key=lambda i: (-tails[i], sp_len[i], i))
            for i in batch:
                c = cs.commodities[i]
                path = residual_path(q, c.source, c.target, residual)
                if path is None or len(path) - 1 > sp_len[i] + DETOUR_SLACK:
                    continue
                for e in q.edge_ids(path):
                    residual[e] -= 1
                steps[i] = tau
                paths[i] = path
                remaining.discard(i)
                progress = True
    horizon = max(steps.values(), default=0)
    return FlowSchedule(
        horizon,
        tuple(steps[i] for i in range(cs.k)),
        tuple(paths[i] for i in range(cs.k)),
    )


class GateByGateExpander(CircuitExpander):
    """`CircuitExpander` with every fragment gate fed to `feed`: the
    textbook protocol's corrections are handed over as each bit is measured,
    after the flip its measurement recorded is consumed."""

    def correct(self, q: int, axis: str, bit: int) -> None:
        self.add(q, axis, (2 << bit) ^ self.flips.pop(bit, 0))

    def emit_tree(
        self,
        root: int,
        hops: tuple[Hop, ...],
        control_qubit: int,
        targets_by_proc: dict[int, list[int]],
        kind: str,
    ) -> None:
        interact = cx if kind == "cx" else cz
        feed, correct = self.feed, self.correct
        for tq in targets_by_proc.get(root, ()):
            feed(interact(control_qubit, tq))
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


def random_clifford_circuit(n: int, max_gates: int, rng: random.Random) -> Circuit:
    """The criterion-9 corpus shape: 4..max_gates one-gate layers of cz, cx,
    yhalf and 3-qubit fan-ins in 2:2:1:1 proportion (fan-ins need n >= 3)."""
    layers = []
    for _ in range(rng.randint(4, max_gates)):
        kind = rng.choice(["cz", "cx", "cx", "cz", "yhalf", "fanin"])
        if kind == "yhalf":
            layers.append([yhalf(rng.randrange(n))])
        elif kind == "fanin" and n >= 3:
            qs = rng.sample(range(n), 3)
            layers.append([fanin(qs[0], qs[1:])])
        else:
            a, b = rng.sample(range(n), 2)
            layers.append([cz(a, b) if kind == "cz" else cx(a, b)])
    return Circuit.from_layers(n, layers)


def random_clifford_prefix(n: int, rng: random.Random, length: int | None = None) -> list[Gate]:
    """A random Clifford word used to scramble the input register."""
    if length is None:
        length = 3 * n + 4
    gates: list[Gate] = []
    for _ in range(length):
        kind = rng.choice(["zhalf", "xhalf", "yhalf", "cx", "cz"])
        if kind in ("cx", "cz") and n >= 2:
            a, b = rng.sample(range(n), 2)
            gates.append(cx(a, b) if kind == "cx" else cz(a, b))
        elif kind in ("cx", "cz"):
            gates.append(Gate("xhalf", (0,)))
        else:
            gates.append(Gate(kind, (rng.randrange(n),)))
    return gates


def sampled_channel_equivalent(
    extended, logical, trials: int, branches: int, rng: random.Random, drop_frame: bool = False
) -> bool:
    """Channel check by sampling: per trial a random Clifford word scrambles
    the data register, and the extended circuit runs `branches` sampled
    measurement branches, each compared, after its frame and the trace over
    the communication qubits, with the logical circuit's output."""
    n = logical.num_qubits
    data = list(range(n))
    for _ in range(trials):
        prefix = random_clifford_prefix(n, rng)
        ref = ReferenceStabilizerState(n)
        for g in prefix:
            ref.apply_gate(g)
        for g in logical.all_gates():
            ref.apply_gate(g, {}, rng)
        ref_canon = reference_canonical_tableau(ref)
        for _ in range(branches):
            state = ReferenceStabilizerState(extended.num_qubits)
            for g in prefix:
                state.apply_gate(g)
            bits: dict[int, int] = {}
            for g in extended.gates:
                state.apply_gate(g, bits, rng)
            if not drop_frame:
                state.apply_frame(extended.frame, bits)
            if reference_reduced_canonical(state, data) != ref_canon:
                return False
    return True


# -- reference stabilizer tableau ----------------------------------------------
# A numpy tableau: one uint8 row per generator, each gate and row product
# vectorized over the rows.  It shares no code with distqc.stabsim's
# bit-packed tableau, which must match it outcome for outcome and byte for
# byte.

_BELL_PAULIS = {"phi+": "", "phi-": "Z", "psi+": "X", "psi-": "XZ"}


class ReferenceStabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>.

    With `symbolic=True` a random measurement outcome opens a new symbol
    instead of drawing from an rng (see the distqc.stabsim docstring).
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
            reference_rowsum(self.x, self.z, self.r, self.sym, others, p)
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


def reference_rowsum(
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


def reference_canonical_tableau(state: ReferenceStabilizerState) -> bytes:
    """Canonical byte form of the stabilizer group (row-reduced, signs kept).

    Raises BranchDependentError when a sign depends on a measurement symbol.
    """
    return reference_reduced_canonical(state, list(range(state.n)))


def reference_reduce(
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
        reference_rowsum(x, z, r, sym, np.flatnonzero(col), p)


def reference_reduced_canonical(state: ReferenceStabilizerState, data_qubits: list[int]) -> bytes:
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
    reference_reduce(x, z, r, sym, [(a, q) for q in comm for a in ("x", "z")])
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
    reference_reduce(x, z, r, sym[data_only], [(a, q) for a in ("x", "z") for q in range(len(data))])
    order = np.lexsort(np.concatenate([x, z], axis=1).T[::-1])
    return b"".join(np.concatenate([x[i], z[i], r[i : i + 1]]).tobytes() for i in order)
