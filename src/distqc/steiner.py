"""Entanglement-tree compilation: Steiner trees over the quotient graph.

A fan-in over m targets spread across processors needs one Bell pair per
edge of any tree spanning the involved processors, so minimizing the link
count per gate is a minimum Steiner tree problem with unit edge weights.
Small terminal sets get the exact Dreyfus-Wagner dynamic program; larger
ones the metric-closure 2(1-1/l)-approximation.  Dense commuting circuits
are first re-expressed as at most n-1 fan-in layers by a greedy covering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .circuit import FAN_KINDS, TWO_QUBIT_KINDS, Circuit, Gate, Placement, fanin, validate
from .netmodel import QuotientGraph
from .telegate import CircuitExpander, ExtendedCircuit

Edge = tuple[int, int]

EXACT_MAX_TERMINALS = 10


@dataclass(frozen=True)
class SteinerInstance:
    graph: QuotientGraph
    terminals: frozenset[int]

    def __post_init__(self) -> None:
        if not self.terminals:
            raise ValueError("need at least one terminal")
        for t in self.terminals:
            if not 0 <= t < self.graph.node_count:
                raise ValueError(f"terminal {t} not in graph")


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def steiner_tree_approx(inst: SteinerInstance) -> frozenset[Edge]:
    """Metric-closure approximation: MST over terminal distances, expanded to
    shortest paths, re-spanned, and pruned of non-terminal leaves.

    Weight is within 2(1 - 1/l) of optimal for l terminals; two terminals
    degenerate to a shortest path.
    """
    q = inst.graph
    terms = sorted(inst.terminals)
    if len(terms) == 1:
        return frozenset()
    # Prim over the metric closure (hops raises when a terminal is cut off)
    in_tree = {terms[0]}
    closure_edges: list[tuple[int, int]] = []
    while len(in_tree) < len(terms):
        cand = min(
            (q.hops(u, v), u, v) for u in sorted(in_tree) for v in terms if v not in in_tree
        )
        closure_edges.append((cand[1], cand[2]))
        in_tree.add(cand[2])
    edges: set[Edge] = set()
    nodes: set[int] = set(terms)
    for u, v in closure_edges:
        path = q.shortest_path(u, v)
        nodes.update(path)
        edges.update(_norm(a, b) for a, b in zip(path, path[1:]))
    # spanning tree of the union subgraph, then prune non-terminal leaves
    adj: dict[int, list[int]] = {n: [] for n in nodes}
    for u, v in sorted(edges):
        adj[u].append(v)
        adj[v].append(u)
    tree: set[Edge] = set()
    seen = {terms[0]}
    frontier = [terms[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(adj[u]):
                if v not in seen:
                    seen.add(v)
                    tree.add(_norm(u, v))
                    nxt.append(v)
        frontier = nxt
    term_set = set(terms)
    changed = True
    while changed:
        changed = False
        degree: dict[int, int] = {}
        for u, v in tree:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for u, v in sorted(tree):
            for leaf in (u, v):
                if degree[leaf] == 1 and leaf not in term_set:
                    tree.discard((u, v))
                    changed = True
                    break
            if changed:
                break
    return frozenset(tree)


def steiner_tree_exact(inst: SteinerInstance) -> frozenset[Edge]:
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
            for u in q.adjacency[v]:
                if w + 1 < best[u]:
                    best[u] = w + 1
                    choice[(mask, u)] = ("grow", v)
                    heapq.heappush(heap, (w + 1, u))
        f[mask] = best

    edges: set[Edge] = set()

    def rebuild(mask: int, v: int) -> None:
        kind = choice[(mask, v)]
        if kind[0] == "leaf":
            t = kind[1]
            path = q.shortest_path(t, v)
            edges.update(_norm(a, b) for a, b in zip(path, path[1:]))
            return
        if kind[0] == "grow":
            u = kind[1]
            edges.add(_norm(u, v))
            rebuild(mask, u)
            return
        sub = kind[1]
        rebuild(sub, v)
        rebuild(mask ^ sub, v)

    rebuild(full, root)
    weight = int(f[full][root])
    if len(edges) != weight:
        raise AssertionError("Steiner reconstruction produced a non-tree edge multiset")
    return frozenset(edges)


def steiner_tree(inst: SteinerInstance) -> frozenset[Edge]:
    """Exact tree for small terminal sets, approximation beyond the guard."""
    if len(inst.terminals) <= EXACT_MAX_TERMINALS:
        return steiner_tree_exact(inst)
    return steiner_tree_approx(inst)


@dataclass(frozen=True)
class TreeSchedule:
    """Per-gate entanglement round and tree, in the shared schedule format."""

    horizon: int
    rounds: tuple[int, ...]
    trees: tuple[frozenset[Edge], ...]

    def to_json(self) -> dict:
        return {
            "d": self.horizon,
            "assignments": [
                {"i": i, "tau": self.rounds[i], "path": [list(e) for e in sorted(self.trees[i])]}
                for i in range(len(self.rounds))
            ],
        }


@dataclass(frozen=True)
class FanInLayering:
    """Fan-in layers produced by densifying a commuting circuit."""

    num_qubits: int
    layers: tuple[tuple[Gate, ...], ...]

    def to_circuit(self) -> Circuit:
        return Circuit.from_layers(self.num_qubits, self.layers)

    def cz_multiset(self) -> dict[Edge, int]:
        counts: dict[Edge, int] = {}
        for layer in self.layers:
            for g in layer:
                for t in g.spokes:
                    e = _norm(g.hub, t)
                    counts[e] = counts.get(e, 0) + 1
        return counts


def cz_to_dense_fanin(circuit: Circuit, cancel_pairs: bool = False) -> FanInLayering:
    """Greedy reduction of a commuting (CZ-only) circuit to fan-in layers.

    Count incidences per qubit, enumerate qubits by decreasing count, and
    give each qubit one maximal fan-in over its not-yet-covered interactions.
    Duplicate-free circuits finish in one pass, hence at most n-1 layers;
    repeated pairs are preserved (each copy covered exactly once) and may
    need further passes unless `cancel_pairs` drops them modulo 2 first.
    """
    counts: dict[Edge, int] = {}
    for g in circuit.all_gates():
        if g.kind != "cz":
            raise ValueError(f"densifier accepts CZ-only circuits, found {g.kind!r}")
        e = _norm(*g.qubits)
        counts[e] = counts.get(e, 0) + 1
    if cancel_pairs:
        counts = {e: c % 2 for e, c in counts.items()}
    counts = {e: c for e, c in counts.items() if c}
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
                counts[_norm(q, t)] -= 1
            layers.append((fanin(q, partners, basis="Z"),))
    return FanInLayering(circuit.num_qubits, tuple(layers))


def _gate_tree(g: Gate, placement: Placement, graph: QuotientGraph) -> frozenset[Edge]:
    """Steiner tree over a two-qubit or fan gate's processors; empty for a
    local gate (any other kind, or all operands on one processor)."""
    procs = {placement.proc(q) for q in g.qubits}
    if g.kind not in TWO_QUBIT_KINDS | FAN_KINDS or len(procs) == 1:
        return frozenset()
    return steiner_tree(SteinerInstance(graph, frozenset(procs)))


def _pack_rounds(trees: list[frozenset[Edge]], graph: QuotientGraph, first_round: int) -> list[int]:
    """Assign each tree of one layer an entanglement round, splitting the
    layer into sequential sub-rounds when edge demand exceeds capacity."""
    rounds: list[int] = []
    usage: dict[int, dict[Edge, int]] = {}
    for tree in trees:
        r = first_round
        while True:
            load = usage.setdefault(r, {})
            if all(load.get(e, 0) + 1 <= graph.cap(*e) for e in tree):
                for e in tree:
                    load[e] = load.get(e, 0) + 1
                rounds.append(r)
                break
            r += 1
    return rounds


def compile_fanin_circuit(
    circuit: Circuit, placement: Placement, graph: QuotientGraph
) -> tuple[ExtendedCircuit, TreeSchedule]:
    """Compile a circuit of fan-in/fan-out layers via entanglement trees.

    One entanglement round per layer (split into sub-rounds only when edge
    capacities force it); per gate a Steiner tree over the involved
    processors is expanded, so the total link count is the sum of the tree
    weights.  Fan-outs run as basis-exchanged fan-ins.
    """
    for li, layer in enumerate(circuit.layers):
        for g in layer:
            if g.kind not in FAN_KINDS:
                raise ValueError(f"layer {li} holds non-fan gate {g.kind!r}")
    return compile_circuit_steiner(circuit, placement, graph)


def compile_circuit_steiner(
    circuit: Circuit, placement: Placement, graph: QuotientGraph
) -> tuple[ExtendedCircuit, TreeSchedule]:
    """Tree-based backend for general circuits.

    Two-qubit gates are single-target fan-ins (their tree is a shortest
    path); fan gates get full Steiner trees; single-qubit gates, preparations
    and measurements pass through locally.  Each layer's trees are packed
    into rounds after the previous layer's.  Raises ValueError on a
    malformed input (see ``circuit.validate``).
    """
    validate(circuit, placement, graph)
    rounds: list[int] = []
    trees: list[frozenset[Edge]] = []
    routes: dict = {}
    last = 0  # the latest round of the layers so far
    for li, layer in enumerate(circuit.layers):
        layer_trees = []
        for g in layer:
            tree = _gate_tree(g, placement, graph)
            if tree:
                layer_trees.append(tree)
                routes[(li, g)] = {placement.proc(q): set(tree) for q in g.qubits}
        layer_rounds = _pack_rounds(layer_trees, graph, last + 1)
        last = max(layer_rounds, default=last)
        rounds += layer_rounds
        trees += layer_trees
    extended = CircuitExpander(circuit, placement, graph).expand(routes)
    return extended, TreeSchedule(last, tuple(rounds), tuple(trees))
