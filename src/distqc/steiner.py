"""Entanglement-tree compilation: Steiner trees over the quotient graph.

A fan-in over m targets spread across processors needs one Bell pair per
edge of any tree spanning the involved processors, so minimizing the link
count per gate is a minimum Steiner tree problem with unit edge weights.
Small terminal sets get the exact Dreyfus-Wagner dynamic program; larger
ones the metric-closure 2(1-1/l)-approximation.  Dense CZ-only circuits
are first reduced modulo 2 and re-expressed as at most n-1 fan-in layers
by a greedy covering.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .circuit import Circuit, Gate, Placement, fanin, gc_paused, remote_spokes, validate
from .flow import schedule_json
from .netmodel import EXACT_MAX_TERMINALS, QuotientGraph, edge_key
from .telegate import CircuitExpander, ExtendedCircuit, _orient

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int]

_CHUNK_BYTES = 1 << 19  # about the size of one batched temporary in the DP


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


def steiner_tree_approx(inst: SteinerInstance) -> frozenset[Edge]:
    """Metric-closure approximation (Kou, Markowsky and Berman): Prim's
    minimum spanning tree over the terminals' hop distances, each of its
    edges expanded to a shortest path, the breadth-first tree of those
    paths' edges from the lowest terminal, and that tree's minimal subtree
    spanning the terminals.

    Weight is within 2(1 - 1/l) of optimal for l terminals; two terminals
    degenerate to a shortest path.
    """
    q = inst.graph
    terms = sorted(inst.terminals)
    if len(terms) == 1:
        return frozenset()
    # Prim over the metric closure, keyed: each terminal outside the tree
    # keeps its nearest tree terminal as (hops, u), and the next to join is
    # the least (hops, u, v) (hops raises when a terminal is cut off)
    best = {v: (q.hops(terms[0], v), terms[0]) for v in terms[1:]}
    usable = [0] * q.edge_count
    while best:
        (_, u), v = min((key, v) for v, key in best.items())
        del best[v]
        for e in q.edge_ids(q.shortest_path(u, v)):
            usable[e] = 1
        for w, key in best.items():
            best[w] = min(key, (q.hops(v, w), v))
    # The tree can end in a non-terminal leaf where two paths cross a cycle
    # in opposite directions.  A parent map lists children after their
    # parents, so one reverse pass keeps exactly the edges above a terminal.
    parent = q.bfs(terms[0], usable)[1]
    kept = set(terms)
    tree: set[Edge] = set()
    for v in reversed(parent):
        if v in kept and v != terms[0]:
            tree.add(edge_key(parent[v], v))
            kept.add(parent[v])
    return frozenset(tree)


@functools.cache
def _levels(r: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per popcount p = 2..r, the masks over r terminals with p bits, in
    ascending order, and their splits stacked as read-only (M, S) index
    arrays (subs, others): each split once (sub < mask ^ sub), `sub`
    descending from (mask - 1) & mask, the order in which ties go to the
    first split.  Every such mask has S = 2^(p - 1) - 1 splits."""
    import numpy as np

    table = []
    for p in range(2, r + 1):
        masks = np.array([m for m in range(1 << r) if m.bit_count() == p], dtype=np.intp)
        rows = []
        for mask in masks.tolist():
            row = []
            sub = (mask - 1) & mask
            while sub:
                if sub < mask ^ sub:
                    row.append(sub)
                sub = (sub - 1) & mask
            rows.append(row)
        subs = np.array(rows, dtype=np.intp)
        level = (masks, subs, masks[:, None] ^ subs)
        for a in level:
            a.flags.writeable = False
        table.append(level)
    return tuple(table)


def steiner_tree_exact(inst: SteinerInstance) -> frozenset[Edge]:
    """Minimum Steiner tree by the Dreyfus-Wagner subset dynamic program.

    Unit edge weights (each edge is one Bell pair).  Guarded to at most
    EXACT_MAX_TERMINALS terminals; exponential in the terminal count only.
    Row f[mask] holds, per node v, the weight of a cheapest tree joining v
    to the terminals in mask.  A mask's row is the minimum over its splits
    of f[sub] + f[mask ^ sub], then grown along shortest paths: with unit
    weights that is a min-plus product with the hop-distance matrix.  The
    rows are filled one popcount level at a time, each level's merges and
    grow steps as a few numpy passes in row chunks of about _CHUNK_BYTES.
    Raises ValueError when a terminal cannot reach the others.

    The tables take the distance matrix's type.  A leaf row is at most n
    (the matrix's no-path entry), so a row of p terminals is at most p * n,
    and with r terminals besides the root a grow step sums at most
    (r + 1) * n <= EXACT_MAX_TERMINALS * n, which that type holds.  On the
    root's component a real entry is at most n - 1 and a candidate through
    another component at least n, so such a candidate never wins or ties,
    and the rebuild visits only the root's component.
    """
    import numpy as np

    q = inst.graph
    terms = sorted(inst.terminals)
    if len(terms) > EXACT_MAX_TERMINALS:
        raise ValueError(f"exact Steiner limited to {EXACT_MAX_TERMINALS} terminals")
    if len(terms) == 1:
        return frozenset()
    root, rest = terms[0], terms[1:]
    n = q.node_count
    dist = q.distance_matrix
    for t in rest:
        if dist[root, t] == n:
            raise ValueError(f"no path between {root} and {t}")
    full = (1 << len(rest)) - 1
    levels = _levels(len(rest))
    f = np.empty((full + 1, n), dtype=dist.dtype)
    merged = np.empty_like(f)  # a row before its grow step
    for i, t in enumerate(rest):
        f[1 << i] = dist[t]
    row_bytes = f.strides[0]
    for masks, subs, others in levels:
        step = max(1, _CHUNK_BYTES // (subs.shape[1] * row_bytes))
        for lo in range(0, len(masks), step):
            part = slice(lo, lo + step)
            merged[masks[part]] = (f[subs[part]] + f[others[part]]).min(axis=1)
        step = max(1, _CHUNK_BYTES // (n * row_bytes))
        for lo in range(0, len(masks), step):
            part = masks[lo : lo + step]
            f[part] = (merged[part, :, None] + dist).min(axis=1)

    # Rebuild the tree depth first, a merge's `sub` part before the rest,
    # working out each visited entry's choice again, with the tie-breaks of
    # a heap Dijkstra that keeps a choice unless strictly improved: a leaf
    # row's BFS path; else, when the grow step did not lower the entry, the
    # first split attaining it; else a grow step from the lowest-numbered
    # neighbour one hop cheaper.
    edges: set[Edge] = set()
    stack = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if not mask & (mask - 1):
            path = q.shortest_path(rest[mask.bit_length() - 1], v)
            edges.update(edge_key(a, b) for a, b in zip(path, path[1:]))
            continue
        w = f[mask, v]
        if merged[mask, v] == w:
            masks, subs, others = levels[mask.bit_count() - 2]
            i = int(masks.searchsorted(mask))
            col = f[:, v]
            sub = int(subs[i][(col[subs[i]] + col[others[i]]).argmin()])
            stack.append((mask ^ sub, v))
            stack.append((sub, v))
        else:
            u = next(u for u, _ in q.neighbours[v] if f[mask, u] == w - 1)
            edges.add(edge_key(u, v))
            stack.append((mask, u))
    if len(edges) != f[full, root]:
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
        return schedule_json(self.horizon, self.rounds, [sorted(t) for t in self.trees])


@dataclass(frozen=True)
class FanInLayering:
    """Fan-in layers produced by densifying a commuting circuit."""

    num_qubits: int
    layers: tuple[tuple[Gate, ...], ...]

    def to_circuit(self) -> Circuit:
        return Circuit.from_layers(self.num_qubits, self.layers)

    def cz_multiset(self) -> Counter[Edge]:
        return Counter(edge_key(g.hub, t) for layer in self.layers for g in layer for t in g.spokes)


def cz_to_dense_fanin(circuit: Circuit) -> FanInLayering:
    """Greedy reduction of a commuting (CZ-only) circuit to fan-in layers.

    CZ gates commute and each is its own inverse, so only the pairs that
    occur an odd number of times are kept.  Qubits are taken by decreasing
    count of kept partners, and each gives one Z-basis fan-in over its
    partners not yet covered, in ascending order.  One pass covers every
    pair with at most one fan-in per qubit, and the last qubit in the order
    has no partner left, so there are at most n-1 layers.
    """
    odd: set[Edge] = set()
    for g in circuit.all_gates():
        if g.kind != "cz":
            raise ValueError(f"densifier accepts CZ-only circuits, found {g.kind!r}")
        odd ^= {edge_key(*g.qubits)}
    partners: list[set[int]] = [set() for _ in range(circuit.num_qubits)]
    for u, v in odd:
        partners[u].add(v)
        partners[v].add(u)
    layers: list[tuple[Gate, ...]] = []
    for q in sorted(range(circuit.num_qubits), key=lambda q: (-len(partners[q]), q)):
        if partners[q]:
            for t in partners[q]:
                partners[t].remove(q)
            layers.append((fanin(q, sorted(partners[q]), basis="Z"),))
    return FanInLayering(circuit.num_qubits, tuple(layers))


def _pack_rounds(trees: list[frozenset[Edge]], graph: QuotientGraph, first_round: int) -> list[int]:
    """Assign each tree of one layer an entanglement round, splitting the
    layer into sequential sub-rounds when edge demand exceeds capacity.
    Every tree edge is a graph edge, as `_orient` checked."""
    caps = graph.capacities
    loads: list[list[int]] = []  # per round from first_round, the links in use per edge id
    rounds: list[int] = []
    for tree in trees:
        links = [graph.edge_id(u, v) for u, v in tree]
        r = next((r for r, load in enumerate(loads) if all(load[e] < caps[e] for e in links)), len(loads))
        if r == len(loads):
            loads.append([0] * graph.edge_count)
        for e in links:
            loads[r][e] += 1
        rounds.append(first_round + r)
    return rounds


@gc_paused
def compile_circuit_steiner(
    circuit: Circuit, placement: Placement, graph: QuotientGraph
) -> tuple[ExtendedCircuit, TreeSchedule]:
    """Tree-based backend for general circuits.

    Two-qubit gates are single-target fan-ins (their tree is a shortest
    path); fan gates get full Steiner trees, and fan-outs run as
    basis-exchanged fan-ins; single-qubit gates, preparations and
    measurements pass through locally.  Each layer's trees are packed
    into rounds after the previous layer's.  Raises ValueError on a
    placement that does not fit (``circuit.validate``), and InvalidPathError when a
    tree is not a tree of lattice edges joining its gate's processors.  The
    cyclic collector is paused for the whole compile (``circuit.gc_paused``);
    that state is process-global, so another thread sees it paused too.
    """
    validate(circuit, placement, graph)
    rounds: list[int] = []
    trees: list[frozenset[Edge]] = []
    routes: dict = {}
    last = 0  # the latest round of the layers so far
    for li, layer in enumerate(circuit.layers):
        layer_trees = []
        for g in layer:
            procs = tuple(sorted(remote_spokes(g, placement)))
            if not procs:
                continue  # not an interaction, or every operand on one processor
            hub_proc = placement.proc(g.hub)
            tree = steiner_tree(SteinerInstance(graph, frozenset((hub_proc, *procs))))
            layer_trees.append(tree)
            routes[(li, g)] = [(_orient(hub_proc, tree, procs, graph), procs)]
        layer_rounds = _pack_rounds(layer_trees, graph, last + 1)
        last = max(layer_rounds, default=last)
        rounds += layer_rounds
        trees += layer_trees
    extended = CircuitExpander(circuit, placement).expand(routes)
    return extended, TreeSchedule(last, tuple(rounds), tuple(trees))
