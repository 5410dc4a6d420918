"""Architecture model: the processor-level quotient graph and its lattices.

A distributed architecture is a set of processors joined by entanglement
links between their communication qubits.  Every stage of the compiler
works on its *quotient graph*: one node per processor, parallel links
between the same processor pair collapsed into a single edge whose capacity
is the link count.  ``distqc compile`` reads this graph as a JSON document,
and ``distqc gen-topology`` writes one of the three lattice families below.

``QuotientGraph`` is the single owner of graph distances: one breadth-first
search (``bfs``, memoised per source) backs the hop counts, shortest paths
and the all-pairs distance matrix that the flow and Steiner backends use.
Edges are named by their position in ``QuotientGraph.edges``: the search
walks a per-node list of (neighbour, edge id) pairs, and a residual filter
is a per-edge list of link counts indexed the same way.
The lattice generators list their edges in plain Python, so numpy is the
only runtime dependency of the package.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .circuit import check_keys, json_int, json_list

# The exact Steiner program's terminal guard.  Its table entries are sums
# of at most this many distance-matrix entries, which sizes that matrix's
# integer type.
EXACT_MAX_TERMINALS = 10


def trace_path(parent: dict[int, int], t: int) -> tuple[int, ...]:
    """The node path from a BFS source (parent -1) to t, read off ``parent``."""
    path = [t]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


@dataclass(frozen=True)
class QuotientGraph:
    """Undirected capacitated processor graph; at most one edge per node pair."""

    node_count: int
    edges: tuple[tuple[int, int, int], ...]  # (u, v, capacity) with u < v

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for u, v, cap in self.edges:
            if not (0 <= u < v < self.node_count):
                raise ValueError(f"bad edge ({u},{v}) in graph of {self.node_count} nodes")
            if cap < 1:
                raise ValueError(f"edge ({u},{v}) capacity must be >= 1")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbours(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node u, its (v, e) pairs in ascending v, where ``edges[e]``
        joins u and v."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for e, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        return tuple(tuple(sorted(pairs)) for pairs in adj)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {u: tuple(v for v, _ in pairs) for u, pairs in enumerate(self.neighbours)}

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {(u, v): e for e, (u, v, _) in enumerate(self.edges)}

    def edge_ids(self, path: tuple[int, ...]) -> list[int]:
        """The positions in ``edges`` of the links of a node path."""
        index = self._edge_index
        return [index[u, v] if u < v else index[v, u] for u, v in zip(path, path[1:])]

    @cached_property
    def capacity(self) -> dict[tuple[int, int], int]:
        return {(u, v): c for u, v, c in self.edges}

    def cap(self, u: int, v: int) -> int:
        return self.capacity.get((min(u, v), max(u, v)), 0)

    def has_edge(self, u: int, v: int) -> bool:
        return self.cap(u, v) > 0

    @cached_property
    def _bfs_memo(self) -> dict[int, tuple[dict[int, int], dict[int, int]]]:
        return {}

    def bfs(
        self,
        s: int,
        usable: Sequence[int] | None = None,
        stop: int | None = None,
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Hop distances and parents (the source's parent is -1) from `s`.

        Neighbours are visited in ascending order (``neighbours``) and every
        node keeps its first-discovered parent, so the parents trace, to
        every node, the lexicographically least of its shortest paths,
        compared node by node from `s`.  With `usable`, a list with one
        entry per edge, the edge ``edges[e]`` is crossed only if
        ``usable[e]`` is at least 1.  The search returns as soon as it
        discovers `stop` (a search from `stop` itself runs in full).
        Unfiltered searches run in full once per source and are memoised;
        callers must not mutate the returned dicts.
        """
        if s not in self.adjacency:
            raise ValueError(f"node {s} not in graph of {self.node_count} nodes")
        if usable is None:
            hit = self._bfs_memo.get(s)
            if hit is not None:
                return hit
            stop = None
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        neighbours = self.neighbours
        for u in queue:  # the list grows while it is walked: FIFO order
            d = dist[u] + 1
            for v, e in neighbours[u]:
                if v in dist:
                    continue
                if usable is not None and usable[e] < 1:
                    continue
                dist[v] = d
                parent[v] = u
                if v == stop:
                    return dist, parent
                queue.append(v)
        if usable is None:
            self._bfs_memo[s] = (dist, parent)
        return dist, parent

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """n x n hop distances from ``bfs``, and n where no path exists: n
        is longer than any path.  Read-only: it is shared by every caller.

        The type is int16 whenever EXACT_MAX_TERMINALS * n fits in it (up to
        3276 nodes), else int64: the exact Steiner program's entries, on
        r + 1 <= EXACT_MAX_TERMINALS terminals, are at most (r + 1) * n.
        """
        n = self.node_count
        wide = EXACT_MAX_TERMINALS * n > np.iinfo(np.int16).max
        dist = np.full((n, n), n, dtype=np.int64 if wide else np.int16)
        for s in range(n):
            row = self.bfs(s)[0]
            dist[s, list(row)] = list(row.values())
        dist.flags.writeable = False
        return dist

    def hops(self, s: int, t: int) -> int:
        """Length in edges of a shortest s-t path; ValueError when there is none."""
        d = self.bfs(s)[0].get(t)
        if d is None:
            raise ValueError(f"no path between {s} and {t}")
        return d

    def shortest_path(
        self, s: int, t: int, usable: Sequence[int] | None = None
    ) -> tuple[int, ...] | None:
        """The BFS shortest s-t path as a node tuple, or None when there is none."""
        parent = self.bfs(s, usable, stop=t)[1]
        return trace_path(parent, t) if t in parent else None

    def is_connected(self) -> bool:
        return self.node_count == 0 or len(self.bfs(0)[0]) == self.node_count

    def to_json(self) -> dict:
        return {"nodes": self.node_count, "edges": [[u, v, c] for u, v, c in self.edges]}

    @staticmethod
    def from_json(doc: dict) -> "QuotientGraph":
        check_keys(doc, frozenset({"nodes", "edges"}), "topology")
        edges = []
        for i, e in enumerate(json_list(doc["edges"], 'topology "edges"')):
            if type(e) is not list or len(e) != 3:
                raise ValueError(f"edge {i} must be a JSON array [u, v, capacity], got {json.dumps(e)}")
            edges.append(tuple(json_int(x, "edge entry") for x in e))
        q = QuotientGraph(json_int(doc["nodes"], "node count"), tuple(edges))
        if not q.is_connected():
            raise ValueError("processor-level graph is disconnected")
        return q


def _grid(rows: int, cols: int) -> QuotientGraph:
    """A rows x cols grid with row-major node ids."""
    n = rows * cols
    edges = [(u, u + 1, 1) for u in range(n) if (u + 1) % cols]
    edges += [(u, u + cols, 1) for u in range(n - cols)]
    return QuotientGraph(n, tuple(sorted(edges)))


def gen_rect_low(g: int) -> QuotientGraph:
    """Smaller rectangle lattice family: a ceil(g/2+1) x floor(g/2+2) grid.

    Square at odd g (7x7 with 49 nodes and 84 edges at g = 11); at even g the
    second side is one longer, which keeps the node count on g^2/4 + 3g/2
    with constant slack for every g.
    """
    if g < 1:
        raise ValueError("generator factor must be >= 1")
    return _grid((g + 3) // 2, (g + 4) // 2)


def gen_rect_high(g: int) -> QuotientGraph:
    """Larger rectangle lattice family: a (g+1) x (g+1) grid.

    At g = 11 this is the 12x12 grid with 144 nodes and 264 edges, the pair
    the source text reports for the larger rectangle family.  Note the size
    formula printed alongside that report, |P| = 2g^2 + 2g, evaluates to 264
    at g = 11: it matches the *edge* count of the 12x12 grid, while the node
    count is (g+1)^2 = 144.  The two published quantities are inconsistent
    with each other; we anchor the generator on the (144, 264) pair and keep
    both facts documented here rather than silently repairing the formula.
    """
    if g < 1:
        raise ValueError("generator factor must be >= 1")
    return _grid(g + 1, g + 1)


def gen_hex(g: int) -> QuotientGraph:
    """Hexagon (honeycomb) lattice with ceil((g+1)/2) x floor((g+1)/2) cells.

    Node count follows g^2/2 + 3g up to a constant and lands exactly on
    (96, 131) at g = 11 (a 6x6 block of hexagons).  Node degrees are 2 or 3.
    """
    if g < 1:
        raise ValueError("generator factor must be >= 1")
    rows = (g + 2) // 2
    cols = (g + 1) // 2
    # A brick-wall layout: column i holds nodes (i, 0..h-1) joined in a path,
    # a row edge joins (i, j) and (i+1, j) where i and j have equal parity,
    # and the two degree-1 corners are dropped.  Ids follow sorted (i, j).
    h = 2 * rows + 2
    corners = {(0, h - 1), (cols, (h - 1) * (cols % 2))}
    nodes = [(i, j) for i in range(cols + 1) for j in range(h) if (i, j) not in corners]
    ids = {node: k for k, node in enumerate(nodes)}
    pairs = [((i, j), (i, j + 1)) for i in range(cols + 1) for j in range(h - 1)]
    pairs += [((i, j), (i + 1, j)) for i in range(cols) for j in range(h) if i % 2 == j % 2]
    edges = sorted((ids[a], ids[b], 1) for a, b in pairs if a in ids and b in ids)
    return QuotientGraph(len(ids), tuple(edges))


GENERATORS = {"rect-low": gen_rect_low, "rect-high": gen_rect_high, "hex": gen_hex}


def edge_node_ratio(q: QuotientGraph) -> Fraction:
    """Edges-to-nodes ratio |E|/|P|; tends to 2 on rectangle lattices and 3/2
    on hexagon lattices as the generator factor grows."""
    if q.node_count <= 0:
        raise ValueError("graph must have at least one node")
    return Fraction(q.edge_count, q.node_count)
