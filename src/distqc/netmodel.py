"""Architecture model: the processor-level quotient graph and its lattices.

A distributed architecture is a set of processors joined by entanglement
links between their communication qubits.  Every stage of the compiler
works on its *quotient graph*: one node per processor, parallel links
between the same processor pair collapsed into a single edge whose capacity
is the link count.  ``distqc compile`` reads this graph as a JSON document,
and ``distqc gen-topology`` writes one of the three lattice families below.

``QuotientGraph`` is the single owner of graph distances: one breadth-first
search (``bfs``, memoised per source) backs the hop counts, shortest paths
and the all-pairs distances that the flow and Steiner backends use, as
tuples (``hop_rows``) or as a numpy matrix (``distance_matrix``).
It is also the one owner of edge naming: ``edge_key`` names an edge (u, v)
as (min, max), and ``QuotientGraph.edge_id`` gives its id, its position in
``edges``.  Every scheduler counts load, and the search its residual, in
per-edge lists indexed by edge id, against ``QuotientGraph.capacities``.
The lattice generators list their edges in plain Python, so numpy is the
only runtime dependency of the package, and only ``distance_matrix`` and
the exact Steiner program's numpy engine import it, inside the function:
flow-backend runs never load it, nor do steiner runs whose exact trees
all have at most two terminals or fit the program's list engine, which
reads ``hop_rows``.  On a 2-core machine that keeps ``import distqc.cli``
at about 0.07 s and 20 MB of peak RSS, against 0.20 s and 33 MB with
numpy loaded at start-up.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .circuit import check_keys, json_int, json_list

if TYPE_CHECKING:
    import numpy as np

# The exact Steiner program's terminal guard.  Its table entries are sums
# of at most this many distance-matrix entries, which sizes that matrix's
# integer type.
EXACT_MAX_TERMINALS = 10


def edge_key(u: int, v: int) -> tuple[int, int]:
    """The name of the undirected edge or node pair {u, v}: (min, max)."""
    return (u, v) if u < v else (v, u)


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
    def capacities(self) -> tuple[int, ...]:
        return tuple(cap for _, _, cap in self.edges)

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {hop: e for e, (u, v, _) in enumerate(self.edges) for hop in ((u, v), (v, u))}

    def edge_id(self, u: int, v: int) -> int | None:
        """The position in ``edges`` of the edge {u, v}, or None when there is none."""
        return self._edge_index.get((u, v))

    def edge_ids(self, path: Sequence[int]) -> list[int]:
        """The edge ids of the links of a node path.  A hop that is no edge
        raises KeyError with that hop, (u, v) in path order, as its key."""
        index = self._edge_index
        return [index[hop] for hop in zip(path, path[1:])]

    def cap(self, u: int, v: int) -> int:
        return 0 if (e := self.edge_id(u, v)) is None else self.capacities[e]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    @cached_property
    def _bfs_memo(self) -> dict[int, tuple[dict[int, int], dict[int, int]]]:
        return {}

    def bfs(
        self,
        s: int,
        usable: Sequence[int] | None = None,
        stop: int | None = None,
        limit: int | None = None,
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

        With `limit` (and `stop`), the search looks only for s-`stop` paths
        of at most `limit` links: a node v it reaches at distance d is cut
        off, entered in `dist` but given no parent and not explored, when
        d + hops(v, stop) > limit.  Every node of every shortest path to
        `stop` passes that test when the path has at most `limit` links, and
        a cut-off node lies on no such path, so `stop` is found exactly when
        it is at most `limit` links away, along the same path as without
        the limit.  A search that found no `stop` and cut off no node,
        ``len(parent) == len(dist)``, ran to exhaustion: `dist` is then the
        whole component of `s`.
        """
        if not 0 <= s < self.node_count:
            raise ValueError(f"node {s} not in graph of {self.node_count} nodes")
        memoised = usable is None and limit is None
        if memoised:
            hit = self._bfs_memo.get(s)
            if hit is not None:
                return hit
            stop = None
        elif limit is not None:
            to_stop = self.bfs(stop)[0]  # type: ignore[arg-type]
            if s not in to_stop:
                raise ValueError(f"no path between {s} and {stop}")
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
                if limit is not None and d + to_stop[v] > limit:
                    continue
                parent[v] = u
                if v == stop:
                    return dist, parent
                queue.append(v)
        if memoised:
            self._bfs_memo[s] = (dist, parent)
        return dist, parent

    def components(self, usable: Sequence[int]) -> list[int]:
        """Per node, the least node of its connected component in the graph
        of the edges e with ``usable[e]`` at least 1: one pass over the
        graph, where a `bfs` per component would build two dicts each."""
        label = [-1] * self.node_count
        neighbours = self.neighbours
        for root in range(self.node_count):
            if label[root] >= 0:
                continue
            label[root] = root
            members = [root]
            for u in members:  # the list grows while it is walked
                for v, e in neighbours[u]:
                    if label[v] < 0 and usable[e] >= 1:
                        label[v] = root
                        members.append(v)
        return label

    @cached_property
    def hop_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per node s, the hop distances from ``bfs`` to every node in
        order, and n where no path exists: ``distance_matrix`` as tuples,
        for callers on small graphs that would not load numpy."""
        n = self.node_count
        return tuple(tuple(self.bfs(s)[0].get(t, n) for t in range(n)) for s in range(n))

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """n x n hop distances from ``bfs``, and n where no path exists: n
        is longer than any path.  Read-only: it is shared by every caller.

        The type is int16 whenever EXACT_MAX_TERMINALS * n fits in it (up to
        3276 nodes), else int64: the exact Steiner program's entries, on
        r + 1 <= EXACT_MAX_TERMINALS terminals, are at most (r + 1) * n.
        """
        import numpy as np

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

    def shortest_path(self, s: int, t: int) -> tuple[int, ...] | None:
        """The BFS shortest s-t path as a node tuple, or None when there is none."""
        parent = self.bfs(s)[1]
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
        if not q.node_count:
            raise ValueError("topology has no processors")
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
