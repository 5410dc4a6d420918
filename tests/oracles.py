"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's solver code paths: plain recursive
enumeration for schedules, subset enumeration for Steiner trees, and
networkx max-flow for the directed-gadget checks.  The reference commodity
extraction and greedy scheduler are the plain quadratic versions that the
indexed library code must match output for output, and the scalar
Dreyfus-Wagner program (dict rows, a heap Dijkstra grow step and a recorded
choice per entry) is the reference the vectorized one must match tree for
tree.  The sampled channel
check runs concrete inputs and measurement branches, where the library's
check runs one symbolic Choi state.
"""

from __future__ import annotations

import heapq
import itertools
import random

import networkx as nx

from distqc.circuit import (
    Circuit,
    Commodity,
    CommoditySet,
    Placement,
    QparPredicate,
    _gate_commodities,
    cx,
    cz,
    default_qpar,
    fanin,
    yhalf,
)
from distqc.flow import FlowSchedule
from distqc.netmodel import QuotientGraph
from distqc.stabsim import (
    StabilizerState,
    canonical_tableau,
    random_clifford_prefix,
    reduced_canonical,
)
from distqc.steiner import EXACT_MAX_TERMINALS, Edge, SteinerInstance, _norm


def all_simple_paths(q: QuotientGraph, s: int, t: int) -> list[tuple[int, ...]]:
    g = q.to_nx()
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
                    if cs.quasi_parallel(i, j):
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
    g = q.to_nx()
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
            for u in q.adjacency[v]:
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
            edges.update(_norm(a, b) for a, b in zip(path, path[1:]))
        elif kind == "grow":
            edges.add(_norm(arg, v))
            stack.append((mask, arg))
        else:
            stack.append((mask ^ arg, v))
            stack.append((arg, v))
    weight = int(f[full][root])
    if len(edges) != weight:
        raise AssertionError("Steiner reconstruction produced a non-tree edge multiset")
    return frozenset(edges)


def undirected_max_flow(q: QuotientGraph, s: int, t: int) -> int:
    """Max flow in the undirected graph via antiparallel arcs."""
    g = nx.DiGraph()
    g.add_nodes_from(range(q.node_count))
    for u, v, c in q.edges:
        g.add_edge(u, v, capacity=c)
        g.add_edge(v, u, capacity=c)
    return int(nx.maximum_flow_value(g, s, t))


def gadget_max_flow(dfg, s: int, t: int) -> int:
    """Max flow on the directed gadget expansion (unbounded arcs made huge)."""
    g = nx.DiGraph()
    g.add_nodes_from(range(dfg.nodes))
    big = 10**9
    for u, v, c in dfg.arcs:
        g.add_edge(u, v, capacity=big if c is None else c)
    return int(nx.maximum_flow_value(g, s, t))


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


def random_commodity_set(
    rng: random.Random, q: QuotientGraph, k: int, qpar_prob: float = 0.3
) -> CommoditySet:
    """Random commodities with a random order DAG (edges only j -> i, j < i)."""
    comms = []
    for i in range(k):
        s, t = rng.sample(range(q.node_count), 2)
        comms.append(Commodity(s, t, i, "cz", 0, (1,), cz(0, 1)))
    prec = set()
    qpar = set()
    for i in range(k):
        for j in range(i):
            if rng.random() < 0.4:
                prec.add((j, i))
                if rng.random() < qpar_prob:
                    qpar.add(frozenset({j, i}))
    return CommoditySet(tuple(comms), frozenset(prec), frozenset(qpar))


def reference_extract_commodities(
    circuit: Circuit, placement: Placement, qpar_predicate: QparPredicate = default_qpar
) -> CommoditySet:
    """Commodity extraction comparing every pair of commodities, O(k^2)."""
    commodities: list[Commodity] = []
    for li, layer in enumerate(circuit.layers):
        layer_comms: list[Commodity] = []
        for g in layer:
            layer_comms.extend(_gate_commodities(g, li, placement))
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
            if len(shared) == 1 and qpar_predicate(cj.gate, ci.gate, next(iter(shared))):
                qpar.add(frozenset({j, i}))
    return CommoditySet(tuple(commodities), frozenset(prec), frozenset(qpar))


def reference_iterative_greedy(q: QuotientGraph, cs: CommoditySet) -> FlowSchedule:
    """Greedy scheduling that re-tests readiness of every remaining commodity
    by scanning all of prec, and retries failed commodities, on every pass."""
    steps: dict[int, int] = {}
    paths: dict[int, tuple[int, ...]] = {}
    preds = {i: sorted(j for (j, i2) in cs.prec if i2 == i) for i in range(cs.k)}
    sp_len = {i: q.hops(c.source, c.target) for i, c in enumerate(cs.commodities)}
    remaining = set(range(cs.k))
    tau = 0
    while remaining:
        tau += 1
        residual = dict(q.capacity)

        def ready(i: int) -> bool:
            for j in preds[i]:
                done = j in steps
                if cs.quasi_parallel(i, j):
                    if not (done and steps[j] <= tau):
                        return False
                elif not (done and steps[j] < tau):
                    return False
            return True

        progress = True
        while progress:
            progress = False
            batch = sorted((i for i in remaining if ready(i)), key=lambda i: (sp_len[i], i))
            for i in batch:
                c = cs.commodities[i]
                path = q.shortest_path(c.source, c.target, usable=residual)
                if path is None:
                    continue
                for u, v in zip(path, path[1:]):
                    residual[(min(u, v), max(u, v))] -= 1
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
        ref = StabilizerState(n)
        for g in prefix:
            ref.apply_gate(g)
        for g in logical.all_gates():
            ref.apply_gate(g, {}, rng)
        ref_canon = canonical_tableau(ref)
        for _ in range(branches):
            state = StabilizerState(extended.num_qubits)
            for g in prefix:
                state.apply_gate(g)
            bits: dict[int, int] = {}
            for g in extended.gates:
                state.apply_gate(g, bits, rng)
            if not drop_frame:
                state.apply_frame(extended.frame, bits)
            if reduced_canonical(state, data) != ref_canon:
                return False
    return True
