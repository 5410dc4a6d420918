"""Scheduling commodities onto the quotient graph over discrete time steps.

Each remote interaction (commodity) must receive one time step and one
simple path of entanglement links from its source processor to its target.
Constraints: per-step edge capacities, strict ordering for logically
dependent pairs, and relaxed (same-step allowed) ordering for
quasi-parallel pairs.  Three solvers are provided: a feasibility/optimality
checker, an exact branch-and-bound for small instances minimizing the total
link count at a fixed horizon, asked at ascending horizons until one is
feasible (the quickest flow), and a greedy iterative compiler that packs as
many ready commodities as possible per step, critical path first, on routes
at most ``DETOUR_SLACK`` links longer than their shortest paths.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

from .circuit import CommoditySet, extract_commodities, gc_paused, validate
from .netmodel import QuotientGraph, trace_path
from .telegate import CircuitExpander

EXACT_MAX_COMMODITIES = 10
EXACT_MAX_NODES = 25
# links a greedy route may take beyond its shortest path before it waits a
# step instead; the lattices are bipartite, so slack 1 would act as 0
DETOUR_SLACK = 2


@dataclass(frozen=True)
class FlowSchedule:
    """Per commodity: one time step in 1..horizon and one simple path."""

    horizon: int
    steps: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]  # node sequences from source to target

    @property
    def k(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return schedule_json(self.horizon, self.steps, [zip(p, p[1:]) for p in self.paths])


def schedule_json(
    horizon: int, steps: Iterable[int], links: Iterable[Iterable[tuple[int, int]]]
) -> dict:
    """The schedule format both backends write: per route i its step and
    its links, each an edge [u, v] of a path or tree."""
    return {
        "d": horizon,
        "assignments": [
            {"i": i, "tau": tau, "path": [[u, v] for u, v in edges]}
            for i, (tau, edges) in enumerate(zip(steps, links))
        ],
    }


@dataclass(frozen=True)
class ScheduleMetrics:
    e_depth: int
    e_count: int


@dataclass(frozen=True)
class Violation:
    constraint: str
    commodity: int | None = None
    edge: tuple[int, int] | None = None
    step: int | None = None
    message: str = ""


class InstanceTooLarge(ValueError):
    pass


def check_exact_size(k: int, nodes: int) -> None:
    """Refuse, with InstanceTooLarge, k commodities on a graph of `nodes`
    nodes beyond the exact solver's limits."""
    if k > EXACT_MAX_COMMODITIES or nodes > EXACT_MAX_NODES:
        raise InstanceTooLarge(
            f"exact solver limited to {EXACT_MAX_COMMODITIES} commodities on "
            f"{EXACT_MAX_NODES} nodes (got k={k}, nodes={nodes})"
        )


def metrics(sched: FlowSchedule) -> ScheduleMetrics:
    depth = max(sched.steps, default=0)
    count = sum(len(p) - 1 for p in sched.paths if p)
    return ScheduleMetrics(depth, count)


def check_feasible(sched: FlowSchedule, q: QuotientGraph, cs: CommoditySet) -> Violation | None:
    """Verify demand, capacity, and both precedence families; None when sound.
    Of several overloads, the one on the least edge (u, v), then step, is named."""
    if sched.k != cs.k:
        return Violation("demand", message=f"{sched.k} assignments for {cs.k} commodities")
    caps = q.capacities
    load = defaultdict(lambda: [0] * q.edge_count)  # per step, the links in use per edge id
    over: set[tuple[int, int]] = set()  # overloaded (edge id, step) pairs
    for i, com in enumerate(cs.commodities):
        tau = sched.steps[i]
        path = sched.paths[i]
        if not 1 <= tau <= sched.horizon:
            return Violation("demand", commodity=i, step=tau, message="step outside horizon")
        if len(path) < 2 or path[0] != com.source or path[-1] != com.target:
            return Violation("c2", commodity=i, message="path must run from source to target")
        if len(set(path)) != len(path):
            return Violation("simple", commodity=i, message="path revisits a node")
        try:
            links = q.edge_ids(path)
        except KeyError as missing:
            return Violation("c1", commodity=i, edge=missing.args[0], message="missing edge")
        used = load[tau]
        for e in links:
            used[e] += 1
            if used[e] > caps[e]:
                over.add((e, tau))
    if over:
        e, tau = min(over, key=lambda pair: (q.edges[pair[0]], pair[1]))
        u, v, cap = q.edges[e]
        return Violation("c3", edge=(u, v), step=tau, message=f"{load[tau][e]} > capacity {cap}")
    for j, tau in enumerate(sched.steps):
        for i in cs.strict_succs[j]:
            if tau >= sched.steps[i]:
                return Violation("c5", commodity=i, message=f"needs step > step of {j}")
        for i in cs.qpar_succs[j]:
            if tau > sched.steps[i]:
                return Violation("c6", commodity=i, message=f"needs step >= step of {j}")
    return None


def _simple_paths(q: QuotientGraph, s: int, t: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """All simple s-t paths with their edge ids, shortest first then lexicographic."""
    out: list[tuple[int, ...]] = []
    stack = [(s,)]
    while stack:
        path = stack.pop()
        if path[-1] == t:
            out.append(path)
            continue
        stack.extend(path + (v,) for v, _ in q.neighbours[path[-1]] if v not in path)
    return [(path, q.edge_ids(path)) for path in sorted(out, key=lambda p: (len(p), p))]


def solve_mcf_exact(q: QuotientGraph, cs: CommoditySet, d: int) -> FlowSchedule | None:
    """Minimum-total-flow schedule within horizon d, or None when infeasible.

    Branch and bound over (step, path) choices in commodity index order,
    which puts every predecessor first (see ``CommoditySet``), pruned with
    shortest-path lower bounds on the remaining flow.
    A commodity's step is bounded from above by its tail
    (``CommoditySet.tails``), the longest chain of strict successors below
    it (a quasi-parallel successor may share its step), which prunes only
    branches with no complete schedule.  Intended for small instances;
    guarded against larger ones.
    """
    check_exact_size(cs.k, q.node_count)
    if cs.k == 0:
        return FlowSchedule(0, (), ())
    qpar_succs, tail = cs.qpar_succs, cs.tails
    if max(tail) >= d:
        return None
    options = [_simple_paths(q, c.source, c.target) for c in cs.commodities]
    if not all(options):
        return None
    lower = [len(opts[0][1]) for opts in options]
    remaining_lb = [0] * (cs.k + 1)
    for i in range(cs.k - 1, -1, -1):
        remaining_lb[i] = remaining_lb[i + 1] + lower[i]

    best_f = math.inf
    best: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None
    # entries at and above the commodity being assigned are left over from other branches
    steps = [0] * cs.k
    paths: list[tuple[int, ...]] = [()] * cs.k
    load = defaultdict(lambda: [0] * q.edge_count)  # per step, the links in use per edge id
    caps = q.capacities
    preds = cs.preds

    def assign(i: int, flow: int) -> None:
        nonlocal best_f, best
        if i == cs.k:
            best_f = flow
            best = (tuple(steps), tuple(paths))
            return
        earliest = 1
        for j in preds[i]:
            earliest = max(earliest, steps[j] + (i not in qpar_succs[j]))
        for tau in range(earliest, d - tail[i] + 1):
            used = load[tau]
            for path, links in options[i]:
                if flow + len(links) + remaining_lb[i + 1] >= best_f:
                    break  # paths are sorted by length
                if any(used[e] >= caps[e] for e in links):
                    continue
                for e in links:
                    used[e] += 1
                steps[i] = tau
                paths[i] = path
                assign(i + 1, flow + len(links))
                for e in links:
                    used[e] -= 1

    assign(0, 0)
    del assign  # the closure refers to itself: a reference cycle per call
    if best is None:
        return None
    return FlowSchedule(d, best[0], best[1])


SubSolver = Callable[[QuotientGraph, CommoditySet, int], FlowSchedule | None]


def quickest_flow(
    q: QuotientGraph,
    cs: CommoditySet,
    subsolver: SubSolver = solve_mcf_exact,
) -> FlowSchedule:
    """The sub-solver's schedule at the least horizon where it finds one.

    Horizons go up from ``max(cs.tails) + 1``, the steps the longest chain of
    strict successors needs, to k (all commodities in sequence).  The first
    schedule found ends at its horizon, or it would have fitted the one
    before.  Tests pass a `subsolver` that logs the horizons it is asked
    for; the benchmark's span tracer finds `solve_mcf_exact` as the default.
    """
    if cs.k == 0:
        return FlowSchedule(0, (), ())
    for d in range(max(cs.tails) + 1, cs.k + 1):
        sched = subsolver(q, cs, d)
        if sched is not None:
            return sched
    raise ValueError("no feasible schedule up to horizon k; instance is malformed")


def iterative_greedy(q: QuotientGraph, cs: CommoditySet) -> FlowSchedule:
    """One step at a time, route as many ready commodities as capacity allows.

    Ready commodities are taken in critical-path order, by (-tail, hops,
    index): first those with the longest chain of strict successors still
    to follow (``CommoditySet.tails``), which bound the steps the rest of
    the schedule needs (Hu 1961), then the shortest.  Each is routed along
    its shortest path in the step's residual graph if that path has at
    most ``hops + DETOUR_SLACK`` links, and deferred to the next step
    otherwise: a detour spends one more Bell pair per extra link, where
    waiting a step may spend none.  Routing goes in passes: a commodity
    whose last quasi-parallel predecessor lands during a pass becomes ready
    for the next pass of the same step, one whose last strict predecessor
    lands becomes ready at the next step.  Readiness is kept as counters of
    unplaced predecessors.  The residual is a list of link counts per edge
    id (see ``QuotientGraph.bfs``); each commodity's sort key and
    unfiltered shortest path, with that path's edge ids, are worked out
    once, before the first step.

    Residual capacity only shrinks within a step, so a commodity that found
    no short enough path stays deferred until the step ends and is not
    retried.  For the same reason the residual's components only split
    within a step: a label per node that gives two nodes different ids only
    when no residual path joins them stays true until the step ends, and a
    commodity whose ends have different ids is deferred without a search.
    Once failed searches have visited as many nodes as the graph has, which
    is what one labelling pass costs, ``QuotientGraph.components`` labels
    every component afresh, so labelling costs at most a constant times the
    failed searches before it.  This rule skips only searches that would
    fail, so the schedule is unchanged.  A second rule, checked after it,
    skips searches that would succeed: when every link of the unfiltered
    shortest path still has residual capacity, that path is routed.  The
    residual search returns the lexicographically least shortest path (see
    ``QuotientGraph.bfs``), and lowering capacities only removes paths, so
    the surviving unfiltered path is still the shortest and the least, the
    very path the search would return.

    Always terminates: the least unplaced commodity is ready, since its
    predecessors have lower indices and were placed in earlier steps, so a
    fresh step has a ready commodity, and the first one taken, whatever its
    tail, finds every link free and is routed along its unfiltered shortest
    path, within any detour limit.
    """
    commodities = cs.commodities
    hops = [q.hops(c.source, c.target) for c in commodities]
    order = [(-tail, h, i) for i, (tail, h) in enumerate(zip(cs.tails, hops))]
    free = [q.shortest_path(c.source, c.target) for c in commodities]
    free_links = [q.edge_ids(path) for path in free]
    waiting = [len(p) for p in cs.preds]
    steps: list[int] = [0] * cs.k
    paths: list[tuple[int, ...]] = [()] * cs.k
    ready = [i for i in range(cs.k) if not waiting[i]]
    placed = 0
    tau = 0
    while placed < cs.k:
        tau += 1
        residual = list(q.capacities)
        # per node a component id: nodes with different ids have no residual path
        label = [0] * q.node_count
        wasted = 0
        deferred: list[int] = []
        landed: list[int] = []
        batch = ready
        while batch:
            unlocked: list[int] = []
            for i in sorted(batch, key=order.__getitem__):
                c = commodities[i]
                if label[c.source] != label[c.target]:
                    deferred.append(i)
                    continue
                path, links = free[i], free_links[i]
                if not all(map(residual.__getitem__, links)):  # counts never drop below 0
                    dist, parent = q.bfs(c.source, residual, c.target, hops[i] + DETOUR_SLACK)
                    if c.target not in parent:
                        wasted += len(dist)
                        if wasted >= q.node_count:
                            label = q.components(residual)
                            wasted = 0
                        deferred.append(i)
                        continue
                    path = trace_path(parent, c.target)
                    links = q.edge_ids(path)
                for e in links:
                    residual[e] -= 1
                steps[i] = tau
                paths[i] = path
                landed.append(i)
                for s in cs.qpar_succs[i]:
                    waiting[s] -= 1
                    if not waiting[s]:
                        unlocked.append(s)
            batch = unlocked
        if not landed:
            raise ValueError(f"step {tau} placed no commodity although every link was free")
        placed += len(landed)
        ready = deferred
        for i in landed:
            for s in cs.strict_succs[i]:
                waiting[s] -= 1
                if not waiting[s]:
                    ready.append(s)
    return FlowSchedule(max(steps, default=0), tuple(steps), tuple(paths))


@gc_paused
def compile_circuit_flow(
    circuit,
    placement,
    q: QuotientGraph,
    mode: str = "greedy",
):
    """Schedule a placed circuit and expand it into an extended circuit.

    mode "greedy" runs the iterative compiler; "exact" runs the quickest-flow
    horizon scan over the exact sub-solver (small instances only).  Raises
    ValueError on a placement that does not fit (``circuit.validate``).  Returns
    (extended circuit, schedule, commodity set).  The cyclic collector is
    paused for the whole compile (``circuit.gc_paused``); that state is
    process-global, so another thread sees it paused too.
    """
    validate(circuit, placement, q)
    cs = extract_commodities(circuit, placement)
    if mode == "greedy":
        sched = iterative_greedy(q, cs)
    elif mode == "exact":
        sched = quickest_flow(q, cs)
    else:
        raise ValueError(f"unknown flow mode {mode!r}")
    bad = check_feasible(sched, q, cs)
    if bad is not None:
        raise AssertionError(f"scheduler produced an infeasible schedule: {bad}")

    routes: dict = {}
    for com, p in zip(cs.commodities, sched.paths):
        routes.setdefault((com.layer, com.gate), []).append((tuple(zip(p, p[1:])), (com.target,)))
    return CircuitExpander(circuit, placement).expand(routes), sched, cs
