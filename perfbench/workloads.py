"""Seeded workload inputs, the calls into distqc, and known-answer checks.

Every input is generated here from the run's seed; distqc receives only the
generated lattices, circuits and placements.  Calls go through module
attributes (``flow.compile_circuit_flow``) so that the tracer's wrappers are
seen.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field

from distqc import circuit as ir
from distqc import flow, netmodel, stabsim, steiner

TRIALS = 20
BRANCHES = 10
EXACT_MAX_K = 10  # flow-exact compiles corpus circuits with at most this many commodities
LATTICE_ATTRS = {"rect-low": "gen_rect_low", "hex": "gen_hex", "rect-high": "gen_rect_high"}
REMOTE_KINDS = ("cx", "cz", "fanin", "fanout")


def derive_seed(*parts: object) -> int:
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def lattice(kind: str, g: int) -> netmodel.QuotientGraph:
    return getattr(netmodel, LATTICE_ATTRS[kind])(g)


def random_pair_circuit(n: int, k: int, rng: random.Random, cx_share: float = 0.0,
                        pairs: list[tuple[int, int]] | None = None) -> ir.Circuit:
    """k gates on uniformly random qubit pairs (or on k distinct pairs drawn
    from ``pairs``, in random orientation), each packed into the first layer
    after the last use of either operand.  A gate is CX with probability
    ``cx_share`` (first operand controls), otherwise CZ."""
    layers: list[list[ir.Gate]] = []
    last: dict[int, int] = {}
    drawn = iter(rng.sample(pairs, k)) if pairs else None
    for _ in range(k):
        a, b = rng.sample(next(drawn), 2) if drawn else rng.sample(range(n), 2)
        gate = ir.cx(a, b) if cx_share and rng.random() < cx_share else ir.cz(a, b)
        at = max(last.get(a, -1), last.get(b, -1)) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        last[a] = last[b] = at
    return ir.Circuit.from_layers(n, layers)


CLIFFORD_KINDS = ("cz", "cx", "cx", "cz", "yhalf", "fanin")


def random_clifford_circuit(n: int, n_layers: int, rng: random.Random) -> ir.Circuit:
    """One cz/cx/yhalf/fanin gate per layer on random qubits, the gate mix of
    the acceptance suite's channel-equivalence corpus.  The kinds come in
    that mix's 2:2:1:1 proportions, in random order, rather than by
    independent draws, so that every seed gets the same kind counts."""
    kinds = [CLIFFORD_KINDS[j % len(CLIFFORD_KINDS)] for j in range(n_layers)]
    rng.shuffle(kinds)
    layers = []
    for kind in kinds:
        if kind == "yhalf":
            layers.append([ir.yhalf(rng.randrange(n))])
        elif kind == "fanin" and n >= 3:
            qs = rng.sample(range(n), 3)
            layers.append([ir.fanin(qs[0], qs[1:])])
        else:
            a, b = rng.sample(range(n), 2)
            layers.append([ir.cz(a, b) if kind == "cz" else ir.cx(a, b)])
    return ir.Circuit.from_layers(n, layers)


@dataclass(frozen=True)
class Job:
    """One compile: a logical circuit placed on a lattice, and a backend."""

    label: str
    backend: str  # flow-greedy | flow-exact | steiner
    circuit: ir.Circuit
    placement: ir.Placement
    graph: netmodel.QuotientGraph
    densify: bool = False  # rewrite the CZ circuit into dense fan-in layers first
    repeats: int = 1  # compiles timed together as one operation; its time is their mean

    @property
    def gates(self) -> int:
        return len(self.circuit.all_gates())


@dataclass(frozen=True)
class Output:
    extended: object
    schedule: object
    commodities: object | None  # flow backends only
    source: ir.Circuit  # the circuit the backend expanded

    def counters(self) -> tuple[int, int, int]:
        """(e_count, e_depth, extended gates) of this output."""
        depth = max((a["tau"] for a in self.schedule.to_json()["assignments"]), default=0)
        return self.extended.e_count, depth, len(self.extended.gates)

    def frame_terms(self) -> int:
        frame = self.extended.frame
        return sum(len(e.bits) for e in (*frame.x.values(), *frame.z.values()))

    def digest_bytes(self) -> bytes:
        doc = {"schedule": self.schedule.to_json(), "extended": self.extended.to_json()}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def compile_job(job: Job) -> Output:
    if job.backend in ("flow-greedy", "flow-exact"):
        mode = "greedy" if job.backend == "flow-greedy" else "exact"
        ext, sched, cs = flow.compile_circuit_flow(job.circuit, job.placement, job.graph, mode)
        return Output(ext, sched, cs, job.circuit)
    if job.backend != "steiner":
        raise ValueError(f"unknown backend {job.backend!r}")
    source = steiner.cz_to_dense_fanin(job.circuit).to_circuit() if job.densify else job.circuit
    ext, sched = steiner.compile_circuit_steiner(source, job.placement, job.graph)
    return Output(ext, sched, None, source)


# -- known answers ---------------------------------------------------------------


def check_trees(doc: dict, source: ir.Circuit, placement: ir.Placement, graph) -> list[str]:
    """Every tree joins its gate's processors over lattice edges, no round
    overloads an edge, and each layer's rounds follow the previous layer's."""
    gates = [
        (li, {placement.proc(q) for q in g.qubits})
        for li, layer in enumerate(source.layers)
        for g in layer
        if g.kind in REMOTE_KINDS and len({placement.proc(q) for q in g.qubits}) > 1
    ]
    assignments = sorted(doc["assignments"], key=lambda a: a["i"])
    if len(assignments) != len(gates):
        return [f"{len(assignments)} trees for {len(gates)} remote gates"]
    problems = []
    load: Counter = Counter()
    last_layer, last_round, floor = -1, 0, 0
    for a, (li, terminals) in zip(assignments, gates):
        edges = [tuple(sorted(e)) for e in a["path"]]
        adj: dict[int, set[int]] = {}
        for u, v in edges:
            if not graph.has_edge(u, v):
                problems.append(f"tree {a['i']} uses missing edge ({u},{v})")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            load[(u, v, a["tau"])] += 1
        start = min(terminals)
        seen, stack = {start}, [start]
        while stack:
            for v in adj.get(stack.pop(), ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if not terminals <= seen:
            problems.append(f"tree {a['i']} misses processors {sorted(terminals - seen)}")
        if li != last_layer:
            floor, last_layer = last_round, li
        if a["tau"] <= floor:
            problems.append(f"tree {a['i']} in round {a['tau']} does not follow round {floor}")
        last_round = max(last_round, a["tau"])
    for (u, v, tau), used in sorted(load.items()):
        if used > graph.cap(u, v):
            problems.append(f"edge ({u},{v}) carries {used} trees in round {tau}")
    return problems


def check_output(job: Job, out: Output) -> list[str]:
    """Known-answer checks of one compile; an empty list means it passed."""
    doc = out.schedule.to_json()
    problems = []
    links = sum(len(a["path"]) for a in doc["assignments"])
    if links != out.extended.e_count:
        problems.append(f"schedule uses {links} links but the circuit prepares {out.extended.e_count} Bell pairs")
    if out.commodities is not None:
        bad = flow.check_feasible(out.schedule, job.graph, out.commodities)
        if bad is not None:
            problems.append(f"infeasible schedule: {bad}")
    else:
        problems.extend(check_trees(doc, out.source, job.placement, job.graph))
    return problems


@dataclass(frozen=True)
class Verdict:
    """One channel-equivalence check with its known answer."""

    label: str
    extended: object
    logical: ir.Circuit
    drop_frame: bool
    expected: bool
    seed: int


def expected_verdict(extended, drop_frame: bool) -> bool:
    """A compiled output is equivalent to its source; without its frame it is
    not, unless the frame corrects no data qubit (the communication qubits
    are traced out)."""
    if not drop_frame:
        return True
    return not any(q < extended.num_data for q in extended.frame.qubits())


def run_verdict(v: Verdict) -> bool:
    return stabsim.channel_equivalent(
        v.extended, v.logical, trials=TRIALS, branches=BRANCHES,
        rng=random.Random(v.seed), drop_frame=v.drop_frame,
    )


# -- workloads -------------------------------------------------------------------


@dataclass
class Workload:
    """Fixed inputs of one run: compile jobs timed in every pass, and jobs
    compiled once during set-up whose outputs get verdicts in every pass."""

    compile_jobs: list[Job]
    verify_jobs: list[Job]
    negative_backend: str  # outputs of this backend also get a drop_frame verdict
    warmup_jobs: list[Job] = field(default_factory=list)


COMPILE_SPECS = {
    # lattices, logical gates per circuit, circuits per lattice, CX share, backend, densify
    # No rect-low: beside its faster circuit, the median of three instances
    # is one instance's time alone; the median of these two averages both.
    "greedy-commuting": (("hex", "rect-high"), 1024, 1, 0.0, "flow-greedy", False),
    "greedy-ordered": (("rect-high",), 1024, 2, 0.5, "flow-greedy", False),
    # An exact Steiner tree costs 3^terminals, so one dense k = 1024 circuit's
    # compile time swings by a quarter or more with the draw; six k = 256
    # circuits on the lattice with the largest trees average that out.
    "steiner-dense": (("rect-high",), 256, 6, 0.0, "steiner", True),
}
G = 11
# Verdict times follow the extended circuit's size, which grows with the links
# its gates use.  Compile workloads verify small circuits of their own gate
# mix whose gates join distinct pairs of neighbouring processors, one link
# each and no two on one edge, so that every seed verifies circuits of one
# size.
SMALL_G, SMALL_K, SMALL_CIRCUITS = 2, 4, 5
# verify-corpus compiles every (qubits, layers) shape twice in each pass and
# verifies 6-layer circuits on each qubit count
CORPUS_SHAPES = [(n, layers) for n in (3, 4, 5, 6) for layers in (4, 8, 12, 16, 20)] * 2
# A corpus compile takes 1-4 ms, too short to time alone on a noisy machine
CORPUS_REPEATS = 10
VERIFIED_SHAPES = [(n, 6) for n in (3, 4, 5, 6)] * 2
WORKLOADS = (*COMPILE_SPECS, "verify-corpus")


def build(name: str, seed: int) -> Workload:
    """Generate the lattices and every input of a workload from the seed."""
    if name == "verify-corpus":
        return _build_corpus(seed)
    kinds, k, per_lattice, cx_share, backend, densify = COMPILE_SPECS[name]
    lattices = [lattice(kind, G) for kind in kinds]
    small = lattice("rect-low", SMALL_G)

    def job(label, graph, gates, pairs=None):
        rng = random.Random(derive_seed(seed, name, label))
        circ = random_pair_circuit(graph.node_count, gates, rng, cx_share, pairs)
        return Job(label, backend, circ, ir.Placement.identity(graph.node_count), graph, densify)

    compile_jobs = [
        job(f"{kind}-{i}", graph, k)
        for kind, graph in zip(kinds, lattices)
        for i in range(per_lattice)
    ]
    neighbours = [(u, v) for u, v, _ in small.edges]
    verify_jobs = [job(f"small-{i}", small, SMALL_K, neighbours) for i in range(SMALL_CIRCUITS)]
    warmup = [job(f"warmup-{kind}", graph, 16) for kind, graph in zip(kinds, lattices)]
    return Workload(compile_jobs, verify_jobs, backend, warmup)


def _build_corpus(seed: int) -> Workload:
    """Criterion-9 shaped circuits (3-6 qubits, 4-20 layers) on rect-low
    g = 2 with round-robin placement.

    flow-greedy and steiner compile the whole corpus in every pass; their
    outputs on the verified shapes, plus flow-exact's where k <= 10, get
    verdicts.  Verdicts cost about a second each, which limits how many
    circuits a run can verify.  flow-exact compiles once, in set-up: its
    branch and bound takes from 1 ms to seconds depending on the circuit,
    which no total over a run's circuits could average into a steady
    throughput."""
    graph = lattice("rect-low", 2)
    rng = random.Random(derive_seed(seed, "verify-corpus"))

    def jobs(tag, shapes, exact, repeats=1):
        out = []
        for i, (n, layers) in enumerate(shapes):
            circ = random_clifford_circuit(n, layers, rng)
            place = ir.Placement.round_robin(n, graph.node_count)
            backends = ["flow-greedy", "steiner"]
            if exact and ir.extract_commodities(circ, place).k <= EXACT_MAX_K:
                backends.append("flow-exact")
            out.extend(Job(f"{tag}{i}-n{n}-l{layers}-{b}", b, circ, place, graph, repeats=repeats)
                       for b in backends)
        return out

    compile_jobs = jobs("c", CORPUS_SHAPES, exact=False, repeats=CORPUS_REPEATS)
    verify_jobs = jobs("v", VERIFIED_SHAPES, exact=True)
    return Workload(compile_jobs, verify_jobs, "flow-greedy")


def verdicts(workload: Workload, outputs: list[Output], seed: int) -> list[Verdict]:
    """Positive checks for every verified output, plus drop_frame negatives."""
    out = []
    for job, o in zip(workload.verify_jobs, outputs):
        negatives = (False, True) if job.backend == workload.negative_backend else (False,)
        for drop in negatives:
            label = f"{job.label}{'-dropped' if drop else ''}"
            out.append(Verdict(label, o.extended, job.circuit, drop,
                               expected_verdict(o.extended, drop), derive_seed(seed, "verdict", label)))
    return out
