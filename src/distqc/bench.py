"""Instance generators, the one compile entry, and the benchmark harness.

`gen_random_cz_circuit` and `gen_hardest_fanin` build the benchmark
circuits.  `compile_backend` is the one backend dispatch, shared with the
command line.  `run_bench` reproduces the lattice comparison regime: one
computation qubit per processor (identity placement), random CZ circuits
of a configured gate count, and per-instance compile metrics exported as
CSV.  Fully deterministic under a fixed seed: instance seeds are derived by
hashing the master seed with the instance coordinates, and rows are
written in configuration order.
"""

from __future__ import annotations

import csv
import hashlib
import random
import time
from dataclasses import dataclass, fields
from itertools import product

from .circuit import Circuit, Placement, cz, fanin, validate
from .flow import compile_circuit_flow
from .netmodel import GENERATORS, QuotientGraph
from .steiner import compile_circuit_steiner, cz_to_dense_fanin

BACKENDS = ("flow-exact", "flow-greedy", "steiner")


def gen_random_cz_circuit(n_qubits: int, k_gates: int, rng: random.Random) -> Circuit:
    """k CZ gates on uniformly random qubit pairs, packed into disjoint layers."""
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    layers: list[list] = []
    last: dict[int, int] = {}
    for _ in range(k_gates):
        a, b = rng.sample(range(n_qubits), 2)
        at = max(last.get(a, -1), last.get(b, -1)) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(cz(a, b))
        last[a] = last[b] = at
    return Circuit.from_layers(n_qubits, layers)


def gen_hardest_fanin(n: int) -> Circuit:
    """The densest fan-in circuit: layer j fans qubit j into all later qubits.

    n-1 non-commuting layers, n*(n-1)/2 pairwise interactions in total.
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    layers = [[fanin(j, list(range(j + 1, n)))] for j in range(n - 1)]
    return Circuit.from_layers(n, layers)


@dataclass(frozen=True)
class BenchConfig:
    topologies: tuple[str, ...] = ("rect-low", "hex")
    g_values: tuple[int, ...] = (2, 3)
    sizes: tuple[int, ...] = (64,)
    samples: int = 10
    backends: tuple[str, ...] = ("flow-greedy",)
    seed: int = 0
    out: str | None = None
    timing: bool = True

    def __post_init__(self) -> None:
        for t in self.topologies:
            if t not in GENERATORS:
                raise ValueError(f"unknown topology {t!r}")
        for b in self.backends:
            if b not in BACKENDS:
                raise ValueError(f"unknown backend {b!r}")
        if any(s <= 0 for s in self.sizes) or any(g < 1 for g in self.g_values):
            raise ValueError("sizes and generator factors must be positive")


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the fields, in order, are the CSV columns."""

    topology: str
    g: int
    nodes: int
    edges: int
    k: int
    backend: str
    e_depth: int
    e_count: int
    wall_time_ms: float
    seed: int


CSV_HEADER = [f.name for f in fields(BenchRecord)]


def instance_seed(master: int, topology: str, g: int, size: int, sample: int) -> int:
    key = f"{master}:{topology}:{g}:{size}:{sample}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def compile_backend(
    backend: str,
    circuit: Circuit,
    placement: Placement,
    graph: QuotientGraph,
    cancel_pairs: bool = False,
):
    """Run one backend (it validates the input); returns (extended, schedule),
    whose E-count is `extended.e_count` and E-depth `schedule.horizon`.

    Steiner first densifies a non-empty CZ-only circuit into fan-in layers
    (`cancel_pairs` drops repeated pairs modulo 2); no other input is densified.
    """
    if backend in ("flow-greedy", "flow-exact"):
        ext, sched, _cs = compile_circuit_flow(circuit, placement, graph, backend.removeprefix("flow-"))
    elif backend == "steiner":
        source = circuit
        if circuit.all_gates() and all(g.kind == "cz" for g in circuit.all_gates()):
            validate(circuit, placement, graph)  # densifying drops the layers it checks
            source = cz_to_dense_fanin(circuit, cancel_pairs=cancel_pairs).to_circuit()
        ext, sched = compile_circuit_steiner(source, placement, graph)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return ext, sched


def run_bench(cfg: BenchConfig) -> list[BenchRecord]:
    """Compile every configured instance and return (and optionally write) rows."""
    records: list[BenchRecord] = []
    for topology in cfg.topologies:
        for g in cfg.g_values:
            graph = GENERATORS[topology](g)
            placement = Placement.identity(graph.node_count)
            for size, sample, backend in product(cfg.sizes, range(cfg.samples), cfg.backends):
                seed = instance_seed(cfg.seed, topology, g, size, sample)
                circuit = gen_random_cz_circuit(graph.node_count, size, random.Random(seed))
                start = time.perf_counter()
                ext, sched = compile_backend(backend, circuit, placement, graph)
                elapsed_ms = (time.perf_counter() - start) * 1e3
                wall_ms = round(elapsed_ms, 3) if cfg.timing else 0.0
                records.append(
                    BenchRecord(
                        topology, g, graph.node_count, graph.edge_count, size, backend,
                        sched.horizon, ext.e_count, wall_ms, seed,
                    )
                )
    if cfg.out:
        write_csv(cfg.out, records)
    return records


def write_csv(path: str, records: list[BenchRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(getattr(rec, name) for name in CSV_HEADER)
