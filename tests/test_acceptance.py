"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including elapsed time against the stated budget.
"""

import random
import statistics
import time

from distqc.bench import (
    BenchConfig,
    gen_hardest_fanin,
    gen_random_cz_circuit,
    instance_seed,
    run_bench,
)
from distqc.circuit import (
    Circuit,
    Placement,
    cx,
    cz,
    extract_commodities,
    pauli,
    yhalf,
)
from distqc.flow import (
    check_feasible,
    compile_circuit_flow,
    iterative_greedy,
    metrics,
    quickest_flow,
    solve_mcf_exact,
)
from distqc.netmodel import (
    QuotientGraph,
    edge_node_ratio,
    gen_hex,
    gen_rect_high,
    gen_rect_low,
)
from distqc.pauli import ONE, PauliFrame, XorExpr
from distqc.pushing import CondPauli, normalize_frame, push_pauli
from distqc.stabsim import (
    StabilizerState,
    canonical_tableau,
    channel_equivalent,
)
from distqc.steiner import (
    SteinerInstance,
    compile_circuit_steiner,
    cz_to_dense_fanin,
    steiner_tree_approx,
    steiner_tree_exact,
)
from distqc.telegate import ExtendedCircuit, expand_telegate_cx
from oracles import (
    brute_min_flow,
    random_clifford_circuit,
    random_clifford_prefix,
    random_commodity_set,
    random_connected_graph,
)


def criterion(num: int, desc: str, limit: float):
    def wrap(fn):
        def runner():
            start = time.perf_counter()
            try:
                fn()
            except Exception:
                print(f"\n[FAIL] criterion {num:2d}: {desc}")
                raise
            elapsed = time.perf_counter() - start
            if elapsed >= limit:
                print(f"\n[FAIL] criterion {num:2d}: {desc} "
                      f"(took {elapsed:.2f}s, budget {limit:g}s)")
                raise AssertionError(f"criterion {num} over time budget")
            print(f"\n[PASS] criterion {num:2d}: {desc} ({elapsed:.2f}s < {limit:g}s)")

        runner.__name__ = fn.__name__
        return runner

    return wrap


@criterion(1, "topology generators reproduce the reported g=11 sizes", 1.0)
def test_criterion_01_topology_sizes():
    hexa = gen_hex(11)
    low = gen_rect_low(11)
    high = gen_rect_high(11)
    assert (hexa.node_count, hexa.edge_count) == (96, 131)
    assert (low.node_count, low.edge_count) == (49, 84)
    assert (high.node_count, high.edge_count) == (144, 264)


@criterion(2, "edge/node ratios at g=50 approach 2 (rect) and 3/2 (hex)", 1.0)
def test_criterion_02_ratio_limits():
    assert abs(float(edge_node_ratio(gen_rect_high(50))) - 2.0) < 0.1
    assert abs(float(edge_node_ratio(gen_rect_low(50))) - 2.0) < 0.1
    assert abs(float(edge_node_ratio(gen_hex(50))) - 1.5) < 0.1


@criterion(3, "telegates over paths 1..6 run at depth 4 with XOR-chain corrections", 1.0)
def test_criterion_03_depth_four_telegates():
    for hops in range(1, 7):
        frag = expand_telegate_cx(0, hops, list(range(hops + 1)))
        slices = frag.time_slices()
        # three quantum slices (preparation, injection, simultaneous
        # measurements) plus the terminal classical correction slot = 4
        assert len(slices) == 3
        assert frag.depth() == 4
        assert all(g.kind == "meas" for g in slices[-1])
        assert sum(1 for g in frag.gates if g.kind == "meas") == 2 * hops
        # one Z-basis and one X-basis outcome per Bell pair; the control's Z
        # correction chains all X-basis bits, the target's X correction all
        # Z-basis bits, and the two chains interleave as alternating parity
        # classes of the bit sequence
        z_bits = {g.bit for g in frag.gates if g.kind == "meas" and g.basis == "Z"}
        x_bits = {g.bit for g in frag.gates if g.kind == "meas" and g.basis == "X"}
        assert len(z_bits) == len(x_bits) == hops
        assert frag.frame.z_of(0) == XorExpr(frozenset(x_bits))
        assert frag.frame.x_of(1) == XorExpr(frozenset(z_bits))
        assert z_bits == set(range(1, 2 * hops, 2))
        assert x_bits == set(range(2, 2 * hops + 1, 2))


@criterion(4, "hardest fan-in on an n-node path compiles to C(n,2) links in n-1 rounds", 5.0)
def test_criterion_04_hardest_fanin_optimality():
    for n in range(3, 9):
        graph = QuotientGraph(n, tuple((i, i + 1, 1) for i in range(n - 1)))
        circ = gen_hardest_fanin(n)
        ext, sched = compile_circuit_steiner(circ, Placement.identity(n), graph)
        assert ext.e_count == n * (n - 1) // 2
        assert sched.horizon == n - 1


@criterion(5, "dense fan-in reduction of complete CZ circuits stays within n-1 layers", 1.0)
def test_criterion_05_cz_densification_bound():
    for n in range(3, 11):
        circ = Circuit.from_layers(
            n, [[cz(i, j)] for i in range(n) for j in range(i + 1, n)]
        )
        fl = cz_to_dense_fanin(circ)
        assert len(fl.layers) <= n - 1
        counts = fl.cz_multiset()
        assert counts == {(i, j): 1 for i in range(n) for j in range(i + 1, n)}


@criterion(6, "exact solver matches exhaustive enumeration on 200 random instances", 60.0)
def test_criterion_06_exact_solver_oracle():
    rng = random.Random(606)
    for i in range(200):
        g = random_connected_graph(rng, rng.randint(2, 5), max_cap=2)
        cs = random_commodity_set(rng, g, rng.randint(1, 4))
        d = rng.randint(1, 4)
        want = brute_min_flow(g, cs, d)
        sched = solve_mcf_exact(g, cs, d)
        if want is None:
            assert sched is None, f"instance {i}: solver found a schedule the oracle rules out"
        else:
            assert sched is not None, f"instance {i}: solver missed a feasible schedule"
            assert metrics(sched).e_count == want, f"instance {i}: flow differs from oracle"
            assert check_feasible(sched, g, cs) is None


@criterion(7, "greedy schedules are always feasible and never beat the exact horizon", 120.0)
def test_criterion_07_greedy_soundness_dominance():
    rng = random.Random(707)
    dominance_checked = 0
    for i in range(500):
        g = random_connected_graph(rng, rng.randint(2, 7), max_cap=2)
        cs = random_commodity_set(rng, g, rng.randint(0, 8))
        sched = iterative_greedy(g, cs)
        assert check_feasible(sched, g, cs) is None, f"instance {i}"
        if 0 < cs.k <= 4 and g.node_count <= 5:
            exact = quickest_flow(g, cs)
            assert metrics(sched).e_depth >= metrics(exact).e_depth, f"instance {i}"
            dominance_checked += 1
    assert dominance_checked >= 100


@criterion(8, "rectangle lattice beats hexagon on mean depth in every (g, size) cell", 600.0)
def test_criterion_08_lattice_trend():
    from distqc.netmodel import GENERATORS

    def mean_depth(kind: str, g: int, size: int) -> float:
        graph = GENERATORS[kind](g)
        depths = []
        for sample in range(10):
            rng = random.Random(instance_seed(2026, kind, g, size, sample))
            circ = gen_random_cz_circuit(graph.node_count, size, rng)
            cs = extract_commodities(circ, Placement.identity(graph.node_count))
            sched = iterative_greedy(graph, cs)
            assert check_feasible(sched, graph, cs) is None
            depths.append(metrics(sched).e_depth)
        return statistics.mean(depths)

    for g in (2, 3, 4, 5):
        for size in (64, 128):
            rect = mean_depth("rect-low", g, size)
            hexa = mean_depth("hex", g, size)
            assert rect <= hexa, f"cell g={g} size={size}: rect {rect} > hex {hexa}"


@criterion(9, "compiled circuits are channel-equivalent; dropped corrections are caught", 600.0)
def test_criterion_09_channel_equivalence():
    lattice = gen_rect_low(2)  # the 6-node rectangle lattice
    assert lattice.node_count == 6
    rng = random.Random(909)
    negatives_detected = 0
    for i in range(100):
        n = rng.randint(3, 6)
        circ = random_clifford_circuit(n, 20, rng)
        place = Placement.round_robin(n, lattice.node_count)
        ext_flow, sched, cs = compile_circuit_flow(circ, place, lattice, "greedy")
        assert channel_equivalent(
            ext_flow, circ, trials=20, branches=10, rng=random.Random(10_000 + i)
        ), f"flow-greedy circuit {i}"
        ext_tree, _ = compile_circuit_steiner(circ, place, lattice)
        assert channel_equivalent(
            ext_tree, circ, trials=20, branches=10, rng=random.Random(20_000 + i)
        ), f"steiner circuit {i}"
        if cs.k <= 10:  # exact solver size guard
            ext_exact, _, _ = compile_circuit_flow(circ, place, lattice, "exact")
            assert channel_equivalent(
                ext_exact, circ, trials=20, branches=10, rng=random.Random(30_000 + i)
            ), f"flow-exact circuit {i}"
        if not channel_equivalent(
            ext_flow, circ, trials=20, branches=10, rng=random.Random(40_000 + i),
            drop_frame=True,
        ):
            negatives_detected += 1
    assert negatives_detected >= 99, f"negative control caught only {negatives_detected}/100"


@criterion(10, "all 8 push rules are simulator-exact and normalization clears inline Paulis", 30.0)
def test_criterion_10_pushing_correctness():
    B = XorExpr.of(1)
    rules = [
        (cx(0, 1), CondPauli(0, "X", B)),
        (cx(0, 1), CondPauli(1, "Z", B)),
        (cx(0, 1), CondPauli(1, "X", B)),
        (cx(0, 1), CondPauli(0, "Z", B)),
        (cz(0, 1), CondPauli(0, "X", B)),
        (cz(0, 1), CondPauli(0, "Z", B)),
        (yhalf(0), CondPauli(0, "X", B)),
        (yhalf(0), CondPauli(0, "Z", B)),
    ]
    for gate, before in rules:
        n = max(gate.qubits) + 1
        moved = push_pauli(gate, before)
        for seed in range(50):
            rng = random.Random(seed)
            prefix = random_clifford_prefix(n, rng)
            lhs, rhs = StabilizerState(n), StabilizerState(n)
            for g in prefix:
                lhs.apply_gate(g)
                rhs.apply_gate(g)
            bits = {1: 1}
            lhs.apply_gate(pauli(before.qubit, before.axis, before.expr), bits)
            lhs.apply_gate(gate, bits)
            rhs.apply_gate(gate, bits)
            for p in moved:
                rhs.apply_gate(pauli(p.qubit, p.axis, p.expr), bits)
            assert canonical_tableau(lhs) == canonical_tableau(rhs)
    # after normalization no conditioned Pauli precedes any quantum operation
    rng = random.Random(1010)
    for _ in range(20):
        n = 4
        gates = []
        for _ in range(12):
            kind = rng.choice(["cx", "cz", "yhalf", "pauli"])
            if kind == "pauli":
                gates.append(pauli(rng.randrange(n), rng.choice("XZ"), ONE))
            elif kind == "yhalf":
                gates.append(yhalf(rng.randrange(n)))
            else:
                a, b = rng.sample(range(n), 2)
                gates.append(cx(a, b) if kind == "cx" else cz(a, b))
        out = normalize_frame(ExtendedCircuit(n, n, tuple(gates), PauliFrame()))
        assert all(g.kind != "pauli" for g in out.gates)


@criterion(11, "Steiner approximation stays within twice the exact optimum", 60.0)
def test_criterion_11_steiner_approximation():
    rng = random.Random(808)
    graphs = [gen_rect_low(4), gen_hex(3), gen_rect_high(3), gen_rect_low(5), gen_hex(4)]
    for i in range(100):
        g = graphs[i % len(graphs)]
        nt = rng.randint(2, 8)
        terms = frozenset(rng.sample(range(g.node_count), nt))
        exact_w = len(steiner_tree_exact(SteinerInstance(g, terms)))
        approx_w = len(steiner_tree_approx(SteinerInstance(g, terms)))
        assert exact_w <= approx_w <= 2 * exact_w, f"instance {i}"


@criterion(12, "benchmark runs are byte-identical under a fixed seed", 240.0)
def test_criterion_12_bench_determinism(tmp_path_factory=None):
    import tempfile
    from pathlib import Path

    base = dict(
        topologies=("rect-low", "hex"),
        g_values=(2, 3),
        sizes=(16,),
        samples=3,
        backends=("flow-greedy", "steiner"),
        seed=1234,
    )
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        run_bench(BenchConfig(**base, out=str(a), timing=False))
        run_bench(BenchConfig(**base, out=str(b), timing=False))
        assert a.read_bytes() == b.read_bytes()
        # with timing enabled only the wall-time column may differ
        c, d = Path(tmp) / "c.csv", Path(tmp) / "d.csv"
        run_bench(BenchConfig(**base, out=str(c), timing=True))
        run_bench(BenchConfig(**base, out=str(d), timing=True))

        def strip(p):
            rows = p.read_text().strip().splitlines()
            return [",".join(x.split(",")[:8] + x.split(",")[9:]) for x in rows]

        assert strip(c) == strip(d)
