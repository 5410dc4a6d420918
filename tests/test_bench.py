import gc
import random
import re

import pytest

from distqc.bench import (
    BenchConfig,
    compile_backend,
    gen_hardest_fanin,
    gen_random_cz_circuit,
    instance_seed,
    run_bench,
)
from distqc.circuit import Placement, extract_commodities, validate_layers
from distqc.flow import compile_circuit_flow, metrics
from distqc.netmodel import gen_hex, gen_rect_low
from distqc.steiner import compile_circuit_steiner


class TestRandomCzGenerator:
    def test_zero_gates(self):
        c = gen_random_cz_circuit(4, 0, random.Random(0))
        assert c.layers == () and c.num_qubits == 4

    def test_large_sample_valid_layers(self):
        c = gen_random_cz_circuit(49, 256, random.Random(1))
        assert len(c.all_gates()) == 256
        assert validate_layers(c) is None

    def test_fixed_seed_byte_identical(self):
        a = gen_random_cz_circuit(9, 40, random.Random(7)).dumps()
        b = gen_random_cz_circuit(9, 40, random.Random(7)).dumps()
        assert a == b

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            gen_random_cz_circuit(1, 3, random.Random(0))


class TestHardestFanIn:
    @pytest.mark.parametrize("n,layers,k", [(5, 4, 10), (2, 1, 1), (8, 7, 28)])
    def test_shape(self, n, layers, k):
        c = gen_hardest_fanin(n)
        assert len(c.layers) == layers
        cs = extract_commodities(c, Placement.identity(n))
        assert cs.k == k

    def test_layer_structure(self):
        c = gen_hardest_fanin(4)
        g0 = c.layers[0][0]
        assert g0.kind == "fanin" and g0.hub == 0 and g0.spokes == (1, 2, 3)


class TestRunBench:
    def test_row_cardinality(self):
        cfg = BenchConfig(
            topologies=("rect-low",),
            g_values=(2, 3),
            sizes=(16,),
            samples=3,
            backends=("flow-greedy", "steiner"),
            seed=5,
            timing=False,
        )
        records = run_bench(cfg)
        assert len(records) == 2 * 1 * 3 * 2

    def test_rows_sorted_by_config_order(self):
        cfg = BenchConfig(
            topologies=("rect-low", "hex"),
            g_values=(2,),
            sizes=(8,),
            samples=2,
            backends=("flow-greedy",),
            seed=6,
            timing=False,
        )
        records = run_bench(cfg)
        assert [r.topology for r in records] == ["rect-low"] * 2 + ["hex"] * 2

    def test_deterministic_without_timing(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_bench(
                BenchConfig(
                    topologies=("rect-low",),
                    g_values=(2,),
                    sizes=(12,),
                    samples=2,
                    backends=("flow-greedy", "steiner"),
                    seed=7,
                    out=str(out),
                    timing=False,
                )
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_instance_seed_stable(self):
        assert instance_seed(0, "hex", 3, 64, 1) == instance_seed(0, "hex", 3, 64, 1)
        assert instance_seed(0, "hex", 3, 64, 1) != instance_seed(0, "hex", 3, 64, 2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(topologies=("moebius",))
        with pytest.raises(ValueError):
            BenchConfig(backends=("simulated-annealing",))
        msg = (
            "flow-exact cell rect-high g=5 size 4: exact solver limited to "
            "10 commodities on 25 nodes (got k=4, nodes=36)"
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(msg)}$"):
            BenchConfig(topologies=("rect-high",), g_values=(5,), sizes=(4,), backends=("flow-exact",))
        BenchConfig(topologies=("rect-high",), g_values=(5,), sizes=(64,), backends=("flow-greedy",))

    def test_exact_backend_small_instance(self):
        cfg = BenchConfig(
            topologies=("rect-low",),
            g_values=(2,),
            sizes=(4,),
            samples=1,
            backends=("flow-exact", "flow-greedy"),
            seed=9,
            timing=False,
        )
        exact, greedy = run_bench(cfg)
        assert exact.e_depth <= greedy.e_depth


class TestCompileBackend:
    @pytest.mark.parametrize("backend", ["flow-exact", "flow-greedy"])
    def test_flow_figures_equal_schedule_metrics(self, backend):
        graph = gen_hex(2)
        size = 4 if backend == "flow-exact" else 64
        for seed in range(3):
            circ = gen_random_cz_circuit(graph.node_count, size, random.Random(seed))
            ext, sched = compile_backend(backend, circ, Placement.identity(graph.node_count), graph)
            m = metrics(sched)
            assert (sched.horizon, ext.e_count) == (m.e_depth, m.e_count)

    @pytest.mark.parametrize(
        "backend,size", [("flow-greedy", 64), ("flow-exact", 6), ("steiner", 64)]
    )
    def test_leaves_no_cyclic_garbage(self, backend, size):
        # pausing the collector in the compile entries holds no memory only
        # while no compile leaves a reference cycle; steiner densifies here
        graph = gen_rect_low(2)
        placement = Placement.identity(graph.node_count)
        circ = gen_random_cz_circuit(graph.node_count, size, random.Random(3))
        compile_backend(backend, circ, placement, graph)  # fills the graph's caches
        gc.collect()
        gc.disable()
        try:
            ext, sched = compile_backend(backend, circ, placement, graph)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert ext.e_count > 0 and sched.horizon > 0

    @pytest.mark.parametrize("entry", [compile_circuit_flow, compile_circuit_steiner])
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("processor", [0, 99])  # 99 is outside the graph
    def test_compile_restores_collector_state(self, entry, enabled, processor):
        graph = gen_rect_low(2)
        circ = gen_random_cz_circuit(graph.node_count, 8, random.Random(4))
        placement = Placement((processor,) + tuple(range(1, graph.node_count)))
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if processor < graph.node_count:
                entry(circ, placement, graph)
            else:
                with pytest.raises(ValueError, match="processor 99"):
                    entry(circ, placement, graph)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: gen_hardest_fanin(1), "need at least two qubits"),
        (lambda: BenchConfig(sizes=(0,)), "sizes and generator factors must be positive"),
        (lambda: compile_backend("nope", gen_hardest_fanin(2), Placement.identity(2), gen_rect_low(1)),
         "unknown backend 'nope'"),
    ],
    ids=["hardest-fanin-1", "size-0", "unknown-backend"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
