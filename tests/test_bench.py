import random

import pytest

from distqc.bench import (
    BenchConfig,
    gen_hardest_fanin,
    gen_random_cz_circuit,
    instance_seed,
    run_bench,
)
from distqc.circuit import Placement, extract_commodities, validate_layers


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
