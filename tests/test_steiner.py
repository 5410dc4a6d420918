import gc
import hashlib
import json
import random

import numpy as np
import pytest

from distqc import steiner
from distqc.bench import gen_hardest_fanin, gen_random_cz_circuit
from distqc.circuit import Circuit, Placement, cz, fanin, fanout, validate_layers
from distqc.netmodel import EXACT_MAX_TERMINALS, QuotientGraph, gen_hex, gen_rect_high, gen_rect_low
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
from distqc.telegate import InvalidPathError
from oracles import (
    brute_steiner_weight,
    random_clifford_prefix,
    random_connected_graph,
    reference_steiner_tree_exact,
)

# sha256 of the schedule of one densified k = 256 random-CZ circuit on
# rect-high g = 11, taken from the scalar Dreyfus-Wagner program with a heap
# Dijkstra grow step (``oracles.reference_steiner_tree_exact``)
DENSE_TREES_SHA256 = "f75c3f0aa359015f9fcf0ba0ddc3b3f571d308bdc6b0541d2a8ea5d738691ce1"


def tree_weight(edges):
    return len(edges)


def path_graph(n):
    return QuotientGraph(n, tuple((i, i + 1, 1) for i in range(n - 1)))


def reference_cases():
    """Random terminal sets of 2-10 on the three lattices at g = 2-11."""
    rng = random.Random(61)
    cases = []
    for make in (gen_rect_low, gen_rect_high, gen_hex):
        for g_factor in (2, 3, 5, 11):
            g = make(g_factor)
            for _ in range(12):
                nt = rng.randint(2, min(8, g.node_count))
                cases.append((g, rng.sample(range(g.node_count), nt)))
        g = make(11)
        cases += [(g, rng.sample(range(g.node_count), nt)) for nt in (9, 10, 10)]
    return cases


class TestExactSteiner:
    def test_three_corners_of_3x3(self):
        g = gen_rect_low(3)
        t = steiner_tree_exact(SteinerInstance(g, frozenset({0, 2, 6})))
        assert tree_weight(t) == 4

    def test_collinear_terminals(self):
        g = path_graph(6)
        t = steiner_tree_exact(SteinerInstance(g, frozenset({1, 3, 5})))
        assert tree_weight(t) == 4  # span length

    def test_two_terminals_shortest_path(self):
        g = gen_rect_low(3)
        t = steiner_tree_exact(SteinerInstance(g, frozenset({0, 8})))
        assert tree_weight(t) == 4

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the DP tables alive until a full collection
        g = gen_rect_high(4)
        inst = SteinerInstance(g, frozenset({0, 7, 13, 21, 24}))
        steiner_tree_exact(inst)  # fills the graph's distance cache
        gc.collect()
        gc.disable()
        try:
            tree = steiner_tree_exact(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert tree_weight(tree) >= 4

    def test_single_terminal(self):
        g = path_graph(3)
        assert steiner_tree_exact(SteinerInstance(g, frozenset({1}))) == frozenset()

    def test_terminal_guard(self):
        g = gen_rect_high(4)
        with pytest.raises(ValueError):
            steiner_tree_exact(SteinerInstance(g, frozenset(range(11))))

    def test_invalid_terminal(self):
        with pytest.raises(ValueError):
            SteinerInstance(path_graph(3), frozenset({5}))

    def test_matches_subset_enumeration_oracle(self):
        rng = random.Random(41)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 8), max_cap=1)
            nt = rng.randint(2, min(5, g.node_count))
            terms = frozenset(rng.sample(range(g.node_count), nt))
            t = steiner_tree_exact(SteinerInstance(g, terms))
            assert tree_weight(t) == brute_steiner_weight(g, set(terms))

    @pytest.mark.parametrize("solve", [steiner_tree_exact, steiner_tree_approx])
    @pytest.mark.parametrize("terms", [{0, 2}, {0, 1, 2}])
    def test_unreachable_terminal_raises(self, solve, terms):
        g = QuotientGraph(4, ((0, 1, 1), (2, 3, 1)))
        with pytest.raises(ValueError, match="no path between 0 and 2"):
            solve(SteinerInstance(g, frozenset(terms)))

    def test_matches_reference_program(self):
        # grids have many tied optima, so equal edge sets pin the tie-breaks:
        # first split in order, then the lowest-numbered neighbour
        for g, terms in reference_cases():
            inst = SteinerInstance(g, frozenset(terms))
            assert steiner_tree_exact(inst) == reference_steiner_tree_exact(inst), terms

    def test_wide_distance_type_gives_the_same_trees(self, monkeypatch):
        cases = [SteinerInstance(g, frozenset(terms)) for g, terms in reference_cases()]
        narrow = [steiner_tree_exact(inst) for inst in cases]
        cached = QuotientGraph.distance_matrix
        monkeypatch.setattr(
            QuotientGraph, "distance_matrix", property(lambda q: cached.__get__(q).astype(np.int64))
        )
        assert cases[0].graph.distance_matrix.dtype == np.int64
        assert [steiner_tree_exact(inst) for inst in cases] == narrow

    @pytest.mark.parametrize("side", [0, 1])
    def test_terminals_in_one_of_two_components(self, side):
        # entries through the other component read n, more than any real one
        grid = gen_rect_low(5)
        n = grid.node_count
        tail = tuple((n + i, n + i + 1, 1) for i in range(9))
        g = QuotientGraph(n + 10, grid.edges + tail)
        rng = random.Random(side)
        for _ in range(10):
            nodes = range(n) if side == 0 else range(n, n + 10)
            inst = SteinerInstance(g, frozenset(rng.sample(nodes, rng.randint(2, 8))))
            assert steiner_tree_exact(inst) == reference_steiner_tree_exact(inst)

    def test_long_path_reaches_the_largest_entries(self):
        g = path_graph(300)
        terms = frozenset({0, 1, 2, 3, 150, 151, 296, 297, 298, 299})
        inst = SteinerInstance(g, terms)
        tree = steiner_tree_exact(inst)
        assert tree == reference_steiner_tree_exact(inst)
        assert len(tree) == 299

    @pytest.mark.parametrize("r", range(2, 10))
    def test_level_table_lists_each_mask_once_in_split_order(self, r):
        seen = []
        for p, (masks, subs, others) in enumerate(steiner._levels(r), start=2):
            assert subs.shape == others.shape == (len(masks), 2 ** (p - 1) - 1)
            assert not (masks.flags.writeable or subs.flags.writeable or others.flags.writeable)
            for mask, sub_row, other_row in zip(masks.tolist(), subs, others):
                assert mask.bit_count() == p
                # every proper non-empty submask below its complement, descending
                expected = [s for s in range(mask - 1, 0, -1) if s & ~mask == 0 and s < mask ^ s]
                assert sub_row.tolist() == expected
                assert other_row.tolist() == [mask ^ s for s in expected]
                seen.append(mask)
        assert sorted(seen) == [m for m in range(1 << r) if m.bit_count() >= 2]
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("make", [gen_rect_low, gen_rect_high, gen_hex])
    def test_distance_matrix_is_int16_and_read_only(self, make):
        dist = make(11).distance_matrix
        assert dist.dtype == np.int16
        with pytest.raises(ValueError):
            dist[0, 1] = 0

    def test_distance_matrix_reads_n_between_components(self):
        g = QuotientGraph(5, ((0, 1, 1), (2, 3, 1)))
        assert g.distance_matrix.tolist() == [
            [0, 1, 5, 5, 5],
            [1, 0, 5, 5, 5],
            [5, 5, 0, 1, 5],
            [5, 5, 1, 0, 5],
            [5, 5, 5, 5, 0],
        ]

    def test_distance_matrix_widens_past_the_int16_bound(self):
        n = np.iinfo(np.int16).max // EXACT_MAX_TERMINALS
        assert QuotientGraph(n, ()).distance_matrix.dtype == np.int16
        assert QuotientGraph(n + 1, ()).distance_matrix.dtype == np.int64

    def test_dense_rect_high_trees_pinned(self):
        g = gen_rect_high(11)
        circ = gen_random_cz_circuit(g.node_count, 256, random.Random("steiner-pin"))
        dense = cz_to_dense_fanin(circ).to_circuit()
        _, sched = compile_circuit_steiner(dense, Placement.identity(g.node_count), g)
        blob = json.dumps(sched.to_json(), separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == DENSE_TREES_SHA256

    def test_result_is_spanning_tree(self):
        rng = random.Random(43)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 8), max_cap=1)
            terms = frozenset(rng.sample(range(g.node_count), min(3, g.node_count)))
            edges = steiner_tree_exact(SteinerInstance(g, terms))
            nodes = {u for e in edges for u in e} | set(terms)
            if edges:
                assert len(edges) == len(nodes) - 1


class TestApproxSteiner:
    def test_two_terminals_shortest_path(self):
        g = gen_rect_low(3)
        t = steiner_tree_approx(SteinerInstance(g, frozenset({0, 8})))
        assert tree_weight(t) == 4

    def test_all_nodes_of_a_tree_graph(self):
        g = QuotientGraph(5, ((0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 4, 1)))
        t = steiner_tree_approx(SteinerInstance(g, frozenset(range(5))))
        assert tree_weight(t) == 4

    def test_prune_drops_a_non_terminal_leaf(self):
        # Prim's paths 0-10 and 10-14 cross the cycle 5-6-9-10-8-7 in
        # opposite directions, and ties break differently from each end:
        # the breadth-first tree of their union from 0 keeps (5,7) and (7,8),
        # leaving node 8 a non-terminal leaf that the prune pass drops
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 9), (9, 10),
                 (5, 7), (7, 8), (8, 10), (10, 11), (5, 12), (12, 13), (13, 14)]
        g = QuotientGraph(15, tuple(sorted((u, v, 1) for u, v in edges)))
        t = steiner_tree_approx(SteinerInstance(g, frozenset({0, 10, 11, 14})))
        assert sorted(t) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 12),
                             (6, 9), (9, 10), (10, 11), (12, 13), (13, 14)]

    def test_within_factor_two_of_exact(self):
        rng = random.Random(47)
        graphs = [gen_rect_low(4), gen_hex(3), gen_rect_high(3), gen_rect_low(5)]
        for i in range(40):
            g = graphs[i % len(graphs)]
            nt = rng.randint(2, 8)
            terms = frozenset(rng.sample(range(g.node_count), nt))
            exact_w = tree_weight(steiner_tree_exact(SteinerInstance(g, terms)))
            approx_w = tree_weight(steiner_tree_approx(SteinerInstance(g, terms)))
            assert exact_w <= approx_w <= 2 * exact_w


class TestHardestFanIn:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_optimal_on_path(self, n):
        circ = gen_hardest_fanin(n)
        ext, sched = compile_circuit_steiner(circ, Placement.identity(n), path_graph(n))
        assert ext.e_count == n * (n - 1) // 2
        assert sched.horizon == n - 1

    def test_n5_channel_equivalence(self):
        n = 5
        circ = gen_hardest_fanin(n)
        ext, _ = compile_circuit_steiner(circ, Placement.identity(n), path_graph(n))
        assert channel_equivalent(ext, circ)

    def test_n4_on_star_graph(self):
        # hub at the last node: layer trees weigh 3, 2, 1
        star = QuotientGraph(4, ((0, 3, 1), (1, 3, 1), (2, 3, 1)))
        circ = gen_hardest_fanin(4)
        ext, sched = compile_circuit_steiner(circ, Placement.identity(4), star)
        assert ext.e_count == 6

    def test_single_adjacent_fanin(self):
        circ = Circuit.from_layers(2, [[fanin(0, [1])]])
        ext, sched = compile_circuit_steiner(circ, Placement.identity(2), path_graph(2))
        assert ext.e_count == 1 and sched.horizon == 1

    def test_colocated_operands_merge_into_one_terminal(self):
        circ = Circuit.from_layers(3, [[fanin(0, [1, 2])]])
        place = Placement((0, 1, 1))
        ext, sched = compile_circuit_steiner(circ, place, path_graph(2))
        assert ext.e_count == 1
        assert channel_equivalent(ext, circ)

    def test_single_gate_spanning_path_is_one_round(self):
        g = path_graph(4)
        circ = Circuit.from_layers(4, [[fanin(0, [3])]])
        ext, sched = compile_circuit_steiner(circ, Placement.identity(4), g)
        assert sched.horizon == 1 and ext.e_count == 3

    def test_capacity_divides_layer_into_subrounds(self):
        # two qubit-disjoint fan-ins whose trees share capacity-1 edge (1,2)
        g = path_graph(4)
        circ = Circuit.from_layers(4, [[fanin(0, [2]), fanin(1, [3])]])
        assert validate_layers(circ) is None
        ext, sched = compile_circuit_steiner(circ, Placement.identity(4), g)
        assert sched.horizon == 2
        assert sorted(sched.rounds) == [1, 2]
        assert channel_equivalent(ext, circ)


class TestFanOutCompile:
    def test_fanout_equals_mirrored_fanin(self):
        g = path_graph(3)
        circ = Circuit.from_layers(3, [[fanout(0, [1, 2])]])
        ext, sched = compile_circuit_steiner(circ, Placement.identity(3), g)
        assert ext.e_count == 2
        assert channel_equivalent(ext, circ)

    def test_z_basis_fanout_needs_no_mirror(self):
        g = path_graph(3)
        circ = Circuit.from_layers(3, [[fanout(0, [1, 2], basis="Z")]])
        ext, _ = compile_circuit_steiner(circ, Placement.identity(3), g)
        assert not any(gate.kind == "yhalf" for gate in ext.gates)
        assert channel_equivalent(ext, circ)


class TestDensifier:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_complete_graph_needs_n_minus_1_layers(self, n):
        circ = Circuit.from_layers(n, [[cz(i, j)] for i in range(n) for j in range(i + 1, n)])
        fl = cz_to_dense_fanin(circ)
        assert len(fl.layers) == n - 1
        counts = fl.cz_multiset()
        assert len(counts) == n * (n - 1) // 2 and all(v == 1 for v in counts.values())

    def test_single_cz(self):
        fl = cz_to_dense_fanin(Circuit.from_layers(2, [[cz(0, 1)]]))
        assert len(fl.layers) == 1
        (g,) = fl.layers[0]
        assert g.kind == "fanin" and g.basis == "Z" and len(g.spokes) == 1

    def test_random_512_duplicate_free(self):
        # 512 distinct pairs on 49 qubits: single pass, at most n-1 layers
        rng = random.Random(53)
        import itertools

        pairs = rng.sample(list(itertools.combinations(range(49), 2)), 512)
        circ = Circuit.from_layers(49, [[cz(a, b)] for a, b in pairs])
        fl = cz_to_dense_fanin(circ)
        assert len(fl.layers) <= 48
        assert fl.cz_multiset() == {tuple(sorted(p)): 1 for p in pairs}

    def test_repeated_pair_cancels(self):
        circ = Circuit.from_layers(3, [[cz(0, 1)], [cz(0, 1)], [cz(1, 2)]])
        fl = cz_to_dense_fanin(circ)
        assert fl.cz_multiset() == {(1, 2): 1}

    def test_rejects_non_cz(self):
        from distqc.circuit import cx

        with pytest.raises(ValueError):
            cz_to_dense_fanin(Circuit.from_layers(2, [[cx(0, 1)]]))

    def test_densified_equivalent_to_source(self):
        rng = random.Random(59)
        for _ in range(6):
            n = 6
            circ = gen_random_cz_circuit(n, 12, rng)
            fl = cz_to_dense_fanin(circ)
            for seed in range(5):
                r = random.Random(seed)
                prefix = random_clifford_prefix(n, r)
                s1, s2 = StabilizerState(n), StabilizerState(n)
                for g in prefix:
                    s1.apply_gate(g)
                    s2.apply_gate(g)
                for g in circ.all_gates():
                    s1.apply_gate(g)
                for g in fl.to_circuit().all_gates():
                    s2.apply_gate(g)
                assert canonical_tableau(s1) == canonical_tableau(s2)


class TestGeneralSteinerBackend:
    def test_rejects_qubit_twice_in_layer(self):
        with pytest.raises(ValueError, match="layer 0: qubit 1 used twice"):
            compile_circuit_steiner(
                Circuit(3, ((cz(0, 1), cz(1, 2)),)), Placement.identity(3), gen_rect_low(2)
            )

    def test_mixed_circuit(self):
        from distqc.circuit import cx, yhalf

        g = gen_rect_low(3)
        circ = Circuit.from_layers(6, [[cx(0, 5)], [yhalf(2)], [cz(1, 4)], [fanin(0, [2, 3])]])
        ext, sched = compile_circuit_steiner(circ, Placement.identity(6), g)
        assert channel_equivalent(ext, circ)
        assert sched.horizon == 3  # three layers carry remote interactions

    def test_off_lattice_tree_rejected(self, monkeypatch):
        # processors 0 and 4 of the 2 x 3 grid are diagonal, not adjacent
        monkeypatch.setattr(steiner, "steiner_tree", lambda inst: frozenset({(0, 4)}))
        circ = Circuit.from_layers(6, [[cz(0, 4)]])
        with pytest.raises(InvalidPathError, match=r"\(0,4\) missing from graph"):
            compile_circuit_steiner(circ, Placement.identity(6), gen_rect_low(2))


def test_instance_without_terminal_refused():
    with pytest.raises(ValueError, match="^need at least one terminal$"):
        SteinerInstance(gen_rect_low(2), frozenset())
