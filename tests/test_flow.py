import gc
import hashlib
import json
import random
import re

import pytest

from distqc.bench import gen_hardest_fanin, gen_random_cz_circuit
from distqc.circuit import (
    Circuit,
    Commodity,
    Placement,
    cx,
    cz,
    extract_commodities,
)
from distqc.flow import (
    FlowSchedule,
    InstanceTooLarge,
    Violation,
    check_feasible,
    compile_circuit_flow,
    iterative_greedy,
    metrics,
    quickest_flow,
    solve_mcf_exact,
)
from distqc.netmodel import QuotientGraph, gen_hex, gen_rect_high, gen_rect_low
from oracles import (
    brute_min_flow,
    commodity_set,
    brute_quickest,
    random_clifford_circuit,
    random_commodity_set,
    random_connected_graph,
    reference_iterative_greedy,
)

EDGE = QuotientGraph(2, ((0, 1, 1),))
EDGE2 = QuotientGraph(2, ((0, 1, 2),))


# both greedy pins were taken when greedy first bounded detours and took
# ready commodities in critical-path order, and their schedules equal the
# reference greedy's (``oracles.reference_iterative_greedy``)
GREEDY_PINNED_SHA256 = "6fb8476dfe679498cd7aa4b59b8a58be96a4574969d1486d63c6e0048e7045eb"
GREEDY_PAPER_SCALE_SHA256 = "12b7b9ed4089bf86292e76738a4bddaefef425a8b3f851e327fbfc0906bdf2ad"
# taken before solve_mcf_exact bounded each commodity's step from above
QUICKEST_PINNED_SHA256 = "edbd4e0ec42744284ee3c873ce5421ef9437b2e26b6b96e4937f0894b421cf13"


def random_pair_circuit(n, k, cx_share, rng):
    """k gates on random qubit pairs, CX with probability cx_share, else CZ,
    each in the first layer after the last use of either operand."""
    layers, last = [], {}
    for _ in range(k):
        a, b = rng.sample(range(n), 2)
        gate = cx(a, b) if rng.random() < cx_share else cz(a, b)
        at = max(last.get(a, -1), last.get(b, -1)) + 1
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        last[a] = last[b] = at
    return Circuit.from_layers(n, layers)


def simple_cs(pairs, prec=(), qpar=()):
    comms = [Commodity(s, t, i, (1,), cz(0, 1)) for i, (s, t) in enumerate(pairs)]
    return commodity_set(comms, prec, (frozenset(p) for p in qpar))


class TestCheckFeasible:
    def test_quasi_parallel_pair_same_step_ok(self):
        cs = simple_cs([(0, 1), (0, 1)], prec=[(0, 1)], qpar=[(0, 1)])
        sched = FlowSchedule(1, (1, 1), ((0, 1), (0, 1)))
        assert check_feasible(sched, EDGE2, cs) is None

    def test_same_pair_without_qpar_violates_c5(self):
        cs = simple_cs([(0, 1), (0, 1)], prec=[(0, 1)])
        sched = FlowSchedule(1, (1, 1), ((0, 1), (0, 1)))
        v = check_feasible(sched, EDGE2, cs)
        assert v is not None and v.constraint == "c5"

    def test_capacity_violation(self):
        cs = simple_cs([(0, 1), (0, 1)])
        sched = FlowSchedule(1, (1, 1), ((0, 1), (0, 1)))
        v = check_feasible(sched, EDGE, cs)
        assert v is not None and v.constraint == "c3"

    def test_capacity_violation_names_the_lowest_edge_and_step(self):
        # commodity order overloads ((1, 2), 2) first, then ((0, 1), 3) and
        # ((0, 1), 1); the lowest (edge, step) pair is reported
        line = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
        cs = simple_cs([(1, 2), (1, 2), (0, 1), (0, 1), (1, 0), (1, 0), (0, 2)])
        sched = FlowSchedule(3, (2, 2, 3, 3, 1, 1, 3), ((1, 2), (1, 2), (0, 1), (0, 1), (1, 0), (1, 0), (0, 1, 2)))
        assert check_feasible(sched, line, cs) == Violation("c3", edge=(0, 1), step=1, message="2 > capacity 1")
        # the report counts every use of the pair, not just the first excess one
        one_at_1 = FlowSchedule(3, (2, 2, 3, 3, 3, 1, 3), sched.paths)
        assert check_feasible(one_at_1, line, cs) == Violation("c3", edge=(0, 1), step=3, message="4 > capacity 1")

    def test_off_lattice_link_is_c1(self):
        line = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
        cs = simple_cs([(1, 2), (1, 2), (2, 0)])
        # the off-lattice link of the last commodity outranks the overload before it
        sched = FlowSchedule(1, (1, 1, 1), ((1, 2), (1, 2), (2, 0)))
        v = check_feasible(sched, line, cs)
        assert (v.constraint, v.commodity, v.edge) == ("c1", 2, (2, 0))

    def test_c6_violated_when_predecessor_later(self):
        cs = simple_cs([(0, 1), (0, 1)], prec=[(0, 1)], qpar=[(0, 1)])
        sched = FlowSchedule(2, (2, 1), ((0, 1), (0, 1)))
        v = check_feasible(sched, EDGE2, cs)
        assert v is not None and v.constraint == "c6"

    def test_wrong_endpoints(self):
        cs = simple_cs([(0, 1)])
        sched = FlowSchedule(1, (1,), ((1, 0),))
        v = check_feasible(sched, EDGE, cs)
        assert v is not None and v.constraint == "c2"

    def test_nonsimple_path(self):
        g = QuotientGraph(3, ((0, 1, 2), (1, 2, 2), (0, 2, 2)))
        cs = simple_cs([(0, 2)])
        sched = FlowSchedule(1, (1,), ((0, 1, 0, 2),))
        v = check_feasible(sched, g, cs)
        assert v is not None and v.constraint == "simple"


class TestExactSolver:
    def test_single_adjacent_commodity(self):
        cs = simple_cs([(0, 1)])
        sched = solve_mcf_exact(EDGE, cs, 1)
        assert sched is not None
        assert metrics(sched) == type(metrics(sched))(1, 1)

    def test_serial_chain_on_one_edge(self):
        cs = simple_cs([(0, 1)] * 4)
        assert solve_mcf_exact(EDGE, cs, 3) is None
        sched = solve_mcf_exact(EDGE, cs, 4)
        assert sched is not None and sorted(sched.steps) == [1, 2, 3, 4]

    def test_infeasible_when_capacity_and_horizon_tight(self):
        cs = simple_cs([(0, 1), (0, 1)])
        assert solve_mcf_exact(EDGE, cs, 1) is None

    def test_size_guard(self):
        cs = simple_cs([(0, 1)] * 11)
        with pytest.raises(InstanceTooLarge):
            solve_mcf_exact(EDGE, cs, 11)

    def test_minimizes_flow_not_just_feasibility(self):
        # triangle with a long way around: solver must take the direct edge
        g = QuotientGraph(3, ((0, 1, 1), (0, 2, 1), (1, 2, 1)))
        cs = simple_cs([(0, 1)])
        sched = solve_mcf_exact(g, cs, 1)
        assert sched is not None and metrics(sched).e_count == 1

    def test_leaves_no_reference_cycle(self):
        g = gen_rect_low(2)
        cs = extract_commodities(gen_hardest_fanin(4), Placement.identity(4))
        solve_mcf_exact(g, cs, cs.k)  # fills the graph's and the order's caches
        gc.collect()
        gc.disable()
        try:
            sched = solve_mcf_exact(g, cs, cs.k)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert sched is not None

    def test_matches_enumeration_oracle_small(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 5), max_cap=2)
            cs = random_commodity_set(rng, g, rng.randint(1, 4))
            d = rng.randint(1, 4)
            want = brute_min_flow(g, cs, d)
            sched = solve_mcf_exact(g, cs, d)
            if want is None:
                assert sched is None
            else:
                assert sched is not None
                assert metrics(sched).e_count == want
                assert check_feasible(sched, g, cs) is None


def logging_subsolver(log):
    """The exact sub-solver, recording each horizon it is asked for."""

    def solve(q, cs, d):
        log.append(d)
        return solve_mcf_exact(q, cs, d)

    return solve


class TestQuickestFlow:
    def test_single_commodity(self):
        cs = simple_cs([(0, 1)])
        log = []
        sched = quickest_flow(EDGE, cs, logging_subsolver(log))
        assert metrics(sched).e_depth == 1
        assert log == [1]

    def test_serial_chain_depth_k(self):
        cs = simple_cs([(0, 1)] * 4)
        sched = quickest_flow(EDGE, cs)
        assert metrics(sched).e_depth == 4

    def test_disjoint_adjacent_cz_layer_depth_one(self):
        g = gen_rect_low(3)
        circ = Circuit.from_layers(9, [[cz(0, 1), cz(3, 4), cz(7, 8)]])
        cs = extract_commodities(circ, Placement.identity(9))
        sched = quickest_flow(g, cs)
        assert metrics(sched).e_depth == 1

    def test_scan_asks_each_horizon_once(self):
        cs = simple_cs([(0, 1)] * 8)
        log = []
        sched = quickest_flow(EDGE2, cs, logging_subsolver(log))
        assert log == [1, 2, 3, 4]
        assert sched.horizon == max(sched.steps) == 4

    def test_scan_starts_at_the_chain_bound(self):
        # 0 < 1 < 2 needs three steps; on one link the two free commodities
        # need two more
        for pairs, want in (([(0, 1)] * 3, [3]), ([(0, 1)] * 5, [3, 4, 5])):
            cs = simple_cs(pairs, prec=[(0, 1), (1, 2)])
            assert max(cs.tails) + 1 == 3
            log = []
            sched = quickest_flow(EDGE, cs, logging_subsolver(log))
            assert log == want
            assert sched.horizon == max(sched.steps) == want[-1]

    def test_matches_brute_quickest(self):
        rng = random.Random(17)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 5), max_cap=2)
            cs = random_commodity_set(rng, g, rng.randint(1, 4))
            want = brute_quickest(g, cs)
            sched = quickest_flow(g, cs)
            m = metrics(sched)
            assert want is not None
            assert (m.e_depth, m.e_count) == want

    def test_empty_instance(self):
        cs = simple_cs([])
        sched = quickest_flow(EDGE, cs)
        assert metrics(sched) == type(metrics(sched))(0, 0)

    def test_schedules_pinned(self):
        # criterion-9 shaped circuits (3-6 qubits, up to 12 layers) with
        # k <= 10 on rect-low and hex at g = 2: a faster branch and bound
        # must find the same first optimum
        docs = []
        for make in (gen_rect_low, gen_hex):
            g = make(2)
            rng = random.Random(f"quickest:{make.__name__}")
            for _ in range(20):
                n = rng.randint(3, 6)
                circ = random_clifford_circuit(n, 12, rng)
                cs = extract_commodities(circ, Placement.round_robin(n, g.node_count))
                if cs.k <= 10:
                    docs.append(quickest_flow(g, cs).to_json())
        assert len(docs) == 31
        blob = json.dumps(docs, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == QUICKEST_PINNED_SHA256


class TestIterativeGreedy:
    def test_every_schedule_feasible_random(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 7), max_cap=2)
            cs = random_commodity_set(rng, g, rng.randint(0, 8))
            sched = iterative_greedy(g, cs)
            assert check_feasible(sched, g, cs) is None
            assert metrics(sched).e_depth <= max(cs.k, 0)

    def test_dominated_by_exact(self):
        rng = random.Random(23)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 5), max_cap=2)
            cs = random_commodity_set(rng, g, rng.randint(1, 4))
            greedy_d = metrics(iterative_greedy(g, cs)).e_depth
            exact_d = metrics(quickest_flow(g, cs)).e_depth
            assert greedy_d >= exact_d

    def test_no_qpar_chain_strictly_increases(self):
        cs = simple_cs([(0, 1)] * 3, prec=[(0, 1), (1, 2)])
        sched = iterative_greedy(EDGE2, cs)
        assert sched.steps[0] < sched.steps[1] < sched.steps[2]

    def test_qpar_chain_can_share_step(self):
        cs = simple_cs([(0, 1)] * 2, prec=[(0, 1)], qpar=[(0, 1)])
        sched = iterative_greedy(EDGE2, cs)
        assert sched.steps == (1, 1)

    def test_deterministic(self):
        rng = random.Random(29)
        g = random_connected_graph(rng, 6, max_cap=2)
        cs = random_commodity_set(rng, g, 7)
        assert iterative_greedy(g, cs) == iterative_greedy(g, cs)

    def test_cyclic_order_relation_rejected(self):
        # a cycle, and a lone backward pair: each lists a successor at or
        # below its commodity's index, so no index order is topological
        for prec in ([(0, 1), (1, 0)], [(1, 0)]):
            with pytest.raises(ValueError, match=r"commodity 1 lists successors \(0,\), which must ascend above 1"):
                simple_cs([(0, 1)] * 2, prec=prec)

    def test_schedules_pinned(self):
        # k = 256 random two-qubit gates, CZ only and half CX, on hex and
        # rect-high at g = 5: a speed-up of extraction or greedy must leave
        # every schedule byte-identical, the reference greedy's
        docs = []
        for make in (gen_hex, gen_rect_high):
            g = make(5)
            for cx_share in (0.0, 0.5):
                rng = random.Random(f"{make.__name__}:{cx_share}")
                circ = random_pair_circuit(g.node_count, 256, cx_share, rng)
                cs = extract_commodities(circ, Placement.identity(g.node_count))
                sched = iterative_greedy(g, cs)
                assert sched == reference_iterative_greedy(g, cs)
                docs.append(sched.to_json())
        blob = json.dumps(docs, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == GREEDY_PINNED_SHA256

    def test_paper_scale_schedules_pinned(self):
        # k = 1024 at g = 11, the congested regime: most residual searches
        # fail (2860 of 3327 on hex, CZ only; 2018 of them cut off at the
        # detour limit), and the residual's components are labelled 230
        # times, so every rule of the search shapes these schedules
        docs = []
        for make in (gen_hex, gen_rect_high):
            g = make(11)
            for cx_share in (0.0, 0.5):
                rng = random.Random(f"paper:{make.__name__}:{cx_share}")
                circ = random_pair_circuit(g.node_count, 1024, cx_share, rng)
                cs = extract_commodities(circ, Placement.identity(g.node_count))
                docs.append(iterative_greedy(g, cs).to_json())
        assert [d["d"] for d in docs] == [132, 147, 57, 59]
        blob = json.dumps(docs, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == GREEDY_PAPER_SCALE_SHA256


class TestMetrics:
    def test_empty(self):
        m = metrics(FlowSchedule(0, (), ()))
        assert (m.e_depth, m.e_count) == (0, 0)

    def test_single_long_path(self):
        m = metrics(FlowSchedule(1, (1,), ((0, 1, 2, 3),)))
        assert (m.e_depth, m.e_count) == (1, 3)

    def test_hardest_fanin_lower_bound_via_flow(self):
        # pairwise interaction count is a lower bound on links consumed;
        # the tree backend attains it while the flow backend can only match
        from distqc.steiner import compile_circuit_steiner

        n = 5
        g = QuotientGraph(n, tuple((i, i + 1, 1) for i in range(n - 1)))
        circ = gen_hardest_fanin(n)
        cs = extract_commodities(circ, Placement.identity(n))
        assert cs.k == 10
        sched = iterative_greedy(g, cs)
        assert metrics(sched).e_count >= 10
        ext, _ = compile_circuit_steiner(circ, Placement.identity(n), g)
        assert ext.e_count == 10 <= metrics(sched).e_count


class TestScheduleSerialization:
    def test_json_shape(self):
        sched = FlowSchedule(1, (1,), ((0, 1),))
        assert sched.to_json() == {
            "d": 1,
            "assignments": [{"i": 0, "tau": 1, "path": [[0, 1]]}],
        }


class TestFlowCompileEquivalence:
    def test_rejects_placement_outside_graph(self):
        circ = Circuit.from_layers(3, [[cz(0, 2)]])
        with pytest.raises(ValueError, match="processor 9 of a 9-node graph"):
            compile_circuit_flow(circ, Placement((0, 1, 9)), gen_rect_low(3))

    def test_compiled_circuits_pass_oracle(self):
        rng = random.Random(31)
        from distqc.stabsim import channel_equivalent

        g = gen_rect_low(3)
        for _ in range(4):
            circ = gen_random_cz_circuit(9, 10, rng)
            for mode in ("greedy", "exact"):
                ext, sched, cs = compile_circuit_flow(circ, Placement.identity(9), g, mode)
                assert check_feasible(sched, g, cs) is None
                assert channel_equivalent(ext, circ)


SPLIT = QuotientGraph(4, ((0, 1, 1), (2, 3, 1)))  # two components
ONE_HOP = commodity_set([Commodity(0, 1, 0, (1,), cx(0, 1))], [], [])
NO_PATH = commodity_set([Commodity(0, 2, 0, (1,), cx(0, 1))], [], [])


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda: solve_mcf_exact(EDGE, commodity_set([], [], []), 1), FlowSchedule(0, (), ())),
        (lambda: solve_mcf_exact(EDGE, ONE_HOP, 0), None),
        (lambda: solve_mcf_exact(SPLIT, NO_PATH, 1), None),
        (lambda: quickest_flow(SPLIT, NO_PATH),
         ValueError("no feasible schedule up to horizon k; instance is malformed")),
        (lambda: check_feasible(FlowSchedule(1, (1, 1), ((0, 1), (0, 1))), EDGE, ONE_HOP),
         Violation("demand", message="2 assignments for 1 commodities")),
        (lambda: check_feasible(FlowSchedule(1, (2,), ((0, 1),)), EDGE, ONE_HOP),
         Violation("demand", commodity=0, step=2, message="step outside horizon")),
        (lambda: compile_circuit_flow(Circuit.from_layers(2, [[cx(0, 1)]]), Placement.identity(2), EDGE, "fast"),
         ValueError("unknown flow mode 'fast'")),
    ],
    ids=["exact-k0", "exact-d0", "exact-no-path", "quickest-no-path", "feasible-count",
         "feasible-step-outside-horizon", "compile-unknown-mode"],
)
def test_refusals(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() == expected
