import json
import random
import re
from fractions import Fraction
from functools import partial

import networkx as nx
import pytest

from distqc.bench import gen_random_cz_circuit
from distqc.circuit import Placement, extract_commodities
from distqc.flow import iterative_greedy
from distqc.netmodel import (
    GENERATORS,
    QuotientGraph,
    edge_node_ratio,
    gen_hex,
    gen_rect_high,
    gen_rect_low,
)
from distqc.steiner import compile_circuit_steiner, cz_to_dense_fanin
from oracles import NX_LATTICES, to_nx


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(NX_LATTICES))
    @pytest.mark.parametrize("g", range(1, 30))
    def test_matches_networkx_generators(self, kind, g):
        assert GENERATORS[kind](g) == NX_LATTICES[kind](g)

    def test_reported_sizes_at_g11(self):
        low, high, hexa = gen_rect_low(11), gen_rect_high(11), gen_hex(11)
        assert (low.node_count, low.edge_count) == (49, 84)
        assert (high.node_count, high.edge_count) == (144, 264)
        assert (hexa.node_count, hexa.edge_count) == (96, 131)

    def test_rect_low_g1_is_2x2(self):
        # by hand: 2x2 grid has 4 nodes and 4 edges
        q = gen_rect_low(1)
        assert (q.node_count, q.edge_count) == (4, 4)
        assert q.is_connected()

    def test_rect_high_g1(self):
        q = gen_rect_high(1)
        assert (q.node_count, q.edge_count) == (4, 4)
        assert q.is_connected()

    @pytest.mark.parametrize("g", range(1, 13))
    def test_all_lattices_connected_unit_capacity(self, g):
        for gen in (gen_rect_low, gen_rect_high, gen_hex):
            q = gen(g)
            assert q.is_connected()
            assert all(c == 1 for _u, _v, c in q.edges)

    @pytest.mark.parametrize("g", range(1, 13))
    def test_rect_edge_bound(self, g):
        for gen in (gen_rect_low, gen_rect_high):
            q = gen(g)
            assert Fraction(q.edge_count, q.node_count) < 2

    @pytest.mark.parametrize("g", range(1, 13))
    def test_hex_degrees(self, g):
        q = gen_hex(g)
        degs = {len(q.adjacency[u]) for u in range(q.node_count)}
        assert degs <= {2, 3}

    def test_hex_euler_faces(self):
        # g=2 emits a 2x1 block of hexagons: E - P + 1 = 2 faces
        q = gen_hex(2)
        assert q.edge_count - q.node_count + 1 == 2

    @pytest.mark.parametrize(
        "gen,quad,lin",
        [(gen_rect_low, 0.25, 1.5), (gen_hex, 0.5, 3.0)],
    )
    def test_size_laws_constant_slack(self, gen, quad, lin):
        slack = [gen(g).node_count - (quad * g * g + lin * g) for g in range(3, 30)]
        assert max(slack) - min(slack) <= 3
        assert all(abs(s) <= 4 for s in slack)


class TestQuotient:
    def test_single_processor(self):
        q = QuotientGraph.from_json({"nodes": 1, "edges": []})
        assert q.node_count == 1 and q.edges == () and q.is_connected()

    def test_disconnected_rejected(self):
        # an isolated processor, unlike two linked components, has no edge
        # at all to give the split away
        assert not QuotientGraph(3, ((0, 1, 1),)).is_connected()
        with pytest.raises(ValueError, match="disconnected"):
            QuotientGraph.from_json({"nodes": 3, "edges": [[0, 1, 1]]})


class TestRatio:
    def test_rect_limit(self):
        assert abs(edge_node_ratio(gen_rect_high(50)) - 2) < Fraction(1, 10)
        assert abs(edge_node_ratio(gen_rect_low(50)) - 2) < Fraction(1, 10)

    def test_hex_limit(self):
        assert abs(edge_node_ratio(gen_hex(50)) - Fraction(3, 2)) < Fraction(1, 10)

    def test_single_node(self):
        assert edge_node_ratio(QuotientGraph(1, ())) == 0

    def test_exact_fraction(self):
        q = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
        assert edge_node_ratio(q) == Fraction(2, 3)


class TestSerialization:
    def test_quotient_roundtrip(self):
        q = gen_hex(3)
        doc = json.loads(json.dumps(q.to_json()))
        assert QuotientGraph.from_json(doc) == q

    def test_disconnected_quotient_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            QuotientGraph.from_json({"nodes": 4, "edges": [[0, 1, 1], [2, 3, 1]]})


def edge_index_graphs():
    lattices = [gen(g) for gen in (gen_rect_low, gen_hex, gen_rect_high) for g in range(1, 5)]
    # edges listed out of order, so an edge id is not its rank among sorted edges
    doc = {"nodes": 5, "edges": [[3, 4, 1], [0, 2, 2], [1, 3, 1], [0, 1, 3], [2, 3, 1]]}
    return [*lattices, QuotientGraph.from_json(doc)]


@pytest.mark.parametrize("q", edge_index_graphs())
def test_neighbour_edge_ids(q):
    pairs = 0
    for u, nbrs in enumerate(q.neighbours):
        vs = [v for v, _ in nbrs]
        assert vs == sorted(set(vs))
        assert tuple(vs) == q.adjacency[u]
        for v, e in nbrs:
            assert q.edges[e][:2] == (min(u, v), max(u, v))
        pairs += len(nbrs)
    assert pairs == 2 * q.edge_count  # every edge listed at both ends
    path = q.shortest_path(0, q.node_count - 1)
    assert q.edge_ids(path) == [
        next(e for e, (a, b, _) in enumerate(q.edges) if {a, b} == {u, v}) for u, v in zip(path, path[1:])
    ]


class TestDistanceService:
    @pytest.mark.parametrize("gen", [gen_rect_low, gen_hex, gen_rect_high])
    def test_hops_match_networkx(self, gen):
        q = gen(11)
        expected = dict(nx.all_pairs_shortest_path_length(to_nx(q)))
        for s in range(q.node_count):
            for t in range(q.node_count):
                assert q.hops(s, t) == expected[s][t]

    def test_first_discovered_parent(self):
        q = gen_rect_low(1)  # 2x2 grid 0-1, 0-2, 1-3, 2-3
        assert q.shortest_path(0, 3) == (0, 1, 3)
        assert q.shortest_path(3, 0) == (3, 1, 0)
        assert q.shortest_path(2, 2) == (2,)

    def test_shortest_path_under_residual(self):
        rng = random.Random(3)
        q = gen_rect_low(5)
        for _ in range(40):
            usable = {e: rng.choice((0, 0, 1, 2)) for e in q.capacity}
            sub = nx.Graph()
            sub.add_nodes_from(range(q.node_count))
            sub.add_edges_from(e for e, c in usable.items() if c > 0)
            s, t = rng.sample(range(q.node_count), 2)
            path = q.shortest_path(s, t, usable=[usable[u, v] for u, v, _ in q.edges])
            if not nx.has_path(sub, s, t):
                assert path is None
                continue
            assert path[0] == s and path[-1] == t
            assert len(path) - 1 == nx.shortest_path_length(sub, s, t)
            assert all(usable[(min(u, v), max(u, v))] > 0 for u, v in zip(path, path[1:]))

    def test_residual_cut_gives_none(self):
        q = QuotientGraph(3, ((0, 1, 1), (1, 2, 1)))
        assert q.shortest_path(0, 2, usable=[1, 0]) is None
        assert q.shortest_path(0, 2, usable=[1, 1]) == (0, 1, 2)
        assert q.shortest_path(0, 2) == (0, 1, 2)  # the filter is not memoised

    def test_missing_or_unreachable_node_raises(self):
        q = QuotientGraph(3, ((0, 1, 1),))
        assert not q.is_connected()
        with pytest.raises(ValueError, match="no path"):
            q.hops(0, 2)
        with pytest.raises(ValueError, match="no path"):
            q.hops(0, 99)
        with pytest.raises(ValueError):
            q.hops(99, 0)

    def test_cached_distances_survive_reuse(self):
        q = gen_rect_low(3)
        circuit = gen_random_cz_circuit(q.node_count, 30, random.Random(5))
        placement = Placement.identity(q.node_count)
        dense = cz_to_dense_fanin(circuit).to_circuit()
        cs = extract_commodities(circuit, placement)

        def both():
            return iterative_greedy(q, cs), compile_circuit_steiner(dense, placement, q)[1]

        first = both()
        assert both() == first
        fresh = gen_rect_low(3)
        assert iterative_greedy(fresh, cs) == first[0]


@pytest.mark.parametrize(
    "call,message",
    [
        (partial(QuotientGraph, 2, ((1, 0, 1),)), "bad edge (1,0) in graph of 2 nodes"),
        (partial(QuotientGraph, 2, ((0, 1, 0),)), "edge (0,1) capacity must be >= 1"),
        (partial(QuotientGraph, 2, ((0, 1, 1), (0, 1, 2))), "duplicate edge (0,1)"),
        *((partial(gen, 0), "generator factor must be >= 1") for gen in GENERATORS.values()),
        (partial(edge_node_ratio, QuotientGraph(0, ())), "graph must have at least one node"),
    ],
    ids=["reversed-edge", "zero-capacity", "duplicate-edge", *(f"{kind}-g0" for kind in GENERATORS),
         "ratio-no-nodes"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
