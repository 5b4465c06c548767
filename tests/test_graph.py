import random

import pytest

import opturan as op
from opturan.graph import find_cycle_in_edges, subgraph_on_edges

from helpers import (
    all_graphs,
    brute_cycle_lengths,
    rand_subgraph,
    rand_triangulation,
    reference_first_cycle,
)


class TestMakeGraph:
    def test_single_edge(self):
        g = op.make_graph(2, [(0, 1)])
        assert g.e == 1 and g.n == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(op.DuplicateEdgeError):
            op.make_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(op.DuplicateEdgeError):
            op.make_graph(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(op.LoopEdgeError):
            op.make_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(op.VertexRangeError):
            op.make_graph(3, [(0, 3)])
        with pytest.raises(op.VertexRangeError):
            op.make_graph(3, [(-1, 0)])

    def test_cycle_graph(self):
        g = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.e == 4

    def test_non_integer_ids_rejected(self):
        for pair in [(0, 1.0), (0, 1.7), ("1", 2), (True, 2), (0, None)]:
            with pytest.raises(op.GraphError):
                op.make_graph(3, [pair])

    def test_non_pair_entries_rejected(self):
        for entry in [(0,), (0, 1, 2), 5, "01x"]:
            with pytest.raises(op.GraphError):
                op.make_graph(3, [entry])

    def test_bool_or_float_count_rejected(self):
        for n in [True, 3.0, "3"]:
            with pytest.raises(op.GraphError):
                op.make_graph(n, [])

    def test_canonical_order(self):
        a = op.make_graph(3, [(2, 1), (0, 2)])
        b = op.make_graph(3, [(0, 2), (1, 2)])
        assert a == b
        assert a.edges == ((0, 2), (1, 2))


def test_subgraph_on_edges_equals_make_graph():
    """Built without make_graph, the subgraph is still the validated graph."""
    rng = random.Random(41)
    for _ in range(200):
        g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(3, 30)).graph, 0.8)
        picked = [e[:: rng.choice((1, -1))] for e in g.edges if rng.random() < 0.6] or [g.edges[0]]
        rng.shuffle(picked)
        sub, to_parent = subgraph_on_edges(picked)
        assert list(to_parent) == sorted({v for e in picked for v in e})
        index = {v: i for i, v in enumerate(to_parent)}
        assert sub == op.make_graph(len(to_parent), [(index[u], index[v]) for u, v in picked])


class TestBiconnectedDecomposition:
    def test_cycle_single_block(self):
        g = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        dec = op.biconnected_decomposition(g)
        assert len(dec.blocks) == 1
        assert dec.cut_vertices == ()
        assert dec.bridges == ()

    def test_bowtie(self):
        g = op.make_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        dec = op.biconnected_decomposition(g)
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == (0,)

    def test_path_is_two_bridges(self):
        g = op.make_graph(3, [(0, 1), (1, 2)])
        dec = op.biconnected_decomposition(g)
        assert dec.blocks == ()
        assert set(dec.bridges) == {(0, 1), (1, 2)}
        assert dec.cut_vertices == (1,)

    def test_isolated_vertices(self):
        g = op.make_graph(4, [(0, 1)])
        dec = op.biconnected_decomposition(g)
        assert dec.isolated == (2, 3)
        assert dec.bridges == ((0, 1),)

    def test_partition_property_random(self):
        rng = random.Random(4242)
        for _ in range(120):
            n = rng.randint(2, 12)
            g = rand_subgraph(rng, rand_triangulation(rng, max(n, 3)).graph, 0.6)
            dec = op.biconnected_decomposition(g)
            pieces = [e for b in dec.blocks for e in b.edges] + list(dec.bridges)
            assert sorted(pieces) == list(g.edges)
            # two blocks share at most one vertex, and it is a cut vertex
            for i, b1 in enumerate(dec.blocks):
                for b2 in dec.blocks[i + 1 :]:
                    shared = set(b1.vertices) & set(b2.vertices)
                    assert len(shared) <= 1
                    assert shared <= set(dec.cut_vertices)


class TestCycleSearch:
    def test_c4(self):
        g = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert op.has_cycle_of_length(g, 4)
        assert not op.has_cycle_of_length(g, 3)

    def test_fan_has_triangle(self):
        assert op.has_cycle_of_length(op.fan(4).graph, 3)

    def test_chain_is_c5_free(self):
        g = op.build_chain(5, 1).graph
        assert g.n == 18
        assert not op.has_cycle_of_length(g, 5)

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            op.has_cycle_of_length(op.make_graph(3, [(0, 1)]), 2)

    def test_witness_is_a_cycle(self):
        rng = random.Random(7)
        for _ in range(80):
            g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(4, 10)).graph, 0.7)
            for k in range(3, g.n + 1):
                cyc = find_cycle_in_edges(g.n, g.edges, k)
                if cyc is not None:
                    assert len(cyc) == k == len(set(cyc))
                    es = g.edge_set()
                    assert all(
                        op.edge_key(cyc[i], cyc[(i + 1) % k]) in es for i in range(k)
                    )

    def test_agrees_with_unpruned_enumeration(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(3, 9)
            g = rand_subgraph(rng, rand_triangulation(rng, n).graph, rng.choice([0.5, 0.8]))
            expect = brute_cycle_lengths(g)
            for k in range(3, n + 1):
                assert op.has_cycle_of_length(g, k) == (k in expect)

    def test_first_cycle_equals_unpruned_search(self):
        """The pruned search returns exactly the first cycle of the unpruned
        one: on triangulation subgraphs with pendant paths (vertices that lie
        on no cycle but inside the search's ball), on G(n, p) graphs, and on
        the first family with its vertices relabelled at random."""
        rng = random.Random(17)
        inputs = []
        for _ in range(40):
            n = rng.randint(4, 14)
            edges = set(rand_subgraph(rng, rand_triangulation(rng, n).graph, 0.8).edges)
            for _ in range(rng.randint(0, 3)):  # pendant paths
                at = rng.randrange(n)
                for _ in range(rng.randint(1, 5)):
                    edges.add((at, n))
                    at, n = n, n + 1
            inputs.append((n, sorted(edges)))
            perm = list(range(n))
            rng.shuffle(perm)
            inputs.append((n, [(perm[u], perm[v]) for u, v in sorted(edges)]))
        for _ in range(30):
            n = rng.randint(4, 10)
            p = rng.choice([0.2, 0.35, 0.5])
            inputs.append((n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        for n, edges in inputs:
            for k in range(3, 11):
                assert find_cycle_in_edges(n, edges, k) == reference_first_cycle(n, edges, k), (n, edges, k)

    def test_cross_oracle_with_face_spectrum(self):
        # outerplanar cross-check: exhaustive search vs dual-subtree spectrum
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(3, 12)
            g = rand_subgraph(rng, rand_triangulation(rng, n).graph, 0.75)
            spectrum = op.cycle_length_set(op.recognize_outerplanar(g))
            for k in range(3, n + 1):
                assert op.has_cycle_of_length(g, k) == (k in spectrum)


class TestSerialization:
    def test_json_roundtrip(self):
        g = op.make_graph(5, [(0, 1), (1, 2), (0, 4)])
        assert op.graph_from_json(op.graph_to_json(g)) == g

    def test_graph6_known_strings(self):
        # hand-computed: C4 bits 101101 -> chr(45+63)='l'; K4 bits 111111 -> '~'
        c4 = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert op.graph_to_graph6(c4) == "Cl"
        k4 = op.make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert op.graph_to_graph6(k4) == "C~"
        assert op.graph_from_graph6("Cl") == c4
        assert op.graph_from_graph6(">>graph6<<C~") == k4

    def test_graph6_roundtrip_random(self):
        # past n = 62 the vertex count takes the four-character '~' form
        rng = random.Random(3)
        for n in [rng.randint(1, 20) for _ in range(60)] + [rng.randint(50, 300) for _ in range(20)]:
            g = rand_subgraph(
                rng, rand_triangulation(rng, max(n, 3)).graph, rng.random()
            )
            assert op.graph_from_graph6(op.graph_to_graph6(g)) == g
        for n in (62, 63, 64):
            g = op.make_graph(n, [(i, i + 1) for i in range(n - 1)])
            assert op.graph_from_graph6(op.graph_to_graph6(g)) == g

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty graph6 string"),
            (">>graph6<<  \n", "empty graph6 string"),
            ("C l", "characters outside 0x3F..0x7E"),
            ("Cl\x7f", "characters outside 0x3F..0x7E"),
            ("~??", "truncated graph6 vertex count"),
            ("~", "truncated graph6 vertex count"),
            ("C", "too short for its vertex count"),
            ("~?@?" + "~" * 10, "too short for its vertex count"),
            ("A_????", "too long for its vertex count"),  # K2 and four characters more
            ("Cl?", "too long for its vertex count"),
        ],
    )
    def test_graph6_errors(self, text, message):
        with pytest.raises(op.GraphError, match=message):
            op.graph_from_graph6(text)

    def test_autodetect(self):
        g = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert op.graph_from_text(op.graph_to_json(g)) == g
        assert op.graph_from_text("Cl\n") == g

    def test_autodetect_graph6_size_byte_brace(self):
        # n=60 encodes its size as '{', the character JSON starts with
        for n in range(59, 64):
            g = op.make_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])
            text = op.graph_to_graph6(g)
            assert op.graph_from_text(text + "\n") == g
            assert op.graph_from_text(">>graph6<<" + text) == g
            assert op.graph_from_text(op.graph_to_json(g)) == g


def test_all_graphs_n4_cycle_oracle():
    for g in all_graphs(4):
        expect = brute_cycle_lengths(g)
        for k in (3, 4):
            assert op.has_cycle_of_length(g, k) == (k in expect)


def test_find_cycle_in_edges_matches_graph_api():
    g = op.build_chain(4, 1).graph
    assert find_cycle_in_edges(g.n, g.edges, 4) is None
    assert find_cycle_in_edges(g.n, g.edges, 3) is not None
