import json
import math
import random
from unittest import mock

import pytest

import opturan as op
import opturan.embedding as embedding_module
from opturan.embedding import (
    EdgeNotOnOuterFaceError,
    NotOuterplanarError,
    canonical_cycle,
    outer_boundary_edges,
)

from helpers import (
    NotEdgeMaximalError,
    all_graphs,
    brute_cycle_lengths,
    brute_outerplanar,
    path_length_set,
    rand_subgraph,
    rand_triangulation,
    recognizes,
)


def C(n):
    return op.make_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestRecognition:
    def test_k4_rejected(self):
        k4 = op.make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(NotOuterplanarError):
            op.recognize_outerplanar(k4)

    def test_k23_rejected(self):
        k23 = op.make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        with pytest.raises(NotOuterplanarError):
            op.recognize_outerplanar(k23)

    def test_c4(self):
        emb = op.recognize_outerplanar(C(4))
        faces = op.inner_faces(emb)
        assert [len(f) for f in faces] == [4]

    def test_quadrilateral_with_chord(self):
        g = op.make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        emb = op.recognize_outerplanar(g)
        (block,) = emb.blocks
        assert block.outer == (0, 1, 2, 3)
        assert block.chords == ((0, 2),)

    def test_matches_boundary_order_bruteforce_exhaustive(self):
        for n in (4, 5):
            for g in all_graphs(n):
                assert recognizes(g) == brute_outerplanar(g), g.edges

    def test_matches_boundary_order_bruteforce_random(self):
        rng = random.Random(2024)
        pairs6to8 = 0
        while pairs6to8 < 250:
            n = rng.randint(6, 8)
            density = rng.choice([0.3, 0.45, 0.6])
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < density
            ]
            g = op.make_graph(n, edges)
            assert recognizes(g) == brute_outerplanar(g), g.edges
            pairs6to8 += 1

    def test_disconnected_with_isolated(self):
        g = op.make_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4)])
        emb = op.recognize_outerplanar(g)
        assert len(emb.blocks) == 1
        assert emb.bridges == ((3, 4),)
        assert emb.isolated == (5, 6)

    def test_big_chain_recognized(self):
        emb = op.recognize_outerplanar(op.build_chain(9, 3).graph)
        assert emb.graph.n == 8 + 3 * (81 - 18 - 1)


class TestFaces:
    def test_fan5_three_triangles(self):
        faces = op.inner_faces(op.fan(5))
        assert sorted(faces) == [
            (0, 1, 2),
            (0, 2, 3),
            (0, 3, 4),
        ]

    def test_c6_one_hexagon(self):
        faces = op.inner_faces(op.recognize_outerplanar(C(6)))
        assert [len(f) for f in faces] == [6]

    def test_build_h5_eleven_faces(self):
        # Euler: f = e - n + 2 = 26 - 16 + 2, minus the outer face
        faces = op.inner_faces(op.build_H(5))
        assert len(faces) == 11
        assert sorted(len(f) for f in faces) == [3] * 10 + [6]

    def test_face_size_sum_invariant(self):
        # per 2-connected block: sum of face sizes + boundary length = 2e
        from opturan.embedding import _scan_faces

        rng = random.Random(5)
        for _ in range(80):
            t = rand_triangulation(rng, rng.randint(3, 12))
            g = rand_subgraph(rng, t.graph, 0.8)
            emb = op.recognize_outerplanar(g)
            for block in emb.blocks:
                block_edges = len(op.cycle_edges(block.outer)) + len(block.chords)
                faces, _ = _scan_faces(len(block.outer), block.chords)
                sizes = sum(len(f) for f in faces)
                assert sizes + len(block.outer) == 2 * block_edges

    def test_face_count_is_chords_plus_one(self):
        rng = random.Random(6)
        for _ in range(60):
            t = rand_triangulation(rng, rng.randint(3, 12))
            emb = op.recognize_outerplanar(rand_subgraph(rng, t.graph, 0.85))
            faces = op.inner_faces(emb)
            assert len(faces) == sum(len(b.chords) + 1 for b in emb.blocks)


class TestEdgeMaximal:
    def test_fan5(self):
        assert op.is_edge_maximal(op.fan(5))

    def test_c4_not_maximal(self):
        assert not op.is_edge_maximal(op.recognize_outerplanar(C(4)))

    def test_single_edge_maximal(self):
        assert op.is_edge_maximal(op.fan(2))

    def test_equivalence_never_disagrees(self):
        # is_edge_maximal raises internally if the characterisations split
        rng = random.Random(8)
        for _ in range(200):
            t = rand_triangulation(rng, rng.randint(3, 10))
            g = rand_subgraph(rng, t.graph, rng.choice([0.7, 0.9, 1.0]))
            if g.e == 0:
                continue
            emb = op.recognize_outerplanar(g)
            op.is_edge_maximal(emb)  # must not raise


class TestPathSpectrum:
    def test_fan4_edge01(self):
        assert path_length_set(op.fan(4), 0, 1) == frozenset({1, 2, 3})

    def test_single_edge(self):
        assert path_length_set(op.fan(2), 0, 1) == frozenset({1})

    def test_fan6_every_outer_edge(self):
        emb = op.fan(6)
        for u, v in outer_boundary_edges(emb):
            assert path_length_set(emb, u, v) == frozenset(range(1, 6))

    def test_rejects_chord(self):
        with pytest.raises(EdgeNotOnOuterFaceError):
            path_length_set(op.fan(4), 0, 2)

    def test_rejects_non_maximal(self):
        with pytest.raises(NotEdgeMaximalError):
            path_length_set(op.recognize_outerplanar(C(4)), 0, 1)

    def test_full_spectrum_on_random_triangulations(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(3, 12)
            emb = rand_triangulation(rng, n)
            for u, v in outer_boundary_edges(emb):
                assert path_length_set(emb, u, v) == frozenset(range(1, n))


class TestCycleSpectrum:
    def test_fan5(self):
        assert op.cycle_length_set(op.fan(5)) == frozenset({3, 4, 5})

    def test_c6(self):
        assert op.cycle_length_set(op.recognize_outerplanar(C(6))) == frozenset({6})

    def test_build_h5(self):
        expect = frozenset({3, 4} | set(range(6, 17)))
        assert op.cycle_length_set(op.build_H(5)) == expect

    def test_maximal_spectrum_full(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(3, 12)
            emb = rand_triangulation(rng, n)
            assert op.cycle_length_set(emb) == frozenset(range(3, n + 1))

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(12)
        for _ in range(120):
            n = rng.randint(3, 11)
            g = rand_subgraph(rng, rand_triangulation(rng, n).graph, 0.7)
            emb = op.recognize_outerplanar(g)
            assert op.cycle_length_set(emb) == frozenset(brute_cycle_lengths(g))

    def test_merges_loop_over_the_smaller_operand(self):
        """_sumset loops over the bits of its first operand, and each subtree
        merge passes the one with fewer bits first, so the whole uncapped
        spectrum of the chain (5,250) loops at most n*ceil(log2 n) times;
        with the child's set always first it loops about 881,000 times."""
        sumset, steps = embedding_module._sumset, []

        def counted(a, b, limit):
            steps.append(a.bit_count())
            return sumset(a, b, limit)

        emb = op.build_chain(5, 250)
        with mock.patch.object(embedding_module, "_sumset", counted):
            spectrum = op.cycle_length_set(emb)
        n = emb.graph.n
        assert n == 3504 and 5 not in spectrum
        assert sum(steps) <= n * math.ceil(math.log2(n))


class TestContraction:
    def test_c5_to_c4(self):
        emb = op.recognize_outerplanar(C(5))
        res = op.contract_outer_edge(emb, 0, 1)
        assert res.collapsed_parallel_edges == 0
        assert res.embedding.graph == C(4)

    def test_c4_to_triangle(self):
        emb = op.recognize_outerplanar(C(4))
        res = op.contract_outer_edge(emb, 0, 3)
        assert res.embedding.graph.n == 3 and res.embedding.graph.e == 3

    def test_parallel_collapse_reported(self):
        # diamond: outer cycle 0-2-1-3, chord (0,1); contracting (0,2) merges
        # the two edges into vertex 1
        dia = op.make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        res = op.contract_outer_edge(op.recognize_outerplanar(dia), 0, 2)
        assert res.collapsed_parallel_edges == 1
        assert res.embedding.graph.e == 3

    def test_chord_rejected(self):
        with pytest.raises(EdgeNotOnOuterFaceError):
            op.contract_outer_edge(op.fan(4), 0, 2)

    def test_missing_edge_rejected(self):
        with pytest.raises(EdgeNotOnOuterFaceError):
            op.contract_outer_edge(op.recognize_outerplanar(C(5)), 0, 2)

    def test_gadget_contraction_is_clean(self):
        # the distinguished edge of the gadget contracts without collapses
        for k in (4, 5, 6, 7):
            emb = op.build_H(k)
            u, v = op.gadget_distinguished_edge(k)
            res = op.contract_outer_edge(emb, u, v)
            assert res.collapsed_parallel_edges == 0
            assert res.embedding.graph.e == emb.graph.e - 1


class TestSerialization:
    def test_embedding_json_roundtrip(self):
        for emb in (op.fan(6), op.build_H(4), op.build_chain(5, 1)):
            again = op.embedding_from_json(op.embedding_to_json(emb))
            assert again.graph == emb.graph
            assert again.blocks == emb.blocks
            assert again.bridges == emb.bridges
            assert again.isolated == emb.isolated

    def test_json_with_bridges_and_isolated(self):
        g = op.make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        emb = op.recognize_outerplanar(g)
        again = op.embedding_from_json(op.embedding_to_json(emb))
        assert again.graph == g

    @pytest.mark.parametrize(
        "text",
        [
            '{"blocks": ' + "[" * 5000 + "]" * 5000 + ', "bridges": [], "isolated": []}',
            '{"blocks": [',
        ],
        ids=["nested", "truncated"],
    )
    def test_unreadable_json_is_a_graph_error(self, text):
        with pytest.raises(op.GraphError):
            op.embedding_from_json(text)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("outer", [0, 1, 2.0]),
            ("outer", [0, 1, "2"]),
            ("chords", [[0, 2.9]]),
            ("bridges", [[2, 3.0]]),
            ("bridges", [[2, True]]),
            ("isolated", ["4"]),
            ("isolated", [1.9]),
        ],
    )
    def test_json_ids_must_be_plain_ints(self, key, value):
        data = {
            "blocks": [{"outer": [0, 1, 2, 3], "chords": [[0, 2]]}],
            "bridges": [[3, 4]],
            "isolated": [5],
        }
        op.embedding_from_json(json.dumps(data))  # the unchanged document is valid
        if key in ("outer", "chords"):
            data["blocks"][0][key] = value
        else:
            data[key] = value
        with pytest.raises(op.GraphError, match="is not an integer"):
            op.embedding_from_json(json.dumps(data))

    def test_dot_smoke(self):
        text = op.embedding_to_dot(op.fan(4))
        assert "graph G {" in text and "0 -- 1;" in text


def test_canonical_cycle():
    assert canonical_cycle([2, 3, 0, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([0, 3, 2, 1]) == (0, 1, 2, 3)
    assert canonical_cycle([5, 4, 7]) == (4, 5, 7)
