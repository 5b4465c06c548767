import itertools
import random

import opturan as op
from opturan.embedding import NotOuterplanarError

from helpers import rand_subgraph, rand_triangulation, reference_weak_dual


def C(n):
    return op.make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def blocks(emb):
    """emb's triangular blocks, read off its weak dual."""
    return op.triangular_blocks(op.weak_dual(emb), emb.graph.edges)


def classified(emb):
    """emb's weak dual and its triangular blocks with terminal flags set."""
    dual = op.weak_dual(emb)
    return dual, op.classify_terminal(op.triangular_blocks(dual, emb.graph.edges), dual)


def glued_squares():
    # two 4-cycles sharing the edge (2, 3)
    return op.recognize_outerplanar(
        op.make_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)])
    )


class TestWeakDual:
    def test_fan5_path(self):
        dual = op.weak_dual(op.fan(5))
        assert len(dual.faces) == 3
        degs = sorted(len(row) for row in dual.links)
        assert degs == [1, 1, 2]

    def test_c6_single_node(self):
        dual = op.weak_dual(op.recognize_outerplanar(C(6)))
        assert len(dual.faces) == 1 and dual.links == [[]]

    def test_build_h5_star_of_paths(self):
        dual = op.weak_dual(op.build_H(5))
        assert len(dual.faces) == 11 and sum(map(len, dual.links)) == 2 * 10
        adj = dual.links
        hexagon = next(i for i, f in enumerate(dual.faces) if len(f) == 6)
        assert len(adj[hexagon]) == 5
        # the rest split into five 2-node arms
        degs = sorted(len(row) for i, row in enumerate(adj) if i != hexagon)
        assert degs == [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]

    def test_acyclic_on_all_small_and_random_large(self):
        rng = random.Random(21)
        cases = []
        for n in range(3, 8):
            cases.extend(op.triangulations(n))
        for _ in range(500):
            cases.append(
                op.recognize_outerplanar(
                    rand_subgraph(rng, rand_triangulation(rng, rng.randint(3, 14)).graph, 0.75)
                )
            )
        for emb in cases:
            op.weak_dual(emb)  # raises if a cycle shows up

    def test_scan_dual_equals_shared_edge_definition(self):
        rng = random.Random(22)
        for _ in range(300):
            t = rand_triangulation(rng, rng.randint(3, 30))
            for emb in (t, op.recognize_outerplanar(rand_subgraph(rng, t.graph, rng.random()))):
                assert op.weak_dual(emb) == reference_weak_dual(emb)


class TestTriangularBlocks:
    def test_c4_trivial_blocks(self):
        part = blocks(op.recognize_outerplanar(C(4)))
        assert len(part.blocks) == 4
        assert all(b.trivial for b in part.blocks)

    def test_build_h5_partition(self):
        part = blocks(op.build_H(5))
        nontrivial = [b for b in part.blocks if not b.trivial]
        trivial = [b for b in part.blocks if b.trivial]
        assert len(nontrivial) == 5 and len(trivial) == 1
        assert all(len(b.vertices) == 4 for b in nontrivial)
        assert trivial[0].edges == ((0, 5),)

    def test_fan6_single_block(self):
        part = blocks(op.fan(6))
        assert len(part.blocks) == 1
        assert part.blocks[0].edges == op.fan(6).graph.edges

    def test_partition_property(self):
        rng = random.Random(22)
        for _ in range(150):
            g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(3, 12)).graph, 0.7)
            emb = op.recognize_outerplanar(g)
            part = blocks(emb)
            owned = [e for b in part.blocks for e in b.edges]
            assert sorted(owned) == list(g.edges)
            assert len(owned) == len(set(owned))

    def test_nontrivial_blocks_are_edge_maximal(self):
        rng = random.Random(23)
        for _ in range(100):
            g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(4, 12)).graph, 0.8)
            emb = op.recognize_outerplanar(g)
            for block in blocks(emb).blocks:
                if block.trivial:
                    assert len(block.edges) == 1 and len(block.vertices) == 2
                else:
                    v, e = len(block.vertices), len(block.edges)
                    assert e == 2 * v - 3
                    sub = op.make_graph(
                        v,
                        [
                            tuple(map({x: i for i, x in enumerate(block.vertices)}.get, edge))
                            for edge in block.edges
                        ],
                    )
                    assert op.is_edge_maximal(op.recognize_outerplanar(sub))

    def test_matches_direct_maximality_definition(self):
        # blocks = inclusion-maximal edge-maximal outerplanar subgraphs,
        # checked against full subset enumeration on small hosts
        def direct_blocks(g):
            found = []
            edges = g.edges
            for r in range(1, len(edges) + 1):
                for subset in itertools.combinations(edges, r):
                    verts = {v for e in subset for v in e}
                    if len(subset) != 2 * len(verts) - 3:
                        continue
                    relabel = {v: i for i, v in enumerate(sorted(verts))}
                    sub = op.make_graph(
                        len(verts), [(relabel[u], relabel[v]) for u, v in subset]
                    )
                    try:
                        if op.is_edge_maximal(op.recognize_outerplanar(sub)):
                            found.append(frozenset(subset))
                    except NotOuterplanarError:
                        continue
            return {
                s for s in found if not any(s < other for other in found)
            }

        rng = random.Random(24)
        hosts = [
            op.recognize_outerplanar(C(4)).graph,
            op.fan(5).graph,
            op.build_H(4).graph,
            glued_squares().graph,
        ]
        for _ in range(12):
            hosts.append(
                rand_subgraph(rng, rand_triangulation(rng, rng.randint(4, 7)).graph, 0.8)
            )
        for g in hosts:
            if g.e == 0:
                continue
            emb = op.recognize_outerplanar(g)
            reported = {
                frozenset(b.edges) for b in blocks(emb).blocks
            }
            assert reported == direct_blocks(g), g.edges


class TestTerminal:
    def test_build_h5_all_terminal(self):
        _, part = classified(op.build_H(5))
        assert all(b.terminal for b in part.blocks)

    def test_glued_squares_middle_not_terminal(self):
        _, part = classified(glued_squares())
        by_edge = {b.edges[0]: b.terminal for b in part.blocks}
        assert by_edge[(2, 3)] is False
        assert sum(1 for t in by_edge.values() if not t) == 1

    def test_lone_square_all_terminal(self):
        _, part = classified(op.recognize_outerplanar(C(4)))
        assert all(b.terminal for b in part.blocks)


class TestIncidence:
    def test_build_h5_star(self):
        inc = op.face_block_incidence(*classified(op.build_H(5)))
        assert len(inc.faces) == 1
        assert len(inc.edges) == 6
        assert {fi for fi, _ in inc.edges} == {0}

    def test_fan5_empty(self):
        inc = op.face_block_incidence(*classified(op.fan(5)))
        assert inc.faces == () and inc.edges == ()

    def test_glued_squares_spine(self):
        inc = op.face_block_incidence(*classified(glued_squares()))
        assert len(inc.faces) == 2
        shared = [bi for bi in range(len(inc.blocks)) if inc.blocks[bi].edges == ((2, 3),)]
        (middle,) = shared
        touching = {fi for fi, bi in inc.edges if bi == middle}
        assert touching == {0, 1}  # the middle block bridges both squares
        assert len(inc.edges) == 8

    def test_acyclic_property(self):
        rng = random.Random(25)
        for _ in range(200):
            g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(3, 12)).graph, 0.7)
            op.face_block_incidence(*classified(op.recognize_outerplanar(g)))  # raises on a cycle


class TestReducibleFace:
    def test_build_h5(self):
        face, held = op.find_reducible_face(op.weak_dual(op.build_H(5)))
        assert len(face) == 6
        assert held == ()  # all 6 blocks terminal; >= size - 1 required

    def test_c4(self):
        face, held = op.find_reducible_face(op.weak_dual(op.recognize_outerplanar(C(4))))
        assert len(face) == 4 and held == ()

    def test_glued_squares_hold_the_shared_edge(self):
        face, held = op.find_reducible_face(op.weak_dual(glued_squares()))
        assert face == (0, 1, 2, 3) and held == ((2, 3),)

    def test_fan7_none(self):
        assert op.find_reducible_face(op.weak_dual(op.fan(7))) is None

    def test_guarantee_property(self):
        rng = random.Random(26)
        found_some = 0
        for _ in range(400):
            g = rand_subgraph(rng, rand_triangulation(rng, rng.randint(4, 14)).graph, 0.7)
            emb = op.recognize_outerplanar(g)
            has_big = any(len(f) >= 4 for f in op.inner_faces(emb))
            got = op.find_reducible_face(op.weak_dual(emb))
            assert (got is not None) == has_big
            if got is None:
                continue
            found_some += 1
            face, _ = got
            _, part = classified(emb)
            owner = part.block_of_edge()
            blocks = [part.blocks[owner[e]] for e in op.cycle_edges(face)]
            assert sum(1 for b in blocks if b.terminal) >= len(face) - 1
        assert found_some > 150  # the sample must actually exercise the lemma


def test_dot_exports_smoke():
    from opturan.dual import incidence_to_dot, weak_dual_to_dot

    emb = op.build_H(4)
    assert "f0" in weak_dual_to_dot(op.weak_dual(emb))
    assert "b0" in incidence_to_dot(op.face_block_incidence(*classified(emb)))
