import pytest

import opturan as op
from opturan.construct import build_chain_graph

from helpers import reference_chain_graph


class TestFan:
    def test_fan2(self):
        emb = op.fan(2)
        assert emb.graph.e == 1 and emb.graph.n == 2

    def test_fan4(self):
        assert op.fan(4).graph.e == 5

    def test_fan6(self):
        emb = op.fan(6)
        assert emb.graph.e == 9
        assert op.cycle_length_set(emb) == frozenset({3, 4, 5, 6})

    def test_edge_maximal(self):
        for p in range(2, 12):
            emb = op.fan(p)
            assert emb.graph.e == 2 * p - 3
            assert op.is_edge_maximal(emb)

    def test_too_small(self):
        with pytest.raises(ValueError):
            op.fan(1)


class TestSeed:
    def test_k5(self):
        g = op.build_G0(5).graph
        assert g.n == 4 and g.e == 5

    def test_k3_single_edge(self):
        g = op.build_G0(3).graph
        assert g.n == 2 and g.e == 1

    def test_k4_triangle(self):
        g = op.build_G0(4).graph
        assert g.n == 3 and g.e == 3


class TestGadget:
    def test_counts(self):
        for k in range(3, 11):
            g = op.build_H(k).graph
            assert g.n == k * k - 2 * k + 1, k
            assert g.e == 2 * k * k - 5 * k + 1, k

    def test_k3_is_square(self):
        g = op.build_H(3).graph
        assert g.n == 4 and g.e == 4

    def test_k4(self):
        g = op.build_H(4).graph
        assert g.n == 9 and g.e == 13

    def test_no_forbidden_cycle_both_oracles(self):
        for k in range(3, 9):
            emb = op.build_H(k)
            assert not op.has_cycle_of_length(emb.graph, k)
            assert k not in op.cycle_length_set(emb)

    def test_distinguished_edge_on_boundary(self):
        from opturan.embedding import outer_boundary_edges

        for k in range(3, 9):
            emb = op.build_H(k)
            assert op.gadget_distinguished_edge(k) in outer_boundary_edges(emb)

    def test_spectrum_structure(self):
        # cycles through the big face have length >= k+1; cycles inside the
        # fan copies have length <= k-1; nothing hits k
        for k in range(4, 9):
            spectrum = op.cycle_length_set(op.build_H(k))
            assert k not in spectrum
            assert min(s for s in spectrum if s >= k) == k + 1
            assert max(s for s in spectrum if s < k) <= k - 1


class TestChain:
    def test_figure_case(self):
        g = op.build_chain(5, 1).graph
        assert (g.n, g.e) == (18, 30)

    def test_sharp_case_k4(self):
        g = op.build_chain(4, 1).graph
        assert (g.n, g.e) == (10, 15)
        assert op.bound_holds(g.e, 4, g.n).equality

    def test_zero_merges(self):
        for k in range(3, 11):
            g = op.build_chain(k, 0).graph
            assert g.e == 2 * k - 5

    def test_k3_chains(self):
        g = op.build_chain(3, 2).graph
        assert (g.n, g.e) == (6, 7)

    def test_count_identities_and_freeness(self):
        for k in range(3, 11):
            for m in range(0, 4):
                params = op.ChainParams(k, m)
                emb = op.build_chain(k, m)
                g = emb.graph
                assert g.n == params.vertex_count
                assert g.e == params.edge_count
                assert op.bound_holds(g.e, k, g.n).equality
                assert op.sharp_residue(k, g.n)
                assert k not in op.cycle_length_set(emb)

    def test_merge_increments(self):
        for k in (3, 5, 8):
            prev = op.build_chain(k, 0).graph
            for m in range(1, 4):
                cur = op.build_chain(k, m).graph
                assert cur.n - prev.n == k * k - 2 * k - 1
                assert cur.e - prev.e == k * (2 * k - 5)
                prev = cur

    def test_equals_merging_one_gadget_at_a_time(self):
        for k in range(3, 9):
            for m in range(13):
                g, reference = build_chain_graph(k, m), reference_chain_graph(k, m)
                assert (g.n, g.edges) == (reference.n, reference.edges), (k, m)

    def test_deterministic(self):
        assert op.build_chain(6, 2).graph == op.build_chain(6, 2).graph

    def test_params_validation(self):
        with pytest.raises(ValueError):
            op.ChainParams(2, 1)
        with pytest.raises(ValueError):
            op.ChainParams(5, -1)
