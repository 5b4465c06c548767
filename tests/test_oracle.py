from math import comb

import pytest

import opturan as op
from opturan.graph import find_cycle_in_edges
from opturan.oracle import _pareto

from helpers import brute_max_ckfree


def catalan(i: int) -> int:
    return comb(2 * i, i) // (i + 1)


class TestTriangulations:
    def test_counts(self):
        for n, expect in ((4, 2), (5, 5), (6, 14), (7, 42), (8, 132)):
            assert sum(1 for _ in op.triangulations(n)) == expect == catalan(n - 2)

    def test_no_duplicates(self):
        seen = set()
        for t in op.triangulations(7):
            key = tuple(sorted(c for b in t.blocks for c in b.chords))
            assert key not in seen
            seen.add(key)

    def test_all_edge_maximal(self):
        for n in range(3, 8):
            for t in op.triangulations(n):
                assert op.is_edge_maximal(t)
                assert t.graph.e == 2 * n - 3

    def test_too_small(self):
        with pytest.raises(ValueError):
            next(op.triangulations(2))


class TestExactEx:
    def test_n2(self):
        r = op.exact_ex(2, 7)
        assert r.value == 1 and r.witness.e == 1

    def test_known_small_values(self):
        assert op.exact_ex(4, 3).value == 4
        assert op.exact_ex(10, 4).value == 15

    def test_witness_validity(self):
        for n in range(2, 9):
            for k in (3, 4, 5):
                r = op.exact_ex(n, k)
                w = r.witness
                assert w.e == r.value
                assert not op.has_cycle_of_length(w, k)
                emb = op.recognize_outerplanar(w)  # witness must be outerplanar
                assert k not in op.cycle_length_set(emb)
                assert op.bound_holds(r.value, k, n).holds

    def test_matches_subset_bruteforce(self):
        for n in range(2, 8):
            for k in range(3, 8):
                assert op.exact_ex(n, k).value == brute_max_ckfree(n, k), (n, k)

    def test_monotone_in_n(self):
        for k in (3, 4, 5, 6):
            values = [op.exact_ex(n, k).value for n in range(2, 10)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cap_refusal(self):
        with pytest.raises(op.OracleCapError) as err:
            op.exact_ex(65, 5)
        assert "1024 (length, apex) pairs" in str(err.value)  # DP size included

    def test_cap_can_be_raised(self):
        assert op.exact_ex(8, 11, cap=8).value == 13  # k > n: full triangulation

    def test_deterministic_witness(self):
        a = op.exact_ex(7, 4)
        b = op.exact_ex(7, 4)
        assert a.witness == b.witness and a.value == b.value

    def test_values_beyond_the_sweep(self):
        # computed by the exhaustive triangulation sweep this oracle replaced
        pins = {
            11: (14, 16, 16, 17, 18, 18),
            12: (16, 18, 18, 19, 19, 20),
        }
        for n, values in pins.items():
            for k, value in zip(range(3, 9), values):
                assert op.exact_ex(n, k).value == value, (n, k)

    def test_sharp_residues_meet_the_bound(self):
        for k in range(3, 8):
            for n in range(2, 41):
                if op.sharp_residue(k, n):
                    assert op.exact_ex(n, k).value == op.upper_bound(k, n).floor(), (k, n)

    def test_witnesses_pass_both_detectors(self):
        for k in range(3, 8):
            for n in range(2, 41):
                r = op.exact_ex(n, k)
                assert r.witness.e == r.value
                assert find_cycle_in_edges(r.witness.n, r.witness.edges, k) is None, (k, n)
                emb = op.recognize_outerplanar(r.witness)
                assert k not in op.cycle_length_set(emb), (k, n)

    def test_dominated_states_dropped(self):
        # a state loses to one with a subset of its path lengths and no fewer edges
        states = {0b0110: (5, "a"), 0b0010: (4, "b"), 0b1110: (4, "c"), 0b0100: (5, "d")}
        assert list(_pareto(states).items()) == [(0b0100, (5, "d")), (0b0010, (4, "b"))]
