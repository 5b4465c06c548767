"""Acceptance criteria, one test per criterion, exact tolerances pinned.

Each test prints a single PASS line on success (visible with -s / -rP);
a failed assertion marks the criterion failed.
"""

import functools
import random
import time

import opturan as op
from opturan.cli import main as cli_main

from helpers import path_length_set, rand_ckfree_subgraph, rand_subgraph, rand_triangulation


@functools.lru_cache(maxsize=None)
def oracle_value(n: int, k: int):
    return op.exact_ex(n, k)


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS — {detail}")


def test_criterion_1_sharpness_reproduction(capsys):
    started = time.monotonic()
    chain = op.build_chain(4, 1).graph
    assert (chain.n, chain.e) == (10, 15)

    result = oracle_value(10, 4)
    assert result.value == 15
    witness = result.witness
    assert witness.e == 15
    assert not op.has_cycle_of_length(witness, 4)
    emb = op.recognize_outerplanar(witness)
    assert 4 not in op.cycle_length_set(emb)

    bound = op.upper_bound(4, 10)
    assert bound.is_integer() and bound.floor() == 15
    assert chain.e == result.value == bound.floor()

    code = cli_main(["construct", "-k", "4", "-m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=10 e=15" in out and "equality=yes" in out
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"sweep took {elapsed:.1f}s, target is under 10 minutes"
    _report("criterion 1", f"construction and oracle agree at 15 ({elapsed:.1f}s)")


def test_criterion_2_bound_validity():
    expected_equality = {
        3: {n for n in range(2, 11) if n % 2 == 0},
        4: {3, 10},
        5: {4},
        6: {5},
    }
    for k in (3, 4, 5, 6):
        for n in range(2, 11):
            value = oracle_value(n, k).value
            check = op.bound_holds(value, k, n)
            assert check.holds, (k, n, value)
            assert check.equality == (n in expected_equality[k]), (k, n, value)
            # the stated equality sets are exactly the sharp residues in range
            assert (n in expected_equality[k]) == op.sharp_residue(k, n), (k, n)
    _report("criterion 2", "exact_ex <= bound for k in 3..6, n in 2..10; equality at sharp residues only")


def test_criterion_3_construction_identities():
    started = time.monotonic()
    for k in range(3, 11):
        for m in range(0, 4):
            params = op.ChainParams(k, m)
            emb = op.build_chain(k, m)
            g = emb.graph
            assert g.n == (k - 1) + m * (k * k - 2 * k - 1)
            assert g.e == (2 * k - 5) * (1 + m * k)
            assert g.n == params.vertex_count and g.e == params.edge_count
            op.recognize_outerplanar(g)  # outerplanarity
            assert not op.has_cycle_of_length(g, k), (k, m)
            assert k not in op.cycle_length_set(emb), (k, m)
            assert op.bound_holds(g.e, k, g.n).equality, (k, m)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"construction checks took {elapsed:.1f}s, budget is 1 minute"
    _report("criterion 3", f"all 32 chains verified by both cycle oracles ({elapsed:.1f}s)")


def test_criterion_4_proof_replay():
    # (a) every construction of criterion 3
    for k in range(3, 11):
        for m in range(0, 4):
            emb = op.build_chain(k, m)
            cert = op.build_certificate(emb, k)
            report = op.verify_certificate(cert, k)
            assert report.verdict, (k, m, report.failures[:3])
            assert report.root_slack == 0, (k, m, report.root_slack)

    # (b) every oracle witness of criterion 2
    for k in (3, 4, 5, 6):
        for n in range(2, 11):
            witness = oracle_value(n, k).witness
            emb = op.recognize_outerplanar(witness)
            cert = op.build_certificate(emb, k)
            report = op.verify_certificate(cert, k)
            assert report.verdict, (k, n, report.failures[:3])
            if op.sharp_residue(k, n) and op.bound_holds(witness.e, k, n).equality:
                assert report.root_slack == 0, (k, n)

    # (c) 500 random k-cycle-free subgraphs of random triangulations
    rng = random.Random(20250809)
    for trial in range(500):
        n = rng.randint(4, 12)
        k = rng.choice([5, 6, 7])
        g = rand_ckfree_subgraph(rng, n, k)
        emb = op.recognize_outerplanar(g)
        cert = op.build_certificate(emb, k)
        report = op.verify_certificate(cert, k)
        assert report.verdict, (trial, g.edges, k, report.failures[:3])
    _report("criterion 4", "proof replay on 32 chains, 36 witnesses, 500 random hosts")


def test_criterion_5_structure_propositions():
    rng = random.Random(5150)
    corpus: list[op.OuterplaneEmbedding] = []
    for n in range(3, 9):
        corpus.extend(op.triangulations(n))
    randoms = [rand_triangulation(rng, rng.randint(3, 15)) for _ in range(500)]
    corpus.extend(randoms)

    for emb in corpus:
        n = emb.graph.n
        # three-way equivalence: is_edge_maximal raises on any disagreement
        assert op.is_edge_maximal(emb)
        assert emb.graph.e == 2 * n - 3
        # path and cycle spectra on edge-maximal inputs
        from opturan.embedding import outer_boundary_edges

        edges = sorted(outer_boundary_edges(emb))
        probe = edges if n <= 12 else edges[:1]
        for u, v in probe:
            assert path_length_set(emb, u, v) == frozenset(range(1, n))
        assert op.cycle_length_set(emb) == frozenset(range(3, n + 1))
        dual = op.weak_dual(emb)  # acyclicity asserted internally
        part = op.triangular_blocks(dual, emb.graph.edges)
        assert sorted(e for b in part.blocks for e in b.edges) == list(emb.graph.edges)

    # subgraph embeddings exercise the (4+)-face machinery
    checked_faces = 0
    for t in randoms:
        g = rand_subgraph(rng, t.graph, 0.7)
        emb = op.recognize_outerplanar(g)
        op.is_edge_maximal(emb)  # never disagrees on non-maximal inputs either
        dual = op.weak_dual(emb)
        part = op.triangular_blocks(dual, g.edges)
        assert sorted(e for b in part.blocks for e in b.edges) == list(g.edges)
        has_big = any(len(f) >= 4 for f in op.inner_faces(emb))
        got = op.find_reducible_face(dual)
        assert (got is not None) == has_big
        if got is not None:
            checked_faces += 1
            face, _ = got
            classified = op.classify_terminal(part, dual)
            owner = classified.block_of_edge()
            terminal = sum(1 for e in op.cycle_edges(face) if classified.blocks[owner[e]].terminal)
            assert terminal >= len(face) - 1
    assert checked_faces > 200
    _report(
        "criterion 5",
        f"propositions hold on 196 exhaustive + 500 random triangulations "
        f"and {checked_faces} derived (4+)-face hosts",
    )


def test_criterion_6_discrepancy_report(tmp_path):
    values = {n: oracle_value(n, 4).value for n in range(3, 11)}
    rows = op.comparison_rows(4, range(3, 11), values)
    text = op.comparison_csv(rows)
    path = tmp_path / "fang_k4.csv"
    path.write_text(text)
    assert path.read_text() == text

    by_n = {row["n"]: row for row in rows}
    assert by_n[10]["fang_as_stated"] == 11
    assert by_n[10]["oracle_value"] == 15
    assert by_n[10]["divergent"] == "yes"
    for row in rows:
        expect = "yes" if row["fang_as_stated"] != row["oracle_value"] else "no"
        assert row["divergent"] == expect, row
    divergent_rows = [row["n"] for row in rows if row["divergent"] == "yes"]
    assert 10 in divergent_rows
    _report(
        "criterion 6",
        f"transcribed-formula report written; divergent rows at n={divergent_rows}",
    )
