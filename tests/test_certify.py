import json
import random

import pytest

import opturan as op
from opturan.certify import (
    BASE,
    BIG_FACE_SPLIT,
    CUT_SPLIT,
    EDGELESS,
    MAXIMAL_LEAF,
    TERMINAL_PEEL,
)

from helpers import rand_ckfree_subgraph


def certify(g_or_emb, k):
    emb = (
        g_or_emb
        if isinstance(g_or_emb, op.OuterplaneEmbedding)
        else op.recognize_outerplanar(g_or_emb)
    )
    cert = op.build_certificate(emb, k)
    report = op.verify_certificate(cert, k)
    return cert, report


def node_kinds(node, bag=None):
    bag = [] if bag is None else bag
    bag.append(node.kind)
    for child in node.children:
        node_kinds(child, bag)
    return bag


class TestBuilder:
    def test_single_edge_base(self):
        cert, report = certify(op.fan(2), 3)
        assert cert.root.kind == BASE
        assert report.verdict and report.root_slack == 0

    def test_fan4_k5_maximal_leaf(self):
        cert, report = certify(op.fan(4), 5)
        assert cert.root.kind == MAXIMAL_LEAF
        entry = report.entries[0]
        assert (entry.lhs, entry.rhs) == (70, 70)
        assert report.verdict and report.root_slack == 0

    def test_chain51_big_face_split(self):
        cert, report = certify(op.build_chain(5, 1), 5)
        root = cert.root
        assert root.kind == BIG_FACE_SPLIT
        assert len(root.children) == 6
        assert all(c.kind == MAXIMAL_LEAF for c in root.children)
        assert sum(c.n for c in root.children) == 18 + 6
        assert report.verdict and report.root_slack == 0
        root_entry = report.entries[0]
        assert root_entry.lhs == root_entry.rhs == 420

    def test_bowtie_cut_split(self):
        g = op.make_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        cert, report = certify(g, 4)
        assert cert.root.kind == CUT_SPLIT
        assert report.verdict

    def test_disconnected(self):
        g = op.make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        cert, report = certify(g, 4)
        assert cert.root.kind == CUT_SPLIT
        assert report.verdict

    def test_edgeless(self):
        cert, report = certify(op.make_graph(4, []), 5)
        assert cert.root.kind == EDGELESS
        assert report.verdict

    def test_isolated_vertices_stripped(self):
        g = op.make_graph(6, [(0, 1), (1, 2)])
        cert, report = certify(g, 5)
        assert cert.graph.n == 6
        assert cert.root.n == 3  # only the live part is decomposed
        assert report.verdict

    def test_terminal_peel_appears(self):
        # square face with one triangle block: peels at k >= 6
        g = op.make_graph(
            5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]
        )
        cert, report = certify(g, 6)
        assert TERMINAL_PEEL in node_kinds(cert.root)
        assert report.verdict

    def test_rejects_forbidden_cycle(self):
        with pytest.raises(op.ContainsForbiddenCycleError):
            op.build_certificate(op.fan(5), 5)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            op.build_certificate(op.recognize_outerplanar(op.make_graph(1, [])), 5)

    def test_peel_bookkeeping_exact(self):
        rng = random.Random(31)
        peels = 0
        for _ in range(300):
            n = rng.randint(6, 12)
            k = rng.choice([6, 7, 8])
            g = rand_ckfree_subgraph(rng, n, k)
            cert, report = certify(g, k)
            assert report.verdict, report.failures[:3]

            def check(node):
                nonlocal peels
                if node.kind == TERMINAL_PEEL:
                    peels += 1
                    rest, star = node.children
                    assert rest.n + star.n == node.n + 1
                    assert rest.e + star.e == node.e
                for child in node.children:
                    check(child)

            check(cert.root)
        assert peels > 20


class TestVerifier:
    def test_chain_certificates_slack_zero(self):
        for k in (3, 4, 5, 6):
            for m in (0, 1, 2):
                cert, report = certify(op.build_chain(k, m), k)
                assert report.verdict, (k, m)
                assert report.root_slack == 0, (k, m)

    def test_nonsharp_positive_slack(self):
        g = op.make_graph(3, [(0, 1), (1, 2)])
        _, report = certify(g, 5)
        assert report.verdict and report.root_slack > 0

    def test_tampered_maximal_leaf(self):
        cert = op.build_certificate(op.fan(4), 5)
        data = json.loads(op.certificate_to_json(cert))
        f5 = op.fan(5).graph
        data["graph"] = {"n": 5, "edges": [list(e) for e in f5.edges]}
        data["root"].update(
            {
                "n": 5,
                "e": 7,
                "edges": [list(e) for e in f5.edges],
                "to_parent": [0, 1, 2, 3, 4],
            }
        )
        bad = op.certificate_from_json(json.dumps(data))
        report = op.verify_certificate(bad, 5)
        assert not report.verdict
        assert any("n=5 > k-1=4" in f for f in report.failures)
        assert any("root" in f for f in report.failures)

    def test_tampered_child_edges(self):
        cert = op.build_certificate(
            op.recognize_outerplanar(op.make_graph(3, [(0, 1), (1, 2)])), 4
        )
        data = json.loads(op.certificate_to_json(cert))
        data["root"]["children"][0]["edges"] = [[0, 1]]
        data["root"]["children"][0]["to_parent"] = [0, 2]
        bad = op.certificate_from_json(json.dumps(data))
        assert not op.verify_certificate(bad, 4).verdict

    def test_wrong_k_flagged(self):
        cert = op.build_certificate(op.fan(4), 6)
        report = op.verify_certificate(cert, 7)
        assert not report.verdict

    def test_malformed_json(self):
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json("{}")
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json('{"k": 5, "graph": {"n": 2, "edges": []}, "root": {"kind": "base"}}')

    def test_roundtrip(self):
        cert, _ = certify(op.build_chain(4, 1), 4)
        text = op.certificate_to_json(cert)
        again = op.certificate_from_json(text)
        assert op.certificate_to_json(again) == text
        assert op.verify_certificate(again, 4).verdict

    def test_audit_lines(self):
        _, report = certify(op.fan(4), 5)
        lines = report.format_lines()
        assert lines[-1] == "verdict=true root_slack=0"
        assert any("maximal_leaf" in line for line in lines)

    def test_failing_root_bound_is_a_failure_not_an_exception(self, monkeypatch):
        import opturan.certify as certify_module

        cert = op.build_certificate(op.fan(4), 5)
        failing = op.BoundCheck(holds=False, equality=False, lhs=1, rhs=0)
        monkeypatch.setattr(certify_module, "bound_holds", lambda e, k, n: failing)
        report = op.verify_certificate(cert, 5)
        assert not report.verdict
        assert report.failures == ("root: every node checks out but the root bound fails",)
        assert report.format_lines()[-1].startswith("verdict=false")


class TestCompleteness:
    def test_oracle_witnesses_certify(self):
        for k in (3, 4, 5, 6):
            for n in range(2, 9):
                witness = op.exact_ex(n, k).witness
                cert, report = certify(witness, k)
                assert report.verdict, (k, n, report.failures[:3])
                if op.sharp_residue(k, n):
                    assert report.root_slack == 0, (k, n)
                else:
                    assert report.root_slack > 0, (k, n)

    def test_random_ckfree_subgraphs(self):
        rng = random.Random(32)
        for _ in range(250):
            n = rng.randint(4, 12)
            k = rng.choice([5, 6, 7])
            g = rand_ckfree_subgraph(rng, n, k)
            _, report = certify(g, k)
            assert report.verdict, (g.edges, k, report.failures[:3])

    def test_verdict_implies_bound(self):
        rng = random.Random(33)
        for _ in range(150):
            n = rng.randint(3, 11)
            k = rng.choice([4, 5, 6])
            g = rand_ckfree_subgraph(rng, n, k)
            _, report = certify(g, k)
            if report.verdict:
                assert op.bound_holds(g.e, k, g.n).holds
