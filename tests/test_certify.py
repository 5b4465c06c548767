import dataclasses
import importlib
import json
from collections import Counter
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import opturan as op
from opturan.certify import (
    BASE,
    BIG_FACE_SPLIT,
    CUT_SPLIT,
    EDGELESS,
    MAXIMAL_LEAF,
    TERMINAL_PEEL,
    _cut_children,
    _halves,
)
from opturan.dual import branch_weights

from helpers import ladder, pendant_polygon, rand_ckfree_subgraph

SRC = str(Path(__file__).resolve().parents[1] / "src")


def certify(g_or_emb, k):
    emb = (
        g_or_emb
        if isinstance(g_or_emb, op.OuterplaneEmbedding)
        else op.recognize_outerplanar(g_or_emb)
    )
    cert = op.build_certificate(emb, k)
    report = op.verify_certificate(cert, k)
    return cert, report


def depth(node):
    """Nodes on the longest root-to-leaf path."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in node.children)
    return deepest


def children_of(report, path="root"):
    """Audit entries of the children of the node at `path`, in order."""
    return [e for e in report.entries if e.path.rpartition(".")[0] == path]


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
        assert sum(c.n for c in children_of(report)) == 18 + 6
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
        assert report.entries[0].n == 3  # only the live part is decomposed
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
            _, report = certify(g, k)
            assert report.verdict, report.failures[:3]
            for node in report.entries:
                if node.kind == TERMINAL_PEEL:
                    peels += 1
                    rest, star = children_of(report, node.path)
                    assert rest.n + star.n == node.n + 1
                    assert rest.e + star.e == node.e
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
        bad = op.certificate_from_json(json.dumps(data))
        report = op.verify_certificate(bad, 5)
        assert not report.verdict
        assert any("n=5 > k-1=4" in f for f in report.failures)
        assert any("root" in f for f in report.failures)

    def test_vouched_maximal_leaf_is_settled_by_its_edge_count(self):
        # a 4-cycle with a pendant edge, cut at vertex 3; the 4-cycle child,
        # vouched for by its recognised parent, is recorded as a maximal leaf
        g = op.make_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
        cert = op.build_certificate(op.recognize_outerplanar(g), 5)
        assert cert.root.kind == CUT_SPLIT and cert.root.children[0].kind == TERMINAL_PEEL
        leaf = op.CertNode(kind=MAXIMAL_LEAF)
        root = dataclasses.replace(cert.root, children=(leaf,) + cert.root.children[1:])
        report = op.verify_certificate(dataclasses.replace(cert, root=root), 5)
        assert not report.verdict
        assert report.failures == ("root.0: maximal leaf has e=4, expected 5",)

    def test_tampered_child_edges(self):
        cert = op.build_certificate(
            op.recognize_outerplanar(op.make_graph(3, [(0, 1), (1, 2)])), 4
        )
        data = json.loads(op.certificate_to_json(cert))
        assert data["nodes"][0] == ["cut_split", 1, [0]]
        # cut at an end of the path: its only part holds side, child 1 gets no edge
        data["nodes"][0][1] = 2
        bad = op.certificate_from_json(json.dumps(data))
        report = op.verify_certificate(bad, 4)
        assert not report.verdict
        assert report.failures == ("root: cut 2 with side [0] leaves a child without edges",)

    def test_wrong_k_flagged(self):
        cert = op.build_certificate(op.fan(4), 6)
        report = op.verify_certificate(cert, 7)
        assert not report.verdict

    def test_cycle_length_below_three_is_a_root_failure(self):
        """A document for k=2, audited with its own k, fails at the root; no
        node is audited, since no node graph can be searched for 2-cycles."""
        data = json.loads(op.certificate_to_json(op.build_certificate(op.fan(4), 5)))
        data["k"] = 2
        report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), 2)
        assert not report.verdict
        assert report.failures == ("root: cycle length must be at least 3, got k=2",)
        assert report.entries == ()

    @pytest.mark.parametrize(
        "edges, failure",
        [(((0, 0), (0, 1)), "loop edge (0, 0)"), (((0, 1), (1, 5)), "edge (1, 5) outside vertex range 0..2")],
        ids=["loop", "out of range"],
    )
    def test_hand_built_graph_is_a_root_failure(self, edges, failure):
        """A Graph can be made without make_graph, so the verifier validates
        the certified graph itself; an invalid one audits no node."""
        cert = op.build_certificate(op.recognize_outerplanar(op.make_graph(3, [(0, 1), (1, 2)])), 4)
        report = op.verify_certificate(dataclasses.replace(cert, graph=op.Graph(3, edges)), 4)
        assert not report.verdict
        assert report.failures == (f"root: invalid certified graph: {failure}",)
        assert report.entries == ()

    def test_malformed_json(self):
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json("{}")
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json('{"k": 5, "graph": {"n": 2, "edges": []}, "root": {"kind": "base"}}')
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json('{"format": 4, "k": 5, "graph": {"n": 2, "edges": []}, "root": {"kind": "base"}}')

    def test_format_1_is_rejected(self):
        data = json.loads(op.certificate_to_json(op.build_certificate(op.fan(4), 5)))
        data["format"] = 1
        with pytest.raises(op.CertificateFormatError, match="unsupported certificate format 1"):
            op.certificate_from_json(json.dumps(data))

    def test_roundtrip(self):
        cert, _ = certify(op.build_chain(4, 1), 4)
        text = op.certificate_to_json(cert)
        again = op.certificate_from_json(text)
        assert op.certificate_to_json(again) == text
        assert op.verify_certificate(again, 4).verdict

    def test_deep_tree_round_trips_without_recursion(self):
        """The writer and the reader walk the node list with stacks of their
        own, so a tree far deeper than the recursion limit reads back."""
        root = op.CertNode(kind=BASE)
        for _ in range(5 * sys.getrecursionlimit()):
            root = op.CertNode(CUT_SPLIT, (op.CertNode(kind=BASE), root), cut=0, side=(1,))
        text = op.certificate_to_json(op.Certificate(k=5, graph=op.make_graph(2, [(0, 1)]), root=root))
        assert op.certificate_to_json(op.certificate_from_json(text)) == text

    def test_deep_inputs_certify_under_a_low_recursion_limit(self, tmp_path):
        """Build, verify, write and read each loop over a stack of their own,
        so certificates about 300 levels deep pass at recursion limit 120."""
        script = (
            "import sys\n"
            "import opturan as op\n"
            "graphs = [op.graph_from_text(open(p).read()) for p in sys.argv[1:]]\n"
            "sys.setrecursionlimit(120)\n"
            "for g in graphs:\n"
            "    cert = op.build_certificate(op.recognize_outerplanar(g), 5)\n"
            "    lines = op.verify_certificate(cert, 5).format_lines()\n"
            "    text = op.certificate_to_json(cert)\n"
            "    again = op.certificate_from_json(text)\n"
            "    same = op.certificate_to_json(again) == text\n"
            "    print(lines[-1], same, op.verify_certificate(again, 5).format_lines() == lines)\n"
        )
        paths = []
        for name, graph in (("ladder", ladder(300)), ("pendants", pendant_polygon(300))):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(op.graph_to_json(graph))
        done = subprocess.run(
            [sys.executable, "-c", script, *map(str, paths)],
            env={"PYTHONPATH": SRC, "PATH": ""}, capture_output=True, text=True, timeout=120,
        )
        assert done.stderr == ""
        # slack (2k-5)(kn-k-1) - e(k^2-2k-1) at k=5, n=600: e=898 and e=600
        assert done.stdout.splitlines() == [f"verdict=true root_slack={slack} True True" for slack in (2398, 6570)]

    def test_benchmark_certificates_read_back_equal(self, monkeypatch):
        """Every certificate of the benchmark's chain_certify ops and of its
        host_cli hosts for seed 1 reads back as the tree that was written."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        inputs = [(op.build_chain(k, m), k) for k, m in workloads.CHAINS]
        for host in workloads.host_inputs(1):
            inputs.append((op.recognize_outerplanar(op.make_graph(host.n, host.edges)), host.k))
        assert len(inputs) == 125
        for emb, k in inputs:
            cert = op.build_certificate(emb, k)
            assert op.certificate_from_json(op.certificate_to_json(cert)) == cert

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


PATH9 = op.make_graph(9, [(i, i + 1) for i in range(8)])
CHAIN51 = op.build_chain(5, 1).graph
LADDER = op.make_graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)])
HEXAGON_WITH_PENDANT = op.make_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)])
# 8 disjoint triangles; two triangles and a path of two edges at vertex 0
TRIANGLES8 = op.make_graph(
    24, [(3 * c + a, 3 * c + b) for c in range(8) for a, b in ((0, 1), (1, 2), (0, 2))]
)
BOUQUET = op.make_graph(7, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4), (0, 5), (5, 6)])
BASE_LEAF = ["base"]


BAD_SIDE = "must name distinct vertices other than the cut"
NOT_A_FACE = "recorded face is not an inner face of the node graph"


def _set(key, value, keep=None):
    """Set the root's field `key` to `value`, keeping its first `keep` children."""
    return lambda root: dataclasses.replace(root, children=root.children[:keep], **{key: value})


def _add_child(root):
    return dataclasses.replace(root, children=root.children + (op.CertNode(kind=BASE),))


def _pop_child(root):
    return dataclasses.replace(root, children=root.children[:-1])


def _second_tree(nodes):
    nodes.append(BASE_LEAF)


def _unknown_root(nodes):
    nodes[0][0] = "mystery"


class TestSelections:
    """Each selection that does not fit its graph is one audit failure at its node.

    A node of another shape, with a kind that is none, the selection fields
    of another kind or another number of children, cannot be made: CertNode
    refuses it, and a document edited to the same shape reads back as a
    format error.
    """

    CASES = [
        # (graph, k, change to the root node, the one failure)
        (PATH9, 5, _set("cut", -1), "cut -1 is not a vertex of the node graph"),
        (PATH9, 5, _set("cut", 9), "cut 9 is not a vertex of the node graph"),
        (PATH9, 5, _set("side", (10**6,)), "side [1000000] " + BAD_SIDE),
        (PATH9, 5, _set("side", (0, 0)), "side [0, 0] " + BAD_SIDE),
        (PATH9, 5, _set("side", (4,)), "side [4] " + BAD_SIDE),
        (PATH9, 5, _set("side", ()), "side [] " + BAD_SIDE),
        (PATH9, 5, lambda root: op.CertNode(EDGELESS), "edgeless node has edges"),
        (CHAIN51, 5, _set("face", (0, 1, 2, 3, 4, 99)), NOT_A_FACE),
        (CHAIN51, 5, _set("face", (0, 1, 2, 3, 4, 4)), NOT_A_FACE),
        (CHAIN51, 5, _set("face", (0, 1, 2), keep=3), "face of size 3 is below k+1 = 6"),
        (LADDER, 5, _set("face", (1, 0, 3, 2)), "a peeled face edge lies in a non-terminal block"),
        (LADDER, 5, _set("face", (0, 1, 2, 4, 5, 3)), "face size 6 outside 4..4"),
        (LADDER, 5, _set("face", (0, 1, 2, 4)), NOT_A_FACE),  # no chord, but 4-0 is no edge
    ]

    @pytest.mark.parametrize("graph, k, change, failure", CASES, ids=[case[3] for case in CASES])
    def test_failure_not_exception(self, graph, k, change, failure):
        cert = op.build_certificate(op.recognize_outerplanar(graph), k)
        bad = dataclasses.replace(cert, root=change(cert.root))
        assert op.verify_certificate(bad, k).failures == (f"root: {failure}",)
        report = op.verify_certificate(op.certificate_from_json(op.certificate_to_json(bad)), k)
        assert report.failures == (f"root: {failure}",)

    SHAPES = [
        # (graph, k, change to the root node, CertNode's error,
        #  an edit of the valid document's nodes to the same shape, the reader's error)
        (PATH9, 5, _add_child, "a cut_split node takes 2 children, not 3", _second_tree, "holds 2 trees"),
        (CHAIN51, 5, _pop_child, "a big_face_split node takes 6 children, not 5", list.pop, "ends before the children"),
        (op.fan(4).graph, 5, _add_child, "a maximal_leaf node takes 0 children, not 1", _second_tree, "holds 2 trees"),
        (
            op.fan(4).graph, 5, _set("kind", "mystery"), "'mystery' is not a node kind",
            _unknown_root, "unknown node kind 'mystery'",
        ),
    ]

    @pytest.mark.parametrize(
        "graph, k, change, made, edit, read",
        SHAPES,
        ids=["cut split with 3 children", "big face with 5 of 6", "leaf with a child", "unknown kind"],
    )
    def test_misshapen_node_cannot_be_made(self, graph, k, change, made, edit, read):
        cert = op.build_certificate(op.recognize_outerplanar(graph), k)
        with pytest.raises(op.CertificateFormatError, match=made):
            change(cert.root)
        data = json.loads(op.certificate_to_json(cert))
        edit(data["nodes"])
        with pytest.raises(op.CertificateFormatError, match=read):
            op.certificate_from_json(json.dumps(data))

    def test_big_face_split_needs_every_part_across_one_edge(self):
        # the pendant edge hangs at one face vertex, not across a face edge
        data = {
            "format": 4,
            "k": 5,
            "graph": json.loads(op.graph_to_json(HEXAGON_WITH_PENDANT)),
            "nodes": [["big_face_split", list(range(6))]] + [BASE_LEAF] * 6,
        }
        report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), 5)
        assert report.failures == ("root: the part at vertex 6 does not hang across one face edge",)

    # a 4-cycle 0-1-2-3 with a pendant edge 0-4 or 1-4 (at v1 = 0 or at the
    # interior face vertex 1), peeled at the root: the pendant hangs across
    # no face edge, so it stays in the rest, the path 3-0-4 or 3-0 with 1-4
    PEELS = [
        (0, ["cut_split", 0, [3]], ()),
        (1, ["cut_split", None, [0]], ("root: n'+n* = 7 differs from n+1 = 6",)),
    ]

    @pytest.mark.parametrize("at, rest, failures", PEELS)
    def test_peel_keeps_parts_across_no_face_edge_in_the_rest(self, at, rest, failures):
        graph = op.make_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (at, 4)])
        data = {
            "format": 4,
            "k": 5,
            "graph": json.loads(op.graph_to_json(graph)),
            "nodes": [["terminal_peel", [0, 1, 2, 3]], rest, BASE_LEAF, BASE_LEAF, ["maximal_leaf"]],
        }
        report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), 5)
        assert report.failures == failures
        assert report.verdict == (failures == ())

    def test_cut_split_without_side(self):
        cert = op.build_certificate(op.recognize_outerplanar(op.make_graph(3, [(0, 1), (1, 2)])), 4)
        with pytest.raises(op.CertificateFormatError, match="cut_split node cannot hold cut=1, side=None"):
            dataclasses.replace(cert.root, side=None)
        text = op.certificate_to_json(cert).replace('["cut_split",1,[0]]', '["cut_split",1]')
        with pytest.raises(op.CertificateFormatError):
            op.certificate_from_json(text)

    # roots whose selection fields are not their kind's: the document each
    # would give does not read back, so CertNode refuses them and the writer
    # never meets one
    UNWRITABLE = [
        (op.make_graph(3, [(0, 1), (1, 2)]), 4, "side", None, "cut_split node cannot hold cut=1, side=None, face=None"),
        (LADDER, 5, "face", None, "terminal_peel node cannot hold cut=None, side=None, face=None"),
        (op.fan(4).graph, 5, "face", (0, 1, 2), r"maximal_leaf node cannot hold cut=None, side=None, face=\(0, 1, 2\)"),
        (PATH9, 5, "face", (0, 1, 2), r"cut_split node cannot hold cut=4, side=\(0,\), face=\(0, 1, 2\)"),
        (PATH9, 5, "side", (True,), r"cut_split node cannot hold cut=4, side=\(True,\), face=None"),
        (CHAIN51, 5, "face", [0, 1, 2, 3, 4, 5], r"big_face_split node cannot hold .* face=\[0, 1, 2, 3, 4, 5\]"),
    ]

    @pytest.mark.parametrize(
        "graph, k, key, value, written",
        UNWRITABLE,
        ids=[
            "cut split without side", "peel without face", "leaf with a face", "cut split with a face",
            "bool vertex", "face as a list",
        ],
    )
    def test_writer_refuses_fields_of_another_kind(self, graph, k, key, value, written):
        cert = op.build_certificate(op.recognize_outerplanar(graph), k)
        with pytest.raises(op.CertificateFormatError, match=f"a {written}"):
            dataclasses.replace(cert.root, **{key: value})

    # the root split of each graph, and sides naming other vertices of the same parts
    SIDES = [
        (PATH9, 5, 4, (0,), ([3], [1, 2])),
        (TRIANGLES8, 4, None, (0, 6, 12, 18), ([2, 7, 13, 20], [0, 1, 6, 12, 14, 18])),
        (BOUQUET, 4, 0, (1, 5), ([2, 6], [1, 2, 6])),
    ]

    @pytest.mark.parametrize("graph, k, cut, side, others", SIDES)
    def test_side_may_name_any_vertices_of_its_parts(self, graph, k, cut, side, others):
        """A part goes to child 0 when side names any of its vertices, not only its least."""
        cert = op.build_certificate(op.recognize_outerplanar(graph), k)
        assert (cert.root.cut, cert.root.side) == (cut, side)
        entries = op.verify_certificate(cert, k).entries
        data = json.loads(op.certificate_to_json(cert))
        for other in others:
            assert _cut_children(list(graph.edges), cut, tuple(other)) == _cut_children(list(graph.edges), cut, side)
            data["nodes"][0][2] = other
            report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), k)
            assert report.verdict
            assert report.entries == entries

    def test_rotated_face_still_verifies(self):
        cert = op.build_certificate(op.build_chain(5, 1), 5)
        data = json.loads(op.certificate_to_json(cert))
        # the root's six children are leaves, one node each
        root, face, leaves = data["nodes"][0], data["nodes"][0][1], data["nodes"][1:]
        assert len(leaves) == len(face) == 6
        root[1] = face[2:] + face[:2]
        data["nodes"][1:] = leaves[2:] + leaves[:2]
        assert op.verify_certificate(op.certificate_from_json(json.dumps(data)), 5).verdict


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


class TestBalancedSplits:
    @staticmethod
    def limit(n):
        return 2 * math.ceil(math.log2(n)) + 4

    def test_chain_5_64_is_shallow(self):
        emb = op.build_chain(5, 64)
        cert, report = certify(emb, 5)
        assert report.verdict and report.root_slack == 0
        assert depth(cert.root) <= self.limit(emb.graph.n)

    def test_path_5000_certifies_shallow(self):
        n = 5000
        cert, report = certify(op.make_graph(n, [(i, i + 1) for i in range(n - 1)]), 5)
        assert report.verdict
        assert report.root_slack == 5 * (5 * n - 6) - (n - 1) * 14
        assert depth(cert.root) <= self.limit(n)
        # selections only: the size grows like the certified graph's edge list
        small, _ = certify(op.make_graph(500, [(i, i + 1) for i in range(499)]), 5)
        ratio = len(op.certificate_to_json(cert)) / len(op.certificate_to_json(small))
        assert ratio < 11

    def test_random_tree_2000_is_shallow(self):
        rng = random.Random(34)
        n = 2000
        g = op.make_graph(n, [(rng.randrange(i), i) for i in range(1, n)])
        cert, report = certify(g, 6)
        assert report.verdict
        assert depth(cert.root) <= self.limit(n)

    def test_disconnected_components_are_halved(self):
        # 8 disjoint triangles (maximal leaves at k=4), halved three times
        g = op.make_graph(24, [(3 * c + a, 3 * c + b) for c in range(8) for a, b in ((0, 1), (1, 2), (0, 2))])
        cert, report = certify(g, 4)
        assert report.verdict
        assert [c.e for c in children_of(report)] == [12, 12]
        assert depth(cert.root) == 4

    def test_cut_split_at_the_centre(self):
        # a path 0-1-...-8: the middle vertex 4 leaves branches of 4 edges each
        cert, report = certify(op.make_graph(9, [(i, i + 1) for i in range(8)]), 5)
        assert cert.root.kind == CUT_SPLIT
        assert cert.root.cut == 4
        assert [c.e for c in children_of(report)] == [4, 4]

    def test_big_face_split_at_the_centre(self):
        # three hexagons in a row, k=5: the middle one, not the least one
        # (0..5), leaves the lightest largest child
        g = op.make_graph(14, [(i, i + 1) for i in range(13)] + [(0, 13), (0, 5), (6, 11)])
        cert, report = certify(g, 5)
        assert report.verdict and report.root_slack == 5 * (5 * 14 - 6) - 16 * 14
        assert cert.root.kind == BIG_FACE_SPLIT
        assert cert.root.face == (0, 5, 6, 11, 12, 13)
        assert [c.e for c in children_of(report)] == [6, 1, 6, 1, 1, 1]

    def test_branch_weights(self):
        # path 0-1-2-3 with weights 1, 2, 3, 4
        adj = [[1], [0, 2], [1, 3], [2]]
        assert branch_weights(adj, [1, 2, 3, 4]) == [[9], [1, 7], [3, 4], [6]]
        # a forest: the star 1-{0, 3}, the lone node 2 and the edge 4-5;
        # each branch sums within its own tree
        adj = [[1], [0, 3], [], [1], [5], [4]]
        assert branch_weights(adj, [1, 2, 4, 8, 16, 32]) == [[10], [1, 8], [], [3], [32], [16]]

    def test_halves(self):
        assert _halves([5, 3, 3, 1]) == ([0, 3], [1, 2])
        assert _halves([2, 2]) == ([0], [1])
        assert _halves([1, 4, 1, 1, 1]) == ([1], [0, 2, 3, 4])


class TestWorkModel:
    """Children inherit outerplanarity and k-cycle-freeness from their parents.
    The builder walks the faces of the input's weak dual and keeps each
    contracted peel as faces too, so it builds no graph; the verifier
    recognises and searches only the root."""

    def test_recognition_only_at_the_root(self, monkeypatch):
        import opturan.certify as certify_module
        import opturan.embedding as embedding_module

        calls = Counter()

        def counted(name, module=certify_module):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        assert not hasattr(certify_module, "restrict_embedding")
        names = ("recognize_outerplanar", "has_cycle_of_length", "subgraph_on_edges", "_cut_children")
        for name in names:
            counted(name)
        counted("biconnected_decomposition", embedding_module)
        for g, peels, leaves in ((ladder(12), 11, 11), (CHAIN51, 0, 6), (HEXAGON_WITH_PENDANT, 0, 0)):
            emb = op.recognize_outerplanar(g)
            calls.clear()
            cert = op.build_certificate(emb, 5)
            kinds = node_kinds(cert.root)
            assert kinds.count(TERMINAL_PEEL) == peels
            assert kinds.count(MAXIMAL_LEAF) == leaves
            # every node is a set of blocks and bridges or a set of faces
            # of the input or of a contracted peel
            assert calls == Counter()
            assert op.verify_certificate(cert, 5).verdict
            # the verifier reads no embedding off a parent's; it derives
            # every node's edges in the certified graph's labels, builds a
            # graph (one subgraph, relabelled 0..) only for the root's full
            # check, vouches for every child but a contracted peel on k or
            # more vertices, settles a vouched maximal leaf by e = 2n-3 with
            # no recognition, and derives every cut split's children from
            # the node's edges
            assert calls == Counter(
                recognize_outerplanar=1,
                has_cycle_of_length=1,
                subgraph_on_edges=1,
                biconnected_decomposition=1,
                _cut_children=kinds.count(CUT_SPLIT),
            )

    def test_one_weak_dual_per_build(self, monkeypatch):
        """The builder builds one weak dual, for the input embedding, and
        picks every big face and peel off a set of its faces or of a
        contracted peel's, without a block partition. Every split derives
        its children from the node graph alone, so the verifier builds no
        dual structure."""
        import opturan.certify as certify_module
        import opturan.dual as dual_module
        import opturan.embedding as embedding_module

        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (certify_module, dual_module, embedding_module):
            for name in (
                "inner_faces",
                "weak_dual",
                "triangular_blocks",
                "classify_terminal",
                "reducible_face",
                "find_reducible_face",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for g, peels in ((ladder(12), 11), (CHAIN51, 0), (BOUQUET, 0)):
            calls.clear()
            cert = op.build_certificate(op.recognize_outerplanar(g), 5)
            kinds = node_kinds(cert.root)
            assert kinds.count(TERMINAL_PEEL) == peels
            assert kinds.count(MAXIMAL_LEAF) > 0
            assert calls == Counter(weak_dual=1, reducible_face=peels)
            calls.clear()
            assert op.verify_certificate(cert, 5).verdict
            assert calls == Counter()

    def test_certify_command_recognises_twice(self, monkeypatch, tmp_path, capsys):
        """`certify` recognises its input once to build, and the verifier
        recognises the root once, however many peels the certificate has."""
        import opturan.certify as certify_module
        import opturan.cli as cli_module

        calls = Counter()
        original = op.recognize_outerplanar

        def counted(g):
            calls[g.n] += 1
            return original(g)

        for module in (certify_module, cli_module):
            monkeypatch.setattr(module, "recognize_outerplanar", counted)
        path = tmp_path / "ladder.json"
        path.write_text(op.graph_to_json(ladder(12)))
        assert cli_module.main(["certify", "-k", "5", "--in", str(path)]) == 0
        assert "verdict=true" in capsys.readouterr().out
        assert calls == Counter({24: 2})

    def test_contracted_peel_on_k_or_more_vertices_is_searched(self):
        """A contracted peel is a minor of its outerplanar parent, which
        vouches for it only when it has fewer than k vertices. A recorded
        peel on more keeps the full checks and reports its own k-cycle."""
        # a 4-face 0-1-2-3 with a triangle on each of its edges 01, 12, 23;
        # merging 3 into 0 gives a peel on 6 vertices with the 5-cycle 0-4-1-5-2
        graph = op.make_graph(
            7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]
        )
        data = {
            "format": 4,
            "k": 5,
            "graph": json.loads(op.graph_to_json(graph)),
            "nodes": [["terminal_peel", [0, 1, 2, 3]], BASE_LEAF, ["maximal_leaf"]],
        }
        report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), 5)
        assert report.failures == (
            "root: node graph contains a cycle of length 5",
            "root: contracted peel has n* = 6 >= k-1 = 4",
            "root.1: node graph contains a cycle of length 5",
            "root.1: maximal leaf has n=6 > k-1=4",
            "root.1: inequality fails: 126 > 120",
        )

    def test_graph_that_is_not_outerplanar_fails_without_exception(self):
        # K4 on 0..3 with a pendant edge 3-4, recorded as a cut split at 3
        k4_pendant = op.make_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        data = {
            "format": 4,
            "k": 5,
            "graph": json.loads(op.graph_to_json(k4_pendant)),
            "nodes": [["cut_split", 3, [0]], ["maximal_leaf"], BASE_LEAF],
        }
        report = op.verify_certificate(op.certificate_from_json(json.dumps(data)), 5)
        assert not report.verdict
        not_outerplanar = (
            "node graph is not outerplanar: "
            "2-connected block with no degree-2 vertex cannot be outerplanar"
        )
        # below a root without an embedding, the children are checked in full
        assert report.failures == (
            f"root: {not_outerplanar}",
            "root: inequality fails: 98 > 95",
            f"root.0: {not_outerplanar}",
            "root.0: maximal leaf has e=6, expected 5",
            "root.0: inequality fails: 84 > 70",
        )

    def test_deeply_nested_document_is_a_format_error(self):
        """A deep tree is a flat list, but the JSON parser still recurses
        into nested arrays."""
        nested = "[" * 5000 + "]" * 5000
        text = '{"format":4,"k":5,"graph":{"n":2,"edges":[[0,1]]},"nodes":' + nested + "}"
        with pytest.raises(op.CertificateFormatError, match="nested too deeply"):
            op.certificate_from_json(text)


def test_least_face_certificate_still_verifies():
    """A certificate from the builder that split at the least big face and
    peeled one leaf block per cut split: the verifier accepts any valid
    decomposition, not only the one the builder now records."""
    text = (Path(__file__).parent / "data" / "chain_k5_m4_least_face.cert.json").read_text()
    cert = op.certificate_from_json(text)
    assert cert.graph == op.build_chain(5, 4).graph
    report = op.verify_certificate(cert, 5)
    assert report.verdict and report.root_slack == 0
    rebuilt = op.certificate_to_json(op.build_certificate(op.build_chain(5, 4), 5))
    assert rebuilt != text.strip()
