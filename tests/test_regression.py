"""Byte- and tuple-level pins of outputs that must not drift.

The embedding digest and the cycle tuples were recorded from the quadratic
recognition and cycle-region code that the linear versions replaced; both
must keep producing exactly these results. The certificate digests were
recorded when selections moved into the certified graph's own labels
(format 4), for the same trees that the format-3 documents held with
selections as ranks among each node's vertices (and format 2 before them,
nested); only the recorded vertex numbers changed. Each test reads its
document back before the digest. The splits are those the balanced
builder chose before. The disconnected tie was recorded when the builder
grouped components on their own, before they hung from one hub in its
block-cut forest. The `analyze` digests were recorded when every face
structure still rebuilt its own faces; reading them all off one weak dual
must give the same bytes. The multi-block host pins the order of dual
edges across blocks in weak_dual.dot; its digests were recorded before
the weak dual kept its shared edges per face.
"""

import hashlib
import itertools
import random

import pytest

import opturan as op
from opturan.cli import main
from opturan.construct import build_chain_graph
from opturan.graph import find_cycle_in_edges

from helpers import ladder


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_json_digest_chain_5_16():
    cert = op.build_certificate(op.build_chain(5, 16), 5)
    text = op.certificate_to_json(cert)
    assert op.certificate_from_json(text) == cert
    assert sha256(text) == "804da7bb99bfb64bb57c9683a1c40322438e1f08baa9aee4586e2c89f4b55a83"


def test_certificate_json_digest_disconnected_tie():
    # two components of 4 edges each; the one holding vertex 8 (and the least
    # vertex, 1, which names it) comes second among the blocks but goes first
    # to child 0
    g = op.make_graph(12, [(5, 6), (6, 7), (5, 7), (7, 11), (8, 9), (9, 10), (8, 10), (1, 8)])
    cert = op.build_certificate(op.recognize_outerplanar(g), 4)
    assert (cert.root.cut, cert.root.side) == (None, (1,))
    text = op.certificate_to_json(cert)
    assert op.certificate_from_json(text) == cert
    assert sha256(text) == "a43c3c9389c59f2ee182be2ac32bf0efc4aa5eac09a3d7aff5b70d7130c52373"


def test_embedding_json_digest_chain_6_24():
    assert sha256(op.embedding_to_json(op.build_chain(6, 24))) == (
        "a21843fad2d5397ae5217089a05ca612215d81f99cbb1fa3a499bf93b63641e6"
    )


# two components and the isolated vertices 7 and 19: a pentagon split by
# the chord (5, 11) into a quadrilateral and a triangle, with a pendant
# edge, bridged to a square split by (2, 4), with a triangle at vertex 4;
# and a fan of three triangles with a pendant edge. Block 1-2-3-4 comes
# after block 0-5-9-11-13, but its chord sorts first.
MULTIBLOCK_EDGES = [
    (0, 5), (5, 9), (9, 11), (11, 13), (0, 13), (5, 11), (1, 2), (2, 3), (3, 4), (1, 4), (2, 4), (4, 6),
    (6, 8), (4, 8), (1, 13), (9, 10), (12, 14), (14, 15), (15, 16), (16, 17), (12, 17), (14, 16), (14, 17),
    (17, 18),
]

ANALYZE_HOSTS = {
    "H5": lambda: op.build_H(5).graph,
    "ladder12": lambda: ladder(12),
    "multiblock": lambda: op.make_graph(20, MULTIBLOCK_EDGES),
}

# sha256 of stdout, embedding.dot, weak_dual.dot and incidence.dot
ANALYZE_DIGESTS = {
    "H5": (
        "6cb5943e48eda294de1c319febdc17942ff3e3f94e4f92113b7ea78521369b10",
        "6fe1577d605795103a78e9ff066f9634d76db4f9852f2c30bfd944f9efa663b5",
        "8254406ed7c8cf9886463608ce84d2ee34ad76b54e9ad43d6d356deae69c1cd3",
        "bc3efed4d45c0e86cde29af1ee2edf82dad4081d1fcd579d68fd96460e2ce3c9",
    ),
    "ladder12": (
        "d8910a7bc4dcf19b9b802277623b18c67ff4cf56d194e224f92bc82c83179bef",
        "fe78009ee99f69bcded958903dd57a62b00edb627407f2fd64963582321aafd9",
        "a6ab9a72ee6c175b9295983ea11b2871038818406de5e18637c66f6833a44404",
        "be51d9617644510f80d76da28a1ec1d343a6557ee619d02af94f20ce1a289683",
    ),
    "multiblock": (
        "ec572d1f57e8b76689474145d1da948abcdb534659949d77203f80f136975e37",
        "3b438fb89f0e28e5541c3f49a7467c5de535be4e359fa3053c89ef26918c31e9",
        "681128319ef271daad2cf70fa63ab793dd590606e770890a2d6bb461d758eddb",
        "0cdd0cab6ba04f9888f138ae74235c54453580df604758a5c6629b1a91610f64",
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_HOSTS))
def test_analyze_output_digests(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep stdout free of the tmp dir
    (tmp_path / "g.json").write_text(op.graph_to_json(ANALYZE_HOSTS[name]()))
    assert main(["analyze", "--in", "g.json", "--dot", "dot"]) == 0
    texts = [capsys.readouterr().out]
    for dot in ("embedding.dot", "weak_dual.dot", "incidence.dot"):
        texts.append((tmp_path / "dot" / dot).read_text())
    assert tuple(map(sha256, texts)) == ANALYZE_DIGESTS[name]


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _gnp(seed, n=12, p=0.3):
    rng = random.Random(seed)
    return n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


GRAPHS = {
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "K5": (5, list(itertools.combinations(range(5), 2))),
    "C7": (7, _cycle(7)),
    "K33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "petersen": (
        10,
        _cycle(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)],
    ),
    "wheel7": (8, [(0, i) for i in range(1, 8)] + [(1 + i, 1 + (i + 1) % 7) for i in range(7)]),
    "grid3x3": (
        9,
        [(3 * r + c, 3 * r + c + 1) for r in range(3) for c in range(2)]
        + [(3 * r + c, 3 * r + c + 3) for r in range(2) for c in range(3)],
    ),
    "fan8": (8, [(i, i + 1) for i in range(7)] + [(0, i) for i in range(2, 8)]),
    "bowtie_tail": (7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 4)]),
    "pendant": (7, [(0, 6), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)]),
    "gnp12_1": _gnp(1),
    "gnp12_2": _gnp(2),
    "gnp12_3": _gnp(3),
}

FOUND = {
    "K4": {3: (0, 1, 2), 4: (0, 1, 2, 3)},
    "K5": {3: (0, 1, 2), 4: (0, 1, 2, 3), 5: (0, 1, 2, 3, 4)},
    "C7": {3: None, 4: None, 5: None, 6: None, 7: (0, 1, 2, 3, 4, 5, 6)},
    "K33": {3: None, 4: (0, 3, 1, 4), 5: None, 6: (0, 3, 1, 4, 2, 5)},
    "petersen": {
        3: None, 4: None, 5: (0, 1, 2, 3, 4), 6: (0, 1, 2, 3, 8, 5), 7: None,
        8: (0, 1, 2, 3, 4, 9, 7, 5), 9: (0, 1, 2, 3, 4, 9, 6, 8, 5), 10: None,
    },
    "wheel7": {j: tuple(range(j)) for j in range(3, 9)},
    "grid3x3": {
        3: None, 4: (0, 1, 4, 3), 5: None, 6: (0, 1, 2, 5, 4, 3), 7: None,
        8: (0, 1, 2, 5, 4, 7, 6, 3), 9: None,
    },
    "fan8": {j: tuple(range(j)) for j in range(3, 9)},
    "bowtie_tail": {3: (0, 1, 2), 4: None, 5: None, 6: None, 7: None},
    "pendant": {3: (1, 2, 5), 4: (2, 3, 4, 5), 5: (1, 2, 3, 4, 5), 6: None, 7: None},
    "gnp12_1": {
        3: (0, 1, 4), 4: (0, 1, 4, 9), 5: (0, 1, 4, 3, 9), 6: (0, 1, 4, 3, 8, 9),
        7: (0, 1, 4, 3, 6, 2, 9), 8: (0, 1, 4, 3, 6, 2, 8, 9),
        9: (0, 1, 4, 3, 6, 2, 8, 7, 9),
    },
    "gnp12_2": {3: (1, 2, 10), 4: (1, 2, 10, 11), 5: None, 6: None, 7: None, 8: None, 9: None},
    "gnp12_3": {
        3: (0, 1, 6), 4: (0, 6, 11, 9), 5: (0, 1, 6, 11, 9), 6: (0, 6, 11, 3, 2, 7),
        7: (0, 1, 6, 11, 3, 2, 7), 8: None, 9: None,
    },
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_find_cycle_tuples_pinned(name):
    n, edges = GRAPHS[name]
    edges = sorted(op.edge_key(u, v) for u, v in edges)
    found = {k: find_cycle_in_edges(n, edges, k) for k in FOUND[name]}
    assert found == FOUND[name]


def test_large_chain_recognised_and_c5_free():
    g = build_chain_graph(5, 256)
    assert g.n == 3588
    emb = op.recognize_outerplanar(g)
    assert len(emb.blocks) == 1 and len(emb.blocks[0].outer) == g.n
    assert find_cycle_in_edges(g.n, g.edges, 5) is None
