"""Byte- and tuple-level pins of outputs that must not drift.

The digests and cycle tuples were recorded from the quadratic recognition
and cycle-region code that the linear versions replaced; both must keep
producing exactly these results.
"""

import hashlib
import itertools
import random

import pytest

import opturan as op
from opturan.construct import build_chain_graph
from opturan.graph import find_cycle_in_edges


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_certificate_json_digest_chain_5_16():
    cert = op.build_certificate(op.build_chain(5, 16), 5)
    assert sha256(op.certificate_to_json(cert)) == (
        "398c33db6a5ad3d240cc2bf4ebb3b0d66bbb0b95d68d275362e687cce69cde54"
    )


def test_embedding_json_digest_chain_6_24():
    assert sha256(op.embedding_to_json(op.build_chain(6, 24))) == (
        "a21843fad2d5397ae5217089a05ca612215d81f99cbb1fa3a499bf93b63641e6"
    )


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
