"""Property tests on random outerplanar graphs with hundreds of vertices.

The generator below never calls opturan: it triangulates convex polygons at
random, drops chords, glues the polygons together at cut vertices (with some
pendant bridges), and relabels every vertex at random. It therefore knows the
answer recognition must give: each block's boundary is its polygon, written
in least rotation/reflection, and its chords are the kept diagonals.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import opturan as op  # noqa: E402
from opturan.embedding import (  # noqa: E402
    EmbeddingInvariantError,
    NotOuterplanarError,
    _crossing_chords,
)
from opturan.graph import find_cycle_in_edges  # noqa: E402

LARGE = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def least_cyclic_form(seq: list[int]) -> tuple[int, ...]:
    forms = []
    for s in (seq, seq[::-1]):
        at = s.index(min(s))
        forms.append(tuple(s[at:] + s[:at]))
    return min(forms)


def triangulation_chords(rng: random.Random, p: int) -> list[tuple[int, int]]:
    """Diagonals (i, j), i < j, of a random triangulation of the convex p-gon."""
    chords = []
    todo = [(0, p - 1)]
    while todo:
        i, j = todo.pop()
        if j - i < 2:
            continue
        m = rng.randint(i + 1, j - 1)
        chords.extend((a, b) for a, b in ((i, m), (m, j)) if b - a > 1)
        todo += [(i, m), (m, j)]
    return chords


@dataclass
class Sample:
    n: int
    edges: list[tuple[int, int]]
    blocks: list[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]  # (outer, chords)
    bridges: list[tuple[int, int]]


def random_outerplanar(seed: int, size: int) -> Sample:
    rng = random.Random(seed)
    polygons: list[tuple[list[int], list[tuple[int, int]]]] = []  # (order, chord positions)
    bridges: list[tuple[int, int]] = []
    n = 0
    while n < size:
        p = rng.choice((2, 3, 4, rng.randint(5, 40), rng.randint(5, 40)))
        if n == 0:
            p = max(p, 4)
            order = list(range(p))
        else:  # glue at an existing vertex, which becomes a cut vertex
            order = [rng.randrange(n)] + list(range(n, n + p - 1))
        n = max(n, order[-1] + 1)
        if p == 2:
            bridges.append((order[0], order[1]))
            continue
        tri = triangulation_chords(rng, p)
        keep = rng.random()
        kept = [c for c in tri if rng.random() < keep]
        if not polygons and not kept:
            kept = tri[:1]  # so every sample has a chord to cross
        polygons.append((order, kept))
    perm = list(range(n))
    rng.shuffle(perm)

    bridges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in bridges)
    edges = list(bridges)
    blocks = []
    for order, kept in polygons:
        labels = [perm[v] for v in order]
        p = len(labels)
        edges += [(labels[i], labels[(i + 1) % p]) for i in range(p)]
        edges += [(labels[i], labels[j]) for i, j in kept]
        outer = least_cyclic_form(labels)
        pos = {v: i for i, v in enumerate(outer)}
        chords = tuple(sorted(tuple(sorted((pos[labels[i]], pos[labels[j]]))) for i, j in kept))
        blocks.append((outer, chords))
    return Sample(n=n, edges=edges, blocks=sorted(blocks), bridges=bridges)


def crossing_pair(p: int, chord: tuple[int, int]) -> tuple[int, int]:
    """A position pair (c, d) that crosses `chord` in a p-cycle."""
    a, b = chord
    if b < p - 1:
        return (a + 1, b + 1)  # a < a+1 < b < b+1
    return (a - 1, a + 1)  # a-1 < a < a+1 < b, since b - a >= 2


def sample_graph(sample: Sample, extra=()) -> op.Graph:
    n = max([sample.n - 1] + [v for e in extra for v in e]) + 1
    return op.make_graph(n, sample.edges + list(extra))


seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(100, 400)


@LARGE
@given(seeds, sizes)
def test_recognition_returns_generated_boundaries_and_chords(seed, size):
    sample = random_outerplanar(seed, size)
    emb = op.recognize_outerplanar(sample_graph(sample))
    assert [(b.outer, b.chords) for b in emb.blocks] == sample.blocks
    assert list(emb.bridges) == sample.bridges
    assert emb.isolated == ()


@LARGE
@given(seeds, sizes, st.data())
def test_one_crossing_chord_is_rejected(seed, size, data):
    sample = random_outerplanar(seed, size)
    with_chords = [b for b in sample.blocks if b[1]]
    outer, chords = data.draw(st.sampled_from(with_chords))
    c, d = crossing_pair(len(outer), data.draw(st.sampled_from(chords)))
    with pytest.raises(NotOuterplanarError):
        op.recognize_outerplanar(sample_graph(sample, [(outer[c], outer[d])]))


@LARGE
@given(seeds, sizes, st.sampled_from(["K4", "K23"]), st.data())
def test_glued_k4_or_k23_is_rejected(seed, size, kind, data):
    sample = random_outerplanar(seed, size)
    at, n = data.draw(st.integers(0, sample.n - 1)), sample.n
    if kind == "K4":
        quad = [at, n, n + 1, n + 2]
        extra = [(quad[i], quad[j]) for i in range(4) for j in range(i + 1, 4)]
    else:
        extra = [(x, y) for x in (at, n) for y in (n + 1, n + 2, n + 3)]
    with pytest.raises(NotOuterplanarError):
        op.recognize_outerplanar(sample_graph(sample, extra))


def embedding_json(sample: Sample, blocks) -> str:
    return json.dumps(
        {
            "blocks": [{"outer": list(o), "chords": [list(c) for c in ch]} for o, ch in blocks],
            "bridges": [list(e) for e in sample.bridges],
            "isolated": [],
        }
    )


@LARGE
@given(seeds, sizes, st.data())
def test_embedding_json_with_crossing_chords_is_rejected(seed, size, data):
    sample = random_outerplanar(seed, size)
    emb = op.embedding_from_json(embedding_json(sample, sample.blocks))
    assert emb.graph == sample_graph(sample)
    at = data.draw(st.sampled_from([i for i, b in enumerate(sample.blocks) if b[1]]))
    outer, chords = sample.blocks[at]
    bad = crossing_pair(len(outer), data.draw(st.sampled_from(chords)))
    blocks = list(sample.blocks)
    blocks[at] = (outer, tuple(sorted(chords + (bad,))))
    with pytest.raises(EmbeddingInvariantError):
        op.embedding_from_json(embedding_json(sample, blocks))


@LARGE
@given(seeds, sizes)
def test_cycle_search_agrees_with_face_spectrum(seed, size):
    sample = random_outerplanar(seed, size)
    g = sample_graph(sample)
    spectrum = op.cycle_length_set(op.recognize_outerplanar(g))
    for k in range(3, 9):
        found = find_cycle_in_edges(g.n, g.edges, k)
        assert (found is not None) == (k in spectrum), k
        if found is not None:
            assert len(set(found)) == k
            cycle_edges = {op.edge_key(found[i], found[(i + 1) % k]) for i in range(k)}
            assert cycle_edges <= g.edge_set()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=10))
def test_nesting_check_matches_pairwise_definition(pairs):
    chords = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    crosses = any(a < c < b < d for a, b in chords for c, d in chords)
    found = _crossing_chords(chords)
    assert (found is not None) == crosses
    if found is not None:
        (a, b), (c, d) = found
        assert a < c < b < d
