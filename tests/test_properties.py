"""Property tests on random outerplanar graphs with hundreds of vertices.

The generator below never calls opturan: it triangulates convex polygons at
random, drops chords, glues the polygons together at cut vertices (with some
pendant bridges), and relabels every vertex at random. It therefore knows the
answer recognition must give: each block's boundary is its polygon, written
in least rotation/reflection, and its chords are the kept diagonals.

A second generator, also free of opturan, glues k-cycle-free parts into
hosts for the certificate property: trees, blocks on fewer than k vertices,
and polygons whose faces all exceed k.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import opturan as op  # noqa: E402
import opturan.certify as certify_module  # noqa: E402
from opturan.embedding import (  # noqa: E402
    EmbeddingInvariantError,
    canonical_cycle,
    NotOuterplanarError,
    _crossing_chords,
)
from opturan.graph import find_cycle_in_edges, subgraph_on_edges  # noqa: E402

from helpers import (  # noqa: E402
    embedding_decomposition,
    ladder,
    reference_build,
    reference_derive,
    reference_reducible_face,
    reference_verify,
    reference_weak_dual,
    restrict_embedding,
    root_node,
)

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


def big_face_chords(rng: random.Random, p: int, min_face: int) -> list[tuple[int, int]]:
    """Non-crossing chords of the convex p-gon leaving every face >= min_face vertices."""
    chords = []
    todo = [list(range(p))]
    while todo:
        face = todo.pop()
        s = len(face)
        if s < 2 * min_face - 2 or rng.random() < 0.3:
            continue
        j = rng.randint(min_face - 1, s - min_face + 1)  # faces of j+1 and s-j+1
        at = rng.randrange(s)
        face = face[at:] + face[:at]
        chords.append((face[0], face[j]))
        todo += [face[: j + 1], face[j:] + face[:1]]
    return chords


def random_ckfree_host(seed: int, size: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """A connected k-cycle-free outerplanar graph on about `size` vertices.

    Each part has no k-cycle: a tree has no cycle, a block on fewer than k
    vertices has only shorter ones, and in a block whose faces all have at
    least k+1 vertices a cycle bounds a tree of f faces, so its length is at
    least (k+1) + (f-1)(k-1). Gluing parts at one vertex adds no cycle.
    """
    rng = random.Random(seed)
    n, edges = 1, []
    while n < size:
        kind = rng.choice(("tree", "small", "polygon"))
        if kind == "tree":
            p = rng.randint(2, 20)
            part = [(rng.randrange(i), i) for i in range(1, p)]
        elif kind == "small" and k >= 4:
            p = rng.randint(3, k - 1)
            part = [(i, (i + 1) % p) for i in range(p)]
            part += [c for c in triangulation_chords(rng, p) if rng.random() < 0.5]
        else:
            p = rng.randint(k + 1, 5 * k)
            part = [(i, (i + 1) % p) for i in range(p)] + big_face_chords(rng, p, k + 1)
        anchor = rng.randrange(n)
        ids = [anchor] + list(range(n, n + p - 1))  # part vertex 0 is glued
        edges += [(ids[u], ids[v]) for u, v in part]
        n += p - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


HOSTS = st.sampled_from(["outerplanar", "ckfree"])


def host_graph(host: str, seed: int, size: int, k: int) -> op.Graph:
    if host == "outerplanar":
        return sample_graph(random_outerplanar(seed, size))
    return op.make_graph(*random_ckfree_host(seed, size, k))


@LARGE
@given(seeds, st.integers(20, 300), HOSTS, st.integers(3, 8))
def test_bounded_spectrum_is_the_full_spectrum_cut(seed, size, host, k):
    emb = op.recognize_outerplanar(host_graph(host, seed, size, k))
    full = op.cycle_length_set(emb)
    for limit in range(3, 3 * k + 1):
        assert op.cycle_length_set(emb, limit) == {n for n in full if n <= limit}, limit


@LARGE
@given(seeds, st.integers(20, 300), HOSTS, st.integers(3, 8))
def test_scan_dual_equals_shared_edge_definition(seed, size, host, k):
    emb = op.recognize_outerplanar(host_graph(host, seed, size, k))
    assert op.weak_dual(emb) == reference_weak_dual(emb)


@LARGE
@given(seeds, st.integers(20, 300), HOSTS, st.integers(3, 8), seeds)
def test_reducible_face_equals_the_incidence_forest_finder(seed, size, host, k, subset_seed):
    """On hosts and on random subgraphs of them, whose duals are forests of
    many trees, the finder that reads (4+)-face counts off the dual's
    branches returns the face the classified block partition gives, and
    exactly its edges whose block is non-terminal."""
    g = host_graph(host, seed, size, k)
    rng = random.Random(subset_seed)
    sub, _ = subgraph_on_edges([e for e in g.edges if rng.random() < 0.8] or [g.edges[0]])
    for graph in (g, sub):
        emb = op.recognize_outerplanar(graph)
        assert op.find_reducible_face(op.weak_dual(emb)) == reference_reducible_face(emb)


def path_around(ring: list[int], x: int, y: int) -> list[int]:
    """The vertices of the cycle `ring` from x to y, not along its edge x-y."""
    at = ring.index(x)
    turned = ring[at:] + ring[:at]
    return [x] + turned[:0:-1] if turned[1] == y else turned


@LARGE
@given(seeds, st.integers(10, 100), HOSTS, st.integers(3, 8))
def test_face_sides_accept_exactly_the_inner_faces(seed, size, host, k):
    """Every inner face is accepted in every rotation and reflection, its
    sides and the parts across no face edge holding each edge of g once;
    two faces merged across their shared chord, and a face with two
    neighbouring vertices swapped, are vertex cycles that are not faces."""
    g = host_graph(host, seed, size, k)
    dual = op.weak_dual(op.recognize_outerplanar(g))
    not_faces = []
    for face in dual.faces:
        ring = list(face)
        for turned in (ring, ring[::-1]):
            for r in range(len(ring)):
                sides, loose = certify_module._face_sides(list(g.edges), tuple(turned[r:] + turned[:r]))
                held = [e for side in sides for e in side]
                assert sorted(held + [e for _, edges in loose for e in edges]) == list(g.edges)
        if len(ring) >= 4:
            not_faces.append([ring[1], ring[0]] + ring[2:])
    for a, row in enumerate(dual.links):
        for b, (u, v) in row:
            if a < b:
                first, second = list(dual.faces[a]), list(dual.faces[b])
                not_faces.append(path_around(first, u, v) + path_around(second, v, u)[1:-1])
    for cycle in not_faces:
        with pytest.raises(certify_module.SelectionError, match="not an inner face"):
            certify_module._face_sides(list(g.edges), tuple(cycle))


def restrictable(g: op.Graph, emb, subset: set) -> bool:
    """Whether every block of emb keeps at most one edge of `subset`, or a
    set of them that spans one block."""
    for block in emb.blocks:
        kept = subset.intersection(op.cycle_edges(block.outer) + block.chord_edges())
        if len(kept) > 1:
            dec = op.biconnected_decomposition(subgraph_on_edges(sorted(kept))[0])
            if len(dec.blocks) != 1 or dec.bridges:
                return False
    return True


@LARGE
@given(seeds, st.integers(20, 300), HOSTS, st.integers(3, 8), seeds)
def test_restricted_embedding_equals_recognition(seed, size, host, k, subset_seed):
    """A subgraph that keeps, of each parent block, at most one edge or a
    2-connected set of edges has its embedding read off the parent's, equal
    to recognition's, and the block-cut view read off it is the
    decomposition's. Any other subgraph raises instead of getting a wrong
    embedding."""
    g = host_graph(host, seed, size, k)
    emb = op.recognize_outerplanar(g)
    rng = random.Random(subset_seed)
    for keep in (rng.random(), 1 - rng.random() ** 4, 1.0):
        subset = {e for e in g.edges if rng.random() < keep} or {g.edges[0]}
        sub, to_parent = subgraph_on_edges(sorted(subset))
        if restrictable(g, emb, subset):
            derived = restrict_embedding(emb, [(sub, to_parent)])[0]
            assert derived == op.recognize_outerplanar(sub)
            assert embedding_decomposition(derived) == op.biconnected_decomposition(sub)
        else:
            with pytest.raises(EmbeddingInvariantError, match="boundary pair"):
                restrict_embedding(emb, [(sub, to_parent)])


SHAPES = ("connected", "forest", "disconnected", "isolated", "ladder", "pendants", "run", "chain", "fans")


def face_run(rng: random.Random, size: int, k: int) -> list[tuple[int, int]]:
    """A strip of faces of 4..k-1 vertices (k >= 5), each glued to the one
    before along an edge that face shares with no other, so the weak dual
    is a path. Its cycles bound runs of consecutive faces, of length
    2 + sum(size - 2); a face that would close a k-cycle is not added."""
    ring = list(range(rng.randint(4, k - 1)))
    edges = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    n, suffixes = len(ring), [len(ring) - 2]  # sum(size - 2) of each run ending at the last face
    while n < size:
        allowed = [p for p in range(4, k) if all(2 + s + p - 2 != k for s in suffixes)]
        if not allowed:
            break
        p = rng.choice(allowed)
        i = rng.randrange(len(ring) - 1)  # not the last edge, which the face before shares
        a, b = ring[i], ring[i + 1]
        ring = [a] + list(range(n, n + p - 2)) + [b]
        edges += [(ring[j], ring[j + 1]) for j in range(p - 1)]
        n += p - 2
        suffixes = [p - 2] + [s + p - 2 for s in suffixes]
    return edges


def polygon_fans(rng: random.Random, size: int, k: int) -> list[tuple[int, int]]:
    """Polygons of 5..k-1 vertices (k >= 6), each glued at one vertex to
    one before it and carrying a triangulated fan on some of its edges, up
    to k-1 vertices in all, so every block is k-cycle-free. Each polygon is
    peeled, and so is its contracted peel, a polygon one vertex shorter
    that keeps the fans."""
    edges, n = [], 1
    while n < size:
        p = rng.randint(5, k - 1)
        ring = [rng.randrange(n)] + list(range(n, n + p - 1))
        n += p - 1
        edges += [(ring[i], ring[(i + 1) % p]) for i in range(p)]
        spare = k - 1 - p  # the vertices the block's fans may add
        for i in rng.sample(range(p), p):
            extra = rng.randint(0, spare)
            spare -= extra
            apex, far = (ring[i], ring[(i + 1) % p])[:: rng.choice((1, -1))]
            path = list(range(n, n + extra)) + [far]
            n += extra
            edges += [(path[j], path[j + 1]) for j in range(extra)] + [(apex, v) for v in path[:-1]]
    return edges


def shaped_host(seed: int, size: int, k: int, shape: str) -> tuple[op.Graph, int]:
    """A k-cycle-free host of the given shape, relabelled at random, and the
    k it avoids: one random_ckfree_host, a forest, two to four hosts side
    by side, one host with isolated vertices, a ladder P2 x Pm with m =
    3..60 (odd k, since its cycles are even), a polygon with pendant edges,
    a face_run, a small extremal chain, or polygon_fans (k >= 6)."""
    rng = random.Random(seed)
    count = {"connected": 1, "isolated": 1, "forest": rng.randint(1, 4), "disconnected": rng.randint(2, 4)}
    n, edges = 0, []
    if shape == "ladder":
        k, whole = k | 1, ladder(3 + size % 58)
        n, edges = whole.n, list(whole.edges)
    elif shape == "pendants":
        p = rng.choice([q for q in range(3, 3 + size // 2) if q != k])
        pendants = [v for v in range(p) if rng.random() < 0.7]
        edges = [(i, (i + 1) % p) for i in range(p)] + [(v, p + j) for j, v in enumerate(pendants)]
        n = p + len(pendants)
    elif shape == "run":
        k = max(k, 5)
        edges = face_run(rng, size, k)
        n = max(v for e in edges for v in e) + 1
    elif shape == "chain":
        k = max(k, 4)
        whole = op.build_chain(k, 1 + size % 3).graph
        n, edges = whole.n, list(whole.edges)
    elif shape == "fans":
        k = max(k, 6) + size % 4
        edges = polygon_fans(rng, size, k)
        n = max(v for e in edges for v in e) + 1
    for _ in range(count.get(shape, 0)):
        if shape == "forest":
            p = rng.randint(2, size)
            part = [(rng.randrange(i), i) for i in range(1, p)]
        else:
            p, part = random_ckfree_host(rng.randrange(2**32), size // count[shape], k)
        edges += [(n + u, n + v) for u, v in part]
        n += p
    if shape == "isolated":
        n += rng.randint(1, 10)
    perm = list(range(n))
    rng.shuffle(perm)
    return op.make_graph(n, [(perm[u], perm[v]) for u, v in edges]), k


def forest_form(faces, links, vertices) -> tuple:
    """A weak dual, its faces and each face's (neighbour, shared edge) links,
    in a form that ignores the order of its faces and edges: faces and
    shared edges in ranks among `vertices`, sorted, and each shared edge
    with its two faces."""
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    ranked = [tuple(rank[v] for v in face) for face in faces]
    pairs = sorted(
        (tuple(sorted((rank[u], rank[v]))), tuple(sorted((ranked[a], ranked[b]))))
        for a, row in enumerate(links)
        for b, (u, v) in row
        if a < b
    )
    return sorted(ranked), pairs


@LARGE
@given(seeds, st.integers(20, 200), st.integers(3, 8), st.sampled_from(SHAPES))
def test_builder_node_embeddings_equal_recognition(seed, size, k, shape):
    """Every node the builder decomposes on a set of faces (a sub-forest of
    its block's weak dual, or of the faces it added for a contracted peel,
    peels inside peels included) is a node whose graph, derived from its
    parent's by the reference derivations (relabelled 0..), has exactly
    those faces and dual edges once mapped to ranks: weak_dual of its
    recognised embedding. Every 2-connected node is decomposed that way.
    The builder makes its nodes in preorder, so the face steps' forests,
    in call order, belong to the 2-connected nodes in preorder."""
    forests = []
    step = certify_module._face_step

    def record(src, faces):
        at = {f: i for i, f in enumerate(faces)}
        forests.append(
            forest_form(
                [src.faces[f] for f in faces],
                [[(at[g], e) for g, e in src.links[f] if g in at] for f in faces],
                {v for f in faces for v in src.faces[f]},
            )
        )
        return step(src, faces)

    g, k = shaped_host(seed, size, k, shape)
    with mock.patch.object(certify_module, "_face_step", record):
        cert = op.build_certificate(op.recognize_outerplanar(g), k)
    face_kinds = (certify_module.BIG_FACE_SPLIT, certify_module.TERMINAL_PEEL, certify_module.MAXIMAL_LEAF)
    stack = [(cert.root, *root_node(g))] if g.e else []
    faced = 0  # the 2-connected nodes met so far, in preorder
    while stack:
        node, graph, labels = stack.pop()
        if node.kind in face_kinds:
            dual = op.weak_dual(op.recognize_outerplanar(graph))
            expected = forest_form(dual.faces, dual.links, range(graph.n))
            assert forests[faced] == expected
            faced += 1
        if node.children:
            children = reference_derive(node, graph, labels, True, k)
            stack.extend(reversed([(child, c, ls) for child, (c, ls, _) in zip(node.children, children)]))
    assert faced == len(forests)


@LARGE
@given(seeds, st.integers(20, 200), st.integers(3, 8), st.sampled_from(SHAPES))
def test_unit_cut_splits_equal_the_graph_level_reference(seed, size, k, shape):
    """Cut splits read off the units' block-cut forest, and face splits and
    peels read off each block's weak dual and each contracted peel's added
    faces, give the certificate that decomposing every node on its node
    graph gives, byte for byte."""
    g, k = shaped_host(seed, size, k, shape)
    emb = op.recognize_outerplanar(g)
    expected = op.certificate_to_json(reference_build(emb, k))
    assert op.certificate_to_json(op.build_certificate(emb, k)) == expected


@LARGE
@given(seeds, sizes, st.integers(3, 8))
def test_certificate_build_then_verify(seed, size, k):
    n, edges = random_ckfree_host(seed, size, k)
    g = op.make_graph(n, edges)
    cert = op.build_certificate(op.recognize_outerplanar(g), k)
    report = op.verify_certificate(cert, k)
    assert report.verdict, report.failures[:3]
    assert report.root_slack == (2 * k - 5) * (k * n - k - 1) - g.e * (k * k - 2 * k - 1)
    assert reference_verify(cert, k, heredity=False).format_lines() == report.format_lines()
    text = op.certificate_to_json(cert)
    again = op.certificate_from_json(text)
    assert op.certificate_to_json(again) == text
    assert op.verify_certificate(again, k).format_lines() == report.format_lines()


def assert_rejected(text: str, k: int) -> None:
    """A corrupted certificate is a format error or fails its audit, nothing else.

    The full per-node checks reject it too, and every failure the verifier
    reports is one they report.
    """
    try:
        cert = op.certificate_from_json(text)
    except op.CertificateFormatError:
        return
    report = op.verify_certificate(cert, k)
    reference = reference_verify(cert, k, heredity=False)
    assert not report.verdict and not reference.verdict
    assert set(report.failures) <= set(reference.failures)


# format 1 stored each node's graph and vertex map; this fan(4) certificate
# at k=5 has a root map cut short, on which the format-1 verifier raised
# IndexError. There is one reader, for format 3, so it is a format error.
V1_FAN4_SHORT_MAP = (
    '{"graph":{"edges":[[0,1],[0,2],[0,3],[1,2],[2,3]],"n":4},"k":5,"root":{"children":[],'
    '"e":5,"edges":[[0,1],[0,2],[0,3],[1,2],[2,3]],"kind":"maximal_leaf","n":4,"to_parent":[0]}}'
)
# format 2 nested each node inside its parent; the same fan(4) certificate, intact
V2_FAN4 = (
    '{"format":2,"graph":{"edges":[[0,1],[0,2],[0,3],[1,2],[2,3]],"n":4},"k":5,'
    '"root":{"children":[],"kind":"maximal_leaf"}}'
)


def test_format_1_certificate_is_rejected():
    with pytest.raises(op.CertificateFormatError):
        op.certificate_from_json(V1_FAN4_SHORT_MAP)
    assert_rejected(V1_FAN4_SHORT_MAP, 5)


def test_format_2_certificate_is_rejected():
    with pytest.raises(op.CertificateFormatError):
        op.certificate_from_json(V2_FAN4)


# format 3 recorded each selection as ranks among its node's vertices; the
# same fan(4) certificate, intact, which format 4 reads as it stands
V3_FAN4 = '{"format":3,"graph":{"edges":[[0,1],[0,2],[0,3],[1,2],[2,3]],"n":4},"k":5,"nodes":[["maximal_leaf"]]}'


def test_format_3_certificate_is_rejected():
    with pytest.raises(op.CertificateFormatError, match="unsupported certificate format 3"):
        op.certificate_from_json(V3_FAN4)
    v4 = op.certificate_from_json(V3_FAN4.replace('"format":3', '"format":4'))
    assert op.verify_certificate(v4, 5).verdict


def node_labels(cert: op.Certificate) -> list[tuple[str, tuple[int, ...]]]:
    """Each node's path and the labels of its vertices, in preorder, as the
    reference derivations give them on a valid certificate."""
    found, stack = [], [(cert.root, *root_node(cert.graph), "root")]
    while stack:
        node, g, labels, path = stack.pop()
        found.append((path, labels))
        if node.children:
            children = reference_derive(node, g, labels, True, cert.k)
            stack.extend(
                reversed([(child, c, ls, f"{path}.{i}") for i, (child, (c, ls, _)) in enumerate(zip(node.children, children))])
            )
    return found


@LARGE
@given(seeds, st.integers(20, 200), st.integers(3, 8), st.sampled_from(SHAPES), st.data())
def test_selections_read_against_the_certified_graph(seed, size, k, shape, data):
    """Selections are in the certified graph's own labels, so a certificate
    reads against its input: every face recorded above all peels is an
    inner face of the input's embedding, and every cut is a cut vertex of
    the input. A cut or side that names a vertex of the certified graph
    outside its node is the one audit failure, at that node, that the
    reference derivations report too."""
    g, k = shaped_host(seed, size, k, shape)
    emb = op.recognize_outerplanar(g)
    cert = op.build_certificate(emb, k)
    faces = set(op.inner_faces(emb))
    cuts = set(op.biconnected_decomposition(g).cut_vertices)
    stack = [(cert.root, False)]
    while stack:
        node, below_peel = stack.pop()
        if node.cut is not None:
            assert node.cut in cuts
        if node.face is not None and not below_peel:
            assert canonical_cycle(node.face) in faces
        stack.extend((child, below_peel or node.kind == certify_module.TERMINAL_PEEL) for child in node.children)

    doc = json.loads(op.certificate_to_json(cert))
    spots = [
        (at, path, labels)
        for at, (path, labels) in enumerate(node_labels(cert))
        if doc["nodes"][at][0] == certify_module.CUT_SPLIT and len(labels) < g.n
    ]
    if not spots:
        return
    at, path, labels = data.draw(st.sampled_from(spots))
    outside = data.draw(st.sampled_from(sorted(set(range(g.n)) - set(labels))))
    if data.draw(st.booleans()):
        doc["nodes"][at][1] = outside
        failure = f"{path}: cut {outside} is not a vertex of the node graph"
    else:
        doc["nodes"][at][2] = [outside]
        failure = f"{path}: side [{outside}] must name distinct vertices other than the cut"
    bad = op.certificate_from_json(json.dumps(doc))
    report = op.verify_certificate(bad, k)
    assert report.failures == (failure,)
    assert reference_verify(bad, k).format_lines() == report.format_lines()


SPLITS = ("cut_split", "big_face_split", "terminal_peel")
KINDS = SPLITS + ("edgeless", "base", "maximal_leaf")
WRONG_VALUES = ("7", 1.5, {}, True, [None])
# a node's selections by name, as indices into its JSON array
FIELDS = {"cut_split": {"cut": 1, "side": 2}, "big_face_split": {"face": 1}, "terminal_peel": {"face": 1}}


def subtree_end(nodes: list, at: int) -> int:
    """The index just past the subtree that starts at nodes[at], in a valid node list."""
    need = 0
    for i in range(at, len(nodes)):
        kind = nodes[i][0]
        need += (len(nodes[i][1]) if kind == "big_face_split" else 2 if kind in SPLITS else 0) - 1
        if need < 0:
            return i + 1
    raise ValueError("the node list ends inside the subtree")


def corrupt(doc: dict, how: str, data) -> None:
    """Break one thing in a certificate document, in place."""
    nodes = doc["nodes"]
    splits = [node for node in nodes if node[0] in SPLITS]
    if how == "drop_key":
        del doc[data.draw(st.sampled_from(sorted(doc)))]
    elif how == "retype_key":
        doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(st.sampled_from(WRONG_VALUES))
    elif how == "retype_field":
        node = data.draw(st.sampled_from(nodes))
        node[data.draw(st.integers(0, len(node) - 1))] = data.draw(st.sampled_from(WRONG_VALUES))
    elif how == "shorten_node":
        node = data.draw(st.sampled_from(nodes))
        del node[data.draw(st.integers(0, len(node) - 1)) :]
    elif how == "extend_node":
        data.draw(st.sampled_from(nodes)).append(data.draw(st.sampled_from([0, None, [0], "base"])))
    elif how in ("out_of_range", "repeat_vertex"):
        node = data.draw(st.sampled_from(splits))
        fields = FIELDS[node[0]]
        key = data.draw(st.sampled_from(sorted(fields)))
        bad = data.draw(st.sampled_from([-1, 10**6]))
        if how == "repeat_vertex":
            held = node[fields["face" if "face" in fields else "side"]]
            held.append(held[-1])
        elif key == "cut":
            node[fields["cut"]] = bad
        else:
            held = node[fields[key]]
            held[data.draw(st.integers(0, len(held) - 1))] = bad
    elif how == "swap_kind":
        node = data.draw(st.sampled_from(nodes))
        others = SPLITS if node[0] not in SPLITS else KINDS
        node[0] = data.draw(st.sampled_from([kind for kind in others if kind != node[0]]))
    elif how == "drop_node":
        del nodes[data.draw(st.integers(0, len(nodes) - 1))]
    elif how == "duplicate_node":
        at = data.draw(st.integers(0, len(nodes) - 1))
        nodes.insert(at, json.loads(json.dumps(nodes[at])))
    else:  # insert_node
        leaf = [data.draw(st.sampled_from(["edgeless", "base", "maximal_leaf"]))]
        nodes.insert(data.draw(st.integers(0, len(nodes))), leaf)


CORRUPTIONS = [
    "drop_key", "retype_key", "retype_field", "shorten_node", "extend_node", "out_of_range",
    "repeat_vertex", "swap_kind", "drop_node", "duplicate_node", "insert_node",
]


@LARGE
@given(seeds, st.integers(20, 150), st.integers(3, 8), st.sampled_from(CORRUPTIONS), st.data())
def test_corrupted_certificates_are_rejected(seed, size, k, how, data):
    n, edges = random_ckfree_host(seed, size, k)
    cert = op.build_certificate(op.recognize_outerplanar(op.make_graph(n, edges)), k)
    doc = json.loads(op.certificate_to_json(cert))
    corrupt(doc, how, data)
    assert_rejected(json.dumps(doc), k)


MORE_MUTATIONS = (
    "rotate_face", "reflect_face", "replace_face_vertex", "random_side", "random_cut", "add_graph_edge", "recast_leaf"
)


def mutate(doc: dict, how: str, data) -> None:
    """corrupt(), or move one recorded selection, recast a subtree as a
    maximal leaf, or add an edge to the certified graph."""
    if how not in MORE_MUTATIONS:
        corrupt(doc, how, data)
        return
    n = doc["graph"]["n"]
    if how == "add_graph_edge":
        u = data.draw(st.integers(0, n - 2))
        pair = [u, data.draw(st.integers(u + 1, n - 1))]
        if pair not in doc["graph"]["edges"]:
            doc["graph"]["edges"].append(pair)
        return
    nodes = doc["nodes"]
    if how == "recast_leaf":
        at = data.draw(st.integers(0, len(nodes) - 1))
        nodes[at : subtree_end(nodes, at)] = [["maximal_leaf"]]
        return
    key = "face" if how.endswith("_face") or how == "replace_face_vertex" else "side"
    holders = [node for node in nodes if key in FIELDS.get(node[0], ())]
    if not holders:
        return
    node = data.draw(st.sampled_from(holders))
    if how == "rotate_face":
        r = data.draw(st.integers(1, len(node[1]) - 1))
        node[1] = node[1][r:] + node[1][:r]
    elif how == "reflect_face":
        node[1].reverse()
    elif how == "replace_face_vertex":
        node[1][data.draw(st.integers(0, len(node[1]) - 1))] = data.draw(st.integers(0, n - 1))
    elif how == "random_side":
        node[2] = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    else:  # random_cut
        node[1] = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))


# a certificate document for a k-cycle-free host or a ladder, valid or with one mutate()
MUTATED = (
    seeds,
    st.integers(10, 120),
    st.sampled_from(["ckfree", "ladder"]),
    st.integers(3, 8),
    st.sampled_from(["none"] + CORRUPTIONS + list(MORE_MUTATIONS)),
    st.data(),
)


def mutated_document(seed: int, size: int, host: str, k: int, how: str, data) -> tuple[dict, int]:
    """The document MUTATED's draws describe, and the k it is built for."""
    if host == "ladder":
        g, k = ladder(3 + size % 10), 5 if k < 7 else 7  # a ladder's cycles are even
    else:
        g = op.make_graph(*random_ckfree_host(seed, size, k))
    doc = json.loads(op.certificate_to_json(op.build_certificate(op.recognize_outerplanar(g), k)))
    if how != "none":
        mutate(doc, how, data)
    return doc, k


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(*MUTATED)
def test_heredity_flag_matches_the_restricted_embeddings(seed, size, host, k, how, data):
    """Vouching for derived children by a flag gives the audit that reading
    each child's embedding off its parent's gave, line for line, on valid
    certificates and on broken ones. Every document the reader accepts is
    also written back and reads again as the same tree: the writer needs
    no checks of its own."""
    doc, k = mutated_document(seed, size, host, k, how, data)
    try:
        cert = op.certificate_from_json(json.dumps(doc))
    except op.CertificateFormatError:
        return
    assert op.certificate_from_json(op.certificate_to_json(cert)) == cert
    assert op.verify_certificate(cert, k).format_lines() == reference_verify(cert, k).format_lines()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(*MUTATED)
def test_derived_children_keep_the_split_bookkeeping(seed, size, host, k, how, data):
    """The lemma at certify._verify_split holds wherever certify._derive
    gives children, on valid certificates and on broken ones: the children
    of a cut or big-face split partition the node's edges, and a peel's
    hold as many edges as the node, its merged edges without a repeat; a
    big face has sum(n_i) = n+L and rhs(n) - sum(rhs(n_i)) = c(L-k-1) >= 0,
    and a cut split n_1+n_2 <= n+1 and a difference of at least c = 2k-5;
    a peel whose n'+n* = n+1 has a difference of exactly c."""
    doc, k = mutated_document(seed, size, host, k, how, data)
    try:
        cert = op.certificate_from_json(json.dumps(doc))
    except op.CertificateFormatError:
        return
    derive, c = certify_module._derive, 2 * k - 5

    def rhs(m: int) -> int:
        return c * (k * m - k - 1)

    def checked(node, edges, vouched, k):
        children = derive(node, edges, vouched, k)
        if children:
            n = len({v for edge in edges for v in edge})
            sizes = [m for m, _, _ in children]
            slack = rhs(n) - sum(map(rhs, sizes))
            assert sum(len(es) for _, es, _ in children) == len(edges)
            if node.kind == certify_module.TERMINAL_PEEL:
                merged = children[1][1]
                assert len(set(merged)) == len(merged)
                assert sum(sizes) != n + 1 or slack == c
            else:
                assert sorted(edge for _, es, _ in children for edge in es) == sorted(edges)
                if node.kind == certify_module.BIG_FACE_SPLIT:
                    size = len(node.face)
                    assert sum(sizes) == n + size and slack == c * (size - k - 1) >= 0
                else:
                    assert sum(sizes) <= n + 1 and slack >= c > 0
        return children

    with mock.patch.object(certify_module, "_derive", checked):
        op.verify_certificate(cert, k)
