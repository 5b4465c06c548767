"""Shared brute-force oracles and deterministic random generators.

Everything here is intentionally naive: permutation search for
outerplanarity, unpruned path extension for cycles, full subset sweeps for
extremal values. These are the independent references the fast production
paths are checked against.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Sequence
from unittest import mock

import opturan as op
import opturan.certify as certify_module
import opturan.construct as construct_module
from opturan.dual import WeakDualForest, branch_weights, find_reducible_face
from opturan.embedding import (
    EdgeNotOnOuterFaceError,
    EmbeddingInvariantError,
    NotOuterplanarError,
    canonical_cycle,
    outer_boundary_edges,
)
from opturan.graph import Edge, block_cut_decomposition, find_cycle_in_edges, subgraph_on_edges


def brute_outerplanar(g: op.Graph) -> bool:
    """Outerplanarity by trying every boundary order of every block."""
    dec = op.biconnected_decomposition(g)
    for blk in dec.blocks:
        verts = list(blk.vertices)
        edges = set(blk.edges)
        p = len(verts)
        ok = False
        for perm in itertools.permutations(verts[1:]):
            order = [verts[0]] + list(perm)
            if any(
                op.edge_key(order[i], order[(i + 1) % p]) not in edges
                for i in range(p)
            ):
                continue
            pos = {v: i for i, v in enumerate(order)}
            boundary = {
                op.edge_key(order[i], order[(i + 1) % p]) for i in range(p)
            }
            chords = [
                tuple(sorted((pos[u], pos[v]))) for u, v in edges - boundary
            ]
            if not any(
                a < c < b < d for a, b in chords for c, d in chords
            ):
                ok = True
                break
        if not ok:
            return False
    return True


def recognizes(g: op.Graph) -> bool:
    try:
        op.recognize_outerplanar(g)
        return True
    except NotOuterplanarError:
        return False


def brute_cycle_lengths(g: op.Graph) -> set[int]:
    """Every simple cycle length, by unpruned path extension."""
    adj = g.adjacency()
    lengths: set[int] = set()

    def walk(start: int, path: list[int], on: set[int]) -> None:
        v = path[-1]
        for w in adj[v]:
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                lengths.add(len(path))
            if w > start and w not in on:
                on.add(w)
                path.append(w)
                walk(start, path, on)
                path.pop()
                on.discard(w)

    for s in range(g.n):
        walk(s, [s], {s})
    return lengths


class NotEdgeMaximalError(ValueError):
    """path_length_set is only defined on edge-maximal embeddings."""


def path_length_set(emb: op.OuterplaneEmbedding, u: int, v: int) -> frozenset[int]:
    """Lengths of all u-v paths, by walking every simple path; requires an
    outer edge of an edge-maximal host."""
    if not op.is_edge_maximal(emb):
        raise NotEdgeMaximalError("path spectrum is only guaranteed on edge-maximal embeddings")
    if op.edge_key(u, v) not in outer_boundary_edges(emb):
        raise EdgeNotOnOuterFaceError(f"({u}, {v}) is not an edge on the outer face")
    adj = emb.graph.adjacency()
    lengths: set[int] = set()
    on_path = [False] * emb.graph.n
    on_path[u] = True

    def walk(x: int, steps: int) -> None:
        if x == v:
            lengths.add(steps)
            return
        for w in adj[x]:
            if not on_path[w]:
                on_path[w] = True
                walk(w, steps + 1)
                on_path[w] = False

    walk(u, 0)
    return frozenset(lengths)


def reference_first_cycle(n: int, edges, k: int) -> tuple[int, ...] | None:
    """The first k-cycle of unpruned path extension in the search's order:
    start vertices ascending, each path grown along sorted neighbours above
    the start, and a cycle kept only when its second vertex is below its
    last."""
    adj = op.make_graph(n, edges).adjacency()

    def extend(path: list[int], on: set[int]) -> tuple[int, ...] | None:
        v = path[-1]
        if len(path) == k:
            return tuple(path) if path[1] < v and path[0] in adj[v] else None
        for w in adj[v]:
            if w > path[0] and w not in on:
                on.add(w)
                path.append(w)
                found = extend(path, on)
                path.pop()
                on.discard(w)
                if found is not None:
                    return found
        return None

    for s in range(n):
        found = extend([s], {s})
        if found is not None:
            return found
    return None


def reference_weak_dual(emb: op.OuterplaneEmbedding) -> op.WeakDualForest:
    """The weak dual by definition: inner faces are adjacent when they share
    a boundary edge, each face's links ordered by that edge."""
    faces = op.inner_faces(emb)
    by_edge: dict[tuple[int, int], list[int]] = defaultdict(list)
    for fi, face in enumerate(faces):
        for e in op.cycle_edges(face):
            by_edge[e].append(fi)
    assert all(len(users) <= 2 for users in by_edge.values())
    links: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in faces]
    for e in sorted(by_edge):
        if len(by_edge[e]) == 2:
            a, b = by_edge[e]
            links[a].append((b, e))
            links[b].append((a, e))
    return op.WeakDualForest(faces=faces, links=links)


def reference_reducible_face(
    emb: op.OuterplaneEmbedding,
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]] | None:
    """The reducible face from the face/block incidence forest over the
    classified triangular-block partition: the least (4+)-face with at most
    one non-terminal block among its neighbours, and the face edges whose
    block is non-terminal."""
    dual = op.weak_dual(emb)
    partition = op.classify_terminal(op.triangular_blocks(dual, emb.graph.edges), dual)
    inc = op.face_block_incidence(dual, partition)
    if not inc.faces:
        return None
    non_terminal = [0] * len(inc.faces)
    for fi, bi in inc.edges:
        non_terminal[fi] += not inc.blocks[bi].terminal
    qualifying = [fi for fi in range(len(inc.faces)) if non_terminal[fi] <= 1]
    assert qualifying, "no reducible face despite a (4+)-face being present"
    face = min(inc.faces[fi] for fi in qualifying)
    owner = partition.block_of_edge()
    held = tuple(e for e in op.cycle_edges(face) if not partition.blocks[owner[e]].terminal)
    return face, held


def reference_chain_graph(k: int, m: int) -> op.Graph:
    """The chain by its definition: merge one gadget at a time, rebuilding
    the graph after every merge."""
    g = construct_module.fan_graph(k - 1)
    attach = (0, 1)
    for _ in range(m):
        h, (u, v), far = construct_module._gadget_graph(k)
        rename = {u: attach[0], v: attach[1]}
        nxt = g.n
        for w in range(h.n):
            if w not in rename:
                rename[w] = nxt
                nxt += 1
        merged = set(g.edges) | {op.edge_key(rename[x], rename[y]) for x, y in h.edges}
        g = op.make_graph(nxt, sorted(merged))
        attach = op.edge_key(rename[far[0]], rename[far[1]])
    return g


def all_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield op.make_graph(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def rand_triangulation_chords(rng: random.Random, n: int) -> list[tuple[int, int]]:
    chords: list[tuple[int, int]] = []

    def split(i: int, j: int) -> None:
        if j - i == 1:
            return
        m = rng.randint(i + 1, j - 1)
        if m - i > 1:
            chords.append((i, m))
        if j - m > 1:
            chords.append((m, j))
        split(i, m)
        split(m, j)

    split(0, n - 1)
    return chords


def rand_triangulation(rng: random.Random, n: int) -> op.OuterplaneEmbedding:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges += rand_triangulation_chords(rng, n)
    return op.recognize_outerplanar(op.make_graph(n, edges))


def rand_subgraph(rng: random.Random, g: op.Graph, keep: float) -> op.Graph:
    edges = [e for e in g.edges if rng.random() < keep]
    return op.make_graph(g.n, edges)


def ladder(m: int) -> op.Graph:
    """P2 x Pm: m-1 square faces in a row, so at k=5 every step is a peel."""
    rungs = [(i, i + m) for i in range(m)]
    rails = [(i, i + 1) for i in range(m - 1)] + [(i + m, i + m + 1) for i in range(m - 1)]
    return op.make_graph(2 * m, rungs + rails)


def pendant_polygon(m: int) -> op.Graph:
    """An m-gon with a pendant edge at every vertex: at k=5 every step but
    the last cuts one pendant off the polygon."""
    return op.make_graph(2 * m, [(i, (i + 1) % m) for i in range(m)] + [(i, m + i) for i in range(m)])


def rand_ckfree_subgraph(rng: random.Random, n: int, k: int) -> op.Graph:
    """Random subgraph of a random triangulation with all k-cycles destroyed."""
    g = rand_subgraph(rng, rand_triangulation(rng, n).graph, keep=0.85)
    edges = list(g.edges)
    while True:
        cyc = find_cycle_in_edges(n, edges, k)
        if cyc is None:
            return op.make_graph(n, edges)
        kill = op.edge_key(*rng.choice([(cyc[i], cyc[(i + 1) % k]) for i in range(k)]))
        edges = [e for e in edges if e != kill]


def brute_max_ckfree(n: int, k: int) -> int:
    """Max edges over every subset of every triangulation. Tiny n only."""
    if n == 2:
        return 1
    best = 0
    for t in op.triangulations(n):
        edges = t.graph.edges
        for mask in range(1 << len(edges)):
            chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            if len(chosen) <= best:
                continue
            if find_cycle_in_edges(n, chosen, k) is None:
                best = len(chosen)
    return best


def restrict_embedding(
    parent: op.OuterplaneEmbedding, subgraphs: Sequence[tuple[op.Graph, Sequence[int]]]
) -> list[op.OuterplaneEmbedding]:
    """The embeddings of subgraphs, read off the parent's cyclic orders.

    Each subgraph comes as (sub, to_parent): `sub` is spanned by parent
    edges, and to_parent[i] is the parent vertex of its vertex i, increasing
    in i (as subgraph_on_edges gives). Each parent block must keep no edge,
    one edge, which becomes a bridge, or a 2-connected set of edges, which
    becomes one block bounded by its vertices in the parent's cyclic order.
    Each result then equals recognize_outerplanar(sub), with no recognition.
    Raises EmbeddingInvariantError if an edge of a subgraph is no parent
    edge, or if a block keeps more than one edge but misses a pair of its
    ring, that is, when the kept edges are not 2-connected.
    """
    block_of = dict.fromkeys(parent.graph.edges, -1)  # edge -> block index, -1 for a bridge
    for at, block in enumerate(parent.blocks):
        for edge in op.cycle_edges(block.outer) + block.chord_edges():
            block_of[edge] = at
    positions = [{v: i for i, v in enumerate(b.outer)} for b in parent.blocks]
    return [_restrict(block_of, positions, sub, to_parent) for sub, to_parent in subgraphs]


def _restrict(
    block_of: dict[Edge, int],
    positions: list[dict[int, int]],
    sub: op.Graph,
    to_parent: Sequence[int],
) -> op.OuterplaneEmbedding:
    """One subgraph's embedding for restrict_embedding."""
    kept: dict[int, tuple[dict[int, int], list[Edge]]] = {}  # block -> (ring labels, edges)
    bridges: list[Edge] = []
    for a, b in sub.edges:
        u, v = to_parent[a], to_parent[b]
        at = block_of.get((u, v))
        if at is None:
            raise EmbeddingInvariantError(f"edge ({a}, {b}) maps to no parent edge")
        if at < 0:
            bridges.append((a, b))
            continue
        labels, edges = kept.setdefault(at, ({}, []))
        place = positions[at]
        labels[place[u]], labels[place[v]] = a, b
        edges.append((a, b))
    blocks: list[op.BlockEmbedding] = []
    for labels, edges in kept.values():
        if len(edges) == 1:
            bridges.extend(edges)
            continue
        outer = canonical_cycle([labels[i] for i in sorted(labels)])
        spot = {v: i for i, v in enumerate(outer)}
        p = len(outer)
        chords = []
        for a, b in edges:
            i, j = op.edge_key(spot[a], spot[b])
            if 1 < j - i < p - 1:
                chords.append((i, j))
        if len(edges) - len(chords) != p:  # distinct pairs: the ring is whole iff it holds p
            raise EmbeddingInvariantError("a boundary pair of a kept block is not an edge")
        blocks.append(op.BlockEmbedding(outer=outer, chords=tuple(sorted(chords))))
    touched = [False] * sub.n
    for a, b in sub.edges:
        touched[a] = touched[b] = True
    return op.OuterplaneEmbedding(
        graph=sub,
        blocks=tuple(sorted(blocks, key=lambda b: b.outer)),
        bridges=tuple(sorted(bridges)),
        isolated=tuple(v for v in range(sub.n) if not touched[v]),
    )


# ---------------------------------------------------------------------------
# Reference derivations, on node graphs relabelled 0..
# ---------------------------------------------------------------------------
# A reference node is (g, labels): its graph on 0.., and the certified
# graph's label of each local id, increasing. A selection is recorded in
# labels and mapped to local ids here; every derived child is relabelled 0..
# again. The verifier derives the same children in labels, with no
# relabelling, so the two derivations check each other.

NOT_A_FACE = "recorded face is not an inner face of the node graph"


def root_node(g: op.Graph) -> tuple[op.Graph, tuple[int, ...]]:
    """The graph the root decomposes: g without its isolated vertices, or g
    itself when it has no edge, whose vertices then carry no label (no
    selection can name them: they are touched by no edge)."""
    return subgraph_on_edges(g.edges) if g.e else (g, ())


def local_parts(g: op.Graph, removed) -> list[tuple[list[int], list[Edge], set[int]]]:
    """The components of g minus the `removed` vertices, in order of their least vertex.

    Each comes as (its vertices, least first; its edges, those to removed
    vertices included; the removed vertices it touches).
    """
    adj = g.adjacency()
    seen = [v in removed for v in range(g.n)]
    parts = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        vertices, edges, touched = [start], [], set()
        for x in vertices:
            for y in adj[x]:
                if y in removed:
                    touched.add(y)
                    edges.append(op.edge_key(x, y))
                    continue
                if x < y:
                    edges.append((x, y))
                if not seen[y]:
                    seen[y] = True
                    vertices.append(y)
        parts.append((vertices, edges, touched))
    return parts


def _child(labels: tuple[int, ...], edges: list[Edge], subgraph: bool = True):
    """The child spanned by `edges` (local ids of its parent) as (graph on
    0.., labels, its vertex map into the parent or None for a minor)."""
    child, to_parent = subgraph_on_edges(edges)
    return child, tuple(labels[i] for i in to_parent), to_parent if subgraph else None


def reference_cut_children(g: op.Graph, labels: tuple[int, ...], cut: int | None, side: tuple[int, ...]):
    """Child 0: the parts of g - cut holding a vertex of `side`; child 1: the rest."""
    index = {v: i for i, v in enumerate(labels)}
    if cut is not None and cut not in index:
        raise certify_module.SelectionError(f"cut {cut} is not a vertex of the node graph")
    at = None if cut is None else index[cut]
    local = [index.get(v, -1) for v in side]  # -1: no vertex of the node
    chosen = set(local)
    if not side or len(chosen) < len(side) or not all(0 <= v < g.n and v != at for v in local):
        raise certify_module.SelectionError(f"side {list(side)} must name distinct vertices other than the cut")
    sides: tuple[list[Edge], list[Edge]] = ([], [])
    for vertices, edges, _ in local_parts(g, () if at is None else (at,)):
        sides[chosen.isdisjoint(vertices)].extend(edges)
    if not (sides[0] and sides[1]):
        raise certify_module.SelectionError(f"cut {cut} with side {list(side)} leaves a child without edges")
    return [_child(labels, edges) for edges in sides]


def local_face_sides(g: op.Graph, face: tuple[int, ...]) -> tuple[list[list[Edge]], list[tuple[int, list[Edge]]]]:
    """The edges on each side of `face` (local ids), and the parts of g
    across no face edge as (least vertex, edges); `face` must be an induced
    cycle of g."""
    size = len(face)
    pos = {v: i for i, v in enumerate(face)}
    steps = [(pos[u] - pos[v]) % size for u, v in g.edges if u in pos and v in pos]
    if size < 3 or len(pos) < size or len(steps) != size or not set(steps) <= {1, size - 1}:
        raise certify_module.SelectionError(NOT_A_FACE)
    sides = [[edge] for edge in op.cycle_edges(face)]
    loose = []
    for vertices, edges, touched in local_parts(g, pos):
        ends = sorted(pos[v] for v in touched)
        if len(ends) == 2 and ends[1] - ends[0] in (1, size - 1):
            sides[ends[0] if ends[1] == ends[0] + 1 else ends[1]].extend(edges)
        else:
            loose.append((vertices[0], edges))
    return sides, loose


def _local_face(labels: tuple[int, ...], face: tuple[int, ...]) -> tuple[int, ...]:
    index = {v: i for i, v in enumerate(labels)}
    if not all(v in index for v in face):
        raise certify_module.SelectionError(NOT_A_FACE)
    return tuple(index[v] for v in face)


def reference_big_face_children(g: op.Graph, labels: tuple[int, ...], face: tuple[int, ...]):
    """One child per edge of `face`: the edge plus everything across it."""
    sides, loose = local_face_sides(g, _local_face(labels, face))
    if loose:
        raise certify_module.SelectionError(
            f"the part at vertex {labels[loose[0][0]]} does not hang across one face edge"
        )
    return [_child(labels, edges) for edges in sides]


def reference_peel_children(g: op.Graph, labels: tuple[int, ...], face: tuple[int, ...]):
    """The rest of g, and the sides of face edges 0..L-2 with face[-1]
    merged into face[0], which keeps face[0]'s label."""
    face = _local_face(labels, face)
    sides, loose = local_face_sides(g, face)
    peel = sides[:-1]
    if any(len(edges) != 2 * len({v for e in edges for v in e}) - 3 for edges in peel):
        raise certify_module.SelectionError("a peeled face edge lies in a non-terminal block")
    v1, vl = face[0], face[-1]
    merged = [op.edge_key(v1 if u == vl else u, v1 if v == vl else v) for edges in peel for u, v in edges]
    rest = sides[-1] + [e for _, edges in loose for e in edges]
    return [_child(labels, rest), _child(labels, merged, subgraph=False)]


def reference_derive(node: op.CertNode, g: op.Graph, labels: tuple[int, ...], vouched: bool, k: int):
    """The children of a split node, each as (graph on 0.., labels, vertex
    map into g or None); none for a face on a graph not known to be
    outerplanar. Raises SelectionError as the verifier reports it."""
    if node.kind == certify_module.CUT_SPLIT:
        return reference_cut_children(g, labels, node.cut, node.side)
    if not vouched:
        return []
    if node.kind == certify_module.BIG_FACE_SPLIT:
        if len(node.face) < k + 1:
            raise certify_module.SelectionError(f"face of size {len(node.face)} is below k+1 = {k + 1}")
        return reference_big_face_children(g, labels, node.face)
    if not 4 <= len(node.face) <= k - 1:
        raise certify_module.SelectionError(f"face size {len(node.face)} outside 4..{k - 1}")
    return reference_peel_children(g, labels, node.face)


def reference_verify(cert: op.Certificate, k: int, heredity: bool = True) -> op.AuditReport:
    """verify_certificate with a node audit that carries embeddings instead
    of a heredity flag, and node graphs relabelled 0.. (reference_derive)
    instead of edges in labels: each child's embedding is read off its
    parent's with restrict_embedding, and a node without one is recognised
    and searched in full. With heredity=False no embedding is passed down,
    so every node gets the full checks."""

    def node_audit(node, g, labels, emb, path, audit):
        before = len(audit.failures)
        if emb is None:
            try:
                emb = op.recognize_outerplanar(g)
            except (NotOuterplanarError, EmbeddingInvariantError) as exc:
                audit.fail(path, f"node graph is not outerplanar: {exc}")
            if g.n >= k and op.has_cycle_of_length(g, k):
                audit.fail(path, f"node graph contains a cycle of length {k}")
        lhs, rhs = g.e * audit.den, audit.rhs(g.n)
        note, children = "", []
        if node.kind == certify_module.EDGELESS:
            if g.e != 0:
                audit.fail(path, "edgeless node has edges")
        elif node.kind == certify_module.BASE:
            if g.n != 2 or g.e > 1:
                audit.fail(path, f"base leaf requires n=2, e<=1; got n={g.n}, e={g.e}")
        elif node.kind == certify_module.MAXIMAL_LEAF:
            if g.e != 2 * g.n - 3:
                audit.fail(path, f"maximal leaf has e={g.e}, expected {2 * g.n - 3}")
            if g.n > k - 1:
                audit.fail(path, f"maximal leaf has n={g.n} > k-1={k - 1}")
            note = "e = 2n-3 leaf"
        else:
            try:
                children = reference_derive(node, g, labels, emb is not None, k)
            except certify_module.SelectionError as exc:
                audit.fail(path, str(exc))
            if children:
                certify_module._verify_split(node, g.n, [c.n for c, _, _ in children], k, path, audit)
            size = len(node.face or ())
            note = {
                certify_module.CUT_SPLIT: "split at a cut",
                certify_module.BIG_FACE_SPLIT: f"face of size {size}",
                certify_module.TERMINAL_PEEL: f"peel around a {size}-face",
            }[node.kind]
        if lhs > rhs:
            audit.fail(path, f"inequality fails: {lhs} > {rhs}")
        audit.entries.append(
            certify_module.AuditEntry(
                path, node.kind, g.n, g.e, lhs, rhs, rhs - lhs, len(audit.failures) == before, note
            )
        )
        embeddings = [None] * len(children)
        if emb is not None and heredity:
            subgraphs = [(c, m) for c, _, m in children if m is not None]
            try:
                found = iter(restrict_embedding(emb, subgraphs))
                embeddings = [next(found) if m is not None else None for _, _, m in children]
            except EmbeddingInvariantError:
                pass
        for i, (child, (child_graph, child_labels, _), child_emb) in enumerate(
            zip(node.children, children, embeddings)
        ):
            node_audit(child, child_graph, child_labels, child_emb, f"{path}.{i}", audit)

    def root_audit(node, n, edges, vouched, k, path, audit):
        node_audit(node, *root_node(cert.graph), None, path, audit)
        return []  # the whole tree is audited: verify_certificate's loop has nothing left

    with mock.patch.object(certify_module, "_verify_node", root_audit):
        return op.verify_certificate(cert, k)


def embedding_decomposition(emb: op.OuterplaneEmbedding) -> op.BlockCutDecomposition:
    """The graph's blocks, bridges and cut vertices, read off its embedding."""
    comps = [op.cycle_edges(b.outer) + b.chord_edges() for b in emb.blocks]
    comps += [(e,) for e in emb.bridges]
    return block_cut_decomposition(emb.graph.n, comps, emb.isolated)


def reference_select_cut(g: op.Graph, dec: op.BlockCutDecomposition) -> tuple[int | None, tuple[int, ...]]:
    """The most balanced cut split of g as (cut, side), picked on g's own
    block-cut forest: least heaviest branch at a cut vertex, or the
    components of a disconnected g grouped by edge count."""
    units = [b.vertices for b in dec.blocks] + list(dec.bridges)
    node_of = {c: len(units) + i for i, c in enumerate(dec.cut_vertices)}
    adj: list[list[int]] = [[] for _ in range(len(units) + len(node_of))]
    for ui, vertices in enumerate(units):
        for v in vertices:
            if v in node_of:
                adj[ui].append(node_of[v])
                adj[node_of[v]].append(ui)
    if len(adj) - sum(map(len, adj)) // 2 > 1:
        comps = local_parts(g, ())
        sizes = [len(edges) for _, edges, _ in comps]
        return None, tuple(sorted(comps[ci][0][0] for ci in certify_module._halves(sizes)[0]))
    weight = [len(b.edges) for b in dec.blocks] + [1] * len(dec.bridges) + [0] * len(node_of)
    branches = branch_weights(adj, weight)
    cut = min(dec.cut_vertices, key=lambda c: (max(branches[node_of[c]]), c))
    at = node_of[cut]
    side = []
    for i in certify_module._halves(branches[at])[0]:
        part = certify_module._behind(adj, at, [adj[at][i]])
        side.append(min(v for ui in part if ui < len(units) for v in units[ui] if v != cut))
    return cut, tuple(sorted(side))


def reference_select_big_face(dual: WeakDualForest, k: int) -> tuple[int, ...]:
    """The face of size >= k+1 whose largest child has the fewest edges."""
    faces = dual.faces
    # the child across a face edge holds sum(size - 1) + 1 edges of its faces
    branches = branch_weights([[g for g, _ in row] for row in dual.links], [len(f) - 1 for f in faces])
    at = min(
        (i for i, f in enumerate(faces) if len(f) >= k + 1),
        key=lambda i: (max(branches[i], default=0), faces[i]),
    )
    return faces[at]


def reference_select_peel(dual: WeakDualForest, k: int) -> tuple[int, ...]:
    """The reducible face, rotated so that its edge in a non-terminal block
    (if any) joins the last vertex to the first, and face[0] < face[-1]."""
    found = find_reducible_face(dual)
    if found is None:
        raise certify_module.CoverageError("no reducible face although a (4+)-face exists")
    face, held = found
    size = len(face)
    if not 4 <= size <= k - 1:
        raise certify_module.CoverageError(f"reducible face size {size} outside 4..{k - 1}")
    ring = list(face)
    skip = next((i for i, edge in enumerate(op.cycle_edges(ring)) if edge in held), 0)
    ring = ring[skip + 1 :] + ring[: skip + 1]
    if ring[0] > ring[-1]:
        ring.reverse()  # same closing edge, and v1 < vL for determinism
    return tuple(ring)


def reference_build(emb: op.OuterplaneEmbedding, k: int) -> op.Certificate:
    """build_certificate with every node decomposed on its node graph: the
    root graph is g without its isolated vertices; a graph of several
    blocks and bridges is cut where reference_select_cut says; a block is
    split at reference_select_big_face or peeled at reference_select_peel
    on its own weak dual. Each choice is made in local ids and recorded in
    labels. The children come from the reference derivations, each with
    its embedding read off the parent's by restrict_embedding, or
    recognised for the contracted peel."""
    g = emb.graph
    if not g.e:
        return op.build_certificate(emb, k)

    def build(g: op.Graph, labels: tuple[int, ...], emb: op.OuterplaneEmbedding) -> op.CertNode:
        if g.n == 2:
            return op.CertNode(kind=certify_module.BASE)
        if len(emb.blocks) + len(emb.bridges) > 1:
            cut, side = reference_select_cut(g, embedding_decomposition(emb))
            cut, side = None if cut is None else labels[cut], tuple(labels[v] for v in side)
            kind, selection = certify_module.CUT_SPLIT, {"cut": cut, "side": side}
            children = reference_cut_children(g, labels, cut, side)
        else:
            dual = op.weak_dual(emb)
            if any(len(f) >= k + 1 for f in dual.faces):
                kind, derive, face = certify_module.BIG_FACE_SPLIT, reference_big_face_children, reference_select_big_face(dual, k)
            elif any(len(f) >= 4 for f in dual.faces):
                kind, derive, face = certify_module.TERMINAL_PEEL, reference_peel_children, reference_select_peel(dual, k)
            elif op.is_edge_maximal(emb) and g.n <= k - 1:
                return op.CertNode(kind=certify_module.MAXIMAL_LEAF)
            else:
                raise certify_module.CoverageError(f"maximal leaf conditions failed at n={g.n}, k={k}")
            selection = {"face": tuple(labels[v] for v in face)}
            children = derive(g, labels, selection["face"])
        found = iter(restrict_embedding(emb, [(c, m) for c, _, m in children if m is not None]))
        embedded = [
            (c, ls, next(found) if m is not None else op.recognize_outerplanar(c)) for c, ls, m in children
        ]
        return op.CertNode(kind, tuple(build(*child) for child in embedded), **selection)

    root, labels = root_node(g)
    return op.Certificate(k=k, graph=g, root=build(root, labels, restrict_embedding(emb, [(root, labels)])[0]))
