"""Outerplane embeddings: boundary cycles plus non-crossing chords.

A combinatorial outerplane embedding stores, per 2-connected block, the
cyclic boundary order of the block's vertices together with its chord set
(chords are recorded as position pairs into that cycle). Bridges and
isolated vertices ride along unchanged, so disconnected hosts embed too.

Recognition exploits that a 2-connected outerplanar graph has exactly one
Hamiltonian cycle (its boundary): a degree-2 vertex always exists, its two
edges are forced boundary edges, and eliminating it (adding a virtual edge
between its neighbours when absent) reduces to a smaller instance. Replaying
the eliminations in reverse reconstructs the unique boundary cycle or proves
no boundary order exists. A block with e edges costs O(e log e): degree-2
vertices come from a lazy min-heap, each replay step relinks a cycle in O(1),
and one stack scan over sorted chords (shared with validate_embedding) rules
out crossings.

Faces are read off each block by a single monotone stack scan over chord
endpoints in cycle order; no geometry is ever computed. The cycle spectrum
uses the fact that the cycles of an outerplane block correspond exactly to
the connected subtrees of its face-adjacency tree: a subtree's boundary
length is 2 + sum over its faces of (size - 2), so a subset-sum sweep over
the tree yields the full spectrum without enumerating cycles.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .graph import (
    Edge,
    Graph,
    GraphError,
    biconnected_decomposition,
    edge_key,
    make_graph,
)


class NotOuterplanarError(ValueError):
    """The graph admits no outerplane embedding."""


class EmbeddingInvariantError(ValueError):
    """Internal structure of an embedding is inconsistent."""


class EdgeNotOnOuterFaceError(ValueError):
    """Operation requires an edge lying on the outer boundary."""


class NotEdgeMaximalError(ValueError):
    """Operation is only defined on edge-maximal embeddings."""


@dataclass(frozen=True)
class Face:
    """Bounded face given by its boundary vertices in cyclic order.

    The vertex list is canonicalised (rotated/reflected to the
    lexicographically least form) so faces compare and sort deterministically.
    """

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def boundary_edges(self) -> tuple[Edge, ...]:
        vs = self.vertices
        return tuple(edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def canonical_cycle(vertices: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation/reflection of a cyclic vertex sequence."""

    def from_min(seq: list[int]) -> tuple[int, ...]:
        at = seq.index(min(seq))
        return tuple(seq[at:] + seq[:at])

    vs = list(vertices)
    return min(from_min(vs), from_min(vs[::-1]))


@dataclass(frozen=True)
class BlockEmbedding:
    """One 2-connected block: outer cycle plus chords as position pairs."""

    outer: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]

    def chord_edges(self) -> tuple[Edge, ...]:
        return tuple(edge_key(self.outer[i], self.outer[j]) for i, j in self.chords)

    def cycle_edges(self) -> tuple[Edge, ...]:
        p = len(self.outer)
        return tuple(edge_key(self.outer[i], self.outer[(i + 1) % p]) for i in range(p))


@dataclass(frozen=True)
class OuterplaneEmbedding:
    graph: Graph
    blocks: tuple[BlockEmbedding, ...]
    bridges: tuple[Edge, ...]
    isolated: tuple[int, ...]


def validate_embedding(emb: OuterplaneEmbedding) -> None:
    """Check the embedding invariants, raising EmbeddingInvariantError."""
    claimed: list[Edge] = list(emb.bridges)
    for block in emb.blocks:
        p = len(block.outer)
        if p < 3:
            raise EmbeddingInvariantError("block outer cycle needs >= 3 vertices")
        if len(set(block.outer)) != p:
            raise EmbeddingInvariantError("vertex repeated on a block outer cycle")
        for i, j in block.chords:
            if not (0 <= i < j < p):
                raise EmbeddingInvariantError(f"chord positions ({i}, {j}) out of order")
            if j - i == 1 or (i == 0 and j == p - 1):
                raise EmbeddingInvariantError(f"chord ({i}, {j}) duplicates a cycle edge")
        if (crossing := _crossing_chords(block.chords)) is not None:
            raise EmbeddingInvariantError("chords %s and %s cross" % crossing)
        claimed.extend(block.cycle_edges())
        claimed.extend(block.chord_edges())
    if len(claimed) != len(set(claimed)):
        raise EmbeddingInvariantError("edge claimed by two embedding parts")
    if set(claimed) != emb.graph.edge_set():
        raise EmbeddingInvariantError("embedding edges do not match the graph")
    touched = {v for e in claimed for v in e}
    if touched & set(emb.isolated):
        raise EmbeddingInvariantError("isolated vertex carries an edge")
    if touched | set(emb.isolated) != set(range(emb.graph.n)):
        raise EmbeddingInvariantError("vertices missing from the embedding")


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def recognize_outerplanar(g: Graph) -> OuterplaneEmbedding:
    """Outerplane embedding of g, or NotOuterplanarError.

    Components are embedded independently; each 2-connected block gets its
    unique boundary cycle reconstructed by degree-2 elimination.
    """
    dec = biconnected_decomposition(g)
    blocks = sorted(
        (_embed_block(blk.vertices, blk.edges) for blk in dec.blocks), key=lambda b: b.outer
    )
    emb = OuterplaneEmbedding(
        graph=g, blocks=tuple(blocks), bridges=dec.bridges, isolated=dec.isolated
    )
    validate_embedding(emb)
    return emb


def _embed_block(vertices: tuple[int, ...], edges: tuple[Edge, ...]) -> BlockEmbedding:
    real = set(edges)
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    # Lazy min-heap of degree-2 vertices; degrees never grow, so stale entries
    # (eliminated, or degree now below 2) are simply dropped when they surface.
    ready = sorted(v for v in vertices if len(adj[v]) == 2)  # sorted is a heap
    eliminated: list[tuple[int, int, int]] = []
    while len(adj) > 3:
        while ready and (ready[0] not in adj or len(adj[ready[0]]) != 2):
            heapq.heappop(ready)
        if not ready:
            raise NotOuterplanarError(
                "2-connected block with no degree-2 vertex cannot be outerplanar"
            )
        v = heapq.heappop(ready)
        a, b = sorted(adj.pop(v))
        eliminated.append((v, a, b))
        for x, y in ((a, b), (b, a)):
            adj[x].discard(v)
            adj[x].add(y)  # virtual edge if absent; harmless if already present
            if len(adj[x]) == 2:
                heapq.heappush(ready, x)

    tri = sorted(adj)
    if not all(y in adj[x] for x in tri for y in tri if x != y):
        raise NotOuterplanarError("block does not reduce to a triangle")
    # Replay in reverse on a linked cycle: v goes back between a and b.
    nxt = {tri[0]: tri[1], tri[1]: tri[2], tri[2]: tri[0]}
    for v, a, b in reversed(eliminated):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            raise NotOuterplanarError(
                f"vertex {v} cannot be returned to the boundary between {a} and {b}"
            )
        nxt[a], nxt[v] = v, b
    cycle = [tri[0]]
    while len(cycle) < len(nxt):
        cycle.append(nxt[cycle[-1]])

    outer = canonical_cycle(cycle)
    pos = {v: i for i, v in enumerate(outer)}
    p = len(outer)
    boundary = {edge_key(outer[i], outer[(i + 1) % p]) for i in range(p)}
    if not boundary <= real:
        raise NotOuterplanarError("reconstructed boundary uses a non-edge")
    chords = sorted(edge_key(pos[u], pos[v]) for u, v in real - boundary)
    if _crossing_chords(chords) is not None:
        raise NotOuterplanarError("boundary found but chords cross")
    return BlockEmbedding(outer=outer, chords=tuple(chords))


def _crossing_chords(chords: Iterable[Edge]) -> tuple[Edge, Edge] | None:
    """Two crossing position pairs (a < c < b < d), or None if all nest.

    Chords are scanned by start, longest first, against a stack of open ones:
    nesting chords are laminar, so each must fit inside the innermost."""
    stack: list[Edge] = []
    for c, d in sorted(chords, key=lambda ch: (ch[0], -ch[1])):
        while stack and stack[-1][1] <= c:
            stack.pop()
        if stack and stack[-1][1] < d:
            return stack[-1], (c, d)
        stack.append((c, d))
    return None


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


def _scan_faces(p: int, chords: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """Inner faces of one block, as position lists, via a monotone stack scan."""
    ends: dict[int, list[int]] = defaultdict(list)
    for i, j in chords:
        ends[j].append(i)
    for j in ends:
        ends[j].sort(reverse=True)  # nested chords close innermost first
    stack = [0]
    faces: list[list[int]] = []
    for posn in range(1, p):
        for i in ends.get(posn, ()):
            face = [posn]
            while stack and stack[-1] != i:
                face.append(stack.pop())
            if not stack:
                raise EmbeddingInvariantError("chord start vanished from scan stack")
            face.append(i)
            face.reverse()
            faces.append(face)
        stack.append(posn)
    faces.append(stack)
    return faces


def inner_faces(emb: OuterplaneEmbedding) -> list[Face]:
    """All bounded faces, blockwise; bridges and isolated vertices bound none.

    A block with c chords yields exactly c + 1 faces. Order is deterministic:
    blocks in embedding order, faces sorted by canonical boundary.
    """
    out: list[Face] = []
    for block in emb.blocks:
        faces = _scan_faces(len(block.outer), block.chords)
        mapped = [
            Face(canonical_cycle([block.outer[i] for i in positions]))
            for positions in faces
        ]
        out.extend(sorted(mapped, key=lambda f: f.vertices))
    return out


def outer_boundary_edges(emb: OuterplaneEmbedding) -> frozenset[Edge]:
    """Edges lying on the outer face: bridges plus block boundary cycles."""
    out: set[Edge] = set(emb.bridges)
    for block in emb.blocks:
        out.update(block.cycle_edges())
    return frozenset(out)


# ---------------------------------------------------------------------------
# Edge-maximality and spectra
# ---------------------------------------------------------------------------


def is_edge_maximal(emb: OuterplaneEmbedding) -> bool:
    """No edge can be added while keeping the graph outerplanar.

    Evaluates both equivalent characterisations (2-connected with all inner
    faces triangular; edge count equal to 2n-3) and refuses to answer if
    they ever disagree, which would indicate a broken embedding.
    """
    g = emb.graph
    if g.n < 2:
        raise ValueError(f"edge-maximality needs n >= 2, got n={g.n}")
    count_cond = g.e == 2 * g.n - 3
    if g.n == 2:
        return count_cond
    structural = (
        len(emb.blocks) == 1
        and not emb.bridges
        and not emb.isolated
        and len(emb.blocks[0].outer) == g.n
        and all(f.size == 3 for f in inner_faces(emb))
    )
    if structural != count_cond:
        raise EmbeddingInvariantError(
            "edge-maximality characterisations disagree: "
            f"structural={structural} count={count_cond} (n={g.n}, e={g.e})"
        )
    return count_cond


def path_length_set(emb: OuterplaneEmbedding, u: int, v: int) -> frozenset[int]:
    """Lengths of all u-v paths; requires an outer edge of an edge-maximal host."""
    if not is_edge_maximal(emb):
        raise NotEdgeMaximalError("path spectrum is only guaranteed on edge-maximal embeddings")
    if edge_key(u, v) not in outer_boundary_edges(emb):
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


def cycle_length_set(emb: OuterplaneEmbedding) -> frozenset[int]:
    """Exact set of cycle lengths present in the embedded graph.

    Per block: every cycle is the outer boundary of a connected set of inner
    faces, connected sets of faces form subtrees of the face-adjacency tree,
    and such a boundary has length 2 + sum(face size - 2). Subset sums are
    swept bottom-up with bitmask arithmetic.
    """
    lengths: set[int] = set()
    for block in emb.blocks:
        faces = _scan_faces(len(block.outer), block.chords)
        weights = [len(f) - 2 for f in faces]
        adj = _face_adjacency(faces)
        reach = _subtree_sums(adj, weights)
        lengths.update(s + 2 for s in reach)
    return frozenset(lengths)


def _face_adjacency(faces: list[list[int]]) -> list[list[int]]:
    """Face-adjacency (weak-dual) lists for one block, via shared position pairs."""
    owner: dict[tuple[int, int], list[int]] = defaultdict(list)
    for fi, face in enumerate(faces):
        p = len(face)
        for at in range(p):
            a, b = face[at], face[(at + 1) % p]
            owner[(a, b) if a < b else (b, a)].append(fi)
    adj: list[list[int]] = [[] for _ in faces]
    for users in owner.values():
        if len(users) == 2:
            a, b = users
            adj[a].append(b)
            adj[b].append(a)
        elif len(users) > 2:
            raise EmbeddingInvariantError("an edge borders three inner faces")
    return adj


def _subtree_sums(adj: list[list[int]], weights: list[int]) -> set[int]:
    """All values sum(weights over S) for S a connected subtree of the tree."""
    total: int = 0
    order: list[int] = []
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
    rooted_sums = [0] * len(adj)
    for v in reversed(order):
        bits = 1 << weights[v]
        for w in adj[v]:
            if parent[w] == v:
                child = rooted_sums[w]
                extra = 0
                while child:
                    lsb = child & -child
                    extra |= bits << (lsb.bit_length() - 1)
                    child ^= lsb
                bits |= extra
        rooted_sums[v] = bits
        total |= bits
    return {at for at, bit in enumerate(bin(total)[:1:-1]) if bit == "1"}


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeContraction:
    """Result of contracting an outer edge: new embedding + collapse count."""

    embedding: OuterplaneEmbedding
    collapsed_parallel_edges: int


def contract_outer_edge(emb: OuterplaneEmbedding, u: int, v: int) -> EdgeContraction:
    """Merge the endpoints of an outer-face edge.

    Parallel edges produced by the merge are collapsed to one and counted
    rather than rejected; callers that need a clean contraction assert the
    count is zero. The contracted graph is re-recognised, which must succeed
    because outerplanarity is preserved by contracting a boundary edge.
    """
    g = emb.graph
    key = edge_key(u, v)
    if key not in g.edge_set():
        raise EdgeNotOnOuterFaceError(f"({u}, {v}) is not an edge")
    if key not in outer_boundary_edges(emb):
        raise EdgeNotOnOuterFaceError(f"({u}, {v}) is not on the outer face")
    lo, hi = key

    def rename(w: int) -> int:
        w = lo if w == hi else w
        return w - 1 if w > hi else w

    mapped = [
        edge_key(rename(a), rename(b)) for a, b in g.edges if edge_key(a, b) != key
    ]
    distinct = sorted(set(mapped))
    collapsed = len(mapped) - len(distinct)
    contracted = make_graph(g.n - 1, distinct)
    return EdgeContraction(
        embedding=recognize_outerplanar(contracted),
        collapsed_parallel_edges=collapsed,
    )


def contraction_vertex_map(n: int, u: int, v: int) -> tuple[int, ...]:
    """to-parent map matching contract_outer_edge's dense relabelling."""
    lo, hi = edge_key(u, v)
    return tuple(w for w in range(n) if w != hi)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def embedding_to_json(emb: OuterplaneEmbedding) -> str:
    return json.dumps(
        {
            "blocks": [
                {"outer": list(b.outer), "chords": [list(c) for c in b.chords]}
                for b in emb.blocks
            ],
            "bridges": [list(e) for e in emb.bridges],
            "isolated": list(emb.isolated),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def embedding_from_json(text: str) -> OuterplaneEmbedding:
    data = json.loads(text)
    try:
        blocks = tuple(
            BlockEmbedding(
                outer=tuple(int(x) for x in b["outer"]),
                chords=tuple(sorted((int(i), int(j)) for i, j in b["chords"])),
            )
            for b in data["blocks"]
        )
        bridges = tuple(sorted(edge_key(int(u), int(v)) for u, v in data["bridges"]))
        isolated = tuple(sorted(int(x) for x in data["isolated"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed embedding JSON: {exc}") from exc
    edges: list[Edge] = list(bridges)
    touched: set[int] = set(isolated)
    for b in blocks:
        edges.extend(b.cycle_edges())
        edges.extend(b.chord_edges())
        touched.update(b.outer)
    touched.update(x for e in edges for x in e)
    n = max(touched) + 1 if touched else 0
    emb = OuterplaneEmbedding(
        graph=make_graph(n, sorted(set(edges))),
        blocks=blocks,
        bridges=bridges,
        isolated=isolated,
    )
    validate_embedding(emb)
    return emb


def embedding_to_dot(emb: OuterplaneEmbedding, name: str = "G") -> str:
    """DOT text; outer-cycle orders are emitted as layout-hint comments."""
    lines = [f"graph {name} {{"]
    for bi, block in enumerate(emb.blocks):
        lines.append(f"  // block {bi} outer cycle: " + " ".join(map(str, block.outer)))
    for v in range(emb.graph.n):
        lines.append(f"  {v};")
    for u, v in emb.graph.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
