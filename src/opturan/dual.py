"""Weak dual forests, triangular blocks, and the reducible-face finder.

The weak dual has one node per inner face, with faces adjacent when they
share an edge; for outerplane embeddings it is always a forest. The edges
two inner faces share are the chords, so weak_dual reads it off each
block's face scan (embedding.block_faces), one dual edge per chord. Triangular
blocks partition the edge set: maximal unions of edge-adjacent triangular
faces, plus one trivial (single-edge) block for every edge that borders no
triangular face. A block is terminal when it shares edges with at most one
inner face of size >= 4.

Seen from a (4+)-face, an edge's block is the triangles across it up to
the next (4+)-face, so it is non-terminal exactly when a (4+)-face lies
across the edge in the dual. The reducible-face finder thus needs no
partition: from the (4+)-face count of each dual branch (branch_weights),
it returns a face of size L >= 4 with at most one branch around it holding
another (4+)-face, so at least L-1 of its edges' blocks are terminal. One
exists whenever a (4+)-face does: in each dual tree the (4+)-faces span a
subtree, and a leaf of it (or its only node) qualifies.

Everything after weak_dual reads its faces off a dual the caller built once.
The rule itself, reducible_face, needs only face boundaries and adjacency,
so the certificate builder applies it to the face lists it keeps.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .graph import Edge
from .embedding import (
    EmbeddingInvariantError,
    Face,
    OuterplaneEmbedding,
    block_faces,
)


@dataclass(frozen=True)
class WeakDualForest:
    """Faces plus adjacency between faces sharing an edge.

    `edges` holds index pairs into `faces`; `shared_edges` records, for each
    dual edge, the graph edge the two faces share.
    """

    faces: tuple[Face, ...]
    edges: tuple[tuple[int, int], ...]
    shared_edges: tuple[Edge, ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.faces]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class TriangularBlock:
    edges: tuple[Edge, ...]
    vertices: tuple[int, ...]
    trivial: bool
    terminal: bool | None = None


@dataclass(frozen=True)
class BlockPartition:
    blocks: tuple[TriangularBlock, ...]

    def block_of_edge(self) -> dict[Edge, int]:
        """Edge -> index of the block that owns it, built once per partition."""
        return self._owner

    @cached_property
    def _owner(self) -> dict[Edge, int]:
        owner: dict[Edge, int] = {}
        for bi, block in enumerate(self.blocks):
            for e in block.edges:
                if e in owner:
                    raise EmbeddingInvariantError(f"edge {e} owned by two blocks")
                owner[e] = bi
        return owner


@dataclass(frozen=True)
class FaceBlockIncidence:
    """Bipartite incidence between (4+)-faces and triangular blocks."""

    faces: tuple[Face, ...]
    blocks: tuple[TriangularBlock, ...]
    edges: tuple[tuple[int, int], ...]  # (face index, block index)


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _assert_forest(node_count: int, edges: list[tuple[int, int]], what: str) -> None:
    parent = list(range(node_count))
    for a, b in edges:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            raise EmbeddingInvariantError(f"{what} contains a cycle")
        parent[ra] = rb


def weak_dual(emb: OuterplaneEmbedding) -> WeakDualForest:
    """Face-adjacency forest of the embedding (a tree per 2-connected block),
    read off each block's face scan: faces in inner_faces order, dual edges
    ordered by the chord the two faces share."""
    faces: list[Face] = []
    links: list[tuple[Edge, int, int]] = []
    for block in emb.blocks:
        faces_here, links_here = block_faces(block)
        links.extend((chord, len(faces) + a, len(faces) + b) for chord, a, b in links_here)
        faces.extend(faces_here)
    links.sort()
    dual_edges = [(a, b) for _, a, b in links]
    _assert_forest(len(faces), dual_edges, "weak dual")
    return WeakDualForest(
        faces=tuple(faces), edges=tuple(dual_edges), shared_edges=tuple(e for e, _, _ in links)
    )


def triangular_blocks(dual: WeakDualForest, edges: tuple[Edge, ...]) -> BlockPartition:
    """Partition of the graph's edges into triangular blocks.

    Non-trivial blocks are unions of triangle faces over connected components
    of the triangles-only part of the weak dual; every edge bordering no
    triangle becomes its own trivial block. `edges` are all the graph's edges.
    """
    tri = [fi for fi, f in enumerate(dual.faces) if f.size == 3]
    tri_set = set(tri)
    parent = list(range(len(dual.faces)))
    for a, b in dual.edges:
        if a in tri_set and b in tri_set:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = defaultdict(list)
    for fi in tri:
        groups[_find(parent, fi)].append(fi)

    blocks: list[TriangularBlock] = []
    covered: set[Edge] = set()
    for members in groups.values():
        block_edges: set[Edge] = set()
        for fi in members:
            block_edges.update(dual.faces[fi].boundary_edges())
        verts = tuple(sorted({v for e in block_edges for v in e}))
        blocks.append(
            TriangularBlock(edges=tuple(sorted(block_edges)), vertices=verts, trivial=False)
        )
        covered.update(block_edges)
    for e in edges:
        if e not in covered:
            blocks.append(TriangularBlock(edges=(e,), vertices=e, trivial=True))
    blocks.sort(key=lambda b: b.edges)
    partition = BlockPartition(tuple(blocks))
    if partition.block_of_edge().keys() != set(edges):
        raise EmbeddingInvariantError("triangular blocks do not cover the edge set")
    return partition


def classify_terminal(partition: BlockPartition, dual: WeakDualForest) -> BlockPartition:
    """Set each block's terminal flag: shares edges with <= 1 face of size >= 4."""
    owner = partition.block_of_edge()
    touched: dict[int, set[int]] = defaultdict(set)
    for fi, face in enumerate(dual.faces):
        if face.size < 4:
            continue
        for e in face.boundary_edges():
            touched[owner[e]].add(fi)
    blocks = tuple(
        dataclasses.replace(block, terminal=len(touched.get(bi, ())) <= 1)
        for bi, block in enumerate(partition.blocks)
    )
    return BlockPartition(blocks)


def face_block_incidence(dual: WeakDualForest, partition: BlockPartition) -> FaceBlockIncidence:
    """The bipartite (4+)-face / block incidence graph of the dual's classified
    partition; always a forest."""
    owner = partition.block_of_edge()
    big_faces = [f for f in dual.faces if f.size >= 4]
    pairs: set[tuple[int, int]] = set()
    for fi, face in enumerate(big_faces):
        for e in face.boundary_edges():
            pairs.add((fi, owner[e]))
    edges = sorted(pairs)
    offset = len(big_faces)
    _assert_forest(
        offset + len(partition.blocks),
        [(fi, offset + bi) for fi, bi in edges],
        "face/block incidence",
    )
    return FaceBlockIncidence(
        faces=tuple(big_faces), blocks=partition.blocks, edges=tuple(edges)
    )


def branch_weights(adj: list[list[int]], weight: list[int]) -> list[list[int]]:
    """For each node of a forest, the weight of the branch behind each neighbour.

    branches[v][i] is the total weight of the component of the forest minus
    v that holds adj[v][i]: a subtree sum below v, or the rest of v's tree
    beyond v's own subtree. One rooted pass per tree computes every sum.
    """
    parent = [-1] * len(adj)
    root = [-1] * len(adj)
    order: list[int] = []  # every node after its parent
    for r in range(len(adj)):
        if root[r] >= 0:
            continue
        root[r], stack = r, [r]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adj[v]:
                if root[u] < 0:
                    root[u], parent[u] = r, v
                    stack.append(u)
    below = list(weight)
    for v in reversed(order):
        if parent[v] >= 0:
            below[parent[v]] += below[v]
    return [
        [below[u] if parent[u] == v else below[root[v]] - below[v] for u in adj[v]]
        for v in range(len(adj))
    ]


def reducible_face(boundaries: list[tuple[int, ...]], adj: list[list[int]]) -> tuple[int, list[int]] | None:
    """The reducible face of a weak dual given as boundaries and adjacency:
    its index and its neighbours whose branch holds a (4+)-face (at most
    one), or None when every face is a triangle. Among qualifying faces the
    least boundary wins, for reproducible output."""
    big = [int(len(b) >= 4) for b in boundaries]
    if not any(big):
        return None
    branches = branch_weights(adj, big)
    qualifying = [f for f, b in enumerate(branches) if big[f] and len(b) - b.count(0) <= 1]
    if not qualifying:
        raise EmbeddingInvariantError("no reducible face despite a (4+)-face being present")
    chosen = min(qualifying, key=boundaries.__getitem__)
    return chosen, [u for u, w in zip(adj[chosen], branches[chosen]) if w]


def find_reducible_face(dual: WeakDualForest) -> tuple[Face, tuple[Edge, ...]] | None:
    """The (4+)-inner-face reducible_face picks, with at most one dual branch
    around it that holds a (4+)-face, and its edges in a non-terminal block
    (at most one); None when every inner face is a triangle."""
    found = reducible_face([f.vertices for f in dual.faces], dual.adjacency())
    if found is None:
        return None
    chosen, held = found
    across = {a + b - chosen: e for (a, b), e in zip(dual.edges, dual.shared_edges) if chosen in (a, b)}
    return dual.faces[chosen], tuple(across[u] for u in held)


# ---------------------------------------------------------------------------
# DOT exports for documentation figures
# ---------------------------------------------------------------------------


def weak_dual_to_dot(dual: WeakDualForest) -> str:
    lines = ["graph WeakDual {"]
    for fi, face in enumerate(dual.faces):
        label = "-".join(map(str, face.vertices))
        lines.append(f'  f{fi} [label="{label}"];')
    for (a, b), shared in zip(dual.edges, dual.shared_edges):
        lines.append(f'  f{a} -- f{b} [label="{shared[0]}-{shared[1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def incidence_to_dot(inc: FaceBlockIncidence) -> str:
    lines = ["graph Incidence {"]
    for fi, face in enumerate(inc.faces):
        label = "-".join(map(str, face.vertices))
        lines.append(f'  f{fi} [shape=box, label="face {label}"];')
    for bi, block in enumerate(inc.blocks):
        kind = "trivial" if block.trivial else "block"
        flag = "?" if block.terminal is None else ("T" if block.terminal else "N")
        label = f"{kind} {','.join(map(str, block.vertices))} [{flag}]"
        lines.append(f'  b{bi} [label="{label}"];')
    for fi, bi in inc.edges:
        lines.append(f"  f{fi} -- b{bi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
