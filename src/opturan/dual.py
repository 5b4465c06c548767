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

A face is its canonical boundary tuple, and the dual is the faces plus,
per face, its links: (neighbour, shared edge) pairs sorted by the edge.
Each block's face scan makes both, weak_dual only joins the blocks, and
everything after it, the certificate builder included, reads that one
dual as built. The rule itself, reducible_face, needs only face
boundaries and adjacency, so the builder applies it to the faces it walks.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .graph import Edge
from .embedding import (
    EmbeddingInvariantError,
    OuterplaneEmbedding,
    block_faces,
    cycle_edges,
)


@dataclass(frozen=True)
class WeakDualForest:
    """Inner faces, as canonical boundaries, and the faces sharing an edge:
    links[f] holds face f's (neighbour, shared edge) pairs, sorted by the
    shared edge."""

    faces: list[tuple[int, ...]]
    links: list[list[tuple[int, Edge]]]


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

    faces: tuple[tuple[int, ...], ...]
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
    read off each block's face scan: faces in inner_faces order, each
    block's links offset by the faces before it."""
    faces: list[tuple[int, ...]] = []
    links: list[list[tuple[int, Edge]]] = []
    for block in emb.blocks:
        faces_here, links_here = block_faces(block)
        links.extend([(len(faces) + g, e) for g, e in row] for row in links_here)
        faces.extend(faces_here)
    _assert_forest(len(faces), [(f, g) for f, row in enumerate(links) for g, _ in row if f < g], "weak dual")
    return WeakDualForest(faces, links)


def triangular_blocks(dual: WeakDualForest, edges: tuple[Edge, ...]) -> BlockPartition:
    """Partition of the graph's edges into triangular blocks.

    Non-trivial blocks are unions of triangle faces over connected components
    of the triangles-only part of the weak dual; every edge bordering no
    triangle becomes its own trivial block. `edges` are all the graph's edges.
    """
    tri = [fi for fi, f in enumerate(dual.faces) if len(f) == 3]
    parent = list(range(len(dual.faces)))
    for a in tri:
        for b, _ in dual.links[a]:
            if len(dual.faces[b]) == 3:
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
            block_edges.update(cycle_edges(dual.faces[fi]))
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
        if len(face) < 4:
            continue
        for e in cycle_edges(face):
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
    big_faces = [f for f in dual.faces if len(f) >= 4]
    pairs: set[tuple[int, int]] = set()
    for fi, face in enumerate(big_faces):
        for e in cycle_edges(face):
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


def find_reducible_face(dual: WeakDualForest) -> tuple[tuple[int, ...], tuple[Edge, ...]] | None:
    """The (4+)-inner-face reducible_face picks, with at most one dual branch
    around it that holds a (4+)-face, and its edges in a non-terminal block
    (at most one); None when every inner face is a triangle."""
    found = reducible_face(dual.faces, [[g for g, _ in row] for row in dual.links])
    if found is None:
        return None
    chosen, held = found
    return dual.faces[chosen], tuple(e for g, e in dual.links[chosen] if g in held)


# ---------------------------------------------------------------------------
# DOT exports for documentation figures
# ---------------------------------------------------------------------------


def weak_dual_to_dot(dual: WeakDualForest) -> str:
    """DOT text: a node per face, then the dual edges sorted by the edge each crosses."""
    lines = ["graph WeakDual {"]
    for fi, face in enumerate(dual.faces):
        label = "-".join(map(str, face))
        lines.append(f'  f{fi} [label="{label}"];')
    for (u, v), a, b in sorted((e, f, g) for f, row in enumerate(dual.links) for g, e in row if f < g):
        lines.append(f'  f{a} -- f{b} [label="{u}-{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def incidence_to_dot(inc: FaceBlockIncidence) -> str:
    lines = ["graph Incidence {"]
    for fi, face in enumerate(inc.faces):
        label = "-".join(map(str, face))
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
