"""Simple undirected graphs on dense integer vertex ids.

Vertices are always 0..n-1 and edges are stored as a sorted tuple of
(min, max) pairs, so structural equality of the dataclass doubles as graph
equality and file output stays byte-reproducible.

Besides construction/validation this module provides the block / bridge /
cut-vertex decomposition used by the embedding layer, and an exhaustive
exact-length cycle search. The cycle search never looks at faces or
boundary structure, so it can serve as an oracle independent of the
face-based cycle spectrum computed elsewhere.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph input."""


class LoopEdgeError(GraphError):
    """Edge joining a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """Unordered vertex pair listed more than once."""


class VertexRangeError(GraphError):
    """Edge endpoint outside 0..n-1."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; build through :func:`make_graph`."""

    n: int
    edges: tuple[Edge, ...]

    @property
    def e(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists, rebuilt on each call."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def make_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Validated graph with canonical sorted edge tuple.

    Raises LoopEdgeError, DuplicateEdgeError or VertexRangeError; each
    failure mode is named distinctly so callers can react precisely.
    """
    if not isinstance(n, int) or n < 0:
        raise GraphError(f"vertex count must be a non-negative integer, got {n!r}")
    seen: set[Edge] = set()
    out: list[Edge] = []
    for pair in edge_list:
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise LoopEdgeError(f"loop edge ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        key = edge_key(u, v)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    return Graph(n, tuple(sorted(out)))


def subgraph_on_edges(
    g: Graph, edges: Iterable[Edge], extra_vertices: Iterable[int] = ()
) -> tuple[Graph, tuple[int, ...]]:
    """Dense re-labelled subgraph spanned by `edges` (plus extra vertices).

    Returns (subgraph, to_parent) where to_parent[i] is the vertex of `g`
    that local id i stands for.
    """
    edges = [edge_key(u, v) for u, v in edges]
    verts = sorted({v for e in edges for v in e} | set(extra_vertices))
    index = {v: i for i, v in enumerate(verts)}
    sub = make_graph(len(verts), [(index[u], index[v]) for u, v in edges])
    return sub, tuple(verts)


# ---------------------------------------------------------------------------
# Block / bridge / cut-vertex decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphBlock:
    """One 2-connected component with at least two edges."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class BlockCutDecomposition:
    blocks: tuple[GraphBlock, ...]
    bridges: tuple[Edge, ...]
    cut_vertices: tuple[int, ...]
    isolated: tuple[int, ...]


def biconnected_decomposition(g: Graph) -> BlockCutDecomposition:
    """Split the edge set into 2-connected blocks and bridges.

    Every edge lands in exactly one block or is a bridge; single-edge
    biconnected components are reported as bridges. Iterative DFS so deep
    chain-shaped inputs cannot hit the recursion limit.
    """
    n = g.n
    adj = g.adjacency()
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    timer = 1
    comps: list[list[Edge]] = []
    cuts: set[int] = set()
    estack: list[Edge] = []

    for root in range(n):
        if disc[root] or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        frames: list[list[int]] = [[root, 0]]
        while frames:
            u, i = frames[-1]
            if i < len(adj[u]):
                frames[-1][1] += 1
                w = adj[u][i]
                if disc[w] == 0:
                    parent[w] = u
                    if u == root:
                        root_children += 1
                    estack.append(edge_key(u, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    frames.append([w, 0])
                elif w != parent[u] and disc[w] < disc[u]:
                    estack.append(edge_key(u, w))
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        key = edge_key(p, u)
                        comp: list[Edge] = []
                        while True:
                            e = estack.pop()
                            comp.append(e)
                            if e == key:
                                break
                        comps.append(comp)
                        if p != root or root_children > 1:
                            cuts.add(p)
        if estack:
            raise RuntimeError("edge stack not drained after a DFS tree")

    blocks: list[GraphBlock] = []
    bridges: list[Edge] = []
    for comp in comps:
        if len(comp) == 1:
            bridges.append(comp[0])
        else:
            verts = tuple(sorted({v for e in comp for v in e}))
            blocks.append(GraphBlock(verts, tuple(sorted(comp))))
    blocks.sort(key=lambda b: b.vertices)
    isolated = tuple(v for v in range(n) if not adj[v])
    return BlockCutDecomposition(
        blocks=tuple(blocks),
        bridges=tuple(sorted(bridges)),
        cut_vertices=tuple(sorted(cuts)),
        isolated=isolated,
    )


# ---------------------------------------------------------------------------
# Exhaustive exact-length cycle search
# ---------------------------------------------------------------------------


def find_cycle_in_edges(n: int, edges: Sequence[Edge], k: int) -> tuple[int, ...] | None:
    """First cycle on exactly k vertices in deterministic search order.

    Exhaustive path extension, canonicalised so each cycle is generated
    once: the start vertex is the cycle's minimum and the second vertex is
    smaller than the last. Pruned by (a) remaining length vs distance back
    to the start, (b) restriction to the ball of radius floor(k/2) around
    the start, and (c) iterated removal of degree<2 vertices, all of which
    preserve exhaustiveness.
    """
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > n or len(edges) < k:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()
    half = k // 2

    for s in range(n - k + 1):
        if len(adj[s]) < 2:
            continue
        allowed, dist = _cycle_region(adj, s, half)
        if allowed is None or len(allowed) < k:
            continue
        nbrs = {v: tuple(w for w in adj[v] if w in allowed) for v in allowed}
        found = _closed_path_search(nbrs, dist, s, k)
        if found is not None:
            return found
    return None


def _cycle_region(
    adj: list[list[int]], s: int, half: int
) -> tuple[set[int] | None, dict[int, int]]:
    """Vertices that can lie on a k-cycle whose minimum vertex is s.

    Every such vertex is >= s, within floor(k/2) of s along the cycle, and
    has degree >= 2 inside the region; iterate these filters to a fixpoint.
    The first pass tests w >= s directly rather than building the set of
    every vertex above s, so a pass costs time in the edges within distance
    floor(k/2) of s (times its peeling rounds), not in n.
    """
    allowed: set[int] | None = None  # first pass: every vertex >= s
    while True:
        dist = _bfs_within(adj, s, allowed, half)
        shrunk = set(dist)
        while True:
            drop = {
                v
                for v in shrunk
                if v != s and sum(1 for w in adj[v] if w in shrunk) < 2
            }
            if not drop:
                break
            shrunk -= drop
        if s not in shrunk or sum(1 for w in adj[s] if w in shrunk) < 2:
            return None, {}
        if shrunk == allowed or (allowed is None and len(shrunk) == len(adj) - s):
            return shrunk, dist
        allowed = shrunk


def _bfs_within(
    adj: list[list[int]], s: int, allowed: set[int] | None, radius: int
) -> dict[int, int]:
    """Distances from s up to radius, through `allowed` (None: vertices >= s)."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if d == radius:
            continue
        for w in adj[v]:
            if w not in dist and (w in allowed if allowed is not None else w >= s):
                dist[w] = d + 1
                queue.append(w)
    return dist


def _closed_path_search(
    nbrs: dict[int, tuple[int, ...]],
    dist: dict[int, int],
    s: int,
    k: int,
) -> tuple[int, ...] | None:
    path = [s]
    on_path = {s}
    iters = [0]
    while iters:
        v = path[-1]
        row = nbrs[v]
        i = iters[-1]
        if len(path) == k:
            # close back to s; kill the reflected duplicate: second vertex < last
            if path[1] < v and s in row:
                return tuple(path)
            path.pop()
            on_path.discard(v)
            iters.pop()
            continue
        advanced = False
        while i < len(row):
            w = row[i]
            i += 1
            if w in on_path or dist[w] > k - len(path):
                continue
            iters[-1] = i
            path.append(w)
            on_path.add(w)
            iters.append(0)
            advanced = True
            break
        if not advanced:
            path.pop()
            on_path.discard(v)
            iters.pop()
    return None


def find_cycle_of_length(g: Graph, k: int) -> tuple[int, ...] | None:
    return find_cycle_in_edges(g.n, g.edges, k)


def has_cycle_of_length(g: Graph, k: int) -> bool:
    """True iff g contains a (not necessarily induced) cycle on exactly k vertices."""
    return find_cycle_of_length(g, k) is not None


# ---------------------------------------------------------------------------
# Serialization: canonical JSON and graph6
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    return json.dumps(
        {"n": g.n, "edges": [list(e) for e in g.edges]},
        sort_keys=True,
        separators=(",", ":"),
    )


def graph_from_json(text: str) -> Graph:
    data = json.loads(text)
    try:
        return make_graph(data["n"], data["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc


_G6_HEADER = ">>graph6<<"


def graph_to_graph6(g: Graph) -> str:
    """Compact ASCII encoding (upper triangle, column-major, 6-bit chunks)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise GraphError(f"graph6 encoding limited to n <= 258047, got {n}")
    present = g.edge_set()
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for at in range(0, len(bits), 6):
        val = 0
        for b in bits[at : at + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return prefix + "".join(chars)


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :].strip()
    if not s:
        raise GraphError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(x < 0 or x > 63 for x in data):
        raise GraphError("graph6 string contains characters outside 0x3F..0x7E")
    if data[0] == 63:  # '~' prefix: 18-bit vertex count
        if len(data) < 4:
            raise GraphError("truncated graph6 vertex count")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = n * (n - 1) // 2
    bits: list[int] = []
    for x in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bits.append((x >> shift) & 1)
    if len(bits) < need:
        raise GraphError("graph6 string too short for its vertex count")
    edges = []
    at = 0
    for j in range(1, n):
        for i in range(j):
            if bits[at]:
                edges.append((i, j))
            at += 1
    return make_graph(n, edges)


def graph_from_text(text: str) -> Graph:
    """Parse canonical JSON or graph6, whichever the content looks like."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return graph_from_json(stripped)
    return graph_from_graph6(stripped)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of connected components, each sorted, ordered by minimum."""
    adj = g.adjacency()
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(sorted(comp)))
    return comps
