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
import re
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


def make_graph(n: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Validated graph with canonical sorted edge tuple.

    Vertex ids and the count must be plain ints: floats, strings and bools
    are rejected, not coerced. Raises GraphError for those and for entries
    that are not pairs, else LoopEdgeError, DuplicateEdgeError or
    VertexRangeError; each failure mode is named distinctly so callers can
    react precisely.
    """
    if type(n) is not int or n < 0:
        raise GraphError(f"vertex count must be a non-negative integer, got {n!r}")
    seen: set[Edge] = set()
    out: list[Edge] = []
    for pair in edge_list:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise GraphError(f"edge entry {pair!r} is not a pair of vertex ids") from None
        if type(u) is not int or type(v) is not int:
            raise GraphError(f"edge ({u!r}, {v!r}) has a vertex id that is not an integer")
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


def subgraph_on_edges(edges: Iterable[Edge]) -> tuple[Graph, tuple[int, ...]]:
    """Dense re-labelled graph spanned by `edges`, distinct edges of a graph.

    Returns (subgraph, to_parent) where to_parent[i] is the vertex that
    local id i stands for. The edges come from a graph that is already
    valid, so the subgraph is built directly, not through make_graph:
    to_parent is increasing, and relabelling by its inverse keeps every
    pair simple, distinct and in range.
    """
    edges = list(edges)
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), tuple(sorted(edge_key(index[u], index[v]) for u, v in edges)))
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
    estack: list[Edge] = []

    for root in range(n):
        if disc[root] or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        frames: list[list[int]] = [[root, 0]]
        while frames:
            u, i = frames[-1]
            if i < len(adj[u]):
                frames[-1][1] += 1
                w = adj[u][i]
                if disc[w] == 0:
                    parent[w] = u
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
        if estack:
            raise RuntimeError("edge stack not drained after a DFS tree")

    return block_cut_decomposition(n, comps, tuple(v for v in range(n) if not adj[v]))


def block_cut_decomposition(
    n: int, comps: Iterable[Sequence[Edge]], isolated: tuple[int, ...]
) -> BlockCutDecomposition:
    """The decomposition whose biconnected components are `comps`, in canonical order.

    A one-edge component is a bridge. Blocks are ordered by their sorted
    vertices, and the cut vertices are the vertices (of 0..n-1) that lie in
    two or more components, blocks and bridges alike.
    """
    blocks: list[GraphBlock] = []
    bridges: list[Edge] = []
    count = [0] * n
    for comp in comps:
        if len(comp) == 1:
            u, v = comp[0]
            count[u] += 1
            count[v] += 1
            bridges.append(comp[0])
            continue
        verts = sorted({v for e in comp for v in e})
        for v in verts:
            count[v] += 1
        blocks.append(GraphBlock(tuple(verts), tuple(sorted(comp))))
    blocks.sort(key=lambda b: b.vertices)
    return BlockCutDecomposition(
        blocks=tuple(blocks),
        bridges=tuple(sorted(bridges)),
        cut_vertices=tuple(v for v in range(n) if count[v] > 1),
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
    to the start and (b) restriction to the ball of radius floor(k/2)
    around the start within the vertices >= start; both preserve
    exhaustiveness. The ball is not peeled down to the vertices with two
    neighbours in it: a vertex the peel would drop lies on no k-cycle
    through the start, so it only adds branches that never close, and
    iterating BFS and peel to a fixpoint measured slower than walking them.
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
        if len(adj[s]) < 2 or adj[s][-2] < s:  # s needs two neighbours above it
            continue
        dist = _bfs_within(adj, s, half)
        if len(dist) < k:
            continue
        nbrs = {v: tuple(w for w in adj[v] if w in dist) for v in dist}
        found = _closed_path_search(nbrs, dist, s, k)
        if found is not None:
            return found
    return None


def _bfs_within(adj: list[list[int]], s: int, radius: int) -> dict[int, int]:
    """Distances from s up to radius, through the vertices >= s."""
    dist = {s: 0}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if d == radius:
            continue
        for w in adj[v]:
            if w >= s and w not in dist:
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


def has_cycle_of_length(g: Graph, k: int) -> bool:
    """True iff g contains a (not necessarily induced) cycle on exactly k vertices."""
    return find_cycle_in_edges(g.n, g.edges, k) is not None


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
    try:
        data = json.loads(text)
    except RecursionError:
        raise GraphError("graph JSON is nested too deeply to read") from None
    try:
        return make_graph(data["n"], data["edges"])
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc


_G6_HEADER = ">>graph6<<"


def graph_to_graph6(g: Graph) -> str:
    """Compact ASCII encoding (upper triangle, column-major, 6-bit chunks).

    Bit j(j-1)/2 + i stands for the edge (i, j), i < j, most significant
    first in each chunk; the chunks are set in place, one byte each.
    """
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise GraphError(f"graph6 encoding limited to n <= 258047, got {n}")
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        at = j * (j - 1) // 2 + i
        body[at // 6] |= 32 >> at % 6
    return prefix + body.translate(_G6_CHARS).decode("ascii")


# each six-bit chunk as its graph6 character, as a bytes.translate table
_G6_CHARS = bytes((x + 63) & 255 for x in range(256))
# a graph6 string after its header, and a body character with a bit set
_G6_TEXT = re.compile(r"[?-~]*")
_G6_SET = re.compile(r"[^?]")


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER) :].strip()
    if not s:
        raise GraphError("empty graph6 string")
    if not _G6_TEXT.fullmatch(s):
        raise GraphError("graph6 string contains characters outside 0x3F..0x7E")
    if s[0] == "~":  # 18-bit vertex count
        if len(s) < 4:
            raise GraphError("truncated graph6 vertex count")
        n, start = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63), 4
    else:
        n, start = ord(s[0]) - 63, 1
    need = n * (n - 1) // 2
    chunks = (need + 5) // 6  # the body holds `need` bits, padded to whole chunks
    if len(s) - start != chunks:
        raise GraphError(f"graph6 string too {'short' if len(s) - start < chunks else 'long'} for its vertex count")
    # bit at = j(j-1)/2 + i stands for the edge (i, j), i < j, most significant
    # first in each chunk; only chunks other than '?' hold one, read in place
    edges = []
    j, col = 1, 0  # col = j(j-1)/2, the first bit of column j
    for chunk in _G6_SET.finditer(s, start):
        bits, first = ord(chunk.group()) - 63, 6 * (chunk.start() - start)
        for at in range(first, min(first + 6, need)):
            if bits & (32 >> (at - first)):
                while at >= col + j:
                    col += j
                    j += 1
                edges.append((at - col, j))
    return make_graph(n, edges)


def graph_from_text(text: str) -> Graph:
    """Parse canonical JSON or graph6, whichever the content is.

    After its optional header graph6 uses only the characters 0x3F..0x7E,
    and JSON needs quotes, which lie outside them. The first character does
    not decide: the size byte of a 60-vertex graph6 string is '{'.
    """
    stripped = text.strip()
    body = stripped.removeprefix(_G6_HEADER).strip()
    if _G6_TEXT.fullmatch(body):
        return graph_from_graph6(stripped)
    return graph_from_json(stripped)
