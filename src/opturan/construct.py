"""Generators for the extremal chain family.

The seed is a fan: the edge-maximal outerplane graph whose chords all share
an apex. The gadget graph for cycle length k is built from a face of size
k+1 by merging k of its edges each with an outer edge of a fan on k-1
vertices, leaving one distinguished face edge free. Chains arise by
repeatedly merging a fresh gadget's distinguished edge onto a designated
boundary edge of the graph built so far, which keeps the result outerplanar
and free of k-cycles while adding exactly k^2-2k-1 vertices and k(2k-5)
edges per step.

With m merges the chain has n = (k-1) + m(k^2-2k-1) vertices and
e = (2k-5)(1+mk) edges, which meets the certified upper bound with
equality: these n are exactly the sharp residues n == k-1 (mod k^2-2k-1).

Vertex numbering is fully deterministic; the distinguished edge of the
gadget is always (0, k) and each merge attaches at the previous gadget's
far fan, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, edge_key, make_graph
from .embedding import OuterplaneEmbedding, recognize_outerplanar

# the most vertices build_chain_graph allocates (the chain plus the gadget it
# copies) and the most a graph read by the CLI may have: each vertex takes
# about 1 KiB while a graph is recognised
MAX_CHAIN_VERTICES = 1_000_000
# the most vertices of a chain that `construct` writes as graph6, which
# stores one bit per vertex pair: 2^15 vertices take about 89 MB of text
MAX_G6_VERTICES = 1 << 15


class ChainSizeError(RuntimeError):
    """Refusal of a chain or an input graph whose vertices exceed MAX_CHAIN_VERTICES,
    or of graph6 output for a chain above MAX_G6_VERTICES."""


@dataclass(frozen=True)
class ChainParams:
    """Chain shape: cycle length k >= 3 avoided, m >= 0 gadget merges."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"cycle length must be >= 3, got {self.k}")
        if self.m < 0:
            raise ValueError(f"merge count must be >= 0, got {self.m}")

    @property
    def vertex_count(self) -> int:
        return (self.k - 1) + self.m * (self.k * self.k - 2 * self.k - 1)

    @property
    def edge_count(self) -> int:
        return (2 * self.k - 5) * (1 + self.m * self.k)


def fan_graph(p: int) -> Graph:
    """Cycle 0..p-1 with chords from vertex 0 to 2..p-2; e = 2p-3."""
    if p < 2:
        raise ValueError(f"fan needs at least 2 vertices, got {p}")
    if p == 2:
        return make_graph(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(p - 1)] + [(0, p - 1)]
    edges += [(0, j) for j in range(2, p - 1)]
    return make_graph(p, edges)


def fan(p: int) -> OuterplaneEmbedding:
    return recognize_outerplanar(fan_graph(p))


def build_G0(k: int) -> OuterplaneEmbedding:
    """Seed of the chain: an edge-maximal graph on k-1 vertices, 2k-5 edges."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    return fan(k - 1)


def gadget_distinguished_edge(k: int) -> Edge:
    """The free face edge of the gadget, under its deterministic numbering."""
    return (0, k)


def _gadget_graph(k: int) -> tuple[Graph, Edge, Edge]:
    """Gadget graph plus (distinguished edge, designated far boundary edge).

    Face vertices are 0..k; face edge (i, i+1) receives the edges of
    fan_graph(k-1) but its edge (0, 1), with local 0 -> i, local 1 -> i+1 and
    the other locals fresh, numbered consecutively from k+1; the edge (0, k)
    stays free. The far edge is the copy of fan edge (1, 2) on face edge
    floor(k/2), or that face edge itself when the fan is one edge (k = 3),
    and is where the next chain merge attaches.
    """
    p = k - 1  # fan size
    fan_edges = [e for e in fan_graph(p).edges if e != (0, 1)]
    edges: list[Edge] = [(i, i + 1) for i in range(k)] + [(0, k)]
    far = (k // 2, k // 2 + 1)
    fresh = k + 1
    for i in range(k):
        local = [i, i + 1] + list(range(fresh, fresh + p - 2))
        fresh += p - 2
        edges += [edge_key(local[a], local[b]) for a, b in fan_edges]
        if i == k // 2 and p >= 3:
            far = edge_key(local[1], local[2])
    g = make_graph(fresh, sorted(set(edges)))
    if g.e != len(edges):
        raise RuntimeError(f"gadget for k={k}: fan edge lists overlap")
    return g, gadget_distinguished_edge(k), far


def build_H(k: int) -> OuterplaneEmbedding:
    """The merge gadget: k^2-2k+1 vertices, 2k^2-5k+1 edges, no k-cycle.

    Its distinguished outer edge is gadget_distinguished_edge(k) = (0, k).
    """
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    g, _, _ = _gadget_graph(k)
    return recognize_outerplanar(g)


def build_chain_graph(k: int, m: int) -> Graph:
    params = ChainParams(k, m)
    # each merge copies the gadget, whose k^2-2k+1 vertices are built once
    need = params.vertex_count + ((k - 1) ** 2 if m else 0)
    if need > MAX_CHAIN_VERTICES:
        raise ChainSizeError(f"chain k={k} m={m} needs {need} vertices, above the cap {MAX_CHAIN_VERTICES}")
    seed = fan_graph(k - 1)
    if m:
        h, (u, v), far = _gadget_graph(k)
    n, edges = seed.n, set(seed.edges)
    # boundary edge the next gadget merges onto
    attach: Edge = (0, 1)
    for _ in range(m):
        rename: dict[int, int] = {u: attach[0], v: attach[1]}
        for w in range(h.n):
            if w not in rename:
                rename[w] = n
                n += 1
        edges.update(edge_key(rename[x], rename[y]) for x, y in h.edges)
        attach = edge_key(rename[far[0]], rename[far[1]])
    g = make_graph(n, sorted(edges))
    if (g.n, g.e) != (params.vertex_count, params.edge_count):
        raise RuntimeError(
            f"chain k={k} m={m} has n={g.n} e={g.e}, not the closed form "
            f"n={params.vertex_count} e={params.edge_count}"
        )
    return g


def build_chain(k: int, m: int) -> OuterplaneEmbedding:
    """Chain of m gadget merges; meets the upper bound with equality."""
    return recognize_outerplanar(build_chain_graph(k, m))
