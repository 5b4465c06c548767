"""Decomposition certificates for the outerplanar cycle-Turan bound.

Given an outerplane graph with no k-cycle, the builder produces a tree of
decomposition steps, each step shrinking the graph while preserving
outerplanarity and k-cycle-freeness, bottoming out in leaves whose edge
counts are bounded directly. An independent verifier replays every step:
it re-checks each node's graph, the exactness of the split bookkeeping,
and the chained integer inequalities that together establish

    e * (k^2 - 2k - 1) <= (2k - 5) * (k*n - k - 1)

at the root. Certificates embed every child graph, so the verifier trusts
nothing the builder computed beyond the selections it recorded.

Node kinds and their bookkeeping:

  edgeless        e = 0 leaf (n >= 2).
  base            n = 2 leaf, e <= 1.
  cut_split       graph disconnected or with a cut vertex; two children
                  overlapping in at most one vertex: n1+n2 <= n+1, e1+e2 = e.
  big_face_split  an inner face of size L >= k+1; one child per face edge
                  (the edge plus everything hanging across it):
                  sum(n_i) = n+L, sum(e_i) = e.
  terminal_peel   an inner face of size 4 <= L <= k-1 with L-1 terminal
                  blocks covering all but one face edge; children are the
                  rest of the graph and the peeled part with the free face
                  edge contracted: n'+n* = n+1, e'+e* = e, no parallel
                  edges collapse.
  maximal_leaf    2-connected, all faces triangular: e = 2n-3 and n <= k-1
                  (an edge-maximal graph on more vertices would contain a
                  k-cycle).

Dispatch order is fixed: strip isolated vertices, then base size, then
2-connectivity, then big faces, then the peel, else the maximal leaf.
Handling 2-connectivity before the peel matters: in a 2-connected graph the
terminal blocks around the chosen face own every edge at the face's
interior vertices, which is what makes the peel bookkeeping exact.

The proof may split at any cut vertex and at any face of size >= k+1; the
builder picks the most balanced ones, by edge count, so that long inputs
give shallow certificates:

  disconnected    the components go into two groups, heaviest first into
                  the lighter group; the groups share no vertex.
  cut vertex      the cut vertex whose heaviest branch in the block-cut
                  tree has the fewest edges (least id on ties); its
                  branches are grouped the same way and share the cut.
  big face        the face of size >= k+1 whose largest child has the
                  fewest edges, from one subtree-sum pass over the weak
                  dual (least boundary on ties).

Chains and forests thus certify at depth O(log n). Terminal peels still
take one face per level, and so does a cut split whose heaviest branch is
one large block carrying many small ones: a long polygon with a pendant
edge at every vertex still gives a certificate as deep as the polygon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graph import (
    BlockCutDecomposition,
    Edge,
    Graph,
    GraphError,
    biconnected_decomposition,
    connected_components,
    edge_key,
    has_cycle_of_length,
    make_graph,
    subgraph_on_edges,
)
from .embedding import (
    EmbeddingInvariantError,
    NotOuterplanarError,
    OuterplaneEmbedding,
    canonical_cycle,
    contract_outer_edge,
    contraction_vertex_map,
    cycle_length_set,
    inner_faces,
    is_edge_maximal,
    recognize_outerplanar,
)
from .dual import (
    WeakDualForest,
    classify_terminal,
    find_reducible_face,
    triangular_blocks,
    weak_dual,
)
from .turan import bound_holds

EDGELESS = "edgeless"
BASE = "base"
CUT_SPLIT = "cut_split"
BIG_FACE_SPLIT = "big_face_split"
TERMINAL_PEEL = "terminal_peel"
MAXIMAL_LEAF = "maximal_leaf"

_KINDS = {EDGELESS, BASE, CUT_SPLIT, BIG_FACE_SPLIT, TERMINAL_PEEL, MAXIMAL_LEAF}


class ContainsForbiddenCycleError(ValueError):
    """Input graph contains a k-cycle, so no certificate exists."""


class CertificateFormatError(ValueError):
    """Serialized certificate is structurally malformed."""


class CoverageError(RuntimeError):
    """No decomposition step applies; unreachable for valid inputs."""


@dataclass(frozen=True)
class CertNode:
    """One decomposition step over its own dense-id subgraph.

    to_parent maps this node's vertex ids to ids of the parent node's graph
    (for the root: to the certified graph). For a contraction child the map
    sends the merged vertex to the smaller endpoint of the contracted pair.
    """

    kind: str
    graph: Graph
    to_parent: tuple[int, ...]
    children: tuple["CertNode", ...] = ()
    face: tuple[int, ...] | None = None  # node-local ids, cyclic order
    peel_blocks: tuple[tuple[Edge, ...], ...] | None = None  # node-local ids
    closing_edge: Edge | None = None  # node-local ids
    shared_vertices: tuple[int, ...] | None = None  # node-local ids

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def e(self) -> int:
        return self.graph.e


@dataclass(frozen=True)
class Certificate:
    k: int
    graph: Graph  # the certified graph, isolated vertices included
    root: CertNode


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_certificate(emb: OuterplaneEmbedding, k: int) -> Certificate:
    """Decomposition certificate for a k-cycle-free outerplane graph."""
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    g = emb.graph
    if g.n < 2:
        raise ValueError(f"certification needs n >= 2, got n={g.n}")
    if k in cycle_length_set(emb):
        raise ContainsForbiddenCycleError(f"graph contains a cycle of length {k}")
    if g.e == 0:
        root = CertNode(kind=EDGELESS, graph=g, to_parent=tuple(range(g.n)))
        return Certificate(k=k, graph=g, root=root)
    live = sorted({v for e in g.edges for v in e})
    if len(live) < g.n:
        stripped, mapping = subgraph_on_edges(g, g.edges)
        root = _build(stripped, mapping, k)
    else:
        root = _build(g, tuple(range(g.n)), k)
    return Certificate(k=k, graph=g, root=root)


def _build(g: Graph, to_parent: tuple[int, ...], k: int) -> CertNode:
    if g.e == 0:
        raise CoverageError("recursion reached an edgeless graph")
    if g.n == 2:
        return CertNode(kind=BASE, graph=g, to_parent=to_parent)

    dec = biconnected_decomposition(g)
    if dec.isolated:
        raise CoverageError("recursion reached a graph with isolated vertices")
    if len(dec.blocks) + len(dec.bridges) > 1:
        return _build_cut_split(g, to_parent, k, dec)

    emb = recognize_outerplanar(g)
    dual = weak_dual(emb)
    if any(f.size >= k + 1 for f in dual.faces):
        return _build_big_face_split(g, to_parent, k, dual)
    if any(f.size >= 4 for f in dual.faces):
        return _build_terminal_peel(g, to_parent, k, emb)
    leaf = CertNode(kind=MAXIMAL_LEAF, graph=g, to_parent=to_parent)
    if not (is_edge_maximal(emb) and g.n <= k - 1):
        raise CoverageError(
            f"maximal leaf conditions failed at n={g.n}, e={g.e}, k={k}"
        )
    return leaf


def _child(g: Graph, edges: list[Edge], k: int) -> CertNode:
    sub, mapping = subgraph_on_edges(g, edges)
    return _build(sub, mapping, k)


def _branch_weights(adj: list[list[int]], weight: list[int]) -> list[list[int]]:
    """For each node of a tree, the weight of the branch behind each neighbour.

    branches[v][i] is the total weight of the component of the tree minus v
    that holds adj[v][i]: a subtree sum below v, or the complement of v's
    own subtree towards the root. One rooted pass computes every sum.
    """
    parent = [-1] * len(adj)
    order = [0]
    for v in order:  # breadth-first; the list grows while it is read
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    below = list(weight)
    for v in reversed(order[1:]):
        below[parent[v]] += below[v]
    total = below[0]
    return [
        [below[u] if parent[u] == v else total - below[v] for u in adj[v]]
        for v in range(len(adj))
    ]


def _halves(weights: list[int]) -> tuple[list[int], list[int]]:
    """Indices into `weights` in two groups of nearly equal total weight.

    Heaviest first, each goes to the lighter group (the first on a tie);
    equal weights keep index order. Positive weights leave neither group
    empty when there are two or more.
    """
    groups: tuple[list[int], list[int]] = ([], [])
    totals = [0, 0]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        side = 0 if totals[0] <= totals[1] else 1
        groups[side].append(i)
        totals[side] += weights[i]
    return groups


def _behind(adj: list[list[int]], at: int, starts: list[int]) -> list[int]:
    """Tree nodes reached from `starts`, neighbours of `at`, avoiding `at`."""
    seen = {at, *starts}
    stack = list(starts)
    reached = []
    while stack:
        x = stack.pop()
        reached.append(x)
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return reached


def _build_cut_split(
    g: Graph, to_parent: tuple[int, ...], k: int, dec: BlockCutDecomposition
) -> CertNode:
    comps = connected_components(g)
    if len(comps) > 1:
        comp_of = [0] * g.n
        for ci, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = ci
        sizes = [0] * len(comps)
        for u, _ in g.edges:
            sizes[comp_of[u]] += 1
        groups = [set(side) for side in _halves(sizes)]
        sides = [[e for e in g.edges if comp_of[e[0]] in group] for group in groups]
        shared: tuple[int, ...] = ()
    else:
        # block-cut tree: units (blocks and bridges) first, then cut vertices
        units = [(b.vertices, b.edges) for b in dec.blocks] + [
            (e, (e,)) for e in dec.bridges
        ]
        node_of = {c: len(units) + i for i, c in enumerate(dec.cut_vertices)}
        adj: list[list[int]] = [[] for _ in range(len(units) + len(node_of))]
        for ui, (vertices, _) in enumerate(units):
            for v in vertices:
                if v in node_of:
                    adj[ui].append(node_of[v])
                    adj[node_of[v]].append(ui)
        weight = [len(edges) for _, edges in units] + [0] * len(node_of)
        branches = _branch_weights(adj, weight)
        cut = min(dec.cut_vertices, key=lambda c: (max(branches[node_of[c]]), c))
        at = node_of[cut]
        sides = []
        for group in _halves(branches[at]):
            reached = _behind(adj, at, [adj[at][i] for i in group])
            sides.append([e for ui in reached if ui < len(units) for e in units[ui][1]])
        shared = (cut,)
    return CertNode(
        kind=CUT_SPLIT,
        graph=g,
        to_parent=to_parent,
        children=tuple(_child(g, edges, k) for edges in sides),
        shared_vertices=shared,
    )


def _build_big_face_split(
    g: Graph, to_parent: tuple[int, ...], k: int, dual: WeakDualForest
) -> CertNode:
    faces = dual.faces
    adj = dual.adjacency()
    # the child across a face edge holds sum(size - 1) + 1 edges of its faces
    branches = _branch_weights(adj, [f.size - 1 for f in faces])
    at = min(
        (i for i, f in enumerate(faces) if f.size >= k + 1),
        key=lambda i: (max(branches[i], default=0), faces[i].vertices),
    )
    face = faces[at].vertices
    across: dict[Edge, int] = {}
    for (a, b), shared in zip(dual.edges, dual.shared_edges):
        if a == at:
            across[shared] = b
        elif b == at:
            across[shared] = a
    children = []
    for i in range(len(face)):
        e = edge_key(face[i], face[(i + 1) % len(face)])
        edges = {e}
        if e in across:
            for fi in _behind(adj, at, [across[e]]):
                edges.update(faces[fi].boundary_edges())
        children.append(_child(g, sorted(edges), k))
    return CertNode(
        kind=BIG_FACE_SPLIT,
        graph=g,
        to_parent=to_parent,
        children=tuple(children),
        face=face,
    )


def _build_terminal_peel(
    g: Graph, to_parent: tuple[int, ...], k: int, emb: OuterplaneEmbedding
) -> CertNode:
    found = find_reducible_face(emb)
    if found is None:
        raise CoverageError("no reducible face although a (4+)-face exists")
    face_obj, _ = found
    size = face_obj.size
    if not 4 <= size <= k - 1:
        raise CoverageError(f"reducible face size {size} outside 4..{k - 1}")
    partition = classify_terminal(triangular_blocks(emb), emb)
    owner = partition.block_of_edge()
    ring = list(face_obj.vertices)
    ring_blocks = [
        owner[edge_key(ring[i], ring[(i + 1) % size])] for i in range(size)
    ]
    non_terminal = [
        at for at, bi in enumerate(ring_blocks) if not partition.blocks[bi].terminal
    ]
    if len(non_terminal) > 1:
        raise CoverageError(f"reducible face has {len(non_terminal)} non-terminal blocks")
    skip = non_terminal[0] if non_terminal else 0
    # rotate so the skipped edge joins the last and first face vertices
    ring = ring[skip + 1 :] + ring[: skip + 1]
    if ring[0] > ring[-1]:
        ring.reverse()  # same closing edge, and v1 < vL for determinism
    v1, vl = ring[0], ring[-1]
    closing = edge_key(v1, vl)
    peel = [
        partition.blocks[owner[edge_key(ring[i], ring[i + 1])]]
        for i in range(size - 1)
    ]
    peel_edges: set[Edge] = set()
    for b in peel:
        peel_edges.update(b.edges)
    if (
        not all(b.terminal for b in peel)
        or len({b.edges for b in peel}) != size - 1
        or closing in peel_edges
    ):
        raise CoverageError("peel needs distinct terminal blocks that avoid the closing edge")

    remaining = [e for e in g.edges if e not in peel_edges]
    child_rest = _child(g, remaining, k)

    sub, sub_map = subgraph_on_edges(g, sorted(peel_edges | {closing}))
    back = {pv: i for i, pv in enumerate(sub_map)}
    contraction = contract_outer_edge(
        recognize_outerplanar(sub), back[v1], back[vl]
    )
    if contraction.collapsed_parallel_edges:
        raise CoverageError("peel contraction collapsed parallel edges")
    inner_map = contraction_vertex_map(sub.n, back[v1], back[vl])
    star_map = tuple(sub_map[i] for i in inner_map)
    star_graph = contraction.embedding.graph
    child_star = _build(star_graph, star_map, k)

    return CertNode(
        kind=TERMINAL_PEEL,
        graph=g,
        to_parent=to_parent,
        children=(child_rest, child_star),
        face=tuple(ring),
        peel_blocks=tuple(b.edges for b in peel),
        closing_edge=closing,
    )


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    path: str
    kind: str
    n: int
    e: int
    lhs: int  # e * (k^2 - 2k - 1)
    rhs: int  # (2k - 5) * (k*n - k - 1)
    slack: int
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    verdict: bool
    root_slack: int
    entries: tuple[AuditEntry, ...]
    failures: tuple[str, ...]

    def format_lines(self) -> list[str]:
        lines = []
        for entry in self.entries:
            status = "ok" if entry.ok else "FAIL"
            lines.append(
                f"[{entry.path}] {entry.kind} n={entry.n} e={entry.e} "
                f"lhs={entry.lhs} rhs={entry.rhs} slack={entry.slack} {status}"
                + (f" ({entry.note})" if entry.note else "")
            )
        for failure in self.failures:
            lines.append(f"FAIL {failure}")
        lines.append(
            f"verdict={'true' if self.verdict else 'false'} root_slack={self.root_slack}"
        )
        return lines


class _Audit:
    def __init__(self, k: int) -> None:
        self.k = k
        self.den = k * k - 2 * k - 1
        self.coeff = 2 * k - 5
        self.entries: list[AuditEntry] = []
        self.failures: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.failures.append(f"{path}: {message}")

    def rhs(self, n: int) -> int:
        return self.coeff * (self.k * n - self.k - 1)


def verify_certificate(cert: Certificate, k: int) -> AuditReport:
    """Independent audit of a certificate; never raises on bad content.

    Re-checks every node: graph validity, outerplanarity, absence of
    k-cycles (via the exhaustive search, not the face spectrum), the split
    bookkeeping identities, the leaf conditions, and the integer inequality
    chain. Failures are pinpointed by node path.
    """
    audit = _Audit(k)
    if k != cert.k:
        audit.fail("root", f"certificate was built for k={cert.k}, audited with k={k}")
    if cert.graph.n < 2:
        audit.fail("root", f"certified graph has n={cert.graph.n} < 2")
    root_live = sorted({v for e in cert.graph.edges for v in e})
    mapped = [cert.root.to_parent[i] for i in range(cert.root.graph.n)]
    if cert.root.kind == EDGELESS:
        if cert.root.graph != cert.graph:
            audit.fail("root", "edgeless root must embed the certified graph")
    elif sorted(mapped) != root_live:
        audit.fail("root", "root must cover exactly the non-isolated vertices")
    else:
        root_edges = {
            edge_key(cert.root.to_parent[u], cert.root.to_parent[v])
            for u, v in cert.root.graph.edges
        }
        if root_edges != set(cert.graph.edges):
            audit.fail("root", "root edges must equal the certified graph's edges")
    _verify_node(cert.root, k, "root", audit)

    root_lhs = cert.graph.e * audit.den
    root_rhs = audit.rhs(cert.graph.n)
    if not audit.failures and not bound_holds(cert.graph.e, k, cert.graph.n).holds:
        audit.fail("root", "every node checks out but the root bound fails")
    return AuditReport(
        verdict=not audit.failures,
        root_slack=root_rhs - root_lhs,
        entries=tuple(audit.entries),
        failures=tuple(audit.failures),
    )


def _mapped_edges(node: CertNode) -> set[Edge]:
    return {
        edge_key(node.to_parent[u], node.to_parent[v]) for u, v in node.graph.edges
    }


def _mapped_vertices(node: CertNode) -> set[int]:
    return set(node.to_parent)


def _verify_node(node: CertNode, k: int, path: str, audit: _Audit) -> None:
    g = node.graph
    if node.kind not in _KINDS:
        audit.fail(path, f"unknown node kind {node.kind!r}")
        return
    try:
        make_graph(g.n, g.edges)
    except GraphError as exc:
        audit.fail(path, f"invalid node graph: {exc}")
        return
    if len(node.to_parent) != g.n:
        audit.fail(path, "vertex map length does not match the node graph")
        return
    emb: OuterplaneEmbedding | None
    try:
        emb = recognize_outerplanar(g)
    except (NotOuterplanarError, EmbeddingInvariantError) as exc:
        audit.fail(path, f"node graph is not outerplanar: {exc}")
        emb = None
    if g.n >= k and has_cycle_of_length(g, k):
        audit.fail(path, f"node graph contains a cycle of length {k}")

    lhs = g.e * audit.den
    rhs = audit.rhs(g.n)
    note = ""
    ok = True

    if node.kind == EDGELESS:
        if g.e != 0:
            audit.fail(path, "edgeless node has edges")
        if g.n < 2:
            audit.fail(path, "edgeless node needs n >= 2")
        if node.children:
            audit.fail(path, "leaf node must not have children")
    elif node.kind == BASE:
        if g.n != 2 or g.e > 1:
            audit.fail(path, f"base leaf requires n=2, e<=1; got n={g.n}, e={g.e}")
        if node.children:
            audit.fail(path, "leaf node must not have children")
    elif node.kind == MAXIMAL_LEAF:
        if node.children:
            audit.fail(path, "leaf node must not have children")
        if emb is not None:
            try:
                if not is_edge_maximal(emb):
                    audit.fail(path, "maximal leaf is not edge-maximal")
            except (ValueError, EmbeddingInvariantError) as exc:
                audit.fail(path, f"maximal leaf check failed: {exc}")
        if g.e != 2 * g.n - 3:
            audit.fail(path, f"maximal leaf has e={g.e}, expected {2 * g.n - 3}")
        if g.n > k - 1:
            audit.fail(path, f"maximal leaf has n={g.n} > k-1={k - 1}")
        note = "e = 2n-3 leaf"
    elif node.kind == CUT_SPLIT:
        ok = _verify_cut_split(node, k, path, audit)
        note = "split at a cut"
    elif node.kind == BIG_FACE_SPLIT:
        ok = _verify_big_face_split(node, k, path, audit, emb)
        note = f"face of size {len(node.face or ())}"
    elif node.kind == TERMINAL_PEEL:
        ok = _verify_terminal_peel(node, k, path, audit, emb)
        note = f"peel around a {len(node.face or ())}-face"

    if lhs > rhs:
        audit.fail(path, f"inequality fails: {lhs} > {rhs}")
        ok = False
    audit.entries.append(
        AuditEntry(
            path=path,
            kind=node.kind,
            n=g.n,
            e=g.e,
            lhs=lhs,
            rhs=rhs,
            slack=rhs - lhs,
            ok=ok and lhs <= rhs,
            note=note,
        )
    )
    for i, child in enumerate(node.children):
        _verify_node(child, k, f"{path}.{i}", audit)


def _check_partition(node: CertNode, path: str, audit: _Audit) -> bool:
    """Children's mapped edge sets must partition the node's edges."""
    counted: list[Edge] = []
    for child in node.children:
        counted.extend(_mapped_edges(child))
    if len(counted) != len(set(counted)):
        audit.fail(path, "children share an edge")
        return False
    if set(counted) != node.graph.edge_set():
        audit.fail(path, "children edges do not cover the node's edges exactly")
        return False
    return True


def _verify_cut_split(node: CertNode, k: int, path: str, audit: _Audit) -> bool:
    if len(node.children) != 2:
        audit.fail(path, "cut split needs exactly two children")
        return False
    a, b = node.children
    ok = _check_partition(node, path, audit)
    va, vb = _mapped_vertices(a), _mapped_vertices(b)
    overlap = va & vb
    shared = set(node.shared_vertices or ())
    if overlap != shared:
        audit.fail(path, f"recorded shared vertices {shared} != actual {overlap}")
        ok = False
    if len(overlap) > 1:
        audit.fail(path, "children overlap in more than one vertex")
        ok = False
    if va | vb != set(range(node.n)):
        audit.fail(path, "children do not cover the node's vertices")
        ok = False
    if a.n < 2 or b.n < 2:
        audit.fail(path, "cut split children must have at least 2 vertices")
        ok = False
    if a.n + b.n != node.n + len(overlap):
        audit.fail(path, "vertex bookkeeping broken")
        ok = False
    if a.n + b.n > node.n + 1:
        audit.fail(path, f"n1+n2 = {a.n + b.n} exceeds n+1 = {node.n + 1}")
        ok = False
    if a.e + b.e != node.e:
        audit.fail(path, f"e1+e2 = {a.e + b.e} differs from e = {node.e}")
        ok = False
    # chain: sum of child bounds <= (2k-5)(k(n+1)-2k-2) < (2k-5)(kn-k-1)
    mid = audit.coeff * (k * (node.n + 1) - 2 * k - 2)
    child_rhs = audit.rhs(a.n) + audit.rhs(b.n)
    if child_rhs > mid:
        audit.fail(path, f"children bounds {child_rhs} exceed chain value {mid}")
        ok = False
    if mid >= audit.rhs(node.n):
        audit.fail(path, "chain value must be strictly below the node bound")
        ok = False
    return ok


def _verify_big_face_split(
    node: CertNode, k: int, path: str, audit: _Audit, emb: OuterplaneEmbedding | None
) -> bool:
    face = node.face
    if face is None:
        audit.fail(path, "big face split lacks its face")
        return False
    size = len(face)
    if size < k + 1:
        audit.fail(path, f"face of size {size} is below k+1 = {k + 1}")
        return False
    if emb is None:
        return False
    if canonical_cycle(face) not in {f.vertices for f in inner_faces(emb)}:
        audit.fail(path, "recorded face is not an inner face of the node graph")
        return False
    if len(node.children) != size:
        audit.fail(path, f"expected {size} children, found {len(node.children)}")
        return False
    ok = _check_partition(node, path, audit)
    mapped = [_mapped_vertices(c) for c in node.children]
    for i, child in enumerate(node.children):
        e_i = edge_key(face[i], face[(i + 1) % size])
        if e_i not in _mapped_edges(child):
            audit.fail(path, f"child {i} does not contain its face edge {e_i}")
            ok = False
    for i in range(size):
        j = (i + 1) % size
        expect = {face[j]}
        if mapped[i] & mapped[j] != expect:
            audit.fail(path, f"children {i},{j} overlap {mapped[i] & mapped[j]} != {expect}")
            ok = False
        for j2 in range(i + 2, size):
            if (i, j2) == (0, size - 1):
                continue
            if mapped[i] & mapped[j2]:
                audit.fail(path, f"non-consecutive children {i},{j2} overlap")
                ok = False
    total_n = sum(c.n for c in node.children)
    if total_n != node.n + size:
        audit.fail(path, f"sum n_i = {total_n} differs from n+L = {node.n + size}")
        ok = False
    if sum(c.e for c in node.children) != node.e:
        audit.fail(path, "sum e_i differs from e")
        ok = False
    mid = audit.coeff * (k * (node.n + size) - k * size - size)
    child_rhs = sum(audit.rhs(c.n) for c in node.children)
    if child_rhs != mid:
        audit.fail(path, f"children bounds {child_rhs} != chain value {mid}")
        ok = False
    if mid > audit.rhs(node.n):
        audit.fail(path, "chain value exceeds the node bound (face too small?)")
        ok = False
    return ok


def _verify_terminal_peel(
    node: CertNode, k: int, path: str, audit: _Audit, emb: OuterplaneEmbedding | None
) -> bool:
    face, peel, closing = node.face, node.peel_blocks, node.closing_edge
    if face is None or peel is None or closing is None:
        audit.fail(path, "terminal peel lacks face/blocks/closing data")
        return False
    size = len(face)
    if not 4 <= size <= k - 1:
        audit.fail(path, f"face size {size} outside 4..{k - 1}")
        return False
    if emb is None:
        return False
    if canonical_cycle(face) not in {f.vertices for f in inner_faces(emb)}:
        audit.fail(path, "recorded face is not an inner face of the node graph")
        return False
    if closing != edge_key(face[0], face[-1]):
        audit.fail(path, "closing edge must join the first and last face vertices")
        return False
    if len(peel) != size - 1:
        audit.fail(path, f"expected {size - 1} peel blocks, found {len(peel)}")
        return False
    partition = classify_terminal(triangular_blocks(emb), emb)
    owner = partition.block_of_edge()
    ok = True
    peel_edges: set[Edge] = set()
    for i, recorded in enumerate(peel):
        e_i = edge_key(face[i], face[i + 1])
        block = partition.blocks[owner[e_i]]
        if not block.terminal:
            audit.fail(path, f"block carrying face edge {e_i} is not terminal")
            ok = False
        if tuple(sorted(recorded)) != block.edges:
            audit.fail(path, f"recorded peel block {i} differs from the actual block")
            ok = False
        peel_edges.update(recorded)
    if len(peel_edges) != sum(len(b) for b in peel):
        audit.fail(path, "peel blocks overlap")
        ok = False
    if closing in peel_edges:
        audit.fail(path, "closing edge must not belong to the peel")
        ok = False
    if len(node.children) != 2:
        audit.fail(path, "terminal peel needs exactly two children")
        return False
    rest, star = node.children
    expected_rest = node.graph.edge_set() - peel_edges
    if _mapped_edges(rest) != expected_rest:
        audit.fail(path, "first child must hold exactly the unpeeled edges")
        ok = False
    v1, vl = face[0], face[-1]
    merged: dict[int, int] = {vl: v1}
    expected_star: set[Edge] = set()
    collapsed = 0
    for u, v in sorted(peel_edges | {closing}):
        mu, mv = merged.get(u, u), merged.get(v, v)
        if mu == mv:
            continue  # the contracted pair itself
        key = edge_key(mu, mv)
        if key in expected_star:
            collapsed += 1
        expected_star.add(key)
    if collapsed:
        audit.fail(path, f"contraction would collapse {collapsed} parallel edges")
        ok = False
    if _mapped_edges(star) != expected_star:
        audit.fail(path, "second child must be the peel with its free edge contracted")
        ok = False
    peel_vertices = {v for e in peel_edges for v in e} | {v1, vl}
    if _mapped_vertices(rest) != (set(range(node.n)) - peel_vertices) | {v1, vl}:
        audit.fail(path, "first child vertex set is not the complement plus the pair")
        ok = False
    if rest.n + star.n != node.n + 1:
        audit.fail(path, f"n'+n* = {rest.n + star.n} differs from n+1 = {node.n + 1}")
        ok = False
    if rest.e + star.e != node.e:
        audit.fail(path, f"e'+e* = {rest.e + star.e} differs from e = {node.e}")
        ok = False
    if star.n >= k - 1:
        audit.fail(path, f"contracted peel has n* = {star.n} >= k-1 = {k - 1}")
        ok = False
    mid = audit.coeff * (k * (node.n + 1) - 2 * k - 2)
    child_rhs = audit.rhs(rest.n) + audit.rhs(star.n)
    if child_rhs != mid:
        audit.fail(path, f"children bounds {child_rhs} != chain value {mid}")
        ok = False
    if mid >= audit.rhs(node.n):
        audit.fail(path, "chain value must be strictly below the node bound")
        ok = False
    return ok


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _node_to_dict(node: CertNode) -> dict:
    out: dict = {
        "kind": node.kind,
        "n": node.n,
        "e": node.e,
        "edges": [list(e) for e in node.graph.edges],
        "to_parent": list(node.to_parent),
        "children": [_node_to_dict(c) for c in node.children],
    }
    if node.face is not None:
        out["face"] = list(node.face)
    if node.peel_blocks is not None:
        out["peel_blocks"] = [[list(e) for e in blk] for blk in node.peel_blocks]
    if node.closing_edge is not None:
        out["closing_edge"] = list(node.closing_edge)
    if node.shared_vertices is not None:
        out["shared_vertices"] = list(node.shared_vertices)
    return out


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(
        {
            "k": cert.k,
            "graph": {"n": cert.graph.n, "edges": [list(e) for e in cert.graph.edges]},
            "root": _node_to_dict(cert.root),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _node_from_dict(data: dict) -> CertNode:
    try:
        kind = data["kind"]
        n = int(data["n"])
        edges = [tuple(int(x) for x in e) for e in data["edges"]]
        graph = Graph(n, tuple(edge_key(u, v) for u, v in edges))
        if int(data["e"]) != graph.e:
            raise CertificateFormatError("edge count disagrees with edge list")
        node = CertNode(
            kind=kind,
            graph=graph,
            to_parent=tuple(int(x) for x in data["to_parent"]),
            children=tuple(_node_from_dict(c) for c in data["children"]),
            face=tuple(int(x) for x in data["face"]) if "face" in data else None,
            peel_blocks=tuple(
                tuple(edge_key(int(e[0]), int(e[1])) for e in blk)
                for blk in data["peel_blocks"]
            )
            if "peel_blocks" in data
            else None,
            closing_edge=edge_key(int(data["closing_edge"][0]), int(data["closing_edge"][1]))
            if "closing_edge" in data
            else None,
            shared_vertices=tuple(int(x) for x in data["shared_vertices"])
            if "shared_vertices" in data
            else None,
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CertificateFormatError(f"malformed certificate node: {exc}") from exc
    return node


def certificate_from_json(text: str) -> Certificate:
    try:
        data = json.loads(text)
        k = int(data["k"])
        graph = make_graph(data["graph"]["n"], data["graph"]["edges"])
        root = _node_from_dict(data["root"])
    except CertificateFormatError:
        raise
    except (KeyError, TypeError, ValueError, GraphError, json.JSONDecodeError) as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
    return Certificate(k=k, graph=graph, root=root)
