"""Decomposition certificates for the outerplanar cycle-Turan bound.

Given an outerplane graph with no k-cycle, the builder produces a tree of
decomposition steps, each step shrinking the graph while preserving
outerplanarity and k-cycle-freeness, bottoming out in leaves whose edge
counts are bounded directly. An independent verifier replays every step:
it checks the graphs, the leaf conditions, a peel's vertex counts and each
node's integer inequality. The rest of the split bookkeeping, and the chain
of integer inequalities that together establish

    e * (k^2 - 2k - 1) <= (2k - 5) * (k*n - k - 1)

at the root, hold by its derivation of every child from its parent and the
recorded selection (the lemma at _verify_split), so it does not check them.
A certificate stores the certified graph and, per node, only
its kind and the selection that fixes the step, as a flat preorder list:
a node's kind fixes its number of children, so no recursion writes or
reads it. Every vertex is named by its label in the certified graph, so a
certificate reads against its input. The root decomposes the certified
graph without its isolated vertices (the graph itself when it has no
edge), and each child's edges follow from its parent's edges and
selection through one derivation per kind, which the verifier calls at
every split; a node's vertices are those its edges touch. A selection
that does not fit its node makes the derivation raise SelectionError. A
recorded face must be an induced cycle of the node graph, which in an
outerplanar graph is exactly an inner face; the side of a face edge is
the edge plus the parts of the graph minus the face's vertices that hang
across it.

Heredity. Outerplanarity and k-cycle-freeness pass to subgraphs, and every
derived child but one is a subgraph of its parent: both sides of a cut
split, every child of a big-face split, and the rest of a peel keep only
parent edges. A child whose parent is outerplanar and k-cycle-free is then
both, with no recognition. A cut split keeps whole blocks. In a 2-connected
node every inner face is a face of its block, and the weak dual is a tree:
a face split's children and a peel's rest are the branches of that tree
behind the chosen face's edges (an edge with no branch is a base leaf), so
each is again a connected set of the block's faces. Only the peel, with vL
merged into v1, is not a subgraph but a minor: the peeled sides and the
edge v1vL with that edge contracted. Outerplanarity passes to minors (no
K4 and no K2,3 minor), and n* <= k-2 leaves no room for a k-cycle.

Work model. The builder and the verifier each loop over a stack of work
items, so a certificate as deep as its input takes no recursion. The
builder builds one weak dual, for the caller's embedding, and neither
builds nor recognises a graph. A cut split's children are whole blocks
and bridges, split as lists on their block-cut forest. A lone block is the
set of its faces, and every 2-connected node below it is a connected
subset: the builder picks the big face or the peel on those faces and
passes each child its branch of them. A contracted peel is 2-connected,
and its faces are the face v1..v(L-1) and the peeled triangles with vL
renamed v1, which the builder adds to its faces. A node whose faces are
all triangles is a maximal leaf with n = 2 + sum(size - 2). Choices are
made and recorded in the embedding's labels, each peel's vL merged into
its v1 < vL. No node builds a triangular-block partition. The verifier
carries each node as its edge list in the same labels and derives every
split's children from it alone, so it builds no weak dual and checks the
builder independently, and it passes no embedding down: heredity is a
flag. It gives the full checks, recognition and the exhaustive k-cycle
search (which never looks at faces), on the node's graph relabelled 0..,
only to the root, and to a recorded peel on k or more vertices, which its
parent's n* check fails. Every other node is vouched for by heredity. A
vouched maximal leaf is settled by e = 2n-3 and n <= k-1 alone: on a
graph known to be outerplanar, e = 2n-3 is exactly edge-maximality. Below
a root that is not outerplanar nothing is vouched for, so each node there
gets the full checks.

Node kinds, their selections and the bookkeeping their derivation gives:

  edgeless        e = 0 leaf (n >= 2).
  base            n = 2 leaf, e <= 1.
  cut_split       `cut`, a cut vertex (None when the graph is
                  disconnected), and `side`, the least vertex of each part
                  of g - cut (each component) that goes to child 0 (any
                  vertex of a part names it); child 1 takes the other
                  parts, and each part keeps its edges to the cut:
                  n1+n2 <= n+1, e1+e2 = e.
  big_face_split  `face`, an inner face of size L >= k+1; one child per
                  face edge (the edge plus everything hanging across it):
                  sum(n_i) = n+L, sum(e_i) = e.
  terminal_peel   `face` = v1..vL, an inner face of size 4 <= L <= k-1
                  whose edges v1v2 .. v(L-1)vL have sides made only of
                  triangles (e = 2n-3), which makes them L-1 distinct
                  terminal triangular blocks; the children are the rest of
                  the graph (the last side and every part across no face
                  edge) and the peel (those sides) with vL merged into v1,
                  which contracts the free edge v1vL: n'+n* = n+1,
                  e'+e* = e, no parallel edges collapse.
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
edge at every vertex gives a certificate as deep as the polygon.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Container, NamedTuple

from .graph import (
    Edge,
    Graph,
    GraphError,
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
    cycle_edges,
    cycle_length_set,
    recognize_outerplanar,
)
from .dual import branch_weights, reducible_face, weak_dual
from .turan import bound_holds

EDGELESS = "edgeless"
BASE = "base"
CUT_SPLIT = "cut_split"
BIG_FACE_SPLIT = "big_face_split"
TERMINAL_PEEL = "terminal_peel"
MAXIMAL_LEAF = "maximal_leaf"

_KINDS = {EDGELESS, BASE, CUT_SPLIT, BIG_FACE_SPLIT, TERMINAL_PEEL, MAXIMAL_LEAF}
_LEAVES = {EDGELESS, BASE, MAXIMAL_LEAF}
FORMAT = 4


class ContainsForbiddenCycleError(ValueError):
    """Input graph contains a k-cycle, so no certificate exists."""


class CertificateFormatError(ValueError):
    """Serialized certificate is structurally malformed."""


class CoverageError(RuntimeError):
    """No decomposition step applies; unreachable for valid inputs."""


class SelectionError(CoverageError):
    """A recorded selection does not fit its node's graph.

    The verifier reports it as an audit failure; in the builder it means a
    step was chosen that does not apply, hence a CoverageError.
    """


@dataclass(frozen=True)
class CertNode:
    """One decomposition step: its kind, its selection and its children.

    The node's graph is not stored; it is derived from the parent's graph
    and selection. A node is checked when it is made, read or built alike:
    a known kind, exactly its kind's selection fields, of plain ints, and
    its kind's _arity of children, else CertificateFormatError.
    """

    kind: str
    children: tuple["CertNode", ...] = ()
    # selections, in the certified graph's labels
    cut: int | None = None  # cut_split; None splits a disconnected graph
    side: tuple[int, ...] | None = None  # cut_split: least vertex of each child-0 part
    face: tuple[int, ...] | None = None  # big_face_split, terminal_peel: cyclic order

    def __post_init__(self) -> None:
        kind, cut, side, face = self.kind, self.cut, self.side, self.face
        if kind == CUT_SPLIT:
            fits = (cut is None or type(cut) is int) and _is_ints(side) and face is None
        elif kind in (BIG_FACE_SPLIT, TERMINAL_PEEL):
            fits = _is_ints(face) and cut is None and side is None
        elif kind in _LEAVES:
            fits = cut is None and side is None and face is None
        else:
            raise CertificateFormatError(f"{kind!r:.80} is not a node kind")
        if not fits:
            held = f"cut={cut!r:.40}, side={side!r:.40}, face={face!r:.40}"
            raise CertificateFormatError(f"a {kind} node cannot hold {held}")
        if len(self.children) != _arity(kind, face):
            raise CertificateFormatError(f"a {kind} node takes {_arity(kind, face)} children, not {len(self.children)}")


def _is_ints(value: object) -> bool:
    return type(value) is tuple and all(type(x) is int for x in value)


@dataclass(frozen=True)
class Certificate:
    k: int
    graph: Graph  # the certified graph, isolated vertices included
    root: CertNode


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def build_certificate(emb: OuterplaneEmbedding, k: int) -> Certificate:
    """Decomposition certificate for a k-cycle-free outerplane graph.

    Each step pops ("units", units) or ("faces", faces) (no faces: an edge
    alone, a base leaf) and gives its node's entry, its selection in the
    embedding's labels, and its children's items. The entries come in
    preorder, and the reader's _tree assembles them.
    """
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    g = emb.graph
    if g.n < 2:
        raise ValueError(f"certification needs n >= 2, got n={g.n}")
    if k in cycle_length_set(emb, k):
        raise ContainsForbiddenCycleError(f"graph contains a cycle of length {k}")
    units, src = _decompose(emb, k)
    # an edgeless graph is one leaf, any other starts from its units
    nodes, work = ([], [("units", units)]) if g.e else ([[EDGELESS]], [])
    while work:
        what, item = work.pop()
        if what == "units" and len(item) == 1:  # a lone block is its faces, a bridge none
            what, item = "faces", list(item[0][2] or ())
        if what == "units":
            entry, children = _cut_split(item)
        else:
            entry, children = _face_step(src, item) if item else ([BASE], [])
        nodes.append(entry)
        work += reversed(children)
    return Certificate(k=k, graph=g, root=_tree(nodes))


class _Source(NamedTuple):
    """The faces the builder walks: the lists of the embedding's weak dual,
    as built, to which each contracted peel's faces are appended."""

    faces: list[tuple[int, ...]]  # canonical boundaries
    links: list[list[tuple[int, Edge]]]  # per face: (neighbour, shared edge)
    k: int


Unit = tuple[tuple[int, ...], int, range | None]  # vertices, edges, the block's faces


def _decompose(emb: OuterplaneEmbedding, k: int) -> tuple[list[Unit], _Source]:
    """The units of emb's graph without its isolated vertices: its blocks
    (with their faces in emb's weak dual, built here once) and then its
    bridges, each sorted by vertices; and that dual as the builder's source."""
    dual = weak_dual(emb)
    blocks, first = [], 0
    for block in emb.blocks:  # the dual lists each block's c+1 faces in turn
        faces = range(first, first + len(block.chords) + 1)
        blocks.append((tuple(sorted(block.outer)), len(block.outer) + len(block.chords), faces))
        first = faces.stop
    units: list[Unit] = sorted(blocks, key=lambda u: u[0]) + [(e, 1, None) for e in sorted(emb.bridges)]
    return units, _Source(dual.faces, dual.links, k)


def _cut_split(units: list[Unit]) -> tuple[list, list[tuple]]:
    """The cut split of the union of two or more units, read off their
    block-cut forest: its entry and its children's items, each with whole
    units in their order."""
    m = len(units)  # block-cut forest: the units, then the cut vertices ascending
    count = Counter(chain.from_iterable(u[0] for u in units))
    cuts = sorted(v for v, c in count.items() if c > 1)
    node_of = {c: m + i for i, c in enumerate(cuts)}
    adj: list[list[int]] = [[] for _ in range(m + len(cuts))]
    for ui, (vertices, _, _) in enumerate(units):
        for v in vertices:
            if v in node_of:
                adj[ui].append(node_of[v])
                adj[node_of[v]].append(ui)
    centres = range(m, len(adj))  # the cut vertices
    if len(adj) - sum(map(len, adj)) // 2 > 1:  # a forest has nodes - edges trees
        # a hub joined to each tree, the trees in order of their least
        # vertex, is the only centre: it splits the components, at no vertex
        hub, seen = len(adj), set()
        adj.append([])
        for ui in sorted(range(m), key=lambda x: units[x][0][0]):
            if ui not in seen:  # the first unit seen of a tree holds its least vertex
                seen.update(_behind(adj, hub, [ui]))
                adj[hub].append(ui)
                adj[ui].append(hub)
        centres = [hub]
    weight = [u[1] for u in units] + [0] * (len(adj) - m)
    branches = branch_weights(adj, weight)
    at = min(centres, key=lambda x: max(branches[x]))  # the least cut vertex on ties
    cut = cuts[at - m] if at - m < len(cuts) else None  # the hub is no vertex
    least, first = [], set()
    for i in _halves(branches[at])[0]:
        part = [x for x in _behind(adj, at, [adj[at][i]]) if x < m]
        # a unit's least vertex other than the cut is one of its first two
        least.append(min(v for x in part for v in units[x][0][:2] if v != cut))
        first.update(part)
    halves = [[u for x, u in enumerate(units) if (x in first) == which] for which in (True, False)]
    return [CUT_SPLIT, cut, sorted(least)], [("units", half) for half in halves]


def _face_step(src: _Source, faces: list[int]) -> tuple[list, list[tuple]]:
    """The step at the node made of `faces`, a connected set of one block's
    or one contracted peel's faces: its entry and its children's items, the
    faces behind each face edge of a big face, or a peel's rest (the faces
    behind its closing edge) and the contracted peel."""
    k = src.k
    bounds = [src.faces[f] for f in faces]
    largest = max(map(len, bounds))
    if largest < 4:  # all triangles: n = 2 + sum(size - 2), e = 2n-3
        n = 2 + len(faces)
        if n > k - 1:
            raise CoverageError(f"maximal leaf conditions failed at n={n}, e={2 * n - 3}, k={k}")
        return [MAXIMAL_LEAF], []
    index = {f: i for i, f in enumerate(faces)}
    adj = [[index[g] for g, _ in src.links[f] if g in index] for f in faces]
    if largest >= k + 1:
        # the child across a face edge holds sum(size - 1) + 1 edges of its faces
        branches = branch_weights(adj, [len(b) - 1 for b in bounds])
        big = (i for i, b in enumerate(bounds) if len(b) >= k + 1)
        kind, s = BIG_FACE_SPLIT, min(big, key=lambda i: (max(branches[i], default=0), bounds[i]))
    else:
        kind, (s, held) = TERMINAL_PEEL, reducible_face(bounds, adj)
    across = {e: index[g] for g, e in src.links[faces[s]] if g in index}
    ring, size = list(bounds[s]), len(bounds[s])
    if kind == TERMINAL_PEEL:
        if not 4 <= size <= k - 1:
            raise CoverageError(f"reducible face size {size} outside 4..{k - 1}")
        # the edge in a non-terminal block, if any, joins the last vertex to the first
        skip = next((i for i, e in enumerate(cycle_edges(ring)) if across.get(e) in held), 0)
        ring = ring[skip + 1 :] + ring[: skip + 1]
        if ring[0] > ring[-1]:
            ring.reverse()  # same closing edge, and v1 < vL for determinism
    sides = []  # the faces behind face edge i, from ring[i] to ring[i+1]
    for e in cycle_edges(ring)[: size if kind == BIG_FACE_SPLIT else size - 1]:
        c = across.get(e)
        sides.append([] if c is None else [faces[x] for x in _behind(adj, s, [c])])
    if kind == BIG_FACE_SPLIT:
        return [kind, ring], [("faces", side) for side in sides]
    peeled = {faces[s]}.union(*sides)  # every other face lies behind the closing edge
    rest = [f for f in faces if f not in peeled]
    return [kind, ring], [("faces", rest), _contracted_peel(src, ring, sides)]


def _contracted_peel(src: _Source, ring: list[int], sides: list[list[int]]) -> tuple[str, list[int]]:
    """Face edges ring[0]ring[1] .. ring[-2]ring[-1] with the faces behind
    them, which must all be triangles, and ring[-1] merged into ring[0],
    added to src as the face ring[:-1] and the renamed triangles."""
    at = len(src.faces)
    renamed = {f: at + 1 + i for i, f in enumerate(chain.from_iterable(sides))}

    def merged(*vertices: int) -> list[int]:
        return [ring[0] if v == ring[-1] else v for v in vertices]

    src.faces.append(canonical_cycle(ring[:-1]))
    src.links.append([])
    for i, side in enumerate(sides):
        for f in side:
            if len(src.faces[f]) >= 4:
                raise CoverageError("a peeled face edge lies in a non-terminal block")
            src.faces.append(canonical_cycle(merged(*src.faces[f])))
            src.links.append([(renamed[g], edge_key(*merged(*e))) for g, e in src.links[f] if g in renamed])
        if side:  # _behind starts at the triangle across the face edge
            e = edge_key(*merged(ring[i], ring[i + 1]))
            src.links[at].append((renamed[side[0]], e))
            src.links[renamed[side[0]]].append((at, e))
    return "faces", list(range(at, len(src.faces)))


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

    Each node's kind, fields and child count were checked when it was made.
    The audit derives every node's edges from the certified graph and the
    recorded selections, recognises the root's graph and searches it
    exhaustively for a k-cycle (not via the face spectrum). Children that
    are subgraphs of their parent inherit both properties (see the module
    docstring), as does a contracted peel, a minor of its parent, on fewer
    than k vertices, so a flag stands for them; a peel on more is recognised
    and searched afresh. At every node it checks that the selection fits
    the node, the leaf conditions or a peel's vertex counts, and the node's
    integer inequality; the rest of the split bookkeeping and the chain of
    inequalities hold by derivation (_verify_split). The root bound is
    checked once more against turan.bound_holds. Failures are pinpointed by
    node path.
    """
    audit = _Audit(k)
    if k != cert.k:
        audit.fail("root", f"certificate was built for k={cert.k}, audited with k={k}")
    if k < 3:
        audit.fail("root", f"cycle length must be at least 3, got k={k}")
    try:
        make_graph(cert.graph.n, cert.graph.edges)
    except GraphError as exc:
        audit.fail("root", f"invalid certified graph: {exc}")
    else:
        # the root is the certified graph without its isolated vertices (the
        # graph itself when it has no edge, so on n < 2 its inequality
        # fails); no node can be audited for shorter cycles; the stack
        # keeps preorder
        edges = list(cert.graph.edges)
        n = _vertex_count(edges) if edges else cert.graph.n
        stack = [(cert.root, n, edges, False, "root")] if k >= 3 else []
        while stack:
            node, n, edges, vouched, path = stack.pop()
            stack.extend(reversed(_verify_node(node, n, edges, vouched, k, path, audit)))

    root_lhs = cert.graph.e * audit.den
    root_rhs = audit.rhs(cert.graph.n)
    if not audit.failures and not bound_holds(cert.graph.e, k, cert.graph.n).holds:
        audit.fail("root", "every node checks out but the root bound fails")
    return AuditReport(not audit.failures, root_rhs - root_lhs, tuple(audit.entries), tuple(audit.failures))


def _verify_node(
    node: CertNode, n: int, edges: list[Edge], vouched: bool, k: int, path: str, audit: _Audit
) -> list[tuple[CertNode, int, list[Edge], bool, str]]:
    """Audit one node, on n vertices spanned by `edges` (in the certified
    graph's labels); returns its children to audit, each with its vertex
    count, its edges, its flag and its path. `vouched` says that the node
    keeps only edges of an outerplanar parent, so it passes both checks by
    heredity; otherwise its graph, relabelled 0.., is checked in full:
    recognised and searched.
    """
    before = len(audit.failures)
    e = len(edges)
    if not vouched:
        g = subgraph_on_edges(edges)[0]
        try:
            recognize_outerplanar(g)
        except (NotOuterplanarError, EmbeddingInvariantError) as exc:
            audit.fail(path, f"node graph is not outerplanar: {exc}")
        else:
            vouched = True
        if g.n >= k and has_cycle_of_length(g, k):
            audit.fail(path, f"node graph contains a cycle of length {k}")

    lhs = e * audit.den
    rhs = audit.rhs(n)
    note = ""
    children: list[Derived] = []

    if node.kind == EDGELESS:  # on n <= 1 its inequality fails: rhs < 0 = lhs
        if e != 0:
            audit.fail(path, "edgeless node has edges")
    elif node.kind == BASE:
        if n != 2 or e > 1:
            audit.fail(path, f"base leaf requires n=2, e<=1; got n={n}, e={e}")
    elif node.kind == MAXIMAL_LEAF:
        # on an outerplanar graph, e = 2n-3 is exactly edge-maximality
        if e != 2 * n - 3:
            audit.fail(path, f"maximal leaf has e={e}, expected {2 * n - 3}")
        if n > k - 1:
            audit.fail(path, f"maximal leaf has n={n} > k-1={k - 1}")
        note = "e = 2n-3 leaf"
    else:
        try:
            children = _derive(node, edges, vouched, k)
        except SelectionError as exc:
            audit.fail(path, str(exc))
        if children:
            _verify_split(node, n, [m for m, _, _ in children], k, path, audit)
        size = len(node.face or ())
        note = {
            CUT_SPLIT: "split at a cut",
            BIG_FACE_SPLIT: f"face of size {size}",
            TERMINAL_PEEL: f"peel around a {size}-face",
        }[node.kind]

    if lhs > rhs:
        audit.fail(path, f"inequality fails: {lhs} > {rhs}")
    ok = len(audit.failures) == before
    audit.entries.append(AuditEntry(path, node.kind, n, e, lhs, rhs, rhs - lhs, ok, note))
    # every child but the contracted peel keeps only edges of the node; the
    # peel is a minor of it, and with fewer than k vertices it has no k-cycle
    return [
        (child, m, es, vouched and (subgraph or m < k), f"{path}.{i}")
        for i, (child, (m, es, subgraph)) in enumerate(zip(node.children, children))
    ]


def _verify_split(node: CertNode, n: int, sizes: list[int], k: int, path: str, audit: _Audit) -> None:
    """The bookkeeping a split node on n vertices leaves open, given its
    derived children's vertex counts: only a peel's n'+n* = n+1 and n* <=
    k-2, which keeps the contracted peel free of k-cycles.

    Lemma: the rest holds by derivation. Let c = 2k-5 > 0 (k >= 3) and
    rhs(m) = c(km-k-1); s children have sum(rhs(n_i)) = c(k*sum(n_i) -
    s(k+1)). The children's edges partition the node's (a peel's merge
    collapses none, as L >= 4), so their lhs add up to the node's. A big
    face's sides hold each face vertex twice and every other vertex once:
    sum(n_i) = n+L, and rhs(n) - sum(rhs(n_i)) = c(L-k-1) >= 0, as _derive
    refuses L < k+1. A cut split's children share only the cut: n_1+n_2 <=
    n+1, and the difference is at least c > 0; so is a peel's once n'+n* =
    n+1, which a part across no face edge at an inner face vertex breaks.
    So each node's bound follows from its children's.
    """
    if node.kind == TERMINAL_PEEL:
        if sum(sizes) != n + 1:
            audit.fail(path, f"n'+n* = {sum(sizes)} differs from n+1 = {n + 1}")
        if sizes[1] >= k - 1:
            audit.fail(path, f"contracted peel has n* = {sizes[1]} >= k-1 = {k - 1}")


# ---------------------------------------------------------------------------
# Verifier: derivation of the children's edges from the node's and its selection
# ---------------------------------------------------------------------------

# a child: its vertex count, its edges, and whether it is a subgraph (not the contracted peel)
Derived = tuple[int, list[Edge], bool]


def _derive(node: CertNode, edges: list[Edge], vouched: bool, k: int) -> list[Derived]:
    """A split node's children, as many as its _arity, from its edges and
    its selection, or none for a face on a graph not known to be
    outerplanar (its full check fails); SelectionError if it does not fit."""
    if node.kind == CUT_SPLIT:
        return _cut_children(edges, node.cut, node.side)
    if not vouched:
        return []
    if node.kind == BIG_FACE_SPLIT:
        if len(node.face) < k + 1:
            raise SelectionError(f"face of size {len(node.face)} is below k+1 = {k + 1}")
        return _big_face_children(edges, node.face)
    if not 4 <= len(node.face) <= k - 1:
        raise SelectionError(f"face size {len(node.face)} outside 4..{k - 1}")
    return _peel_children(edges, node.face)


def _vertex_count(edges: list[Edge]) -> int:
    return len(set(chain.from_iterable(edges)))


def _adjacency(edges: list[Edge]) -> dict[int, list[int]]:
    """The neighbours of each vertex that `edges` touch."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _parts(adj: dict[int, list[int]], removed: Container[int]) -> list[tuple[list[int], list[Edge], set[int]]]:
    """The components of the graph of `adj` minus the `removed` vertices, in
    order of their least vertex.

    Each comes as (its vertices, least first; its edges, those to removed
    vertices included; the removed vertices it touches).
    """
    seen = set()
    parts = []
    for start in sorted(adj):
        if start in seen or start in removed:
            continue
        seen.add(start)
        vertices, edges, touched = [start], [], set()
        for x in vertices:  # the list grows while it is read
            for y in adj[x]:
                if y in removed:
                    touched.add(y)
                    edges.append(edge_key(x, y))
                    continue
                if x < y:
                    edges.append((x, y))
                if y not in seen:
                    seen.add(y)
                    vertices.append(y)
        parts.append((vertices, edges, touched))
    return parts


def _cut_children(edges: list[Edge], cut: int | None, side: tuple[int, ...]) -> list[Derived]:
    """Child 0: the parts of the node minus `cut` holding a vertex of `side`;
    child 1: the rest.

    With cut None the parts are the node's components. Each part keeps its
    edges to the cut.
    """
    adj = _adjacency(edges)
    if cut is not None and cut not in adj:
        raise SelectionError(f"cut {cut} is not a vertex of the node graph")
    chosen = set(side)
    if not side or len(chosen) < len(side) or not all(v in adj and v != cut for v in side):
        raise SelectionError(f"side {list(side)} must name distinct vertices other than the cut")
    sides: tuple[list[Edge], list[Edge]] = ([], [])
    for vertices, part, _ in _parts(adj, () if cut is None else (cut,)):
        sides[chosen.isdisjoint(vertices)].extend(part)
    if not (sides[0] and sides[1]):
        raise SelectionError(f"cut {cut} with side {list(side)} leaves a child without edges")
    return [(_vertex_count(half), half, True) for half in sides]


def _face_sides(
    edges: list[Edge], face: tuple[int, ...]
) -> tuple[list[list[Edge]], list[tuple[int, list[Edge]]]]:
    """The edges on each side of `face`, and the parts of the node across no face edge.

    Side i holds face edge i, from face[i] to face[i+1], and the components
    of the node minus the face's vertices that touch that edge's two ends
    and no other face vertex, with their edges to those ends. The other
    components come as (least vertex, edges), in order of their least
    vertex. The node is outerplanar, so its inner faces are exactly its
    induced cycles, and `face` is accepted when it is one.
    """
    size = len(face)
    pos = {v: i for i, v in enumerate(face)}
    # the edges among the face's vertices, as steps along the face: an
    # induced cycle has L of them, each of one step (so none is a chord)
    steps = [(pos[u] - pos[v]) % size for u, v in edges if u in pos and v in pos]
    if size < 3 or len(pos) < size or len(steps) != size or not set(steps) <= {1, size - 1}:
        raise SelectionError("recorded face is not an inner face of the node graph")
    sides = [[edge] for edge in cycle_edges(face)]
    loose = []
    for vertices, part, touched in _parts(_adjacency(edges), pos):
        ends = sorted(pos[v] for v in touched)
        if len(ends) == 2 and ends[1] - ends[0] in (1, size - 1):
            sides[ends[0] if ends[1] == ends[0] + 1 else ends[1]].extend(part)
        else:
            loose.append((vertices[0], part))
    return sides, loose


def _big_face_children(edges: list[Edge], face: tuple[int, ...]) -> list[Derived]:
    """One child per edge of `face`: the edge plus everything across it."""
    sides, loose = _face_sides(edges, face)
    if loose:
        raise SelectionError(f"the part at vertex {loose[0][0]} does not hang across one face edge")
    return [(_vertex_count(side), side, True) for side in sides]


def _peel_children(edges: list[Edge], face: tuple[int, ...]) -> list[Derived]:
    """The rest of the node, and the sides of face edges 0..L-2 with face[-1] merged into face[0].

    A peeled side must be a terminal block made only of triangles, which in
    the outerplanar node means e = 2n-3. The rest, the last side and every
    part across no face edge, is a subgraph of the node. The peel is not
    (its edges at face[0] need not be edges of the node), and the merged
    vertex keeps face[0]'s label. Sides share only face vertices, so for
    L >= 4 merging collapses no edge.
    """
    sides, loose = _face_sides(edges, face)
    peel = sides[:-1]
    if any(len(side) != 2 * _vertex_count(side) - 3 for side in peel):
        raise SelectionError("a peeled face edge lies in a non-terminal block")
    v1, vl = face[0], face[-1]
    merged = [edge_key(v1 if u == vl else u, v1 if v == vl else v) for side in peel for u, v in side]
    rest = sides[-1] + [e for _, part in loose for e in part]
    return [(_vertex_count(rest), rest, True), (_vertex_count(merged), merged, False)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> str:
    """The certificate as one line of JSON: its nodes in preorder, each as its
    kind and its selection, read off an explicit stack; CertNode checked each."""
    nodes, stack = [], [cert.root]
    while stack:
        node = stack.pop()
        if node.kind == CUT_SPLIT:
            nodes.append([node.kind, node.cut, list(node.side)])
        elif node.face is not None:
            nodes.append([node.kind, list(node.face)])
        else:
            nodes.append([node.kind])
        stack.extend(reversed(node.children))
    return json.dumps(
        {
            "format": FORMAT,
            "k": cert.k,
            "graph": {"n": cert.graph.n, "edges": [list(e) for e in cert.graph.edges]},
            "nodes": nodes,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _arity(kind: str, face: object) -> int:
    """Children of a node: none for a leaf, L for a big face, else two (CertNode refuses a non-tuple face)."""
    return 0 if kind in _LEAVES else len(face) if kind == BIG_FACE_SPLIT and type(face) is tuple else 2


def _tree(nodes: object) -> CertNode:
    """The tree whose preorder is `nodes`, rebuilt in one reverse scan.

    Every subtree is complete before its parent is read, so each node takes
    the trees on top of the stack as its children, as many as its _arity.
    Lists become tuples; CertNode checks the rest.
    """
    if not isinstance(nodes, list):
        raise CertificateFormatError(f"expected a list of nodes, got {nodes!r:.80}")
    trees: list[CertNode] = []
    for item in reversed(nodes):
        if not (isinstance(item, list) and item and isinstance(item[0], str)):
            raise CertificateFormatError(f"malformed certificate node: {item!r:.80}")
        kind, fields = item[0], [tuple(x) if type(x) is list else x for x in item[1:]]
        if kind not in _KINDS:
            raise CertificateFormatError(f"unknown node kind {kind!r}")
        cut = side = face = None
        if kind == CUT_SPLIT and len(fields) == 2:
            cut, side = fields
        elif kind in (BIG_FACE_SPLIT, TERMINAL_PEEL) and len(fields) == 1:
            face = fields[0]
        elif fields or kind not in _LEAVES:
            raise CertificateFormatError(f"malformed {kind} node: {item!r:.80}")
        count = _arity(kind, face)
        if count > len(trees):
            raise CertificateFormatError(f"the node list ends before the children of a {kind} node")
        at = len(trees) - count
        children = tuple(reversed(trees[at:]))
        del trees[at:]
        trees.append(CertNode(kind, children, cut, side, face))
    if len(trees) != 1:
        raise CertificateFormatError(f"the node list holds {len(trees)} trees, not one")
    return trees[0]


def certificate_from_json(text: str) -> Certificate:
    """Read a format-4 certificate; any other document, formats 1 to 3
    included, is a CertificateFormatError.

    Its `nodes` must list exactly one tree in preorder, each node as
    [kind, *selection], the selection in the certified graph's labels;
    whether the selections fit is the verifier's to say.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateFormatError(f"malformed certificate: {exc}") from exc
    except RecursionError:  # the parser recurses into nested arrays
        raise CertificateFormatError("certificate is nested too deeply to read") from None
    if not isinstance(data, dict) or set(data) != {"format", "k", "graph", "nodes"}:
        raise CertificateFormatError("not a certificate: expected keys format, k, graph, nodes")
    if type(data["format"]) is not int or data["format"] != FORMAT:
        raise CertificateFormatError(f"unsupported certificate format {data['format']!r}")
    try:
        graph = make_graph(data["graph"]["n"], data["graph"]["edges"])
    except (KeyError, TypeError, GraphError) as exc:
        raise CertificateFormatError(f"malformed certified graph: {exc}") from exc
    if type(data["k"]) is not int:
        raise CertificateFormatError(f"expected an integer, got {data['k']!r}")
    return Certificate(k=data["k"], graph=graph, root=_tree(data["nodes"]))
