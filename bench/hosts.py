"""Seeded k-cycle-free outerplanar hosts, built without calling opturan.

A host is glued from parts at random cut vertices and then relabelled at
random. Each part is k-cycle-free on its own, and gluing two graphs at one
vertex creates no new cycle, so the host is k-cycle-free by construction:

  tree     a random recursive tree: bridges only, no cycle at all.
  small    a block on 3..k-1 vertices (polygon plus random non-crossing
           chords). Every cycle in it is shorter than k; its faces of size
           4..k-1 are what the certificate's terminal peel works on.
  polygon  a block whose every face has at least k+1 vertices. A cycle of
           an outerplanar block bounds a subtree of faces, so its length is
           sum(sizes) - 2(faces - 1) >= k+1.

Blocks are outerplanar by construction (boundary cycle plus non-crossing
chords) and gluing at cut vertices keeps that, so every host is a valid
input to `opturan analyze` and `opturan certify -k K`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]


@dataclass(frozen=True)
class Host:
    """One generated input and the facts the benchmark checks against."""

    name: str
    k: int
    n: int
    edges: tuple[Edge, ...]
    components: int
    fmt: str  # "json" or "g6"

    @property
    def e(self) -> int:
        return len(self.edges)


def _polygon_chords(rng: random.Random, verts: list[int], min_face: int, keep: float) -> list[Edge]:
    """Random non-crossing chords of the polygon `verts` (in boundary order).

    Every face of the result has at least `min_face` vertices; each
    candidate split is taken with probability `keep`.
    """
    chords: list[Edge] = []
    stack = [verts]
    while stack:
        face = stack.pop()
        s = len(face)
        if s < 2 * min_face - 2 or rng.random() >= keep:
            continue
        # chord face[0]-face[j] leaves faces of j+1 and s-j+1 vertices
        j = rng.randint(min_face - 1, s - min_face + 1)
        rot = rng.randrange(s)
        face = face[rot:] + face[:rot]
        chords.append((face[0], face[j]))
        stack.append(face[: j + 1])
        stack.append(face[j:] + face[:1])
    return chords


def _block(rng: random.Random, size: int, min_face: int, keep: float) -> tuple[int, list[Edge]]:
    edges = [(i, (i + 1) % size) for i in range(size)]
    return size, edges + _polygon_chords(rng, list(range(size)), min_face, keep)


def _tree(rng: random.Random, size: int) -> tuple[int, list[Edge]]:
    return size, [(rng.randrange(i), i) for i in range(1, size)]


def _glue(rng: random.Random, parts: list[tuple[int, list[Edge]]]) -> list[Edge]:
    """Identify one vertex of each part with a random vertex placed so far."""
    n, edges = parts[0][0], list(parts[0][1])
    for size, part in parts[1:]:
        anchor, at = rng.randrange(n), rng.randrange(size)
        ids = {}
        nxt = n
        for v in range(size):
            if v == at:
                ids[v] = anchor
            else:
                ids[v] = nxt
                nxt += 1
        edges += [(ids[u], ids[v]) for u, v in part]
        n = nxt
    return edges


def _schedule(kind: str, k: int, j: int) -> tuple[str, int]:
    """Type and size of the j-th part of a cluster.

    The sequence is fixed so that hosts of one (kind, k, n) differ in
    structure but hardly in their count of blocks and bridges, which sets
    most of the certificate's cost; the seed draws chords, tree shapes,
    attachment points and labels.
    """
    small = 3 + j % max(1, k - 3)  # cycles through 3..k-1
    if kind == "small":
        return ("tree", 3) if j % 7 == 6 else ("block", small)
    step = j % 5
    if step in (0, 2):
        return "block", k + 1 + (7 * j) % (4 * k)  # polygon on k+1..5k vertices
    return ("tree", 3) if step == 4 else ("block", small)


def _cluster(rng: random.Random, kind: str, k: int, n: int) -> list[Edge]:
    """Edges of a connected host part on the vertices 0..n-1."""
    if kind == "tree":
        return _tree(rng, n)[1]
    parts: list[tuple[int, list[Edge]]] = []
    placed = 1
    j = 0
    while placed < n:
        room = n - placed + 1
        what, size = _schedule(kind, k, j)
        j += 1
        if size > room:
            what, size = "tree", room
        if what == "tree":
            part = _tree(rng, size)
        elif size > k:
            part = _block(rng, size, k + 1, 0.8)  # polygon
        else:
            part = _block(rng, size, 3, 0.5)  # small block
        parts.append(part)
        placed += size - 1
    return _glue(rng, parts)


def make_host(seed: int, name: str, kind: str, k: int, n: int, fmt: str, split: bool) -> Host:
    """A relabelled k-cycle-free host of exactly n vertices.

    With split, the host has two components of about 2:1 (never for trees).
    """
    rng = random.Random(f"{seed}:{name}")
    sizes = [n - n // 3, n // 3] if split and kind != "tree" else [n]
    edges: list[Edge] = []
    for at, size in enumerate(sizes):
        offset = sum(sizes[:at])
        edges += [(a + offset, b + offset) for a, b in _cluster(rng, kind, k, size)]
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = tuple(sorted(_key(perm[a], perm[b]) for a, b in edges))
    return Host(name, k, n, relabelled, len(sizes), fmt)


def _key(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def to_json(host: Host) -> str:
    edges = ",".join(f"[{u},{v}]" for u, v in host.edges)
    return f'{{"edges":[{edges}],"n":{host.n}}}\n'


def to_graph6(host: Host) -> str:
    """graph6: size prefix, then the upper triangle column by column, 6 bits a byte."""
    n = host.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    present = set(host.edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for at in range(0, len(bits), 6):
        val = 0
        for b in bits[at : at + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out) + "\n"
