"""Exact maximum edge counts by an interval DP over the convex polygon.

Every n-vertex outerplanar graph is a subgraph of a triangulation of the
convex n-gon, so the maximum edge count of an outerplanar graph with no
k-cycle is that of the largest non-crossing edge set on the polygon
0..n-1 with no k-cycle. In a triangulation, the chord position (i, j)
separates the vertices i..j from the rest whether or not edge (i, j) is
chosen, so a cycle through both sides passes through i and j, and the rest
of the graph needs to know only the set of i-j path lengths below k inside
the part on i..j.

The DP keeps, per interval, a map from that set (a bitmask, bit L for
length L) to the largest edge count. Without edge (i, j) the part splits
at the apex m of the triangle on (i, j); m is a cut vertex between the
parts on i..m and m..j, so no cycle crosses it and the path lengths are
the sumset of theirs. Closing the interval may add edge (i, j), which sets
bit 1 and is allowed only when bit k-1 is absent. A state loses to one
whose mask is a subset of its own and whose count is at least as large.
Intervals of equal length are translates of one another, so the tables
are indexed by length, and the sumset is symmetric, so apexes past the
middle add nothing.

The witness is rebuilt from back-pointers. Ties keep the first state in a
fixed order (apex ascending, then the children's states in kept order), so
identical calls return identical witnesses. Before returning, the witness
is checked by the independent exhaustive cycle search and against the
certified bound; a failure raises OracleCheckError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

from .graph import Edge, Graph, find_cycle_in_edges, make_graph
from .embedding import BlockEmbedding, OuterplaneEmbedding, _sumset
from .turan import upper_bound

DEFAULT_ORACLE_CAP = 64

class OracleCapError(RuntimeError):
    """Refusal to run the oracle above the configured cap."""


class OracleCheckError(RuntimeError):
    """The oracle's witness failed its own independent check."""


def _chord_sets(i: int, j: int) -> Iterator[frozenset[Edge]]:
    """All chord sets triangulating the polygon arc i..j closed by edge (i, j)."""
    if j == i + 1:
        yield frozenset()
        return
    for mid in range(i + 1, j):
        extra = set()
        if mid - i > 1:
            extra.add((i, mid))
        if j - mid > 1:
            extra.add((mid, j))
        for left in _chord_sets(i, mid):
            for right in _chord_sets(mid, j):
                yield frozenset(left | right | extra)


def _triangulation_embedding(n: int, chords: frozenset[Edge]) -> OuterplaneEmbedding:
    cycle = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    graph = make_graph(n, cycle + sorted(chords))
    block = BlockEmbedding(outer=tuple(range(n)), chords=tuple(sorted(chords)))
    return OuterplaneEmbedding(graph=graph, blocks=(block,), bridges=(), isolated=())


def triangulations(n: int) -> Iterator[OuterplaneEmbedding]:
    """All triangulations of the convex n-gon, exactly Catalan(n-2) of them.

    Vertex i sits at polygon position i, so chord position pairs equal chord
    vertex pairs.
    """
    if n < 3:
        raise ValueError(f"polygon needs at least 3 vertices, got {n}")
    for chords in _chord_sets(0, n - 1):
        yield _triangulation_embedding(n, chords)


# ---------------------------------------------------------------------------
# Interval DP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    n: int
    k: int
    value: int
    witness: Graph
    states: int
    elapsed: float


# open[d]:   mask -> (count, back); back = (apex offset, left mask, right mask),
#            or None for d == 1, whose only part is the empty one
# closed[d]: mask -> (count, open mask, whether edge (i, i+d) is added)
_Open = dict[int, tuple[int, tuple[int, int, int] | None]]
_Closed = dict[int, tuple[int, int, bool]]


def _pareto(states: dict) -> dict:
    """Keep the states no other beats; kept order is (count desc, size, mask)."""
    kept: dict = {}
    ranked = sorted(states.items(), key=lambda s: (-s[1][0], s[0].bit_count(), s[0]))
    for mask, entry in ranked:
        if not any(other & mask == other for other in kept):
            kept[mask] = entry
    return kept


def _tables(n: int, k: int) -> tuple[list[_Open], list[_Closed]]:
    limit = (1 << k) - 1
    forbidden = 1 << (k - 1)
    opened: list[_Open] = [{}]
    closed: list[_Closed] = [{}]
    for d in range(1, n):
        cand: _Open = {0: (0, None)} if d == 1 else {}
        for a in range(1, d // 2 + 1):
            right = closed[d - a]
            for lm, (lc, _, _) in closed[a].items():
                for rm, (rc, _, _) in right.items():
                    mask = _sumset(lm, rm, limit)
                    old = cand.get(mask)
                    if old is None or lc + rc > old[0]:
                        cand[mask] = (lc + rc, (a, lm, rm))
        opened.append(_pareto(cand))
        shut: _Closed = {m: (c, m, False) for m, (c, _) in opened[d].items()}
        for m, (c, _) in opened[d].items():
            if not m & forbidden:
                shut[m | 2] = (c + 1, m, True)
        closed.append(_pareto(shut))
    return opened, closed


def _witness_edges(opened: list[_Open], closed: list[_Closed], mask: int) -> list[Edge]:
    n = len(closed)
    edges: list[Edge] = []
    stack = [(0, n - 1, mask)]
    while stack:
        i, d, mask = stack.pop()
        _, open_mask, with_edge = closed[d][mask]
        if with_edge:
            edges.append((i, i + d))
        back = opened[d][open_mask][1]
        if back is not None:
            a, lm, rm = back
            stack.append((i + a, d - a, rm))
            stack.append((i, a, lm))
    return edges


def _check_witness(n: int, k: int, value: int, edges: list[Edge]) -> None:
    if len(edges) != value or len(set(edges)) != value:
        raise OracleCheckError(
            f"n={n} k={k}: witness has {len(set(edges))} distinct edges, not {value}"
        )
    if find_cycle_in_edges(n, sorted(edges), k) is not None:
        raise OracleCheckError(f"n={n} k={k}: witness contains a {k}-cycle")
    if value > upper_bound(k, n).floor():
        raise OracleCheckError(f"n={n} k={k}: value {value} exceeds the certified upper bound")


def exact_ex(n: int, k: int, *, cap: int = DEFAULT_ORACLE_CAP) -> OracleResult:
    """Exact maximum edges of an n-vertex outerplanar graph with no k-cycle.

    Raises OracleCapError above `cap`, and OracleCheckError if the witness
    fails its independent check.
    """
    if n < 2:
        raise ValueError(f"vertex count must be >= 2, got {n}")
    if k < 3:
        raise ValueError(f"cycle length must be >= 3, got {k}")
    if n > cap:
        raise OracleCapError(
            f"n={n} exceeds the oracle cap {cap}: the interval DP combines "
            f"{(n - 1) ** 2 // 4} (length, apex) pairs over up to 2^{min(k, n + 1) - 1} "
            "path-length sets per side; raise the cap explicitly to proceed"
        )
    started = time.monotonic()
    opened, closed = _tables(n, min(k, n + 1))  # no path or cycle is longer than n
    mask, (value, _, _) = next(iter(closed[n - 1].items()))
    edges = _witness_edges(opened, closed, mask)
    _check_witness(n, k, value, edges)
    return OracleResult(
        n=n,
        k=k,
        value=value,
        witness=make_graph(n, edges),
        states=sum(map(len, opened)) + sum(map(len, closed)),
        elapsed=time.monotonic() - started,
    )
