"""Iterative-compression enumeration, rank 4 by default.

Phase 1 scans the vertex subsets of size exactly floor(alpha*n) in
lexicographic order and stops at the first transversal X. If there is
none, every minimal transversal is larger than floor(alpha*n): the scan
then walks the sizes n down to floor(alpha*n), each in lexicographic
order, and emits the minimal transversals it meets. Otherwise X anchors
phase 2: for each N inside X (binary-counter order), the hyperedges hit
by N are dropped, the rest lose the vertices X minus N, and an inner
engine enumerates the minimal transversals Y of the projected
hypergraph; N union Y is emitted when it is a minimal transversal of the
input. Since a minimal transversal T forces N = T intersect X, nothing
is emitted twice.

Projecting through a transversal X lowers the rank, so the rank-3 engine
is the inner engine for rank-4 inputs and rankk the one above rank 4.
alpha tunes only the phase split, never the emitted set.

The projection for N depends only on which edges N misses, and most
subsets of X share one with another. N is kept as a bitmask over X, and
one subset-OR table over X gives every N a key that is equal exactly for
equal projections. The inner engine therefore runs once per distinct
projection; for every later N with the same projection its recorded
outputs are replayed, in the same order, through the same final filter.
This relies on the inner engine giving the same outputs for equal
hypergraphs, as every engine in the package does. The stats still
describe the unmemoized tree: a replay adds the recorded inner counters
again.

The final filter checks only N's members. Since each Y is a minimal
transversal of N's projection (the inner engine must emit nothing else),
N union Y hits every edge, and each y in Y keeps a private edge: its
projected edge misses N and the rest of Y. So the set is minimal iff
every member of N has an edge that no other member of N and no member
of Y hits. Each N's private edges come from the incidence rows of its
members and each Y's hit edges are recorded with Y, so a check is a few
bit operations. X, N and each Y stay masks; N's vertex mask is built
from the counter only when something is emitted or an inner run needs
its projection.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import combinations

from .bitsets import iter_bits, mask_of
from .hypergraph import Hypergraph, SearchStats, TransversalSink
from .rank3 import enumerate_rank3
from .rankk import enumerate_rankk

#: Phase split minimizing the worst phase on rank-4 inputs.
DEFAULT_ALPHA = 0.66938


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha, the phase split, lies in [0.5, 1]."""
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0.5, 1]")


def project(h: Hypergraph, x: Iterable[int] | int, n_sub: Iterable[int] | int) -> Hypergraph:
    """Drop edges hit by n_sub, strip x-minus-n_sub from the rest.

    x and n_sub are vertex sets or their masks (bit v for vertex v). The
    result keeps the vertex universe 1..n; the vertices of x simply end
    up isolated, which no minimal transversal ever uses. When x is a
    transversal the projected rank drops by at least one.
    """
    xm = x if isinstance(x, int) else mask_of(x)
    nm = n_sub if isinstance(n_sub, int) else mask_of(n_sub)
    if nm & ~xm:
        raise ValueError("N must be a subset of X")
    h._check_mask(xm)
    keep = ~xm  # the kept edges miss n_sub, so stripping x strips x - n_sub
    return Hypergraph._from_masks(h.n, (e & keep for e in h.edge_masks() if not e & nm))


def _first_split(h: Hypergraph, size: int) -> tuple[tuple[int, ...] | None, int]:
    """The first transversal of `size` vertices in lexicographic order (or None), and the subsets scanned."""
    scanned = 0
    for picked in combinations([1 << v for v in range(1, h.n + 1)], size):
        scanned += 1
        sm = sum(picked)  # their union, as the bits are distinct
        if h.is_transversal(sm):
            return tuple(iter_bits(sm)), scanned
    return None, scanned


def find_split(h: Hypergraph, alpha: float = DEFAULT_ALPHA) -> frozenset[int] | None:
    """First transversal of size exactly floor(alpha*n) in lexicographic order.

    alpha must lie in [0.5, 1], as for `enumerate_compression`.
    """
    _check_alpha(alpha)
    xs = _first_split(h, math.floor(alpha * h.n))[0]
    return None if xs is None else frozenset(xs)


def enumerate_compression(h: Hypergraph, sink: TransversalSink, *, alpha: float = DEFAULT_ALPHA) -> SearchStats:
    """Invoke sink once per minimal transversal of h, with its vertex mask (bit v for vertex v).

    alpha, in [0.5, 1], is the phase split; it never changes the output.
    Stats: nodes counts phase-1 subsets scanned plus inner-engine nodes;
    leaves aggregates inner leaves, or counts the scanned subsets when the
    run never leaves phase 1 (each subset check halts there); outputs
    counts emissions. Inner counters are added once per N, replayed or
    not, so they describe one inner run per subset of X.
    """
    _check_alpha(alpha)
    stats = SearchStats()
    size = math.floor(alpha * h.n)
    anchor, stats.nodes = _first_split(h, size)

    if anchor is None:
        # Minimum transversal size exceeds `size`: every minimal transversal
        # sits in the scanned range.
        bits = [1 << v for v in range(1, h.n + 1)]
        for s in range(h.n, size - 1, -1):
            for picked in combinations(bits, s):
                stats.nodes += 1
                stats.leaves += 1
                sm = sum(picked)  # their union, as the bits are distinct
                if h.is_minimal_transversal(sm):
                    sink(sm)
                    stats.outputs += 1
        return stats

    # Looked up in the module globals at run time: the benchmark trace and
    # the tests patch them there.
    inner = enumerate_rank3 if h.rank() <= 4 else enumerate_rankk

    # N is an anchor-local counter: bit j stands for anchor[j]. Its key,
    # equal for exactly the N with equal projections, comes from one table.
    full = (1 << len(anchor)) - 1
    xm = mask_of(anchor)
    keys = _key_table(h.edge_masks(), anchor)
    inc = h._incidence()
    rows = [inc[v] for v in anchor]
    # Per distinct key: the inner outputs Y as masks, each with the edges it hits.
    memo: dict[int, tuple[list[tuple[int, int]], SearchStats]] = {}

    for counter in range(full + 1):
        key = keys[full ^ counter]
        hit = memo.get(key)
        if hit is None:
            n_mask = mask_of(anchor[j] for j in iter_bits(counter))
            privs = _private_edges(rows, counter)
            ys: list[tuple[int, int]] = []

            def record(y: int, chosen: int = n_mask, privs: list[int] | None = privs, ys: list = ys) -> None:
                once_y = h._fold(y)[0]
                ys.append((y, once_y))
                if privs is not None and _keeps_minimal(privs, once_y):
                    sink(chosen | y)
                    stats.outputs += 1

            inner_stats = inner(project(h, xm, n_mask), record)
            memo[key] = ys, inner_stats
        else:
            ys, inner_stats = hit
            privs = _private_edges(rows, counter) if ys else None
            if privs is not None:
                n_mask = None
                for y, once_y in ys:
                    if _keeps_minimal(privs, once_y):
                        if n_mask is None:
                            n_mask = mask_of(anchor[j] for j in iter_bits(counter))
                        sink(n_mask | y)
                        stats.outputs += 1
        stats.nodes += inner_stats.nodes
        stats.leaves += inner_stats.leaves
        stats.max_depth = max(stats.max_depth, inner_stats.max_depth)
    return stats


def _key_table(edge_masks: Iterable[int], anchor: Sequence[int]) -> list[int]:
    """keys[S]: a bitmap over the distinct outside-X parts of the edges whose
    inside-X part lies in S, an anchor-local set (bit j for anchor[j]).

    N's projection keeps the outside parts of exactly the edges whose
    inside part avoids N, so keys[full ^ N] is equal for two N iff their
    projections are. Each edge ORs its outside part's bit into the slot of
    its exact inside part; the subset-OR (zeta) transform then gathers the
    slots of every subset in O(|X| 2^|X|) ORs (Bjorklund, Husfeldt, Kaski
    and Koivisto, "Fourier meets Mobius: fast subset convolution", STOC
    2007).
    """
    local = {v: 1 << j for j, v in enumerate(anchor)}
    xm = mask_of(anchor)
    outside_bit: dict[int, int] = {}
    keys = [0] * (1 << len(anchor))
    for e in edge_masks:
        inside = 0
        for v in iter_bits(e & xm):
            inside |= local[v]
        keys[inside] |= outside_bit.setdefault(e & ~xm, 1 << len(outside_bit))
    size = len(keys)
    step = 1
    while step < size:
        for base in range(step, size, 2 * step):
            for s in range(base, base + step):
                keys[s] |= keys[s - step]
        step *= 2
    return keys


def _private_edges(rows: list[int], counter: int) -> list[int] | None:
    """For each member of N (bit j of counter selects rows[j], an incidence
    row), the edges it hits and no other member does; None when a member
    has none, since then no N | Y is minimal."""
    once = twice = 0
    member_rows = []
    while counter:
        low = counter & -counter
        row = rows[low.bit_length() - 1]
        twice |= once & row
        once |= row
        member_rows.append(row)
        counter ^= low
    privs = [row & ~twice for row in member_rows]
    return privs if all(privs) else None


def _keeps_minimal(privs: list[int], once_y: int) -> bool:
    """The final filter: is N | Y a minimal transversal of the input?

    privs is _private_edges of N, once_y the edges Y hits. Exact when Y is
    a minimal transversal of N's projection (see the module docstring):
    then only N's members can lack a private edge. This is the "crit" test
    of Murakami and Uno (DAM 2014), restricted to N.
    """
    return all(p & ~once_y for p in privs)
