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
equal projections. Phase 2 is one loop over N: a new key runs the inner
engine once and stores its outputs Y, each with the edges it hits, and
every N passes its key's Y through the final filter in that order, so an
N's outputs stream after its inner run returns. This relies on the inner
engine giving the same outputs for equal hypergraphs, as every engine in
the package does. The stats still describe the unmemoized tree: every N
adds its key's inner counters.

The final filter checks only N's members. Since each Y is a minimal
transversal of N's projection (the inner engine must emit nothing else),
N union Y hits every edge, and each y in Y keeps a private edge: its
projected edge misses N and the rest of Y. So the set is minimal iff
every member of N has an edge that no other member of N and no member
of Y hits: the kernel's crit test (`hypergraph._crit_key`) with no edge
outside gives each member's private edges, and Y must miss one of each.
X, N and each Y stay masks. N steps through X's submasks in increasing
order: the binary-counter order, bit j standing for X's j-th vertex.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import combinations

from .bitsets import iter_bits, mask_of, set_of
from .hypergraph import Hypergraph, SearchStats, TransversalSink, _crit_key
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


def _first_split(h: Hypergraph, size: int) -> tuple[int | None, int]:
    """The mask of the first transversal of `size` vertices in lexicographic order (or None), and the subsets scanned."""
    scanned = 0
    for picked in combinations([1 << v for v in range(1, h.n + 1)], size):
        scanned += 1
        sm = sum(picked)  # their union, as the bits are distinct
        if h.is_transversal(sm):
            return sm, scanned
    return None, scanned


def find_split(h: Hypergraph, alpha: float = DEFAULT_ALPHA) -> frozenset[int] | None:
    """First transversal of size exactly floor(alpha*n) in lexicographic order.

    alpha must lie in [0.5, 1], as for `enumerate_compression`.
    """
    _check_alpha(alpha)
    xm = _first_split(h, math.floor(alpha * h.n))[0]
    return None if xm is None else set_of(xm)


def enumerate_compression(h: Hypergraph, sink: TransversalSink, *, alpha: float = DEFAULT_ALPHA) -> SearchStats:
    """Invoke sink once per minimal transversal of h, with its vertex mask (bit v for vertex v).

    alpha, in [0.5, 1], is the phase split; it never changes the output.
    Stats: nodes counts phase-1 subsets scanned plus inner-engine nodes;
    leaves aggregates inner leaves, or counts the scanned subsets when the
    run never leaves phase 1 (each subset check halts there); outputs
    counts emissions. Inner counters are added once per N, its key new
    or not, so they describe one inner run per subset of X.
    """
    _check_alpha(alpha)
    stats = SearchStats()
    size = math.floor(alpha * h.n)
    xm, stats.nodes = _first_split(h, size)

    if xm is None:
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

    # One key per N, equal for exactly the N with equal projections. The c-th
    # N has key keys[full ^ c] = keys[full - c], so the loop reads keys backwards.
    keys = _key_table(h.edge_masks(), xm)
    # Per distinct key: the inner outputs Y as masks, each with the edges it hits.
    memo: dict[int, tuple[list[tuple[int, int]], SearchStats]] = {}

    n_mask = 0
    for key in reversed(keys):
        hit = memo.get(key)
        if hit is None:
            found: list[int] = []
            inner_stats = inner(project(h, xm, n_mask), found.append)
            hit = memo[key] = [(y, h._fold(y)[0]) for y in found], inner_stats
        ys, inner_stats = hit
        # The final filter: N | Y is minimal iff each member of N keeps a private edge that Y misses.
        privs = _crit_key(0, h._fold(n_mask)) if ys else None
        if privs is not None:
            for y, once_y in ys:
                if all(p & ~once_y for p in privs):
                    sink(n_mask | y)
                    stats.outputs += 1
        stats.nodes += inner_stats.nodes
        stats.leaves += inner_stats.leaves
        stats.max_depth = max(stats.max_depth, inner_stats.max_depth)
        n_mask = (n_mask - xm) & xm  # the next submask of X
    return stats


def _key_table(edge_masks: Iterable[int], xm: int) -> list[int]:
    """keys[S]: a bitmap over the distinct outside-X parts of the edges whose
    inside-X part lies in S, a set over X (bit j for X's j-th lowest vertex).

    N's projection keeps the outside parts of exactly the edges whose
    inside part avoids N, so keys[full ^ N] (full: all of X) is equal for
    two N iff their projections are. Each edge ORs its outside part's bit
    into the slot of its exact inside part; the subset-OR (zeta) transform
    then gathers the slots of every subset in O(|X| 2^|X|) ORs (Bjorklund,
    Husfeldt, Kaski and Koivisto, "Fourier meets Mobius: fast subset
    convolution", STOC 2007).
    """
    local = {v: 1 << j for j, v in enumerate(iter_bits(xm))}
    outside_bit: dict[int, int] = {}
    keys = [0] * (1 << len(local))
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
