"""Iterative-compression enumeration, rank 4 by default.

Phase 1 scans the vertex subsets of size exactly floor(alpha*n) in
lexicographic order and stops at the first transversal X. If there is
none, every minimal transversal is larger than floor(alpha*n): the scan
then walks the sizes n down to floor(alpha*n) + 1, each in lexicographic
order, and emits the minimal transversals it meets. Otherwise X anchors
phase 2: for each N inside X (binary-counter order), the hyperedges hit
by N are dropped, the rest lose the vertices X minus N, and an inner
engine enumerates the minimal transversals Y of the projected
hypergraph; N union Y is emitted when it is a minimal transversal of the
input. Since a minimal transversal T forces N = T intersect X, nothing
is emitted twice.

Projecting through a transversal X lowers the rank, so the rank-3 engine
is the inner engine for rank-4 inputs and rankk the one above rank 4;
the package's one engine loader imports `rankk` on the first call that
needs it, so a rank-4 run never loads it. alpha tunes only the phase
split, never the emitted set.

The projection for N depends only on which edges N misses, and most
subsets of X share one with another. N is kept as a bitmask over X, and
one subset-OR table over X gives every N a key, a bitmap over one list
of outside-X edge parts that names exactly N's projected edges. Phase 2
is one loop over N: a new key's parts are the hypergraph of one inner
run, whose outputs Y are stored, each with the edges it misses; every N
passes its key's Y through the final filter in that order, so an N's
outputs stream after its inner run returns. This relies on the inner
engine giving equal outputs for equal hypergraphs, as all engines here do.

The inner engine runs without X's vertices: the parts list, whose parts
miss X, is relabelled once onto the vertices outside X in their order
(`bitsets.relabeling`), and the outputs are mapped back. Kept, X's
vertices would be isolated, and both inner engines discard isolated
vertices first, one node each (rank3's R1_0, rankk's R1). After those
discards both runs stand at the same state up to the relabelling, which
keeps the vertices' order and so every tie-break. So, when the
projection has an edge and no empty edge, the run with X kept has |X|
more nodes, each on the path to every other node, and the same leaves;
otherwise both runs are one leaf. The stats add back those |X| nodes
and levels and still describe the unmemoized tree, with X kept: each
key's inner counters count once per N with that key.

The final filter checks only N's members. Since each Y is a minimal
transversal of N's projection (the inner engine must emit nothing else),
N union Y hits every edge, and each y in Y keeps a private edge: its
projected edge misses N and the rest of Y. So the set is minimal iff
every member of N has an edge that no other member of N and no member
of Y hits: the kernel's crit test (`hypergraph._private_edges`) gives each
member's private edges, and Y must miss one of each. A member with a
private edge that no Y of N's key hits keeps it against every Y, so the
crit test takes those edges as the ones outside reach, as the kernel
does with the edges its working vertices cannot hit, and leaves such
members out. N's fold is the input's own (`Hypergraph._fold`), as each
Y's is. X, N and each Y stay masks.
N steps through X's submasks in increasing order: the binary-counter
order, bit j standing for X's j-th vertex.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import combinations
from operator import and_

from . import _loader
from .bitsets import iter_bits, mask_of, relabeling, set_of
from .errors import UnsupportedInstanceError
from .hypergraph import Hypergraph, SearchStats, TransversalSink, _private_edges
from .rank3 import enumerate_rank3

#: rankk's engine, its module loaded on the first call: only inputs above rank 4 need it.
enumerate_rankk = _loader("enumerate_rankk")

#: Phase split minimizing the worst phase on rank-4 inputs.
DEFAULT_ALPHA = 0.66938

#: The widest anchor X phase 2 takes. It steps through all 2^|X| subsets of
#: X, a few microseconds each in CPython, and its key table holds a slot
#: per subset: at 26 that is 67 million steps, minutes of work, and 512 MiB
#: of slots alone; each further vertex doubles both.
_MAX_ANCHOR = 26


def _check_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha, the phase split, lies in [0.5, 1]."""
    if not 0.5 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0.5, 1]")


def project(h: Hypergraph, x: Iterable[int] | int, n_sub: Iterable[int] | int) -> Hypergraph:
    """Drop edges hit by n_sub, strip x-minus-n_sub from the rest.

    x and n_sub are vertex sets or their masks (bit v for vertex v). The
    result keeps the vertex universe 1..n, x's vertices isolated, which no
    minimal transversal uses; through a transversal x the rank drops by at
    least one. Phase 2 does not call this: its key table names the edges.
    """
    xm = x if isinstance(x, int) else mask_of(x)
    nm = n_sub if isinstance(n_sub, int) else mask_of(n_sub)
    if nm & ~xm:
        raise ValueError("N must be a subset of X")
    h._check_mask(xm)
    keep = ~xm  # the kept edges miss n_sub, so stripping x strips x - n_sub
    return Hypergraph._from_masks(h.n, (e & keep for e in h._masks if not e & nm))


def _subsets(n: int, size: int) -> Iterator[int]:
    """The masks of the `size`-vertex subsets of 1..n, in lexicographic order."""
    return map(sum, combinations([1 << v for v in range(1, n + 1)], size))  # distinct bits: the sum is the union


def _first_split(h: Hypergraph, size: int) -> tuple[int | None, int]:
    """The mask of the first transversal of `size` vertices in lexicographic order (or None), and the subsets scanned."""
    scanned = 0
    for sm in _subsets(h.n, size):
        scanned += 1
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
    or not, so they describe one inner run per subset of X, on the
    projection with X's vertices kept. An anchor X of more than
    _MAX_ANCHOR vertices raises UnsupportedInstanceError before phase 2.
    """
    _check_alpha(alpha)
    stats = SearchStats()
    size = math.floor(alpha * h.n)
    xm, stats.nodes = _first_split(h, size)

    if xm is None:
        # Minimum transversal size exceeds `size`: every minimal transversal
        # sits in the sizes above it. Each subset counts as a node and a leaf,
        # those of `size` too, which phase 1 has just rejected.
        stats.leaves = sum(math.comb(h.n, s) for s in range(size, h.n + 1))
        stats.nodes += stats.leaves
        for s in range(h.n, size, -1):
            for sm in _subsets(h.n, s):
                if h.is_minimal_transversal(sm):
                    sink(sm)
                    stats.outputs += 1
        return stats

    width = xm.bit_count()
    if width > _MAX_ANCHOR:
        raise UnsupportedInstanceError(
            f"anchor of {width} vertices exceeds compression's guard ({_MAX_ANCHOR}): "
            f"phase 2 would solve 2^{width} subproblems"
        )
    # Looked up in the module globals at run time: the benchmark trace and the tests patch them there.
    inner = enumerate_rank3 if h.rank() <= 4 else enumerate_rankk

    # One key per N, equal for exactly the N with equal projections. The i-th N,
    # i its bits over X, has key keys[full ^ i] = keys[full - i], so the loop reads keys backwards.
    try:
        keys, parts = _key_table(h._masks, xm)
    except MemoryError:
        raise UnsupportedInstanceError(f"no memory for compression's 2^{width} subsets of its anchor") from None
    # The inner runs see the vertices outside X only, relabelled in order to 1..n - |X|.
    squeeze, spread = relabeling(((2 << h.n) - 1) & ~xm)
    parts = list(map(squeeze, parts))
    # Per distinct key: the inner outputs Y as masks, each with the edges it
    # misses, the edges that every Y misses, and the inner run's nodes (X kept) and leaves.
    memo: dict[int, tuple[list[tuple[int, int]], int, int, int]] = {}

    n_mask = outputs = 0
    for key in reversed(keys):
        hit = memo.get(key)
        if hit is None:
            edges = [parts[i] for i in iter_bits(key)]
            found: list[int] = []
            run = inner(Hypergraph._from_masks(h.n - width, edges), found.append)
            # Kept, X's vertices would be isolated, and both inner engines discard
            # those first, one node each, unless the root is already a leaf.
            lift = width if edges and 0 not in edges else 0
            stats.max_depth = max(stats.max_depth, run.max_depth + lift)
            ys = [(y, ~h._fold(y)[0]) for y in map(spread, found)]
            hit = memo[key] = ys, reduce(and_, (miss_y for _, miss_y in ys), -1), run.nodes + lift, run.leaves
        ys, never, run_nodes, run_leaves = hit
        stats.nodes += run_nodes  # each N counts its key's inner run once
        stats.leaves += run_leaves
        if ys:
            # The final filter: N | Y is minimal iff each member of N keeps a private edge
            # that Y misses; the crit test leaves out the members with one that no Y hits.
            privs = _private_edges(never, h._fold(n_mask))
            if privs is not None:
                for y, miss_y in ys:
                    if all(map(miss_y.__and__, privs)):
                        sink(n_mask | y)
                        outputs += 1
        n_mask = (n_mask - xm) & xm  # the next submask of X
    stats.outputs = outputs
    return stats


def _key_table(edge_masks: Iterable[int], xm: int) -> tuple[list[int], list[int]]:
    """(keys, parts): parts lists the edges' distinct outside-X parts, and
    keys[S] sets bit i iff an edge with outside part parts[i] has its
    inside-X part in S, a set over X (bit j for X's j-th lowest vertex).

    N's projection keeps the outside parts of exactly the edges whose
    inside part avoids N, so keys[full ^ N] (full: all of X) names N's
    projected edges. Each edge ORs its outside part's bit into the slot
    of its exact inside part; the subset-OR (zeta) transform then gathers
    the slots of every subset in O(|X| 2^|X|) ORs (Bjorklund, Husfeldt,
    Kaski and Koivisto, "Fourier meets Mobius: fast subset convolution",
    STOC 2007).
    """
    inside = relabeling(xm)[0]  # bit j for X's j-th lowest vertex
    outside_bit: dict[int, int] = {}
    keys = [0] * (1 << xm.bit_count())
    for e in edge_masks:
        keys[inside(e & xm)] |= outside_bit.setdefault(e & ~xm, 1 << len(outside_bit))
    size = len(keys)
    step = 1
    while step < size:
        for base in range(step, size, 2 * step):
            for s in range(base, base + step):
                keys[s] |= keys[s - step]
        step *= 2
    return keys, list(outside_bit)
