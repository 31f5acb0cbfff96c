"""Iterative-compression enumeration, rank 4 by default.

Phase 1 scans vertex subsets of size at least floor(alpha*n), from the
largest size down. If no transversal of size exactly floor(alpha*n)
exists, the scan's minimal transversals are already all of them and are
emitted. Otherwise the first such transversal X anchors phase 2: for each
N inside X (binary-counter order), the hyperedges hit by N are dropped,
the rest lose the vertices X minus N, and an inner engine enumerates the
minimal transversals Y of the projected hypergraph; N union Y is emitted
when it is a minimal transversal of the input. Since a minimal transversal
T forces N = T intersect X, nothing is emitted twice.

Projecting through a transversal X lowers the rank, so the rank-3 engine
serves as the inner engine for rank-4 inputs. alpha tunes only the phase
split, never the emitted set.

The projection for N depends only on which edges N misses, and most
subsets of X share one with another. The inner engine therefore runs once
per distinct projection; for every later N with the same projection its
recorded outputs are replayed, in the same order, through the same final
filter. This relies on the inner engine giving the same outputs for equal
hypergraphs, as every engine in the package does. The stats still
describe the unmemoized tree: a replay adds the recorded inner counters
again.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

from .bitsets import mask_of
from .hypergraph import Hypergraph, SearchStats, TransversalSink
from .rank3 import enumerate_rank3
from .rankk import enumerate_rankk

#: Phase split minimizing the worst phase on rank-4 inputs.
DEFAULT_ALPHA = 0.66938

#: An engine run on each distinct projection; it must give the same outputs,
#: in the same order, and the same stats for equal hypergraphs.
InnerEngine = Callable[[Hypergraph, TransversalSink], SearchStats]


@dataclass(frozen=True)
class CompressionConfig:
    """alpha in [0.5, 1]; inner_engine of None picks one from the input rank.

    The inner engine runs once per distinct projection, and its recorded
    outputs and stats are reused for every N that projects the same way.
    """

    alpha: float = DEFAULT_ALPHA
    inner_engine: InnerEngine | None = None

    def __post_init__(self) -> None:
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0.5, 1]")


def project(h: Hypergraph, x: frozenset[int], n_sub: frozenset[int]) -> Hypergraph:
    """Drop edges hit by n_sub, strip x-minus-n_sub from the rest.

    The result keeps the vertex universe 1..n; the vertices of x simply end
    up isolated, which no minimal transversal ever uses. When x is a
    transversal the projected rank drops by at least one.
    """
    x = frozenset(x)
    n_sub = frozenset(n_sub)
    if not n_sub <= x:
        raise ValueError("N must be a subset of X")
    for v in x:
        if not 1 <= v <= h.n:
            raise ValueError(f"vertex {v} out of range 1..{h.n}")
    stripped = x - n_sub
    edges = [e - stripped for e in h.edges if not e & n_sub]
    return Hypergraph(h.n, edges)


def find_split(h: Hypergraph, alpha: float = DEFAULT_ALPHA) -> frozenset[int] | None:
    """First transversal of size exactly floor(alpha*n) in lexicographic order."""
    size = math.floor(alpha * h.n)
    for xs in combinations(range(1, h.n + 1), size):
        if h.is_transversal(xs):
            return frozenset(xs)
    return None


def enumerate_compression(
    h: Hypergraph,
    sink: TransversalSink,
    config: CompressionConfig | None = None,
) -> SearchStats:
    """Invoke sink once per minimal transversal of h.

    Stats: nodes counts phase-1 subsets scanned plus inner-engine nodes;
    leaves aggregates inner leaves, or counts the scanned subsets when the
    run never leaves phase 1 (each subset check halts there); outputs
    counts emissions. Inner counters are added once per N, replayed or
    not, so they describe one inner run per subset of X.
    """
    cfg = config or CompressionConfig()
    stats = SearchStats()
    size = math.floor(cfg.alpha * h.n)

    x: frozenset[int] | None = None
    for xs in combinations(range(1, h.n + 1), size):
        stats.nodes += 1
        if h.is_transversal(xs):
            x = frozenset(xs)
            break

    if x is None:
        # Minimum transversal size exceeds `size`: every minimal transversal
        # sits in the scanned range.
        for s in range(h.n, size - 1, -1):
            for xs in combinations(range(1, h.n + 1), s):
                stats.nodes += 1
                stats.leaves += 1
                if h.is_minimal_transversal(xs):
                    sink(frozenset(xs))
                    stats.outputs += 1
        return stats

    inner = cfg.inner_engine
    if inner is None:
        inner = enumerate_rank3 if h.rank() <= 4 else enumerate_rankk

    # The projection for N depends only on which edges N misses: it is the
    # set of their parts outside X. Edges sharing an inside part are missed
    # together, so group them, and key N by a bitmap over the distinct
    # outside parts of the edges it misses.
    xm = mask_of(x)
    outside_bit: dict[int, int] = {}
    groups: dict[int, int] = {}
    for e in h.edge_masks():
        out = e & ~xm
        bit = outside_bit.setdefault(out, 1 << len(outside_bit))
        groups[e & xm] = groups.get(e & xm, 0) | bit
    memo: dict[int, tuple[list[frozenset[int]], SearchStats]] = {}

    def keep_minimal(t: frozenset[int]) -> None:
        if h.is_minimal_transversal(t):
            sink(t)
            stats.outputs += 1

    anchor = sorted(x)
    for counter in range(1 << len(anchor)):
        n_sub = frozenset(anchor[j] for j in range(len(anchor)) if counter >> j & 1)
        nm = mask_of(n_sub)
        key = 0
        for inside, bits in groups.items():
            if not inside & nm:
                key |= bits

        hit = memo.get(key)
        if hit is None:
            ys: list[frozenset[int]] = []

            def record(y: frozenset[int], chosen: frozenset[int] = n_sub, ys: list = ys) -> None:
                ys.append(y)
                keep_minimal(chosen | y)

            inner_stats = inner(project(h, x, n_sub), record)
            memo[key] = ys, inner_stats
        else:
            ys, inner_stats = hit
            for y in ys:
                keep_minimal(n_sub | y)
        stats.nodes += inner_stats.nodes
        stats.leaves += inner_stats.leaves
        stats.max_depth = max(stats.max_depth, inner_stats.max_depth)
    return stats
