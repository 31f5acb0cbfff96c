"""Brute-force oracle and instance generators for differential testing.

The generators take their values directly: `gen_lower_bound(k, n)` is the
paper's packed-block family, `gen_random(k, n, m, seed)` a seeded input.
"""

from __future__ import annotations

import math
from itertools import combinations

from .bitsets import edge_key, set_of
from .errors import UnsupportedInstanceError
from .hypergraph import Hypergraph

#: Subset-scan guard; 2^25 subsets is the most the oracle will ever walk.
ORACLE_MAX_N = 25


def brute_force_enumerate(h: Hypergraph) -> list[frozenset[int]]:
    """All minimal transversals by scanning every vertex subset.

    Returns the canonically sorted collection (ascending vertex lists,
    ordered lexicographically). Independent of the branching engines; this
    is the ground truth they are tested against.
    """
    if h.n > ORACLE_MAX_N:
        raise UnsupportedInstanceError(f"n={h.n} exceeds the brute-force guard ({ORACLE_MAX_N})")
    masks = h.edge_masks()
    found: list[int] = []
    for s in range(1 << h.n):
        smask = s << 1
        priv = 0
        ok = True
        for em in masks:
            x = em & smask
            if not x:
                ok = False
                break
            if not x & (x - 1):
                priv |= x
        if ok and not smask & ~priv:
            found.append(smask)
    found.sort(key=edge_key)
    return [set_of(m) for m in found]


def gen_lower_bound(k: int, n: int) -> Hypergraph:
    """Disjoint blocks of 2k-1 vertices carrying all their k-subsets as edges.

    floor(n / (2k-1)) blocks on consecutive vertex ranges, then isolated
    vertices up to exactly n. Every k-subset of a block is a minimal
    transversal, so the whole hypergraph has C(2k-1, k)^blocks of them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    span = 2 * k - 1
    edges = []
    for block in range(n // span):
        base = block * span
        edges.extend(combinations(range(base + 1, base + span + 1), k))
    return Hypergraph(n, edges)


class SplitMix64:
    """SplitMix64 stream; the fixed PRNG behind reproducible random instances.

    next_u64: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31); all arithmetic mod 2^64.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int) -> None:
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) as next_u64() % bound."""
        return self.next_u64() % bound


def gen_random(k: int, n: int, m: int, seed: int) -> Hypergraph:
    """m distinct edges, each a uniform subset of size 1..k, from a seeded stream.

    Draw procedure (fixed for reproducibility): size s = 1 + below(k); then
    vertices 1 + below(n) until s distinct are collected; an edge equal to an
    earlier one is thrown away and redrawn. Identical arguments, identical result.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError("need n >= k so that every edge size 1..k fits")
    if m < 0:
        raise ValueError("m must be at least 0")
    available = sum(math.comb(n, s) for s in range(1, k + 1))
    if m > available:
        raise ValueError(f"m={m} infeasible: only {available} distinct edges of size 1..{k} exist")
    rng = SplitMix64(seed)
    seen: set[frozenset[int]] = set()
    edges: list[frozenset[int]] = []
    while len(edges) < m:
        size = 1 + rng.below(k)
        verts: set[int] = set()
        while len(verts) < size:
            verts.add(1 + rng.below(n))
        e = frozenset(verts)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Hypergraph(n, edges)
