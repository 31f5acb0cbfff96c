"""Shared test utilities: canonical forms, engine runners, instance decks."""

import contextlib
import math
from itertools import combinations

import pytest

import transversals as tv
from transversals import compression, hypergraph


@pytest.fixture
def no_memo(monkeypatch):
    """Give the search kernel's memo no room, so every node is expanded by
    the engine's branch step, as in a kernel without the memo."""
    monkeypatch.setattr(hypergraph, "_MEMO_MASKS", 0)


@contextlib.contextmanager
def rankk_inner():
    """Compression runs rankk wherever it would run rank3 as its inner
    engine, patched through the module global that the benchmark's trace
    also wraps. rankk takes `masks=True` and emits only minimal
    transversals of each projection, as the final filter requires."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(compression, "enumerate_rank3", tv.enumerate_rankk)
        yield


def canon(transversals):
    """Canonical collection form: ascending tuples, sorted lexicographically."""
    return sorted(tuple(sorted(t)) for t in transversals)


def run(engine, h, **kwargs):
    out = []
    engine(h, out.append, **kwargs)
    return canon(out)


def emitted(engine, h, **kwargs):
    """Emission order as produced, not canonicalized."""
    out = []
    engine(h, out.append, **kwargs)
    return [tuple(sorted(t)) for t in out]


def oracle(h):
    return canon(tv.brute_force_enumerate(h))


def minimal_by_definition(h, s):
    """Subset-definition oracle: s is a transversal and no proper subset is."""
    s = frozenset(s)
    if not h.is_transversal(s):
        return False
    return all(not h.is_transversal(s - {v}) for v in s)


def random_instance(seed, kmin=2, kmax=6, nmin=6, nmax=12, mmax=24):
    k = kmin + seed % (kmax - kmin + 1)
    n = nmin + (seed // (kmax - kmin + 1)) % (nmax - nmin + 1)
    n = max(n, k)
    available = sum(math.comb(n, s) for s in range(1, k + 1))
    m = min(4 + (seed * 7) % (mmax - 3), available)
    return tv.gen_random(tv.GeneratorSpec("random", k=k, n=n, m=m, seed=seed))


def instance_deck(count, **kwargs):
    return [random_instance(seed, **kwargs) for seed in range(count)]


def packed_blocks(*ks):
    """Unpermuted packed blocks: block i has 2*ks[i]-1 consecutive vertices
    and all their ks[i]-subsets as edges."""
    edges, base = [], 0
    for k in ks:
        edges.extend(combinations(range(base + 1, base + 2 * k), k))
        base += 2 * k - 1
    return tv.Hypergraph(base, edges)
