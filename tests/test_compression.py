import contextlib
import hashlib
import math
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import (
    Hypergraph,
    UnsupportedInstanceError,
    compression,
    enumerate_compression,
    find_split,
    project,
)
from transversals.bitsets import mask_of, set_of
from transversals.compression import DEFAULT_ALPHA, _first_split, _key_table
from transversals.hypergraph import _crit_key

from helpers import instance_deck, oracle, packed_blocks, rankk_inner, run


def rank4_deck(count, nmax=10):
    out = []
    seed = 0
    while len(out) < count:
        n = 7 + seed % (nmax - 6)
        m = 6 + (seed * 3) % 11
        h = tv.gen_random(k=4, n=n, m=m, seed=1000 + seed)
        seed += 1
        if h.rank() == 4:
            out.append(h)
    return out


class TestProject:
    H = Hypergraph(6, [{1, 2, 3, 4}, {3, 4, 5, 6}])

    def test_no_edge_hit(self):
        got = project(self.H, frozenset({3, 4}), frozenset())
        assert got.edges == (frozenset({1, 2}), frozenset({5, 6}))
        assert set().union(*got.edges) <= {1, 2, 5, 6}

    def test_hit_edges_drop(self):
        got = project(self.H, frozenset({3, 4}), frozenset({3}))
        assert got.edges == ()

    def test_symmetric_member(self):
        got = project(self.H, frozenset({3, 4}), frozenset({4}))
        assert got.edges == ()

    def test_requires_subset(self):
        with pytest.raises(ValueError):
            project(self.H, frozenset({3}), frozenset({4}))

    def test_rank_drops_through_transversal(self):
        for h in rank4_deck(20):
            x = find_split(h)
            if x is None:
                continue
            anchor = sorted(x)
            for counter in range(1 << len(anchor)):
                n_sub = frozenset(anchor[j] for j in range(len(anchor)) if counter >> j & 1)
                assert project(h, x, n_sub).rank() <= 3


class TestFindSplit:
    def test_first_lexicographic_transversal(self):
        h = Hypergraph(5, [{1, 2, 3}, {3, 4, 5}])
        assert find_split(h, 0.6) == {1, 2, 3}

    def test_none_when_minimum_exceeds_budget(self):
        k4 = Hypergraph(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        assert find_split(k4, 0.5) is None  # no 2-subset covers all six pairs

    def test_alpha_validated(self):
        # Without the check, alpha=2.0 asks for a 28-subset of 14 vertices and finds none.
        h = tv.gen_lower_bound(4, 14)
        for alpha in (0.4, 2.0):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0\.5, 1\]$"):
                find_split(h, alpha)


def reference_split(h, size):
    """The phase-1 scan over vertex tuples: the first transversal and its 1-based position."""
    for i, xs in enumerate(combinations(range(1, h.n + 1), size), 1):
        if all(set(xs) & e for e in h.edges):
            return xs, i
    return None, math.comb(h.n, size)


class TestPhaseOneScan:
    CASES = rank4_deck(20) + instance_deck(40) + [
        Hypergraph(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]),
        Hypergraph(5, [{1, 2}, set()]),
    ]

    @pytest.mark.parametrize("alpha", [0.5, DEFAULT_ALPHA, 1.0])
    def test_scan_matches_tuple_scan(self, alpha, monkeypatch):
        calls = 0
        check = Hypergraph.is_transversal

        def counted(h, s):
            nonlocal calls
            calls += 1
            return check(h, s)

        monkeypatch.setattr(Hypergraph, "is_transversal", counted)
        for h in self.CASES:
            size = math.floor(alpha * h.n)
            calls = 0
            xm, scanned = _first_split(h, size)
            xs, position = reference_split(h, size)
            assert (xm, scanned) == (None if xs is None else mask_of(xs), position)
            assert calls == scanned  # one traced transversal test per subset
            assert find_split(h, alpha) == (None if xs is None else frozenset(xs))

    def test_no_anchor_counters(self):
        for h in self.CASES:
            size = math.floor(0.5 * h.n)
            if reference_split(h, size)[0] is not None:
                continue
            stats = enumerate_compression(h, lambda t: None, alpha=0.5)
            checked = sum(math.comb(h.n, s) for s in range(size, h.n + 1))
            assert (stats.nodes, stats.leaves, stats.max_depth) == (math.comb(h.n, size) + checked, checked, 0)
            assert stats.outputs == len(oracle(h))


class TestEnumerate:
    def test_inner_engine_override(self):
        h = Hypergraph(5, [{1, 2, 3}, {3, 4, 5}])
        with rankk_inner():
            got = run(enumerate_compression, h, alpha=0.6)
        assert got == [(1, 4), (1, 5), (2, 4), (2, 5), (3,)]

    def test_empty_edge_no_output(self):
        h = Hypergraph(4, [set(), {1, 2, 3, 4}])
        assert run(enumerate_compression, h) == []

    def test_rank4_pair(self):
        h = Hypergraph(7, [{1, 2, 3, 4}, {1, 5, 6, 7}])
        got = run(enumerate_compression, h)
        assert len(got) == 10
        assert got == oracle(h)
        assert (1,) in got

    def test_phase1_only_path(self):
        # K4 has minimum transversal size 3 > floor(0.5 * 4)
        k4 = Hypergraph(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        got = run(enumerate_compression, k4, alpha=0.5)
        assert got == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_edgeless(self):
        assert run(enumerate_compression, Hypergraph(3, [])) == [()]

    def test_matches_oracle_and_general_engine(self):
        for h in rank4_deck(60):
            want = oracle(h)
            assert run(enumerate_compression, h) == want
            assert run(tv.enumerate_rankk, h) == want

    def test_no_duplicates(self):
        for h in rank4_deck(25):
            out = []
            enumerate_compression(h, lambda m: out.append(set_of(m)))
            as_tuples = [tuple(sorted(t)) for t in out]
            assert len(as_tuples) == len(set(as_tuples))

    def test_alpha_does_not_change_output(self):
        for h in rank4_deck(20):
            runs = {
                alpha: run(enumerate_compression, h, alpha=alpha)
                for alpha in (0.5, 0.66938, 0.8)
            }
            assert runs[0.5] == runs[0.66938] == runs[0.8]

    def test_rank5_with_general_inner(self):
        for h in instance_deck(15, kmin=5, kmax=5, nmax=10):
            assert run(enumerate_compression, h) == oracle(h)

    def test_rank5_default_inner_picks_general_engine(self):
        h = next(h for h in instance_deck(30, kmin=5, kmax=5, nmax=9) if h.rank() == 5)
        assert run(enumerate_compression, h) == oracle(h)

    def test_zero_vertex_universe(self):
        assert run(enumerate_compression, Hypergraph(0, [])) == [()]
        assert run(enumerate_compression, Hypergraph(0, [set()])) == []

    def test_emission_order_golden(self):
        h = Hypergraph(7, [{1, 2, 3, 4}, {1, 5, 6, 7}])
        out = []
        enumerate_compression(h, lambda m: out.append(set_of(m)))
        assert [tuple(sorted(t)) for t in out] == [
            (1,), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7),
        ]

    def test_alpha_validated(self):
        h = Hypergraph(4, [{1, 2, 3, 4}])
        for alpha in (0.4, 1.2):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0\.5, 1\]$"):
                enumerate_compression(h, lambda t: None, alpha=alpha)

    def test_stats_invariants_both_phases(self):
        k4 = Hypergraph(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])
        cases = [(k4, 0.5)] + [(h, DEFAULT_ALPHA) for h in rank4_deck(10)]
        for h, alpha in cases:
            stats = enumerate_compression(h, lambda t: None, alpha=alpha)
            assert stats.leaves <= stats.nodes
            assert stats.outputs <= stats.leaves


class TestProjectionCorrespondence:
    def test_minimal_transversals_survive_projection(self):
        # for T minimal with T & X == N, T - N is minimal in the projection
        for h in rank4_deck(25, nmax=10):
            x = find_split(h)
            if x is None:
                continue
            full = [frozenset(t) for t in oracle(h)]
            anchor = sorted(x)
            for counter in range(1 << len(anchor)):
                n_sub = frozenset(anchor[j] for j in range(len(anchor)) if counter >> j & 1)
                projected_minimals = {frozenset(t) for t in oracle(project(h, x, n_sub))}
                for t in full:
                    if t & x == n_sub:
                        assert t - n_sub in projected_minimals


def subsets_of(x):
    anchor = sorted(x)
    for counter in range(1 << len(anchor)):
        yield frozenset(anchor[j] for j in range(len(anchor)) if counter >> j & 1)


def unmemoized(h, sink, alpha=DEFAULT_ALPHA):
    """Reference: one inner run per N inside X, with nothing shared between
    subsets that project the same way. The inner engine is read from the
    compression module, so a test that patches it there patches both."""
    x = find_split(h, alpha)
    if x is None:  # phase 1 alone has no projections to share
        return enumerate_compression(h, sink, alpha=alpha)
    size = math.floor(alpha * h.n)
    scanned = 1 + next(
        i for i, xs in enumerate(combinations(range(1, h.n + 1), size)) if frozenset(xs) == x
    )
    stats = tv.SearchStats(nodes=scanned)
    inner = compression.enumerate_rank3 if h.rank() <= 4 else compression.enumerate_rankk
    for n_sub in subsets_of(x):
        def emit(y, chosen=mask_of(n_sub)):
            t = chosen | y
            if h.is_minimal_transversal(t):
                sink(t)
                stats.outputs += 1

        inner_stats = inner(project(h, x, n_sub), emit)
        stats.nodes += inner_stats.nodes
        stats.leaves += inner_stats.leaves
        stats.max_depth = max(stats.max_depth, inner_stats.max_depth)
    return stats


def trace(engine, h, alpha=DEFAULT_ALPHA):
    out = []
    stats = engine(h, out.append, alpha=alpha)
    return out, (stats.nodes, stats.leaves, stats.max_depth, stats.outputs)


def distinct_projections(h, alpha=DEFAULT_ALPHA):
    x = find_split(h, alpha)
    return len({project(h, x, n_sub).edges for n_sub in subsets_of(x)})


RANK5 = next(h for h in instance_deck(30, kmin=5, kmax=5, nmax=9) if h.rank() == 5)


@pytest.fixture
def inner(request):
    """The test's inner engine: "rank3" (the package's choice) or "rankk"."""
    with rankk_inner() if request.param == "rankk" else contextlib.nullcontext():
        yield


class TestProjectionMemo:
    @pytest.mark.parametrize(
        "deck,alpha,inner",
        [
            (rank4_deck(60), DEFAULT_ALPHA, "rank3"),
            (rank4_deck(20), 0.5, "rank3"),
            (rank4_deck(20), 0.8, "rank3"),
            (rank4_deck(20), DEFAULT_ALPHA, "rankk"),
            ([RANK5], DEFAULT_ALPHA, "rank3"),
            ([tv.gen_lower_bound(4, 13), tv.gen_lower_bound(4, 17)], DEFAULT_ALPHA, "rank3"),
        ],
        ids=["rank4", "alpha-0.5", "alpha-0.8", "rankk-inner", "rank5", "lb4"],
        indirect=["inner"],
    )
    def test_same_order_and_tree_as_unmemoized(self, deck, alpha, inner):
        for h in deck:
            assert trace(enumerate_compression, h, alpha) == trace(unmemoized, h, alpha)

    @pytest.mark.parametrize(
        "h", [tv.gen_lower_bound(4, 17), packed_blocks(4, 4, 2)], ids=["lb4-n17", "blocks-4-4-2"]
    )
    def test_inner_runs_once_per_distinct_projection(self, h, monkeypatch):
        calls = []

        def counted(hh, sink, **kwargs):
            calls.append(hh)
            return tv.enumerate_rank3(hh, sink, **kwargs)

        monkeypatch.setattr(compression, "enumerate_rank3", counted)
        enumerate_compression(h, lambda t: None)
        assert len(calls) == len(set(calls)) == distinct_projections(h) < 1 << len(find_split(h))

    def test_failed_inner_run_caches_nothing(self, monkeypatch):
        # the third inner run of the first engine call fails after emitting;
        # a second call must search every projection again
        h = packed_blocks(4, 4, 2)
        calls = []

        def flaky(hh, sink, **kwargs):
            calls.append(hh)
            stats = tv.enumerate_rank3(hh, sink, **kwargs)
            if len(calls) == 3 and not failed:
                failed.append(hh)
                raise UnsupportedInstanceError("inner engine gave up")
            return stats

        failed = []
        monkeypatch.setattr(compression, "enumerate_rank3", flaky)
        with pytest.raises(UnsupportedInstanceError):
            enumerate_compression(h, lambda t: None)
        calls.clear()
        second = trace(enumerate_compression, h)
        assert len(calls) == distinct_projections(h)
        assert second == trace(unmemoized, h)  # the reference calls flaky too, which no longer fails


PHASE2_DECKS = pytest.mark.parametrize(
    "deck,alpha,inner",
    [
        (rank4_deck(40), DEFAULT_ALPHA, "rank3"),
        (rank4_deck(20), 0.5, "rank3"),
        (rank4_deck(20), 0.8, "rank3"),
        (rank4_deck(20), DEFAULT_ALPHA, "rankk"),
        ([RANK5], DEFAULT_ALPHA, "rank3"),
    ],
    ids=["rank4", "alpha-0.5", "alpha-0.8", "rankk-inner", "rank5"],
    indirect=["inner"],
)


def anchored(deck, alpha):
    """(h, x, anchor-local counters with their N) for every deck input that
    reaches phase 2."""
    for h in deck:
        x = find_split(h, alpha)
        if x is not None:
            yield h, x, list(enumerate(subsets_of(x)))


class TestPhase2Masks:
    @PHASE2_DECKS
    def test_keys_partition_subsets_like_projections(self, deck, alpha, inner):
        for h, x, subsets in anchored(deck, alpha):
            full = (1 << len(x)) - 1
            keys = _key_table(h.edge_masks(), mask_of(x))
            by_key, by_projection = defaultdict(set), defaultdict(set)
            for counter, n_sub in subsets:
                by_key[keys[full ^ counter]].add(counter)
                by_projection[project(h, x, n_sub).edges].add(counter)
            assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_projection.values()))

    @PHASE2_DECKS
    def test_member_filter_agrees_with_full_check(self, deck, alpha, inner):
        verdicts = set()  # the filter both accepts and rejects on every deck
        for h, x, subsets in anchored(deck, alpha):
            engine = compression.enumerate_rank3 if h.rank() <= 4 else compression.enumerate_rankk
            for _, n_sub in subsets:
                n = mask_of(n_sub)
                privs = _crit_key(0, h._fold(n))
                ys = []
                engine(project(h, x, n_sub), ys.append)
                for y in ys:
                    once_y = h._fold(y)[0]
                    got = privs is not None and all(p & ~once_y for p in privs)
                    assert got == h.is_minimal_transversal(n | y), (h, n_sub, set_of(y))
                    verdicts.add(got)
        assert verdicts == {True, False}

    def test_crit_key_with_nothing_outside(self):
        # A fold is (edges hit once or more, twice or more, the members' rows).
        assert _crit_key(0, (0, 0, ())) == ()
        assert _crit_key(0, (0b111, 0b010, (0b110, 0b011))) == (0b001, 0b100)  # ascending
        assert _crit_key(0, (0b111, 0b110, (0b011, 0b110, 0b100))) is None  # row 0b100's one edge is 0b110's too


@st.composite
def small_hypergraphs(draw):
    """n <= 10, rank <= 4; empty edges and isolated vertices included."""
    n = draw(st.integers(0, 10))
    edge = st.frozensets(st.integers(1, max(n, 1)), max_size=min(n, 4))
    return Hypergraph(n, draw(st.lists(edge, max_size=12)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(h=small_hypergraphs(), alpha=st.sampled_from([0.5, DEFAULT_ALPHA, 1.0]))
def test_matches_oracle_each_set_once(h, alpha):
    out = []
    stats = enumerate_compression(h, lambda m: out.append(set_of(m)), alpha=alpha)
    got = [tuple(sorted(t)) for t in out]
    assert len(got) == len(set(got)) == stats.outputs
    assert sorted(got) == oracle(h)


@st.composite
def anchored_hypergraphs(draw):
    """n <= 9, rank <= 6: isolated vertices, empty edges, edges inside the
    anchor (empty once projected) and subsets N that hit every edge."""
    n = draw(st.integers(0, 9))
    edge = st.frozensets(st.integers(1, max(n, 1)), max_size=min(n, 6))
    return Hypergraph(n, draw(st.lists(edge, max_size=10)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    h=anchored_hypergraphs(),
    alpha=st.sampled_from([0.5, DEFAULT_ALPHA, 1.0]),
    inner=st.sampled_from(["rank3", "rankk"]),
)
def test_same_order_and_tree_as_runs_with_the_anchor_kept(h, alpha, inner):
    # the inner runs drop X's vertices; the reference projects with them kept,
    # so each nonempty, empty-edge-free projection's nodes and depth differ by |X|
    with rankk_inner() if inner == "rankk" else contextlib.nullcontext():
        assert trace(enumerate_compression, h, alpha) == trace(unmemoized, h, alpha)


@pytest.mark.parametrize("room", [-1, 0])
def test_anchor_guard_boundary(room, monkeypatch):
    h = tv.gen_lower_bound(4, 14)
    width = len(find_split(h))
    monkeypatch.setattr(compression, "_MAX_ANCHOR", width + room)
    if room < 0:
        with pytest.raises(UnsupportedInstanceError, match=rf"^anchor of {width} vertices exceeds"):
            enumerate_compression(h, lambda t: None)
    else:
        assert enumerate_compression(h, lambda t: None).outputs == 1225


@pytest.mark.parametrize(
    "h,shape,digest",
    [
        (
            tv.gen_lower_bound(4, 17),
            (18305, 3328, 18, 1225),
            "68b8db8fee70ebbaf60df9a33da7571c73a0e2c25944186046cc6726cc7bd0c2",
        ),
        (
            packed_blocks(4, 4, 2),
            (24891, 4658, 18, 3675),
            "b9b0936d611ab7de7a07e4dc427cfc8e37a9daccd73901957ca4cee7a37ace19",
        ),
        (
            tv.gen_random(k=4, n=20, m=30, seed=3),
            (9006, 8216, 21, 16),
            "de973a4618814b1526a5823343e551b61b1980430b55af99e7f076c0540467f0",
        ),
        (
            # |X| = 16: 65,536 subsets, 9,992 distinct projections
            tv.gen_random(k=4, n=24, m=60, seed=5),
            (78639, 65558, 24, 12),
            "b0cc4e2e2d163249c1c70ba26979c9ddf0bcab71941db69cc5baef480dbe8601",
        ),
    ],
    ids=["lb4-n17", "blocks-4-4-2", "random-k4-n20-m30-s3", "random-k4-n24-m60-s5"],
)
def test_tree_shape_pinned(h, shape, digest):
    lines = []
    stats = enumerate_compression(h, lambda m: lines.append(" ".join(map(str, sorted(set_of(m)))) + "\n"))
    assert (stats.nodes, stats.leaves, stats.max_depth, stats.outputs) == shape
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest
