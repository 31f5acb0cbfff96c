"""The search kernel's memo: expanding each distinct working state once
gives the same emitted sequence and the same stats at any memo budget."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import Hypergraph, Instance, hypergraph, rank3
from transversals.bitsets import mask_of
from transversals.hypergraph import search
from transversals.rank3 import apply_rule, next_rule
from transversals.rankk import _branch_step, _subsumed

from helpers import instance_deck, rankk_inner

DEFAULT = hypergraph._MEMO_MASKS
BUDGETS = [DEFAULT, 8, 0]


def compression_rankk_inner(h, sink):
    with rankk_inner():
        return tv.enumerate_compression(h, sink)


def engines(h):
    """Every engine configuration that accepts h, by name."""
    out = {"rankk": tv.enumerate_rankk, "compression/rankk": compression_rankk_inner}
    if h.rank() <= 4:
        out["compression/rank3"] = tv.enumerate_compression
    if h.rank() <= 3:
        out["rank3"] = tv.enumerate_rank3
        out["rank3/check_measure"] = lambda h, sink: tv.enumerate_rank3(h, sink, check_measure=True)
    return out


def assert_same_at_every_budget(h, monkeypatch):
    """Each engine emits the same sequence with the same stats under every budget of BUDGETS."""
    for name, engine in engines(h).items():
        results = []
        for budget in BUDGETS:
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            out = []
            stats = engine(h, out.append)
            results.append((out, stats))
        assert results[1:] == results[:1] * (len(BUDGETS) - 1), name


def deck():
    cases = []
    for k in range(1, 7):
        rank_k = instance_deck(5, kmin=k, kmax=k, nmax=10)
        cases += rank_k
        cases.append(Hypergraph(rank_k[0].n + 2, rank_k[0].edges))  # two isolated vertices
        cases.append(Hypergraph(rank_k[1].n, list(rank_k[1].edges) + [set()]))
    return cases


@pytest.mark.parametrize("h", deck())
def test_same_sequence_and_stats_at_every_budget(h, monkeypatch):
    assert_same_at_every_budget(h, monkeypatch)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(0, 9))
    edge = st.frozensets(st.integers(1, n), max_size=6) if n else st.just(frozenset())
    return Hypergraph(n, draw(st.lists(edge, max_size=14)))


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_same_sequence_and_stats_at_every_budget_generated(h):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_at_every_budget(h, monkeypatch)


def test_deck_covers_ranks_empty_edges_and_isolated_vertices():
    cases = deck()
    assert {h.rank() for h in cases} == set(range(1, 7))
    assert any(frozenset() in h.edges for h in cases)
    assert any(set().union(*h.edges) != set(range(1, h.n + 1)) for h in cases)


def test_next_rule_runs_once_per_distinct_state(monkeypatch):
    calls = 0

    def counted(inst):
        nonlocal calls
        calls += 1
        return next_rule(inst)

    monkeypatch.setattr(rank3, "next_rule", counted)
    h = tv.gen_lower_bound(3, 15)
    for budget, want in ((DEFAULT, 89), (0, 1123)):
        monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
        calls = 0
        stats = tv.enumerate_rank3(h, lambda t: None)
        assert (stats.nodes, stats.leaves) == (2123, 1000)
        assert calls == want


def rank3_step(inst, _):
    return [(c, None) for c in apply_rule(inst, next_rule(inst))]


@pytest.mark.parametrize("budget", [DEFAULT, 8, 1])
@pytest.mark.parametrize("h", [tv.gen_lower_bound(3, 9), *instance_deck(12, kmax=3)])
def test_branch_sees_the_true_partial_set(h, budget, monkeypatch):
    # Without the memo the branch step sees every inner node in preorder;
    # with it, a subsequence of them. No two nodes share (S, V, E), so a
    # state rebuilt with the partial set of its first visit would fail.
    def states(step):
        seen = []

        def recording(inst, carry):
            seen.append((inst.smask, inst.vmask, inst.emasks))
            return step(inst, carry)

        return seen, recording

    for step, carry in ((rank3_step, None), (_branch_step(), _subsumed(frozenset(h.edge_masks())))):
        if step is rank3_step and h.rank() > 3:
            continue
        monkeypatch.setattr(hypergraph, "_MEMO_MASKS", 0)
        every, recording = states(step)
        search(Instance(h), recording, h, lambda s: None, carry)
        monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
        some, recording = states(step)
        search(Instance(h), recording, h, lambda s: None, carry)
        remaining = iter(every)
        assert all(state in remaining for state in some)


@pytest.mark.parametrize("engine", [tv.enumerate_rank3, tv.enumerate_rankk])
def test_unit_chain_with_tiny_budget_leaves_recursion_limit_alone(engine, monkeypatch):
    n = 300
    monkeypatch.setattr(hypergraph, "_MEMO_MASKS", 8)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        out = []
        stats = engine(Hypergraph(n, [{v} for v in range(1, n + 1)]), out.append)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(old)
    assert out == [frozenset(range(1, n + 1))]
    assert (stats.nodes, stats.leaves, stats.max_depth, stats.outputs) == (n + 1, 1, n, 1)
    assert limit == 200


def compare_folds(monkeypatch):
    """Make every leaf check compare its carried fold with a fresh `_fold`.

    Returns two lists that the checks fill: the masks checked with a
    fold, and those checked without one.
    """
    folded, unfolded = [], []
    check = Hypergraph.is_minimal_transversal

    def comparing(self, s, fold=None):
        if fold is None:
            unfolded.append(s)
        else:
            once, twice, rows = self._fold(s)
            assert (fold[0], fold[1], sorted(fold[2])) == (once, twice, sorted(rows)), bin(s)
            folded.append(s)
        return check(self, s, fold=fold)

    monkeypatch.setattr(Hypergraph, "is_minimal_transversal", comparing)
    return folded, unfolded


def fold_deck():
    """The memo deck plus random inputs on either side of the byte boundaries."""
    cases = deck()
    for n in (7, 8, 9, 15, 16, 17):
        for k in (2, 3, 4):
            cases.append(tv.gen_random(tv.GeneratorSpec("random", k=k, n=n, m=2 * n, seed=n * k)))
    return cases


@pytest.mark.parametrize("h", fold_deck())
def test_carried_fold_is_the_fresh_fold(h, monkeypatch):
    folded, unfolded = compare_folds(monkeypatch)
    for name, engine in engines(h).items():
        for budget in BUDGETS:
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            folded.clear()
            unfolded.clear()
            stats = engine(h, lambda t: None)
            if not name.startswith("compression"):  # compression's phase 1 checks without a fold
                assert unfolded == [], name
                assert stats.outputs <= len(folded) <= stats.leaves, name


@pytest.mark.parametrize("n", [9, 16, 17])
def test_carried_fold_from_a_partial_root(n, monkeypatch):
    folded, _ = compare_folds(monkeypatch)
    partial = {1, 8, n}  # either side of the first byte boundary, and the last vertex
    pm = mask_of(partial)
    drawn = tv.gen_random(tv.GeneratorSpec("random", k=3, n=n, m=2 * n, seed=n))
    h = Hypergraph(n, [e - partial for e in drawn.edges if e - partial])
    leaf_graph = Hypergraph(n, [*h.edges, *({p} for p in partial)])
    found = []
    tv.enumerate_rankk(h, found.append, masks=True)
    want = sorted(pm | m for m in found)
    for step, carry in ((rank3_step, None), (_branch_step(), _subsumed(frozenset(h.edge_masks())))):
        for budget in BUDGETS:
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            folded.clear()
            out = []
            root = Instance(h, vertices=set(range(1, n + 1)) - partial, partial=partial)
            search(root, step, leaf_graph, out.append, carry)
            assert sorted(out) == want
            assert len(folded) >= len(out) > 0


def test_fold_runs_once_per_stored_child_adding_two_or_more_vertices(monkeypatch):
    # Before the fold was carried, every one of the 1,000 leaves folded its S.
    folds = multi = 0
    fold = Hypergraph._fold

    def counted_fold(self, s):
        nonlocal folds
        folds += 1
        return fold(self, s)

    def counted_rule(inst, rule):
        nonlocal multi
        children = apply_rule(inst, rule)
        multi += sum((c.smask ^ inst.smask).bit_count() >= 2 for c in children)
        return children

    monkeypatch.setattr(Hypergraph, "_fold", counted_fold)
    monkeypatch.setattr(rank3, "apply_rule", counted_rule)
    stats = tv.enumerate_rank3(tv.gen_lower_bound(3, 15), lambda t: None)
    assert (stats.nodes, stats.leaves) == (2123, 1000)
    assert folds == multi == 20
