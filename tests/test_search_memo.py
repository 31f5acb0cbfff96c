"""The search kernel's memo: expanding each distinct working state once
gives the same emitted sequence and the same stats at any memo budget."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import Hypergraph, Instance, cli, hypergraph, rank3, serialize_hypergraph
from transversals.bitsets import PackedSink, mask_of, set_of
from transversals.hypergraph import search
from transversals.rank3 import _step as rank3_step, apply_rule, next_rule
from transversals.rankk import _step as rankk_step, _subsumed

from helpers import instance_deck, partial_root, rankk_inner

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
    # Counting mode expands no state that the reading walk would not.
    calls = 0

    def counted(inst):
        nonlocal calls
        calls += 1
        return next_rule(inst)

    monkeypatch.setattr(rank3, "next_rule", counted)
    h = tv.gen_lower_bound(3, 15)
    for sink in (lambda m: None, hypergraph.count_only):
        for budget, want in ((DEFAULT, 89), (0, 1123)):
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            calls = 0
            stats = tv.enumerate_rank3(h, sink)
            assert (stats.nodes, stats.leaves) == (2123, 1000)
            assert calls == want, (sink, budget)


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

    for step, carry in ((rank3_step, None), (rankk_step, _subsumed(frozenset(h.edge_masks())))):
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
        stats = engine(Hypergraph(n, [{v} for v in range(1, n + 1)]), lambda m: out.append(set_of(m)))
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
            cases.append(tv.gen_random(k=k, n=n, m=2 * n, seed=n * k))
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
                # a replayed subtree's leaves are not checked; with no memo, nothing is replayed
                assert len(folded) <= stats.leaves, name
                if budget == 0:
                    assert stats.outputs <= len(folded), name


@pytest.mark.parametrize("n", [9, 16, 17])
def test_carried_fold_from_a_partial_root(n, monkeypatch):
    folded, _ = compare_folds(monkeypatch)
    partial = {1, 8, n}  # either side of the first byte boundary, and the last vertex
    pm = mask_of(partial)
    drawn = tv.gen_random(k=3, n=n, m=2 * n, seed=n)
    h = Hypergraph(n, [e - partial for e in drawn.edges if e - partial])
    leaf_graph = Hypergraph(n, [*h.edges, *({p} for p in partial)])
    found = []
    tv.enumerate_rankk(h, found.append)
    want = sorted(pm | m for m in found)
    for step, carry in ((rank3_step, None), (rankk_step, _subsumed(frozenset(h.edge_masks())))):
        for budget in BUDGETS:
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            folded.clear()
            out = []
            root = partial_root(h, partial)
            search(root, step, leaf_graph, out.append, carry)
            assert sorted(out) == want
            assert len(folded) >= len(out) > 0


def test_fold_runs_once_per_stored_child_adding_two_or_more_vertices(monkeypatch):
    # Before the fold was carried, every one of the 1,000 leaves folded its S.
    # The other 60 folds are U's, once per stored state visited again. Sets of
    # one vertex or none read their row directly, so only table folds count.
    folds = multi = 0
    fold = Hypergraph._fold

    def counted_fold(self, s):
        nonlocal folds
        folds += s.bit_count() >= 2
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
    assert (folds, multi) == (80, 20)


def assert_count_only_matches_the_walk(h, monkeypatch):
    """count_only gives the stats of a walk with a no-op sink, at every budget."""
    for name, engine in engines(h).items():
        if name.startswith("compression"):  # its inner runs have their own sink
            continue
        for budget in (DEFAULT, 8, 1, 0):
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            assert engine(h, hypergraph.count_only) == engine(h, lambda m: None), (name, budget)


def count_deck():
    """The memo deck plus deep trees whose subtrees repeat under many partial sets.

    On the two seeded random inputs a subtree is counted from its summary
    deeper than where it was walked, and that sets max_depth.
    """
    return [
        *deck(),
        tv.gen_lower_bound(3, 12),
        tv.gen_lower_bound(3, 13),
        *instance_deck(6, kmin=3, kmax=3, nmax=24),
        tv.gen_random(k=3, n=21, m=25, seed=273),
        tv.gen_random(k=6, n=17, m=33, seed=297),
    ]


@pytest.mark.parametrize("h", count_deck())
def test_count_only_gives_the_walks_stats(h, monkeypatch):
    assert_count_only_matches_the_walk(h, monkeypatch)


@settings(max_examples=60, deadline=None)
@given(hypergraphs())
def test_count_only_gives_the_walks_stats_generated(h):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_count_only_matches_the_walk(h, monkeypatch)


@pytest.mark.parametrize("n", [9, 16, 17])
def test_count_only_from_a_partial_root(n, monkeypatch):
    partial = {1, 8, n}
    drawn = tv.gen_random(k=3, n=n, m=2 * n, seed=n)
    h = Hypergraph(n, [e - partial for e in drawn.edges if e - partial])
    leaf_graph = Hypergraph(n, [*h.edges, *({p} for p in partial)])
    for step, carry in ((rank3_step, None), (rankk_step, _subsumed(frozenset(h.edge_masks())))):
        for budget in (DEFAULT, 8, 1, 0):
            monkeypatch.setattr(hypergraph, "_MEMO_MASKS", budget)
            root = partial_root(h, partial)
            walked = search(root, step, leaf_graph, lambda m: None, carry)
            assert search(root, step, leaf_graph, hypergraph.count_only, carry) == walked
            assert walked.outputs > 0


def test_count_only_checks_leaves_only_outside_repeated_subtrees(monkeypatch):
    calls = 0
    check = Hypergraph.is_minimal_transversal

    def counted(self, s, fold=None):
        nonlocal calls
        calls += 1
        return check(self, s, fold=fold)

    monkeypatch.setattr(Hypergraph, "is_minimal_transversal", counted)
    h = tv.gen_lower_bound(3, 15)
    # A reading sink checks a few more: a subtree is replayed from its third visit under one key.
    for sink, want in ((hypergraph.count_only, 41), (lambda m: None, 63)):
        calls = 0
        assert tv.enumerate_rank3(h, sink) == tv.SearchStats(2123, 1000, 24, 1000)
        assert calls == want


def test_count_only_keeps_the_invariant_check(monkeypatch):
    monkeypatch.setattr(Instance, "branch", lambda self, sel, dis: self)
    with pytest.raises(tv.SearchInvariantError):
        tv.enumerate_rankk(Hypergraph(3, [{1, 2}, {2, 3}, {1, 3}]), hypergraph.count_only)


#: Settings that replay nothing (no memo; a cap of 0 leaves, which every
#: subtree exceeds) or only single-leaf subtrees (a cap of 1).
FEWER_REPLAYS = [("_MEMO_MASKS", 0), ("_REPLAY_CAP", 0), ("_REPLAY_CAP", 1)]


def cli_run(argv, text):
    """main(argv) on text as stdin: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch, redirect_stdout(out), redirect_stderr(err):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reading_runs(h):
    """Each engine's emitted sequence and stats, and the CLI's first minimum and ties with --stats."""
    runs = {}
    for name, engine in engines(h).items():
        out = []
        runs[name] = (out, engine(h, out.append))
    text = serialize_hypergraph(h)
    for algorithm in ["auto", "rankk"] + (["rank3"] if h.rank() <= 3 else []):
        for command in ("minimum", "count-minimum"):
            runs[command, algorithm] = cli_run([command, "--stats", "--algorithm", algorithm], text)
    return runs


def assert_replay_matches_the_walk(h):
    replayed = reading_runs(h)
    for name, value in FEWER_REPLAYS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(hypergraph, name, value)
            assert reading_runs(h) == replayed, (name, value)


@pytest.mark.parametrize("h", count_deck())
def test_replay_gives_the_walks_sequence_stats_and_minimum(h):
    assert_replay_matches_the_walk(h)


@settings(max_examples=40, deadline=None)
@given(hypergraphs())
def test_replay_gives_the_walks_sequence_stats_and_minimum_generated(h):
    assert_replay_matches_the_walk(h)


@pytest.mark.parametrize("n", [9, 16, 17])
def test_replay_from_a_partial_root(n):
    partial = {1, 8, n}
    drawn = tv.gen_random(k=3, n=n, m=2 * n, seed=n)
    h = Hypergraph(n, [e - partial for e in drawn.edges if e - partial])
    leaf_graph = Hypergraph(n, [*h.edges, *({p} for p in partial)])
    root = partial_root(h, partial)
    for step, carry in ((rank3_step, None), (rankk_step, _subsumed(frozenset(h.edge_masks())))):
        runs = []
        for name, value in [("_REPLAY_CAP", hypergraph._REPLAY_CAP), *FEWER_REPLAYS]:
            with pytest.MonkeyPatch.context() as monkeypatch:
                monkeypatch.setattr(hypergraph, name, value)
                out = []
                runs.append((out, search(root, step, leaf_graph, out.append, carry)))
        assert runs[1:] == runs[:1] * len(FEWER_REPLAYS)
        assert runs[0][0] and all(m & mask_of(partial) == mask_of(partial) for m in runs[0][0])


@pytest.mark.parametrize(
    "cap, want",
    [(0, (1000, 1000)), (1, (1000, 403)), (2, (678, 110)), (hypergraph._REPLAY_CAP, (63, 13))],
)
def test_only_subtrees_within_the_cap_replay(cap, want, monkeypatch):
    # Leaf checks of rank3 and rankk on lb3 n=15 with a plain sink: a
    # subtree with more leaves than the cap is walked, and its leaves checked.
    folded, _ = compare_folds(monkeypatch)
    monkeypatch.setattr(hypergraph, "_REPLAY_CAP", cap)
    h = tv.gen_lower_bound(3, 15)
    got = []
    for engine in (tv.enumerate_rank3, tv.enumerate_rankk):
        folded.clear()
        assert engine(h, lambda m: None).outputs == 1000
        got.append(len(folded))
    assert tuple(got) == want


#: Vertex counts on either side of the byte boundaries that a packed mask's width crosses.
PACKED_NS = [7, 8, 15, 16, 63, 64, 200]


@st.composite
def spread_inputs(draw):
    """(n, edges, chosen): a rank <= 3 input on ids drawn from 1..n, packed
    blocks first so that subtrees repeat, and a partial set of ids outside
    every edge."""
    n = draw(st.sampled_from(PACKED_NS))
    ids = draw(st.lists(st.integers(1, n), min_size=6, max_size=min(n, 12), unique=True))
    edges, rest = [], ids
    for k in draw(st.lists(st.integers(2, 3), min_size=1, max_size=3)):
        if len(rest) >= 2 * k - 1:
            edges += combinations(rest[: 2 * k - 1], k)
            rest = rest[2 * k - 1 :]
    edges += draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=3), max_size=4))
    free = sorted(set(range(1, n + 1)) - set(ids))
    chosen = draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
    return n, edges, chosen


def assert_packed_is_the_mask_stream(run, n, block):
    """run(sink) hands a PackedSink on bits 0..n the masks that it hands a
    plain sink, packed in order, in chunks of block masks and a remainder,
    with the same stats."""
    chunks = []
    packed = PackedSink(n, block, chunks.append)
    stats = run(packed)
    plain = []
    assert run(plain.append) == stats
    width = (n >> 3) + 1
    assert all(len(chunk) == block * width for chunk in chunks) and len(packed.buffer) < block * width
    assert b"".join(chunks) + packed.buffer == b"".join(m.to_bytes(width, "little") for m in plain)


@settings(max_examples=40, deadline=None)
@given(spread_inputs(), st.integers(1, 5))
def test_packed_sink_gets_the_mask_stream(drawn, block):
    n, edges, chosen = drawn
    h = Hypergraph(n, edges)
    leaf_graph = Hypergraph(n, [*h.edges, *({p} for p in chosen)])
    root = partial_root(h, chosen)
    runs = [
        partial(search, root, rank3_step, leaf_graph, carry=None),
        partial(search, root, rankk_step, leaf_graph, carry=_subsumed(frozenset(h.edge_masks()))),
    ]
    if n <= 16:  # above, compression's anchor of isolated vertices passes its guard
        runs.append(partial(tv.enumerate_compression, leaf_graph))  # its final filter calls the sink once per mask
    settings_ = [("_MEMO_MASKS", DEFAULT), ("_MEMO_MASKS", 0), ("_REPLAY_CAP", 1), ("_REPLAY_CAP", 4)]
    for name, value in settings_:
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(hypergraph, name, value)
            for run in runs:
                assert_packed_is_the_mask_stream(run, n, block)


def test_a_chunk_whose_flush_raises_stays_in_the_buffer():
    # as the CLI's block of masks did: its `finally` writes the failed chunk, and nothing after it
    chunks = []

    def flush(chunk):
        if chunks:
            raise OSError("no space left")
        chunks.append(chunk)

    packed = PackedSink(8, 2, flush)  # 2-byte masks, 2 to a chunk
    with pytest.raises(OSError):
        packed.extend(bytes(range(12)))  # three chunks
    assert chunks == [bytes(range(4))] and packed.buffer == bytes(range(4, 8))


def test_a_chunk_holds_at_least_one_mask():
    # a chunk of 0 bytes would never fill, and `extend` would flush empty chunks for ever
    with pytest.raises(ValueError, match="block must be at least 1, got 0"):
        PackedSink(8, 0, print)


def count_packed_calls(monkeypatch):
    """Count what PackedSink objects take: [masks through calls, masks through blocks]."""
    taken = [0, 0]
    call, extend = PackedSink.__call__, PackedSink.extend

    def counted_call(self, mask):
        taken[0] += 1
        call(self, mask)

    def counted_extend(self, packed):
        taken[1] += len(packed) // self.width
        extend(self, packed)

    monkeypatch.setattr(PackedSink, "__call__", counted_call)
    monkeypatch.setattr(PackedSink, "extend", counted_extend)
    return taken


def test_replays_reach_a_packed_sink_as_blocks(monkeypatch):
    # lb3 n=15 has 1,000 outputs; rank3 checks 63 leaves and rankk 13
    # (test_only_subtrees_within_the_cap_replay), so the rest come as blocks.
    taken = count_packed_calls(monkeypatch)
    h = tv.gen_lower_bound(3, 15)
    for engine, leaf_checks in ((tv.enumerate_rank3, 63), (tv.enumerate_rankk, 13)):
        taken[:] = 0, 0
        assert engine(h, PackedSink(h.n, 256, lambda chunk: None)).outputs == 1000
        assert sum(taken) == 1000 and taken[0] <= leaf_checks


def test_wrapped_or_wider_packed_sink_takes_masks_one_by_one(monkeypatch):
    h = tv.gen_lower_bound(3, 15)
    plain = []
    tv.enumerate_rank3(h, plain.append)
    taken = count_packed_calls(monkeypatch)
    # the kernel takes blocks only in the width of its masks, (n >> 3) + 1 = 2 bytes here
    chunks = []
    wider = PackedSink(16, 1, chunks.append)
    assert wider.width == 3
    tv.enumerate_rank3(h, wider)
    assert taken == [1000, 0]
    assert b"".join(chunks) == b"".join(m.to_bytes(3, "little") for m in plain)
    # a function around the CLI's sink, as the benchmark's trace wraps it, gives the same lines
    text = serialize_hypergraph(h)
    taken[:] = 0, 0
    direct = cli_run(["enumerate", "--stats"], text)
    assert taken[0] < 1000 and taken[1] > 0
    engine = cli.enumerate_rank3
    monkeypatch.setattr(cli, "enumerate_rank3", lambda h, sink: engine(h, lambda m: sink(m)))
    taken[:] = 0, 0
    assert cli_run(["enumerate", "--stats"], text) == direct
    assert taken == [1000, 0]
    assert direct[1].count("\n") == 1000
