import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import Hypergraph, Instance, ParseError, parse_hypergraph, serialize_hypergraph
from transversals.bitsets import byte_entries, byte_tables, edge_key, iter_bits, mask_of, set_of

from helpers import instance_deck, minimal_by_definition


TRIANGLE = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])


class TestParse:
    def test_triangle(self):
        h = parse_hypergraph("p hg 3 3\n1 2\n1 3\n2 3\n")
        assert h == TRIANGLE

    def test_duplicates_collapse(self):
        h = parse_hypergraph("p hg 3 2\n1 2\n1 2\n")
        assert h.n == 3
        assert h.edges == (frozenset({1, 2}),)

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2.*out of range"):
            parse_hypergraph("p hg 2 1\n1 3\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_hypergraph("p graph 3 3\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="line 2.*'x'"):
            parse_hypergraph("p hg 3 1\n1 x\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_hypergraph("c only a comment\n")

    def test_too_few_edges(self):
        with pytest.raises(ParseError, match="expected 3 edge lines"):
            parse_hypergraph("p hg 3 3\n1 2\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError, match="after the last edge"):
            parse_hypergraph("p hg 2 1\n1 2\n1\n")

    def test_comments_and_blank_prefix(self):
        h = parse_hypergraph("c hi\n# note\n\np hg 2 1\nc inner\n1 2\n")
        assert h.edges == (frozenset({1, 2}),)

    def test_blank_line_is_empty_edge(self):
        h = parse_hypergraph("p hg 2 2\n\n1 2\n")
        assert frozenset() in h.edges

    def test_roundtrip_identity(self):
        cases = [
            TRIANGLE,
            Hypergraph(4, []),
            Hypergraph(3, [set(), {1}, {1, 2, 3}]),
            tv.gen_lower_bound(3, 12),
        ] + instance_deck(12)
        for h in cases:
            assert parse_hypergraph(serialize_hypergraph(h)) == h


class TestHypergraph:
    def test_rank(self):
        assert Hypergraph(3, []).rank() == 0
        assert Hypergraph(3, [set()]).rank() == 0
        assert TRIANGLE.rank() == 2
        assert Hypergraph(4, [{1}, {2, 3, 4}]).rank() == 3

    def test_edges_canonical_order(self):
        h = Hypergraph(4, [{2, 3}, {1, 4}, {1, 2, 3}])
        assert [sorted(e) for e in h.edges] == [[1, 2, 3], [1, 4], [2, 3]]

    def test_vertex_range_validated(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [{1, 3}])
        with pytest.raises(ValueError):
            Hypergraph(2, [{0}])

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
    def test_non_integral_vertex_rejected(self, bad):
        # Vertex ids go through operator.index: no truncation, no parsing.
        with pytest.raises(TypeError):
            Hypergraph(3, [[bad, 3]])
        with pytest.raises(TypeError):
            TRIANGLE.is_transversal([bad, 3])
        with pytest.raises(TypeError):
            TRIANGLE.is_minimal_transversal([bad, 3])

    def test_integral_vertex_types_accepted(self):
        class Index:
            def __index__(self):
                return 2

        assert Hypergraph(3, [[Index(), 3]]) == Hypergraph(3, [{2, 3}])


def mask_constructor_cases():
    return instance_deck(60, kmin=1, kmax=6) + [
        Hypergraph(0, []),
        Hypergraph(0, [set()]),
        Hypergraph(6, []),
        Hypergraph(7, [{2, 1}, {1, 2}, set(), {5}, {1, 2, 5}, set()]),
        tv.gen_lower_bound(3, 12),
    ]


class TestFromMasks:
    @pytest.mark.parametrize("h", mask_constructor_cases())
    def test_equals_public_constructor(self, h):
        # Reversed and repeated masks: the constructor dedupes and sorts.
        built = Hypergraph._from_masks(h.n, list(reversed(h.edge_masks())) * 2)
        public = Hypergraph(h.n, h.edges)
        assert built == public and hash(built) == hash(public)
        assert built.edges == public.edges == h.edges
        assert built.edge_masks() == public.edge_masks()
        assert built.rank() == public.rank()
        assert repr(built) == repr(public)
        assert serialize_hypergraph(built) == serialize_hypergraph(public)
        assert parse_hypergraph(serialize_hypergraph(h)) == h

    def test_ranks_and_empty_edges_covered(self):
        cases = mask_constructor_cases()
        assert {h.rank() for h in cases} >= set(range(7))
        assert any(frozenset() in h.edges for h in cases)
        assert any(set().union(*h.edges) != set(range(1, h.n + 1)) for h in cases)


class TestMinimality:
    def test_examples(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        assert h.is_minimal_transversal({2})
        assert not h.is_minimal_transversal({1, 2})
        assert Hypergraph(5, [{1, 2, 3}, {3, 4, 5}]).is_minimal_transversal({1, 4})

    def test_empty_set(self):
        assert Hypergraph(3, []).is_minimal_transversal(set())
        assert not Hypergraph(3, [{1}]).is_minimal_transversal(set())

    def test_matches_subset_definition(self):
        for h in instance_deck(12, nmax=10):
            for s in range(1 << h.n):
                subset = {v + 1 for v in range(h.n) if s >> v & 1}
                assert h.is_minimal_transversal(subset) == minimal_by_definition(h, subset)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TRIANGLE.is_minimal_transversal({4})


def edge_pass_minimal(h, s):
    """One pass over the edges: every edge hit, every member owns an edge it hits alone."""
    sm = 0
    for v in s:
        sm |= 1 << v
    priv = 0
    for e in h.edges:
        hit = [v for v in e if sm >> v & 1]
        if not hit:
            return False
        if len(hit) == 1:
            priv |= 1 << hit[0]
    return not sm & ~priv


def minimality_cases():
    cases = [Hypergraph(0, []), Hypergraph(0, [set()]), Hypergraph(4, []), TRIANGLE]
    for k in range(1, 7):
        deck = instance_deck(6, kmin=k, kmax=k, nmax=9)
        cases += deck
        cases.append(Hypergraph(deck[0].n + 2, deck[0].edges))  # two isolated vertices
        cases.append(Hypergraph(deck[1].n, list(deck[1].edges) + [set()]))
    return cases


class TestIncidenceMinimality:
    @pytest.mark.parametrize("h", minimality_cases())
    def test_agrees_with_edge_pass(self, h):
        for bits in range(1 << h.n):
            s = [v for v in range(1, h.n + 1) if bits >> (v - 1) & 1]
            want = edge_pass_minimal(h, s)
            assert h.is_minimal_transversal(frozenset(s)) == want
            assert h.is_minimal_transversal(iter(s + s[:2])) == want

    def test_one_shot_and_repeated_input(self):
        h = Hypergraph(3, [{1, 2}, {2, 3}])
        assert h.is_minimal_transversal(iter([2, 2]))
        assert h.is_minimal_transversal(v for v in (2,))
        assert not h.is_minimal_transversal(iter([1, 2, 2, 1]))
        assert h.is_minimal_transversal([1, 3, 1])

    @pytest.mark.parametrize("v", [0, 4, -1])
    def test_out_of_range_message(self, v):
        with pytest.raises(ValueError, match=rf"^vertex {v} out of range 1\.\.3$"):
            TRIANGLE.is_minimal_transversal([1, v])

    @pytest.mark.parametrize("h", [h for h in minimality_cases() if h.n <= 10])
    def test_mask_agrees_with_vertex_set(self, h):
        for m in range(0, 1 << (h.n + 1), 2):
            assert h.is_minimal_transversal(m) == h.is_minimal_transversal(set_of(m))

    def test_mask_cases_cover_ranks_empty_edge_and_isolated_vertices(self):
        cases = [h for h in minimality_cases() if h.n <= 10]
        assert {h.rank() for h in cases} >= set(range(1, 7))
        assert any(frozenset() in h.edges for h in cases)
        assert any(set().union(*h.edges) != set(range(1, h.n + 1)) for h in cases)

    @pytest.mark.parametrize("m", [0b1, 0b11, 1 << 4, 0b10 | 1 << 9, -1, -2, -(1 << 3)])
    def test_mask_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3$"):
            TRIANGLE.is_minimal_transversal(m)

    def test_incidence_built_once_and_outside_equality(self):
        h = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])
        twin = Hypergraph(3, [{2, 3}, {1, 3}, {1, 2}])
        assert h._inc is None
        assert h.is_minimal_transversal({1, 2})
        rows = h._inc
        assert rows == (0, 0b011, 0b101, 0b110)
        assert not h.is_minimal_transversal({1, 2, 3})
        assert h._inc is rows
        assert twin._inc is None
        assert h == twin and hash(h) == hash(twin)


#: Sizes at, just below and just above the byte boundaries of a mask.
BYTE_SIZES = [0, 1, 7, 8, 9, 15, 16, 17, 64, 65]


def crit_by_definition(h, s):
    """s hits every edge, and each member has an edge meeting s only in that member."""
    s = frozenset(s)
    return all(e & s for e in h.edges) and all(any(e & s == {v} for e in h.edges) for v in s)


def byte_boundary_graph(n, seed):
    """Edges of 1 to 3 vertices, most of them straddling a byte boundary of 1..n."""
    rng = random.Random(seed)
    near = sorted({v for b in range(8, n + 8, 8) for v in (b - 1, b, b + 1) if 1 <= v <= n})
    edges = []
    for _ in range(min(n, 12)):
        pool = near if near and rng.random() < 0.7 else range(1, n + 1)
        edges.append(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
    return Hypergraph(n, edges)


def byte_boundary_sets(h, seed, count=60):
    """Minimal transversals and their one-vertex neighbours, plus random sets."""
    rng = random.Random(seed)
    vertices = list(range(1, h.n + 1))
    sets = []
    for _ in range(count):
        s = set(rng.sample(vertices, rng.randint(0, h.n)))
        sets.append(frozenset(s))
        if h.is_transversal(s):
            for v in rng.sample(sorted(s), len(s)):
                if h.is_transversal(s - {v}):
                    s.discard(v)
            sets.append(frozenset(s))  # minimal
            rest = sorted(set(vertices) - s)
            if rest:
                sets.append(frozenset(s | {rng.choice(rest)}))
            if s:
                sets.append(frozenset(s - {rng.choice(sorted(s))}))
    return sets


class TestByteBoundaries:
    """The per-byte fold of the minimality check, at the edges of its bytes."""

    def test_byte_entries_fill_each_byte_value_once(self):
        calls = []

        def fill(j, b):
            calls.append((j, b))
            return sorted(v for v in range(8 * j, 8 * j + 8) if b >> (v - 8 * j) & 1)

        tables = byte_tables(17, fill)
        assert len(tables) == 3
        assert byte_entries(0, tables) == []
        assert byte_entries(mask_of([7, 8, 17]), tables) == [[7], [8], [17]]
        assert byte_entries(mask_of([8, 9, 17]), tables) == [[8, 9], [17]]
        assert byte_entries(mask_of([7, 17]), tables) == [[7], [17]]
        assert calls == [(0, 0x80), (1, 0x01), (2, 0x02), (1, 0x03)]
        assert [dict(t) for t in tables] == [{0x80: [7]}, {0x01: [8], 0x03: [8, 9]}, {0x02: [17]}]

    def test_edge_key_orders_every_mask_on_twelve_vertices_as_its_vertex_list(self):
        masks = range(1 << 13)  # bit 0 too, as the key does not assume it is clear
        assert sorted(masks, key=edge_key) == sorted(masks, key=lambda m: tuple(iter_bits(m)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.frozensets(st.integers(0, 40), max_size=9), min_size=2, max_size=12))
    def test_edge_key_orders_masks_across_bytes_as_their_vertex_lists(self, sets):
        masks = list(map(mask_of, sets))
        for a in masks:
            for b in masks:
                lists = tuple(iter_bits(a)), tuple(iter_bits(b))
                assert (edge_key(a) < edge_key(b)) == (lists[0] < lists[1]), lists
                assert (edge_key(a) == edge_key(b)) == (a == b)

    @pytest.mark.parametrize("n", BYTE_SIZES)
    def test_agrees_with_definition(self, n):
        for seed in range(3):
            h = byte_boundary_graph(n, seed)
            sets = byte_boundary_sets(h, seed)
            if n <= 9:
                sets += [set_of(m) for m in range(0, 1 << (n + 1), 2)]
            answers = {crit_by_definition(h, s) for s in sets}
            assert n == 0 or answers == {True, False}
            for s in sets:
                want = crit_by_definition(h, s)
                assert h.is_minimal_transversal(mask_of(s)) == want, (h, sorted(s))
                assert h.is_minimal_transversal(s) == want, (h, sorted(s))

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_universes(self, n):
        assert Hypergraph(n).is_minimal_transversal(0)
        assert not Hypergraph(n, [[]]).is_minimal_transversal(0)

    @pytest.mark.parametrize("n", BYTE_SIZES)
    def test_warm_tables_answer_like_a_fresh_copy(self, n):
        h = byte_boundary_graph(n, 7)
        sets = byte_boundary_sets(h, 7)
        for s in sets:
            h.is_minimal_transversal(mask_of(s))
        for s in sets:
            fresh = Hypergraph(n, h.edges)
            assert h.is_minimal_transversal(mask_of(s)) == fresh.is_minimal_transversal(mask_of(s))

    @pytest.mark.parametrize("n", BYTE_SIZES)
    def test_fold_is_the_row_fold(self, n):
        h = byte_boundary_graph(n, 11)
        inc = h._incidence()
        for s in byte_boundary_sets(h, 11):
            rows = [inc[v] for v in sorted(s)]
            once = twice = 0
            for row in rows:
                twice |= once & row
                once |= row
            assert h._fold(mask_of(s)) == (once, twice, rows)

    def test_tables_filled_lazily_and_outside_equality(self):
        edges = [{7, 8}, {8, 9}, {15, 16}, {16, 17}, {7, 17}]
        h = Hypergraph(17, edges)
        twin = Hypergraph(17, edges[::-1])
        assert h._folds is None
        assert h.is_minimal_transversal({8, 16, 17})
        tables = h._folds
        assert [sorted(t) for t in tables] == [[], [0b1], [0b11]]
        inc = h._incidence()
        assert tables[2][0b11] == (inc[16] | inc[17], inc[16] & inc[17], (inc[16], inc[17]))
        assert not h.is_minimal_transversal({7, 8, 9, 16})
        assert h._folds is tables
        assert [sorted(t) for t in tables] == [[0b10000000], [0b1, 0b11], [0b1, 0b11]]
        assert twin._folds is None
        assert h == twin and hash(h) == hash(twin)

    @pytest.mark.parametrize("n", BYTE_SIZES)
    def test_out_of_range_masks_rejected_with_warm_tables(self, n):
        h = byte_boundary_graph(n, 3)
        h.is_minimal_transversal((1 << (n + 1)) - 2)  # every byte's table in use
        bad = [0b1, 1 << (n + 1), 1 << (n + 8), (1 << (n + 2)) - 2, -1, -2, -(1 << 9)]
        for m in bad:
            with pytest.raises(ValueError, match=rf"out of range 1\.\.{n}$"):
                h.is_minimal_transversal(m)

    @pytest.mark.parametrize("n", BYTE_SIZES)
    def test_given_fold_answers_like_no_fold(self, n):
        h = byte_boundary_graph(n, 5)
        for s in byte_boundary_sets(h, 5):
            m = mask_of(s)
            want = h.is_minimal_transversal(m)
            once, twice, rows = h._fold(m)
            assert h.is_minimal_transversal(m, fold=(once, twice, rows)) == want
            assert h.is_minimal_transversal(m, fold=(once, twice, tuple(reversed(rows)))) == want
            assert h.is_minimal_transversal(s, fold=(once, twice, rows)) == want
        bad = [0b1, 1 << (n + 1), (1 << (n + 2)) - 2, -1, -(1 << 9)]
        for m in bad:
            with pytest.raises(ValueError, match=rf"out of range 1\.\.{n}$"):
                h.is_minimal_transversal(m, fold=(0, 0, ()))


class TestTransversalMask:
    @pytest.mark.parametrize("h", [h for h in minimality_cases() if h.n <= 10])
    def test_mask_agrees_with_vertex_set(self, h):
        for m in range(0, 1 << (h.n + 1), 2):
            assert h.is_transversal(m) == h.is_transversal(set_of(m))

    @pytest.mark.parametrize("m", [0b1, 0b11, 1 << 4, 0b10 | 1 << 9, -1, -2, -(1 << 3)])
    def test_mask_out_of_range_rejected(self, m):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3$"):
            TRIANGLE.is_transversal(m)


class TestInstance:
    def test_select_example(self):
        inst = Instance(TRIANGLE)
        after = inst.select(2)
        assert set(map(set_of, after.emasks)) == {frozenset({1, 3})}
        assert set_of(after.smask) == {2}
        assert set_of(after.vmask) == {1, 3}

    def test_select_unit(self):
        inst = Instance(Hypergraph(1, [{1}]))
        after = inst.select(1)
        assert set(map(set_of, after.emasks)) == frozenset()
        assert set_of(after.smask) == {1}

    def test_select_with_prior_partial(self):
        inst = Instance(Hypergraph(9, [{1, 2, 3}])).branch(1 << 9, 0)
        after = inst.select(3)
        assert set(map(set_of, after.emasks)) == frozenset()
        assert set_of(after.smask) == {9, 3}

    def test_discard_example(self):
        inst = Instance(TRIANGLE)
        after = inst.discard(2)
        assert set(map(set_of, after.emasks)) == {frozenset({1}), frozenset({3}), frozenset({1, 3})}
        assert set_of(after.smask) == frozenset()

    def test_discard_collapses_duplicates(self):
        inst = Instance(Hypergraph(2, [{1, 2}, {1}]))
        assert set(map(set_of, inst.discard(2).emasks)) == {frozenset({1})}

    def test_discard_to_empty_edge(self):
        inst = Instance(Hypergraph(1, [{1}]))
        assert set(map(set_of, inst.discard(1).emasks)) == {frozenset()}

    def test_missing_vertex_rejected(self):
        inst = Instance(TRIANGLE).select(1)
        with pytest.raises(ValueError):
            inst.select(1)
        with pytest.raises(ValueError):
            inst.discard(1)

    def test_select_discard_commute(self):
        for h in instance_deck(25, nmax=9):
            inst = Instance(h)
            verts = list(iter_bits(inst.vmask))
            for u in verts[:4]:
                for v in verts[:4]:
                    if u == v:
                        continue
                    a = inst.select(u).discard(v)
                    b = inst.discard(v).select(u)
                    assert a.emasks == b.emasks
                    assert a.vmask == b.vmask
                    assert a.smask == b.smask

    def test_eta(self):
        inst = Instance(TRIANGLE)
        assert inst.eta() == 6
        assert inst.select(1).eta() == 3

    def test_branch_equals_chained_select_discard(self):
        for h in instance_deck(20, kmin=1, kmax=4, nmax=6):
            for inst in (Instance(h), Instance(h).select(1)):
                verts = list(iter_bits(inst.vmask))
                for code in range(3 ** len(verts)):
                    sel = dis = 0
                    chained = inst
                    for v in verts:
                        code, pick = divmod(code, 3)
                        if pick == 1:
                            sel |= 1 << v
                            chained = chained.select(v)
                        elif pick == 2:
                            dis |= 1 << v
                            chained = chained.discard(v)
                    assert inst.branch(sel, dis) == chained

    def test_branch_rejects_bad_masks(self):
        inst = Instance(TRIANGLE).select(1)
        with pytest.raises(ValueError, match="overlap"):
            inst.branch(1 << 2, 1 << 2 | 1 << 3)
        for sel, dis in [(1 << 1, 0), (0, 1 << 1), (1 << 4, 0), (0, 1), (1 << 2, 1 << 5)]:
            with pytest.raises(ValueError, match="working set"):
                inst.branch(sel, dis)

    def test_drop_edge(self):
        inst = Instance(TRIANGLE)
        assert set(map(set_of, inst.drop_edge(0b110).emasks)) == {frozenset({1, 3}), frozenset({2, 3})}
        with pytest.raises(ValueError, match="^no such working edge$"):
            inst.drop_edge(0b1110)

    def test_root_equals_one_built_vertex_by_vertex(self):
        # The root is one mask expression: every vertex of 1..n, every edge, S empty.
        for n in range(31):
            h = Hypergraph(n, [[v] for v in range(2, n + 1, 3)])
            root = Instance(h)
            assert root.vmask == (1 << (n + 1)) - 2 == mask_of(range(1, n + 1))
            assert root.emasks == frozenset(h.edge_masks())
            assert root.smask == 0


ENGINES = [tv.enumerate_rank3, tv.enumerate_rankk]


class TestSearchKernel:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_deep_tree_leaves_recursion_limit_alone(self, engine):
        n = 1100
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            out = []
            stats = engine(Hypergraph(n, [{v} for v in range(1, n + 1)]), lambda m: out.append(set_of(m)))
            limit = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(old)
        assert out == [frozenset(range(1, n + 1))]
        assert (stats.outputs, stats.max_depth) == (1, n)
        assert limit == 1000

    @pytest.mark.parametrize("engine", ENGINES)
    def test_child_that_does_not_shrink_is_an_invariant_error(self, engine, monkeypatch):
        # vertex 3 is isolated, so the first rule discards it
        monkeypatch.setattr(Instance, "discard", lambda self, v: self)
        with pytest.raises(tv.SearchInvariantError):
            engine(Hypergraph(3, [{1, 2}]), lambda t: None)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_branch_child_that_does_not_shrink_is_an_invariant_error(self, engine, monkeypatch):
        # the triangle's first rule branches (rank3 R3_2, rankk B2)
        monkeypatch.setattr(Instance, "branch", lambda self, sel, dis: self)
        with pytest.raises(tv.SearchInvariantError):
            engine(TRIANGLE, lambda t: None)
