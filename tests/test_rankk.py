import pytest

import transversals as tv
from transversals import Hypergraph, Instance, enumerate_rankk, rankk
from transversals.bitsets import mask_of, set_of
from transversals.hypergraph import search
from transversals.rankk import _branch_step, _choose_b2, _subsumed

from helpers import canon, emitted, instance_deck, no_memo, oracle, run  # noqa: F401 (no_memo is a fixture)


def b2_on(n, edges):
    return _choose_b2(Instance(Hypergraph(n, edges)).emasks)


def m(*vertices):
    return mask_of(vertices)


class TestChooseB2:
    def test_all_overlaps_one(self):
        e, e_prime, ordering = b2_on(5, [{1, 2, 3}, {3, 4, 5}, {1, 4, 5}])
        assert e == m(1, 2, 3)
        assert e_prime == m(1, 4, 5)  # canonical tie-break among overlap-1 partners
        assert ordering == (1, 2, 3)

    def test_larger_overlap_wins(self):
        e, e_prime, ordering = b2_on(11, [{1, 2, 3, 4, 5}, {1, 2, 6, 7, 8}, {3, 6, 9, 10, 11}])
        assert e == m(1, 2, 3, 4, 5)
        assert e_prime == m(1, 2, 6, 7, 8)
        assert ordering == (1, 2, 3, 4, 5)

    def test_two_uniform_triangle(self):
        e, e_prime, ordering = b2_on(3, [{1, 2}, {2, 3}, {1, 3}])
        assert e == m(1, 2)
        assert e_prime == m(1, 3)
        assert ordering == (1, 2)

    def test_shared_vertices_first(self):
        e, e_prime, ordering = b2_on(6, [{4, 5, 6}, {1, 2, 6}, {1, 2, 4, 5}])
        assert e == m(1, 2, 6)
        assert e_prime == m(1, 2, 4, 5)
        assert ordering == (1, 2, 6)

    def test_smallest_edge_selected_canonically(self):
        assert b2_on(4, [{2, 3}, {1, 4}, {1, 2, 3}])[0] == m(1, 4)

    def test_degenerate_states_rejected(self):
        with pytest.raises(ValueError, match="overlaps no other edge"):
            b2_on(4, [{1, 2}, {3, 4}])


class TestEnumerate:
    def test_triangle(self):
        h = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])
        assert run(enumerate_rankk, h) == [(1, 2), (1, 3), (2, 3)]

    def test_block_emits_every_k_subset(self):
        got = run(enumerate_rankk, tv.gen_lower_bound(3, 5))
        assert len(got) == 10
        assert got == oracle(tv.gen_lower_bound(3, 5))

    def test_two_overlapping_five_edges(self):
        h = Hypergraph(8, [{1, 2, 3, 4, 5}, {1, 2, 6, 7, 8}])
        want = [(1,), (2,)] + sorted((a, b) for a in (3, 4, 5) for b in (6, 7, 8))
        got = run(enumerate_rankk, h)
        assert got == sorted(want)
        assert got == oracle(h)
        assert len(got) == 11

    def test_empty_edge_no_output(self):
        assert run(enumerate_rankk, Hypergraph(4, [set(), {1, 2, 3, 4}])) == []

    def test_edgeless_emits_empty_set(self):
        assert run(enumerate_rankk, Hypergraph(4, [])) == [()]

    def test_matches_oracle_any_rank(self):
        for h in instance_deck(150):
            assert run(enumerate_rankk, h) == oracle(h)

    def test_large_uniform_block(self):
        # all C(9,5) = 126 5-subsets of a 9-set; every 5-subset is minimal
        h5 = tv.gen_lower_bound(5, 9)
        got = run(enumerate_rankk, h5)
        assert len(got) == 126
        assert got == oracle(h5)

    def test_zero_vertex_universe(self):
        assert run(enumerate_rankk, Hypergraph(0, [])) == [()]
        assert run(enumerate_rankk, Hypergraph(0, [set()])) == []

    def test_emission_order_golden(self):
        h = Hypergraph(5, [{1, 2, 3}, {3, 4, 5}])
        assert emitted(enumerate_rankk, h) == [(3,), (2, 5), (2, 4), (1, 5), (1, 4)]
        tri = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])
        assert emitted(enumerate_rankk, tri) == [(1, 3), (1, 2), (2, 3)]

    def test_no_duplicates(self):
        for h in instance_deck(60):
            got = emitted(enumerate_rankk, h)
            assert len(got) == len(set(got))

    def test_deterministic_emission_order(self):
        for h in instance_deck(10, kmin=4):
            assert emitted(enumerate_rankk, h) == emitted(enumerate_rankk, h)

    def test_stats_invariants(self):
        for h in instance_deck(30):
            stats = enumerate_rankk(h, lambda t: None)
            assert stats.leaves <= stats.nodes
            assert stats.outputs <= stats.leaves


def branch_outputs(inst):
    out = []
    search(inst, _branch_step(), inst.original, out.append, _subsumed(inst.emasks))
    return canon(map(set_of, out))  # the kernel emits masks


class TestB2Partition:
    @pytest.mark.parametrize(
        "edges,n",
        [
            ([{1, 2}, {2, 3}, {1, 3}], 3),
            ([{1, 2, 3}, {3, 4, 5}, {1, 4, 5}], 5),
            ([{1, 2, 3, 4}, {3, 4, 5, 6}, {1, 2, 5, 6}], 6),
        ],
    )
    def test_branches_partition_by_first_ordering_vertex(self, edges, n):
        h = Hypergraph(n, edges)
        root = Instance(h)
        ordering = _choose_b2(root.emasks)[2]  # these roots dispatch straight to the smallest-edge branch
        groups = {}
        for t in oracle(h):
            first = next(i for i, v in enumerate(ordering) if v in t)
            groups.setdefault(first, []).append(t)
        current = root
        for i, v in enumerate(ordering):
            got = branch_outputs(current.select(v))
            assert got == sorted(groups.get(i, []))
            current = current.discard(v)


def test_shared_hypergraph_concurrent_runs():
    # one Hypergraph value, several enumerations in flight at once
    import threading

    h = tv.gen_lower_bound(3, 10)
    results = [None] * 4
    def work(i):
        out = []
        (enumerate_rankk if i % 2 else tv.enumerate_rank3)(h, out.append)
        results[i] = canon(out)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert len(results[0]) == 100


def grown(h, extra):
    """h plus, for every edge e, the redundant superset e | {extra(e)}."""
    return Hypergraph(h.n, list(h.edges) + [set(e) | {extra(e)} for e in h.edges])


def superset_heavy():
    lb4 = tv.gen_lower_bound(4, 14)
    lb3 = tv.gen_lower_bound(3, 10)
    return [
        grown(lb4, lambda e: min(set(range(1, 15)) - e)),  # supersets inside a block
        grown(lb3, lambda e: (min(e) + 4) % 10 + 1),  # supersets across the two blocks
        *(tv.gen_random(tv.GeneratorSpec("random", k=6, n=9, m=60, seed=s)) for s in range(3)),
    ]


def rescan(edges):
    """Subsumed edges by definition: those strictly containing another edge."""
    return {f for f in edges for g in edges if g != f and g & f == g}


class TestCarriedSubsumedSet:
    def test_derived_set_equals_rescan_at_every_child(self, monkeypatch, no_memo):
        derive = rankk._derive_subsumed
        children = with_new_masks = 0

        def checked(subsumed, parent, child):
            nonlocal children, with_new_masks
            got = derive(subsumed, parent, child)
            assert got == rescan(child)
            children += 1
            with_new_masks += bool(child - parent)
            return got

        monkeypatch.setattr(rankk, "_derive_subsumed", checked)
        for h in instance_deck(150) + superset_heavy():
            assert rankk._subsumed(frozenset(h.edge_masks())) == rescan(h.edge_masks())
            enumerate_rankk(h, lambda t: None)
        assert with_new_masks > 1000 and children > with_new_masks

    def test_derived_set_equals_rescan_at_every_child_built(self, monkeypatch):
        # with the memo only the children of distinct states are built
        derive = rankk._derive_subsumed
        children = with_new_masks = 0

        def checked(subsumed, parent, child):
            nonlocal children, with_new_masks
            got = derive(subsumed, parent, child)
            assert got == rescan(child)
            children += 1
            with_new_masks += bool(child - parent)
            return got

        monkeypatch.setattr(rankk, "_derive_subsumed", checked)
        for h in instance_deck(150) + superset_heavy():
            enumerate_rankk(h, lambda t: None)
        assert with_new_masks > 500 and children > with_new_masks

    def test_exact_for_any_select_or_discard(self):
        # the engine only discards once the set is empty; the rule itself
        # must also hold when the parent still has subsumed edges
        for h in instance_deck(60) + superset_heavy():
            root = Instance(h)
            subsumed = rescan(root.emasks)
            for v in range(1, h.n + 1):
                for child in (root.select(v), root.discard(v)):
                    got = rankk._derive_subsumed(subsumed, root.emasks, child.emasks)
                    assert got == rescan(child.emasks)

    def test_superset_heavy_inputs_match_oracle(self):
        for h in superset_heavy():
            assert run(enumerate_rankk, h) == oracle(h)


@pytest.mark.parametrize(
    "h,shape",
    [
        (tv.gen_lower_bound(3, 15), (2776, 1000, 15, 1000)),
        (Hypergraph(300, [{i} for i in range(1, 301)]), (301, 1, 300, 1)),
        (tv.gen_random(tv.GeneratorSpec("random", k=4, n=20, m=30, seed=3)), (89, 16, 39, 16)),
    ],
)
def test_tree_shape_pinned(h, shape):
    # (nodes, leaves, max_depth, outputs): a change to how rules are
    # evaluated must leave the tree itself unchanged
    stats = enumerate_rankk(h, lambda t: None)
    assert (stats.nodes, stats.leaves, stats.max_depth, stats.outputs) == shape
