import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import Hypergraph, Instance, enumerate_rank3, next_rule
from transversals.bitsets import iter_bits, mask_of, set_of
from transversals.rank3 import MEASURE_TOLERANCE, RuleId, _busiest, apply_rule

from helpers import emitted, instance_deck, no_memo, oracle, partial_root, run  # noqa: F401 (no_memo is a fixture)


def rule_on(edges, n=None, partial=()):
    verts = {v for e in edges for v in e} | set(partial)
    h = Hypergraph(n or (max(verts) if verts else 0), edges)
    return next_rule(partial_root(h, partial))


def m(*vertices):
    return mask_of(vertices)


class TestNextRule:
    def test_halting(self):
        assert rule_on([]).tag == "R0_1"
        assert rule_on([set(), {1, 2}]).tag == "R0_0"

    def test_isolated_vertex(self):
        r = rule_on([{2, 3}], n=4)
        assert (r.tag, r.v) == ("R1_0", 1)

    def test_subsumed_triple_dropped(self):
        r = rule_on([{1, 2}, {1, 2, 3}, {1, 2, 4}])
        assert (r.tag, r.e) == ("R1_1", m(1, 2, 3))  # canonically first superset

    def test_unit_edge(self):
        r = rule_on([{1}, {2, 3}])
        assert (r.tag, r.v) == ("R1_2", 1)

    def test_single_pair_goes_to_degree_branch(self):
        r = rule_on([{1, 2}])
        assert (r.tag, r.branches) == ("R2_1", ((m(1), m(2)), (m(2), m(1))))

    def test_r2_2_all_degree_one(self):
        r = rule_on([{1, 2, 3}, {4, 5}])
        # one branch per vertex of the edge, discarding the other two
        assert (r.tag, r.branches) == ("R2_2", ((m(1), m(2, 3)), (m(2), m(1, 3)), (m(3), m(1, 2))))

    def test_r2_3_mixed_degrees(self):
        r = rule_on([{1, 2, 3}, {3, 4}, {2, 4, 5}])
        # v=1: select it and discard both companions, or discard it
        assert (r.tag, r.branches) == ("R2_3", ((m(1), m(2, 3)), (0, m(1))))
        # the same children when the smaller companion has degree 1
        assert rule_on([{1, 2, 3}, {3, 4}]).branches == r.branches

    def test_r3_pivot_maximizes_small_degree_then_degree(self):
        # 1 sits in two pairs, 4 in one pair but three edges total
        r = rule_on([{1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {1, 4}])
        assert (r.tag, r.branches) == ("R3_3", ((m(1), 0), (m(2, 3, 4), m(1))))

    def test_r3_1(self):
        # disjoint pairs keep every small-edge count at 1
        r = rule_on([{1, 2}, {3, 4}, {1, 3, 5}, {2, 4, 5}])
        assert (r.tag, r.branches) == ("R3_1", ((m(1), 0), (m(2), m(1))))

    def test_r3_2(self):
        r = rule_on([{1, 2}, {1, 3}, {2, 4, 5}, {3, 4, 5}])
        assert (r.tag, r.branches) == ("R3_2", ((m(1), 0), (m(2, 3), m(1))))

    def test_r4_1_uniform_block(self):
        r = next_rule(Instance(tv.gen_lower_bound(3, 5)))
        assert (r.tag, r.branches) == ("R4_1", ((m(1), 0), (0, m(1))))

    def test_r4_2_doubled_pair(self):
        edges = [{1, 2, 3}, {1, 2, 4}, {3, 5, 6}, {4, 5, 6}]
        r = rule_on(edges)
        assert (r.tag, r.branches) == ("R4_2", ((m(1), m(2)), (0, m(1))))

    def test_r4_3_disjoint_pair_of_edges(self):
        edges = [{1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6}]
        r = rule_on(edges)
        assert (r.tag, r.branches) == ("R4_3", ((m(1, 2), m(4, 5)), (m(1), m(2)), (0, m(1))))

    def test_rank_above_three_rejected(self):
        with pytest.raises(tv.UnsupportedInstanceError):
            rule_on([{1, 2, 3, 4}])


class TestRuleIdContract:
    def test_equal_and_hash_like_hand_built(self):
        r = rule_on([{1, 2}, {1, 3}, {2, 4, 5}, {3, 4, 5}])
        built = RuleId("R3_2", branches=((m(1), 0), (m(2, 3), m(1))))
        assert r == built
        assert hash(r) == hash(built)

    def test_fields_are_read_only(self):
        r = RuleId("R1_0", v=3)
        with pytest.raises(AttributeError):
            r.v = 4

    def test_defaults(self):
        assert RuleId._fields == ("tag", "v", "e", "branches")
        r = RuleId("R4_1")
        assert (r.v, r.e, r.branches) == (None, None, ())

    def test_halting_rules(self):
        assert rule_on([]) == RuleId("R0_1")
        assert rule_on([set(), {1, 2}]) == RuleId("R0_0")


# Masks on vertices 1..8: few enough that degrees tie often, and cand may hold vertices in no edge.
MASKS_1_TO_8 = st.integers(0, 255).map(lambda m: m << 1)


@given(st.lists(MASKS_1_TO_8, max_size=12), MASKS_1_TO_8)
def test_busiest_is_every_cand_vertex_of_top_degree(edges, cand):
    degree = {v: sum(e >> v & 1 for e in edges) for v in iter_bits(cand)}
    top = max(degree.values(), default=0)
    assert _busiest(edges, cand) == mask_of(v for v, d in degree.items() if d == top)


class TestApplyRule:
    def test_halting_rules_have_no_children(self):
        inst = Instance(Hypergraph(2, []))
        assert apply_rule(inst, next_rule(inst)) == []

    def test_r2_1_branches(self):
        inst = Instance(Hypergraph(2, [{1, 2}]))
        b1, b2 = apply_rule(inst, next_rule(inst))
        assert set_of(b1.smask) == {1} and set_of(b1.vmask) == frozenset()
        assert set_of(b2.smask) == {2} and set_of(b2.vmask) == frozenset()

    def test_r2_2_three_branches(self):
        inst = Instance(Hypergraph(3, [{1, 2, 3}]))
        children = apply_rule(inst, next_rule(inst))
        assert [sorted(set_of(c.smask)) for c in children] == [[1], [2], [3]]
        assert all(set(map(set_of, c.emasks)) == frozenset() for c in children)

    def test_r4_3_branch_actions(self):
        edges = [{1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6}]
        inst = Instance(Hypergraph(6, edges))
        rule = next_rule(inst)
        b1, b2, b3 = apply_rule(inst, rule)
        assert set_of(b1.smask) == {1, 2}
        assert 4 not in set_of(b1.vmask) and 5 not in set_of(b1.vmask)
        assert set_of(b2.smask) == {1}
        assert 2 not in set_of(b2.vmask)
        assert set_of(b3.smask) == frozenset()
        assert 1 not in set_of(b3.vmask)

    def test_halting_tags_on_a_branching_state(self):
        inst = Instance(Hypergraph(2, [{1, 2}]))
        assert apply_rule(inst, RuleId("R0_0")) == []
        assert apply_rule(inst, RuleId("R0_1")) == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda h, **kw: apply_rule(Instance(h), next_rule(Instance(h)), **kw),
            lambda h, **kw: enumerate_rank3(h, lambda t: None, **kw),
            lambda h, **kw: tv.enumerate_rankk(h, lambda t: None, **kw),
        ],
        ids=["apply_rule", "enumerate_rank3", "enumerate_rankk"],
    )
    def test_companion_discards_are_not_optional(self, call):
        # The companion discards belong to the paper's rules; no keyword
        # turns them off. The name is assembled so that a search for the
        # removed keyword finds no live use.
        with pytest.raises(TypeError):
            call(Hypergraph(2, [{1, 2}]), **{"minimality" + "_discards": False})


class TestEnumerate:
    def test_triangle(self):
        h = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])
        assert run(enumerate_rank3, h) == [(1, 2), (1, 3), (2, 3)]

    def test_block_emits_every_k_subset(self):
        got = run(enumerate_rank3, tv.gen_lower_bound(3, 5))
        assert len(got) == 10
        assert all(len(t) == 3 for t in got)

    def test_two_triples(self):
        h = Hypergraph(5, [{1, 2, 3}, {3, 4, 5}])
        want = [(1, 4), (1, 5), (2, 4), (2, 5), (3,)]
        assert run(enumerate_rank3, h) == want
        assert oracle(h) == want

    def test_rank_two_accepted(self):
        h = Hypergraph(4, [{1, 2}, {3, 4}, {1, 3}])
        assert run(enumerate_rank3, h) == oracle(h)

    def test_rank_four_rejected(self):
        with pytest.raises(tv.UnsupportedInstanceError):
            enumerate_rank3(Hypergraph(4, [{1, 2, 3, 4}]), lambda t: None)

    def test_empty_edge_no_output(self):
        assert run(enumerate_rank3, Hypergraph(3, [set(), {1, 2}])) == []

    def test_edgeless_emits_empty_set(self):
        assert run(enumerate_rank3, Hypergraph(3, [])) == [()]

    def test_matches_oracle(self):
        checked = 0
        for h in instance_deck(150, kmin=2, kmax=3):
            if h.rank() > 3:
                continue
            assert run(enumerate_rank3, h) == oracle(h)
            checked += 1
        assert checked >= 140

    def test_no_duplicates(self):
        for h in instance_deck(60, kmin=2, kmax=3):
            got = emitted(enumerate_rank3, h)
            assert len(got) == len(set(got))

    def test_deterministic_emission_order(self):
        for h in instance_deck(10, kmin=3, kmax=3):
            assert emitted(enumerate_rank3, h) == emitted(enumerate_rank3, h)

    def test_emission_order_golden(self):
        h = Hypergraph(5, [{1, 2, 3}, {3, 4, 5}])
        assert emitted(enumerate_rank3, h) == [(1, 4), (1, 5), (2, 4), (2, 5), (3,)]
        tri = Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}])
        assert emitted(enumerate_rank3, tri) == [(1, 2), (1, 3), (2, 3)]

    def test_zero_vertex_universe(self):
        assert run(enumerate_rank3, Hypergraph(0, [])) == [()]
        assert run(enumerate_rank3, Hypergraph(0, [set()])) == []

    def test_soundness_of_every_emission(self):
        for h in instance_deck(40, kmin=2, kmax=3):
            out = []
            enumerate_rank3(h, out.append)
            assert all(h.is_minimal_transversal(t) for t in out)

    def test_stats_invariants(self):
        for h in instance_deck(30, kmin=2, kmax=3):
            stats = enumerate_rank3(h, lambda t: None)
            assert stats.leaves <= stats.nodes
            assert stats.outputs <= stats.leaves
            assert stats.max_depth < stats.nodes


#: Rank-<=3 hypergraphs on 1..10 vertices, isolated vertices and repeated edges included.
RANK3_DECKS = st.integers(1, 10).flatmap(
    lambda n: st.builds(Hypergraph, st.just(n), st.lists(st.sets(st.integers(1, n), min_size=1, max_size=3), max_size=14))
)


class TestMeasureSoundness:
    def test_random_instances(self):
        for h in instance_deck(80, kmin=2, kmax=3):
            enumerate_rank3(h, lambda t: None, check_measure=True)

    def test_lower_bound_family(self):
        for n in (5, 10):
            stats = enumerate_rank3(tv.gen_lower_bound(3, n), lambda t: None, check_measure=True)
            assert stats.leaves <= n**3 * 1.6755**n

    @settings(max_examples=300, deadline=None)
    @given(RANK3_DECKS)
    def test_leaves_within_two_to_the_measure(self, h):
        # check_measure's per-node inequality, telescoped over the tree with
        # mu >= 0 at every leaf: leaves <= 2**measure(h), plus the tolerance
        # once per inner node; no constant and no polynomial factor
        stats = enumerate_rank3(h, tv.count_only)
        assert stats.leaves <= 2 ** tv.measure(h) + MEASURE_TOLERANCE * (stats.nodes - stats.leaves)

    def test_bad_weights_detected(self, monkeypatch):
        from transversals import analysis

        # all-zero weights violate the branching inequality at 3-way branches
        monkeypatch.setattr(analysis, "DEFAULT_WEIGHTS", tv.Weights((0.0,) * 7, (0.0,) * 7))
        with pytest.raises(tv.SearchInvariantError):
            enumerate_rank3(Hypergraph(3, [{1, 2, 3}]), lambda t: None, check_measure=True)

    def test_violation_message(self, monkeypatch):
        from transversals import analysis

        monkeypatch.setattr(analysis, "DEFAULT_WEIGHTS", tv.Weights((0.0,) * 7, (0.0,) * 7))
        with pytest.raises(tv.SearchInvariantError) as caught:
            enumerate_rank3(Hypergraph(3, [{1, 2, 3}]), lambda t: None, check_measure=True)
        assert str(caught.value) == "measure inequality violated at R2_2: 3.0 > 1.0"

    def test_measure_evaluated_once_per_node(self, monkeypatch, no_memo):
        from transversals import analysis

        calls = 0
        measure = analysis.mask_measure

        def counted(*args):
            nonlocal calls
            calls += 1
            return measure(*args)

        monkeypatch.setattr(analysis, "mask_measure", counted)
        stats = enumerate_rank3(tv.gen_lower_bound(3, 15), lambda t: None, check_measure=True)
        assert calls == stats.nodes

    def test_measure_evaluated_once_per_child_built(self, monkeypatch):
        # with the memo each distinct state is expanded once, so only the
        # root and the children the branch step builds are measured
        from transversals import analysis, rank3

        calls = built = 0
        measure = analysis.mask_measure
        apply = rank3.apply_rule

        def counted(*args):
            nonlocal calls
            calls += 1
            return measure(*args)

        def building(inst, rule):
            nonlocal built
            children = apply(inst, rule)
            built += len(children)
            return children

        monkeypatch.setattr(analysis, "mask_measure", counted)
        monkeypatch.setattr(rank3, "apply_rule", building)
        stats = enumerate_rank3(tv.gen_lower_bound(3, 15), lambda t: None, check_measure=True)
        assert calls == 1 + built < stats.nodes


def shift(edges, offset):
    return [{v + offset for v in e} for e in edges]


# Star hypergraphs of cubic (multi)graphs are 3-uniform with every degree 2,
# the only states that reach the maximum-degree-2 branching rules.
K4_STARS = [{1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6}]
DOUBLED_EDGE_STARS = [{1, 2, 3}, {1, 2, 4}, {3, 5, 6}, {4, 5, 6}]
PRISM_STARS = [{1, 3, 7}, {1, 2, 8}, {2, 3, 9}, {4, 6, 7}, {4, 5, 8}, {5, 6, 9}]
GRID_STARS = [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 4, 7}, {2, 5, 8}, {3, 6, 9}]


def trace_tags(h):
    from collections import Counter

    tags = Counter()

    def walk(inst):
        rule = next_rule(inst)
        tags[rule.tag] += 1
        for child in apply_rule(inst, rule):
            walk(child)

    walk(Instance(h))
    return tags


class TestCubicStarInstances:
    @pytest.mark.parametrize(
        "edges,n,fired",
        [
            (K4_STARS, 6, "R4_3"),
            (DOUBLED_EDGE_STARS, 6, "R4_2"),
            (PRISM_STARS, 9, "R4_3"),
            (GRID_STARS, 9, "R4_3"),
        ],
    )
    def test_two_regular_blocks_match_oracle(self, edges, n, fired):
        h = Hypergraph(n, edges)
        assert run(enumerate_rank3, h, check_measure=True) == oracle(h)
        assert trace_tags(h)[fired] >= 1

    def test_disjoint_union_multiplies_counts(self):
        h = Hypergraph(12, K4_STARS + shift(DOUBLED_EDGE_STARS, 6))
        got = run(enumerate_rank3, h, check_measure=True)
        assert got == oracle(h)
        assert len(got) == 7 * 5
        tags = trace_tags(h)
        assert tags["R4_2"] >= 10 and tags["R4_3"] >= 1

    def test_every_rule_fires_somewhere(self):
        from collections import Counter

        total = Counter()
        corpus = [
            Hypergraph(6, K4_STARS),
            Hypergraph(6, DOUBLED_EDGE_STARS),
            Hypergraph(9, PRISM_STARS),
            Hypergraph(3, [set(), {1, 2}]),
            tv.gen_lower_bound(3, 10),
        ] + [h for h in instance_deck(120, kmin=1, kmax=3, nmin=4) if h.rank() <= 3]
        for h in corpus:
            total += trace_tags(h)
        all_tags = {
            "R0_0", "R0_1", "R1_0", "R1_1", "R1_2",
            "R2_1", "R2_2", "R2_3",
            "R3_1", "R3_2", "R3_3",
            "R4_1", "R4_2", "R4_3",
        }
        assert set(total) >= all_tags, f"rules never exercised: {all_tags - set(total)}"



@pytest.mark.parametrize(
    "h,shape,tags,digest",
    [
        (
            tv.gen_lower_bound(3, 15),
            (2123, 1000, 24, 1000),
            {"R0_1": 1000, "R1_1": 299, "R2_1": 206, "R2_2": 175, "R3_2": 206, "R3_3": 31, "R4_1": 206},
            "c8c648be3358fd7ef4f36314447fc20065c435b655547f5032ba24c28b3b3aaf",
        ),
        (
            Hypergraph(12, K4_STARS + shift(DOUBLED_EDGE_STARS, 6)),
            (206, 70, 11, 35),
            {
                "R0_1": 70, "R1_0": 23, "R1_1": 20, "R1_2": 25, "R2_1": 24,
                "R2_3": 22, "R3_1": 1, "R3_2": 10, "R4_2": 10, "R4_3": 1,
            },
            "ebc88e833924e2a6fd4140cfd517cdfcdeefc651dca13330ed7d2b4d8c0d4c48",
        ),
        (
            tv.gen_lower_bound(3, 20),
            (20623, 10000, 32, 10000),
            None,
            "0194ca6c3d2bfd1a6e867ef35f0b0e3f1ac24219b8b0c8cbf90ab2236d9ab1ef",
        ),
    ],
    ids=["lb3-n15", "cubic-stars", "lb3-n20"],
)
def test_tree_shape_pinned(h, shape, tags, digest):
    lines = []
    stats = enumerate_rank3(h, lambda m: lines.append(" ".join(map(str, sorted(set_of(m)))) + "\n"))
    assert (stats.nodes, stats.leaves, stats.max_depth, stats.outputs) == shape
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest
    if tags is not None:
        assert dict(trace_tags(h)) == tags
