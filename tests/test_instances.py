import math

import pytest

import transversals as tv
from transversals import GeneratorSpec, Hypergraph, brute_force_enumerate, gen_lower_bound, gen_random
from transversals.instances import SplitMix64

from helpers import canon, instance_deck, oracle


class TestBruteForce:
    def test_triangle(self):
        got = brute_force_enumerate(Hypergraph(3, [{1, 2}, {1, 3}, {2, 3}]))
        assert [tuple(sorted(t)) for t in got] == [(1, 2), (1, 3), (2, 3)]

    def test_empty_edge_kills_everything(self):
        assert brute_force_enumerate(Hypergraph(3, [set(), {1, 2}])) == []

    def test_edgeless_gives_empty_set(self):
        assert brute_force_enumerate(Hypergraph(4, [])) == [frozenset()]

    def test_output_is_canonically_sorted(self):
        for h in instance_deck(10):
            got = brute_force_enumerate(h)
            assert [tuple(sorted(t)) for t in got] == canon(got)

    def test_antichain(self):
        for h in instance_deck(20):
            found = brute_force_enumerate(h)
            for a in found:
                for b in found:
                    assert a == b or not a < b

    def test_relabel_invariance(self):
        for idx, h in enumerate(instance_deck(10, nmax=9)):
            rng = SplitMix64(900 + idx)
            ids = list(range(1, h.n + 1))
            # Fisher-Yates off the fixed stream
            for i in range(h.n - 1, 0, -1):
                j = rng.below(i + 1)
                ids[i], ids[j] = ids[j], ids[i]
            perm = {i + 1: ids[i] for i in range(h.n)}
            relabeled = Hypergraph(h.n, [{perm[v] for v in e} for e in h.edges])
            want = canon([{perm[v] for v in t} for t in brute_force_enumerate(h)])
            assert canon(brute_force_enumerate(relabeled)) == want

    def test_guard(self):
        with pytest.raises(tv.UnsupportedInstanceError):
            brute_force_enumerate(Hypergraph(26, []))


class TestLowerBoundFamily:
    def test_single_block_shape(self):
        h = gen_lower_bound(3, 5)
        assert h.n == 5
        assert len(h.edges) == 10
        assert all(len(e) == 3 for e in h.edges)

    def test_two_triangles(self):
        h = gen_lower_bound(2, 6)
        assert len(h.edges) == 6
        assert len(oracle(h)) == 9

    def test_padding_keeps_n(self):
        h = gen_lower_bound(3, 12)
        assert h.n == 12
        assert len(h.edges) == 20
        touched = set().union(*h.edges)
        assert touched == set(range(1, 11))  # vertices 11, 12 isolated

    @pytest.mark.parametrize(
        "k,n",
        [(1, 4), (2, 3), (2, 7), (2, 8), (3, 5), (3, 11), (3, 12), (4, 7), (4, 9), (4, 14)],
    )
    def test_counts_match_formula(self, k, n):
        blocks = n // (2 * k - 1)
        want = math.comb(2 * k - 1, k) ** blocks
        assert len(brute_force_enumerate(gen_lower_bound(k, n))) == want

    def test_triangles_alias(self):
        assert tv.gen_triangles(7) == gen_lower_bound(2, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_lower_bound(0, 5)
        with pytest.raises(ValueError):
            gen_lower_bound(2, -1)


class TestRandom:
    def test_deterministic_per_seed(self):
        spec = GeneratorSpec("random", k=3, n=8, m=10, seed=1)
        assert gen_random(spec) == gen_random(spec)

    def test_seeds_differ(self):
        a = gen_random(GeneratorSpec("random", k=3, n=8, m=10, seed=1))
        b = gen_random(GeneratorSpec("random", k=3, n=8, m=10, seed=2))
        assert a != b

    def test_shape(self):
        h = gen_random(GeneratorSpec("random", k=4, n=9, m=14, seed=5))
        assert h.n == 9
        assert len(h.edges) == 14
        assert all(1 <= len(e) <= 4 for e in h.edges)

    def test_infeasible_m(self):
        # C(5,1)+C(5,2)+C(5,3)+C(5,4) = 30 candidate edges < 100
        with pytest.raises(ValueError, match="infeasible"):
            gen_random(GeneratorSpec("random", k=4, n=5, m=100, seed=0))

    def test_saturating_m_terminates(self):
        h = gen_random(GeneratorSpec("random", k=2, n=4, m=10, seed=3))
        assert len(h.edges) == 10

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            gen_random(GeneratorSpec("random", k=5, n=4, m=2, seed=0))

    def test_requires_m_and_seed(self):
        with pytest.raises(ValueError):
            gen_random(GeneratorSpec("random", k=2, n=4))


def test_splitmix64_stream_is_stable():
    # regression pin of the fixed stream (reference SplitMix64 constants)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert SplitMix64(2**64 + 7).state == SplitMix64(7).state


def test_generate_dispatch():
    assert tv.generate(GeneratorSpec("lower_bound", k=2, n=6)) == gen_lower_bound(2, 6)
    assert tv.generate(GeneratorSpec("triangles", n=6)) == gen_lower_bound(2, 6)
    with pytest.raises(ValueError):
        tv.generate(GeneratorSpec("mystery", n=3))
