import hashlib
import math

import pytest

import transversals as tv
from transversals import Hypergraph, brute_force_enumerate, gen_lower_bound, gen_random, serialize_hypergraph
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

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_lower_bound(0, 5)
        with pytest.raises(ValueError):
            gen_lower_bound(2, -1)


class TestRandom:
    def test_deterministic_per_seed(self):
        assert gen_random(k=3, n=8, m=10, seed=1) == gen_random(k=3, n=8, m=10, seed=1)

    def test_seeds_differ(self):
        a = gen_random(k=3, n=8, m=10, seed=1)
        b = gen_random(k=3, n=8, m=10, seed=2)
        assert a != b

    def test_shape(self):
        h = gen_random(k=4, n=9, m=14, seed=5)
        assert h.n == 9
        assert len(h.edges) == 14
        assert all(1 <= len(e) <= 4 for e in h.edges)

    def test_infeasible_m(self):
        # C(5,1)+C(5,2)+C(5,3)+C(5,4) = 30 candidate edges < 100
        with pytest.raises(ValueError, match="infeasible"):
            gen_random(k=4, n=5, m=100, seed=0)

    def test_saturating_m_terminates(self):
        h = gen_random(k=2, n=4, m=10, seed=3)
        assert len(h.edges) == 10

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            gen_random(k=5, n=4, m=2, seed=0)

    @pytest.mark.parametrize(
        "k,n,m,seed,digest",
        [
            (4, 20, 30, 3, "f0bcf90201a8f4dbbfcd1d7285c899b8ba3b4e8a2f695c644a25afcd0ac40605"),
            (8, 60, 150, 4, "595c08b9d1a863bd6d8ee2ea82e4779f29696402bdd9ccfc2df0c0d3ae5c7b53"),
        ],
    )
    def test_serialized_stream_is_stable(self, k, n, m, seed, digest):
        # regression pin of the whole draw procedure, stream to serialized bytes
        text = serialize_hypergraph(gen_random(k=k, n=n, m=m, seed=seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_splitmix64_stream_is_stable():
    # regression pin of the fixed stream (reference SplitMix64 constants)
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    assert SplitMix64(2**64 + 7).state == SplitMix64(7).state

