"""The engines' sink contract: every engine hands its sink vertex masks
(bit v for vertex v), one per minimal transversal, and nothing else."""

import contextlib

import pytest

import transversals as tv
from transversals import Hypergraph, enumerate_compression, enumerate_rank3, enumerate_rankk
from transversals.bitsets import set_of

from helpers import canon, instance_deck, oracle, packed_blocks, rankk_inner

K4 = Hypergraph(4, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}])  # compression finds no anchor
EDGE_CASES = [Hypergraph(0, []), Hypergraph(3, []), Hypergraph(4, [{1, 2}, set()]), Hypergraph(7, [{1, 2}, {2, 3}])]
RANK3 = instance_deck(40, kmin=1, kmax=3, nmax=10) + EDGE_CASES + [tv.gen_lower_bound(3, 10)]
ANY_RANK = instance_deck(40, kmin=1, kmax=6, nmax=10) + EDGE_CASES + [K4, packed_blocks(4, 2)]

#: name -> (engine, keywords, deck, context the runs happen in)
ENGINES = {
    "rank3": (enumerate_rank3, {}, RANK3, contextlib.nullcontext),
    "rank3-check-measure": (enumerate_rank3, {"check_measure": True}, RANK3, contextlib.nullcontext),
    "rankk": (enumerate_rankk, {}, ANY_RANK, contextlib.nullcontext),
    "compression": (enumerate_compression, {}, ANY_RANK + [tv.gen_lower_bound(4, 13)], contextlib.nullcontext),
    "compression-rankk-inner": (enumerate_compression, {}, ANY_RANK + [tv.gen_lower_bound(4, 13)], rankk_inner),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_sink_gets_only_masks(name):
    engine, kwargs, deck, context = ENGINES[name]
    for h in deck:
        out = []
        with context():
            stats = engine(h, out.append, **kwargs)
        assert all(type(m) is int for m in out)
        assert all(not m & 1 and not m >> (h.n + 1) for m in out)  # vertices 1..n only
        assert canon(map(set_of, out)) == oracle(h)
        assert stats.outputs == len(out)


def test_decks_reach_every_branch():
    assert {h.rank() for h in ANY_RANK} >= set(range(7))
    assert {h.rank() for h in RANK3} >= set(range(4))
    assert tv.find_split(K4) is None
    assert tv.find_split(tv.gen_lower_bound(4, 13)) is not None
