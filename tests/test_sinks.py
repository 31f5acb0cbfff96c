"""The engines' sink contract: frozensets by default, vertex masks with
masks=True, the same transversals in the same order with the same stats."""

import contextlib

import pytest

import transversals as tv
from transversals import Hypergraph, enumerate_compression, enumerate_rank3, enumerate_rankk
from transversals.bitsets import set_of

from helpers import instance_deck, packed_blocks, rankk_inner

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


def emitted(engine, h, **kwargs):
    out = []
    stats = engine(h, out.append, **kwargs)
    return out, stats


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_masks_keyword_changes_only_the_value_type(name):
    engine, kwargs, deck, context = ENGINES[name]
    for h in deck:
        with context():
            plain, plain_stats = emitted(engine, h, **kwargs)
            masked, masked_stats = emitted(engine, h, **kwargs, masks=True)
        assert all(type(t) is frozenset for t in plain)
        assert all(type(m) is int for m in masked)
        assert [set_of(m) for m in masked] == plain
        assert masked_stats == plain_stats


def test_decks_reach_every_branch():
    assert {h.rank() for h in ANY_RANK} >= set(range(7))
    assert {h.rank() for h in RANK3} >= set(range(4))
    assert tv.find_split(K4) is None
    assert tv.find_split(tv.gen_lower_bound(4, 13)) is not None
