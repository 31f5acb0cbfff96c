"""Differential tests past the brute-force oracle's guard (n > 25): each
engine against `reference.py`, an MMCS that shares no code with the
package, through the CLI's enumeration commands and under several
budgets of the search kernel's memo and replay."""

import io
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import cli, hypergraph, serialize_hypergraph

import reference

#: Kernel settings each input runs under, as (name, value) in `hypergraph`:
#: the defaults, no memo, a small memo, no replay, and replay of one output.
BUDGETS = [(None, None), ("_MEMO_MASKS", 0), ("_MEMO_MASKS", 8), ("_REPLAY_CAP", 0), ("_REPLAY_CAP", 1)]


def cli_lines(args, text):
    """The stdout lines of `cli.main(args)` with text on stdin; it must exit 0."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(args) == 0
    finally:
        sys.stdin = stdin
    return out.getvalue().splitlines()


def mask(line):
    return sum(1 << v for v in map(int, line.split()))  # a line lists distinct vertices


def assert_matches_reference(h, algorithms, budgets=BUDGETS):
    """Each algorithm's enumerate, count and count-minimum agree with MMCS on h under each budget,
    and minimum prints the first least transversal that enumerate prints at the defaults."""
    text = serialize_hypergraph(h)
    want = []
    reference.mmcs(*reference.read_hg(text), want.append)
    least = min(map(int.bit_count, want), default=None)
    ties = sum(m.bit_count() == least for m in want)
    for name, value in budgets:
        with pytest.MonkeyPatch.context() as monkeypatch:
            if name is not None:
                monkeypatch.setattr(hypergraph, name, value)
            for algorithm in algorithms:
                run = lambda command: cli_lines([command, "--algorithm", algorithm, "-"], text)
                got = list(map(mask, run("enumerate")))
                where = (algorithm, name, value)
                assert len(got) == len(set(got)), where  # nothing emitted twice
                assert set(got) == set(want), where
                assert run("count") == [str(len(want))], where
                assert run("count-minimum") == [str(ties)], where
                if name is None:  # minimum reads the stream that count-minimum reads
                    best = list(map(mask, run("minimum")))
                    assert best == [m for m in got if m.bit_count() == least][:1], where


def test_reference_reads_empty_edges_comments_and_isolated_vertices():
    assert reference.count("c a comment\n# another\np hg 4 2\n1 2\n\n") == 0
    assert reference.count("p hg 9 0\n") == 1
    assert reference.count("\np hg 9 3\n1 2\n2 3\n1 2\n") == 2


@st.composite
def decks(draw):
    """n in 26..48, at most 24 edges, rank 2..8: one edge of the rank, the rest no larger."""
    n = draw(st.integers(26, 48))
    k = draw(st.integers(2, 8))
    vertex = st.integers(1, n)
    edges = [draw(st.frozensets(vertex, min_size=k, max_size=k))]
    edges += draw(st.lists(st.frozensets(vertex, min_size=1, max_size=k), max_size=23))
    return tv.Hypergraph(n, edges)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(decks())
def test_engines_match_reference_past_the_oracle(h):
    # auto runs rank3 at rank <= 3 and rankk above 4, so it stands for them
    # there; at rank 4 it runs compression, which the fixed inputs below cover.
    rank = h.rank()
    assert_matches_reference(h, ["auto", "rankk"] if rank <= 3 else ["rankk"] if rank == 4 else ["auto"])


@pytest.mark.parametrize("k, n, m, seed", [(4, 28, 40, 1)])
def test_compression_matches_reference_past_the_oracle(k, n, m, seed):
    h = tv.gen_random(k=k, n=n, m=m, seed=seed)
    assert h.rank() == 4
    assert_matches_reference(h, ["compression"], budgets=BUDGETS[:1])
