"""Command-line front end.

Exit codes: 0 success, 1 failed measure verification, 2 input parse or
usage failure (also when stdout is closed), 3 algorithm/input mismatch
(`--algorithm rank3` above rank 3, the oracle above n = 25, or
compression, also under `auto` at rank 4, with a phase-1 anchor of more
than 26 vertices or no memory for its subset table; rankk runs at every
rank), 4 internal invariant breach, 141 (128 + SIGPIPE) when the reader
closes stdout early.

`main` reads an enumeration command (`enumerate`, `count`, `minimum`,
`count-minimum`) whose options are written out in full without argparse:
`--stats`, `--canonical` (`enumerate` only), `--algorithm A` with A one
of its choices, and at most one input, `-` or a word that does not
start with `-`. Every other command line goes to the argparse parser
that `_build_parser` builds, and only then is argparse imported: help,
usage errors, abbreviations such as `--stat`, `--algorithm=A`, `--`, a
second input, and the commands `generate`, `verify-measure` and
`bounds-table`. The reader gives the fields the parser would give.

The enumeration commands import only the engine they run: `cli`'s
`enumerate_rank3`, `enumerate_rankk` and `enumerate_compression`, from
the package's one engine loader, load their module on the first call
(compression loads rank3, and rankk only above rank 4). The analysis
toolbox and the instance generators load inside the commands that use
them.

The engines hand each transversal over as a vertex mask (bit v for
vertex v); sizes are bit counts. Each command writes its lines through
one `bitsets.PackedSink`, in blocks of up to `_BLOCK` masks and
`_BLOCK_BYTES` bytes, one by one when stdout is line-buffered (a
terminal): each little-endian byte of a block maps, through one per-run
`bitsets.ByteTable` per byte position, to its vertex ids, each after a
space, the table of the last position adding the line end. Streaming
`enumerate` hands the engine that sink, and the search kernel hands it
each replayed subtree's outputs as one packed block, so most lines
never exist as ints; `--canonical` packs its sorted masks a block at a
time, and `minimum` feeds it its one mask.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Callable
from itertools import cycle, repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import _loader
from .bitsets import PackedSink, byte_tables, edge_key, iter_bits, mask_of
from .errors import ParseError, SearchInvariantError, UnsupportedInstanceError
from .hypergraph import Hypergraph, SearchStats, TransversalSink, count_only, parse_hypergraph, serialize_hypergraph

if TYPE_CHECKING:
    import argparse

#: At most this many masks per block, and at most this many bytes of lines:
#: stdout's buffer size, so each block's `write` comes no later than the
#: same lines written one by one would have filled the buffer.
_BLOCK, _BLOCK_BYTES = 256, 8192

#: The enumeration commands with their help lines, and `--algorithm`'s choices.
_ENUMERATION = {
    "enumerate": "print every minimal transversal, one per line",
    "count": "print the number of minimal transversals",
    "minimum": "print one minimum-cardinality minimal transversal",
    "count-minimum": "print the number of minimum-cardinality minimal transversals",
}
_ALGORITHMS = ("auto", "rank3", "rankk", "compression", "oracle")


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only for the command lines `_read_enumeration` leaves to it

    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Enumerate all minimal transversals (minimal hitting sets) of a hypergraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in _ENUMERATION.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_enumeration)
        p.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
        p.add_argument("--algorithm", choices=_ALGORITHMS, default="auto")
        p.add_argument("--stats", action="store_true", help="print node/leaf counters to stderr")
        if name == "enumerate":
            p.add_argument("--canonical", action="store_true", help="buffer and sort the output")

    p = sub.add_parser("generate", help="emit a generated instance in the input format")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--kind", choices=("lb", "random"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-measure", help="check the branching constraints of a weight table")
    p.set_defaults(run=_cmd_verify_measure)
    p.add_argument("--weights", default=None, help="weights file (default: built-in table)")

    p = sub.add_parser("bounds-table", help="print lower/upper bound bases per rank")
    p.set_defaults(run=_cmd_bounds_table)
    p.add_argument("--kmax", type=int, required=True)

    return parser


def _read_enumeration(argv: list[str]) -> SimpleNamespace | None:
    """The fields `_build_parser().parse_args(argv)` gives, for an
    enumeration command with its options written out in full (the module
    docstring lists the forms); None for every other argv."""
    if not argv or argv[0] not in _ENUMERATION:
        return None
    args = SimpleNamespace(command=argv[0], run=_cmd_enumeration, input=None, algorithm="auto", stats=False)
    if args.command == "enumerate":
        args.canonical = False
    words = iter(argv[1:])
    for word in words:
        if word == "--stats":
            args.stats = True
        elif word == "--canonical" and args.command == "enumerate":
            args.canonical = True
        elif word == "--algorithm":
            args.algorithm = next(words, None)
            if args.algorithm not in _ALGORITHMS:
                return None
        elif args.input is None and (word == "-" or not word.startswith("-")):
            args.input = word
        else:
            return None
    if args.input is None:
        args.input = "-"
    return args


def _read_input(path: str) -> Hypergraph:
    if path == "-":
        return parse_hypergraph(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_hypergraph(handle.read())


#: The engines, each module loaded on its first call (compression's loads rank3).
enumerate_rank3 = _loader("enumerate_rank3")
enumerate_rankk = _loader("enumerate_rankk")
enumerate_compression = _loader("enumerate_compression")


def _run_engine(name: str, h: Hypergraph, sink: TransversalSink) -> SearchStats:
    if name == "auto":
        rank = h.rank()
        if rank <= 3:
            name = "rank3"
        elif rank == 4:
            name = "compression"
        else:
            name = "rankk"
    if name in ("rank3", "rankk", "compression"):
        # looked up at each call: the benchmark's trace and the tests replace these names
        return globals()[f"enumerate_{name}"](h, sink)
    if name == "oracle":
        from .instances import brute_force_enumerate

        found = brute_force_enumerate(h)
        for t in found:
            sink(mask_of(t))
        scanned = 1 << h.n
        return SearchStats(nodes=scanned, leaves=scanned, max_depth=0, outputs=len(found))
    raise ValueError(f"unknown algorithm {name!r}")


def _text(n: int) -> Callable[[bytes], str]:
    """text(data): the output lines of the masks on the vertices 1..n that
    data packs, (n >> 3) + 1 bytes each (bit 0 included), little-endian,
    as one string."""
    width = (n >> 3) + 1

    def words(j: int, b: int) -> str:
        """The vertices that b picks at byte position j, each after a space; the last position ends the line."""
        return "".join(f" {v}" for v in iter_bits(b << 8 * j)) + ("\n" if j == width - 1 else "")

    tables = byte_tables(n, words)

    def text(data: bytes) -> str:
        # each line's words begin with a space; drop it
        return "".join(map(dict.__getitem__, cycle(tables), data)).replace("\n ", "\n").removeprefix(" ")

    return text


def _block_size(h: Hypergraph, out) -> int:
    """Masks per write: 1 to a line-buffered stream (a terminal), else as
    many as `_BLOCK` and `_BLOCK_BYTES` allow for lines of the longest
    length possible. A minimal transversal has a private edge per member,
    so it has at most min(n, m) members, each at most len(str(n)) + 1
    bytes with its separator; a line longer than `_BLOCK_BYTES` goes
    out alone."""
    if getattr(out, "line_buffering", False):
        return 1
    longest = min(h.n, len(h._masks)) * (len(str(h.n)) + 1)
    return max(1, min(_BLOCK, _BLOCK_BYTES // max(longest, 1)))


def _cmd_enumeration(args: argparse.Namespace | SimpleNamespace) -> int:
    h = _read_input(args.input)
    out = sys.stdout
    text, block = _text(h.n), _block_size(h, out)
    lines = PackedSink(h.n, block, lambda data: out.write(text(data)))
    try:
        if args.command == "enumerate":
            if args.canonical:
                collected: list[int] = []
                stats = _run_engine(args.algorithm, h, collected.append)
                collected.sort(key=edge_key)  # ascending vertex lists
                widths, order = repeat(lines.width), repeat("little")
                for start in range(0, len(collected), block):  # packed a block at a time
                    lines.extend(b"".join(map(int.to_bytes, collected[start : start + block], widths, order)))
            else:
                stats = _run_engine(args.algorithm, h, lines)
        elif args.command == "count":
            stats = _run_engine(args.algorithm, h, count_only)
            out.write(f"{stats.outputs}\n")
        else:  # minimum, count-minimum
            best: int | None = None  # the first transversal of minimum size
            size, ties = h.n + 1, 0  # its size (n + 1 before any), and how many have it

            def tally(m: int) -> None:
                nonlocal best, size, ties
                c = m.bit_count()
                if c < size:
                    best, size, ties = m, c, 1
                elif c == size:
                    ties += 1

            stats = _run_engine(args.algorithm, h, tally)
            if args.command == "count-minimum":
                out.write(f"{ties}\n")
            elif best is not None:
                lines(best)
    finally:  # lines found before an exception still come out
        if lines.buffer:
            lines.flush(lines.buffer)

    if args.stats:
        sys.stderr.write(
            f"stats: nodes={stats.nodes} leaves={stats.leaves} "
            f"max_depth={stats.max_depth} outputs={stats.outputs}\n"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .instances import gen_lower_bound, gen_random

    if args.kind == "lb":
        if args.k is None:
            raise ParseError("--kind lb requires --k")
        h = gen_lower_bound(args.k, args.n)
    else:
        if args.k is None or args.m is None:
            raise ParseError("--kind random requires --k and --m")
        h = gen_random(args.k, args.n, args.m, args.seed)
    sys.stdout.write(serialize_hypergraph(h))
    return 0


def _cmd_verify_measure(args: argparse.Namespace) -> int:
    from .analysis import DEFAULT_WEIGHTS, format_report, load_weights, verify_weights

    if args.weights is None:
        weights = DEFAULT_WEIGHTS
    else:
        with open(args.weights, encoding="utf-8") as handle:
            weights = load_weights(handle.read())
    report = verify_weights(weights)
    sys.stdout.write(format_report(report))
    return 0 if report.passed else 1


def _cmd_bounds_table(args: argparse.Namespace) -> int:
    from .analysis import format_bounds_table

    if args.kmax < 2:
        raise ParseError("--kmax must be at least 2")
    sys.stdout.write(format_bounds_table(args.kmax))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_enumeration(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors itself
            return int(exc.code or 0)
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "standard output is closed")
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe then fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # The reader is gone: the exit flush writes what is left to devnull, and the code is SIGPIPE's.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UnsupportedInstanceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ParseError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SearchInvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
