"""Command-line front end.

Exit codes: 0 success, 1 failed measure verification, 2 input parse or
usage failure, 3 algorithm/input mismatch (`--algorithm rank3` above
rank 3; the other engines run at every rank), 4 internal invariant
breach.

The enumeration commands import only the engines; the analysis toolbox
and the instance generators load inside the commands that use them. The
engines hand each transversal over as a vertex mask (bit v for vertex
v); sizes are bit counts, and a line joins one string per byte of the
mask, taken from per-run tables that map each byte value, on first use,
to its vertex ids joined by spaces.
"""

from __future__ import annotations

import argparse
import sys

from .bitsets import byte_entries, byte_tables, edge_key, iter_bits, mask_of
from .compression import enumerate_compression
from .errors import ParseError, SearchInvariantError, UnsupportedInstanceError
from .hypergraph import Hypergraph, SearchStats, count_only, parse_hypergraph, serialize_hypergraph
from .rank3 import enumerate_rank3
from .rankk import enumerate_rankk


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Enumerate all minimal transversals (minimal hitting sets) of a hypergraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("enumerate", "print every minimal transversal, one per line"),
        ("count", "print the number of minimal transversals"),
        ("minimum", "print one minimum-cardinality minimal transversal"),
        ("count-minimum", "print the number of minimum-cardinality minimal transversals"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_enumeration)
        p.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
        p.add_argument(
            "--algorithm",
            choices=("auto", "rank3", "rankk", "compression", "oracle"),
            default="auto",
        )
        p.add_argument("--stats", action="store_true", help="print node/leaf counters to stderr")
        if name == "enumerate":
            p.add_argument("--canonical", action="store_true", help="buffer and sort the output")

    p = sub.add_parser("generate", help="emit a generated instance in the input format")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("--kind", choices=("lb", "triangles", "random"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-measure", help="check the branching constraints of a weight table")
    p.set_defaults(run=_cmd_verify_measure)
    p.add_argument("--weights", default=None, help="weights file (default: built-in table)")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("bounds-table", help="print lower/upper bound bases per rank")
    p.set_defaults(run=_cmd_bounds_table)
    p.add_argument("--kmax", type=int, required=True)

    return parser


def _read_input(path: str) -> Hypergraph:
    if path == "-":
        return parse_hypergraph(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_hypergraph(handle.read())


def _run_engine(name: str, h: Hypergraph, sink) -> SearchStats:
    if name == "auto":
        rank = h.rank()
        if rank <= 3:
            name = "rank3"
        elif rank == 4:
            name = "compression"
        else:
            name = "rankk"
    if name == "rank3":
        return enumerate_rank3(h, sink)
    if name == "rankk":
        return enumerate_rankk(h, sink)
    if name == "compression":
        return enumerate_compression(h, sink)
    if name == "oracle":
        from .instances import brute_force_enumerate

        found = brute_force_enumerate(h)
        for t in found:
            sink(mask_of(t))
        scanned = 1 << h.n
        return SearchStats(nodes=scanned, leaves=scanned, max_depth=0, outputs=len(found))
    raise ValueError(f"unknown algorithm {name!r}")


def _byte_words(j: int, b: int) -> str:
    """The ids of the vertices 8j..8j+7 picked by the bits of b, ascending, joined by spaces."""
    return " ".join(map(str, iter_bits(b << 8 * j)))


def _cmd_enumeration(args: argparse.Namespace) -> int:
    h = _read_input(args.input)
    out = sys.stdout
    words = byte_tables(h.n)

    def line(mask: int) -> str:
        return " ".join(byte_entries(mask, words, _byte_words)) + "\n"

    if args.command == "enumerate":
        if getattr(args, "canonical", False):
            collected: list[int] = []
            stats = _run_engine(args.algorithm, h, collected.append)
            for mask in sorted(collected, key=edge_key):  # ascending vertex lists
                out.write(line(mask))
        else:
            stats = _run_engine(args.algorithm, h, lambda m: out.write(line(m)))
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
            out.write(line(best))

    if args.stats:
        sys.stderr.write(
            f"stats: nodes={stats.nodes} leaves={stats.leaves} "
            f"max_depth={stats.max_depth} outputs={stats.outputs}\n"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .instances import gen_lower_bound, gen_random

    if args.kind == "triangles":
        if args.k not in (None, 2):
            raise ParseError("--kind triangles fixes k at 2")
        h = gen_lower_bound(2, args.n)
    elif args.kind == "lb":
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
    report = verify_weights(weights, tolerance=args.tolerance)
    sys.stdout.write(format_report(report))
    return 0 if report.passed else 1


def _cmd_bounds_table(args: argparse.Namespace) -> int:
    from .analysis import bounds_table

    if args.kmax < 2:
        raise ParseError("--kmax must be at least 2")
    sys.stdout.write("k lower upper\n")
    for row in bounds_table(args.kmax):
        scaled = row.upper * 10_000
        digits = 4 if abs(scaled - round(scaled)) < 1e-4 else 7
        sys.stdout.write(f"{row.k} {row.lower:.4f} {row.upper:.{digits}f}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        return args.run(args)
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
