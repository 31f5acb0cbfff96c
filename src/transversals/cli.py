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
import time

from .bitsets import byte_entries, byte_tables, edge_key, iter_bits, mask_of
from .compression import DEFAULT_ALPHA, CompressionConfig, enumerate_compression
from .errors import ParseError, SearchInvariantError, UnsupportedInstanceError
from .hypergraph import Hypergraph, SearchStats, parse_hypergraph, serialize_hypergraph
from .rank3 import enumerate_rank3
from .rankk import enumerate_rankk

ENUM_COMMANDS = ("enumerate", "count", "minimum", "count-minimum", "bench")


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
        ("bench", "run the enumeration, print a summary instead of transversals"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default="-", help="input file (default: stdin)")
        p.add_argument(
            "--algorithm",
            choices=("auto", "rank3", "rankk", "compression", "oracle"),
            default="auto",
        )
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="compression phase split")
        p.add_argument("--stats", action="store_true", help="print node/leaf counters to stderr")
        if name == "enumerate":
            p.add_argument("--canonical", action="store_true", help="buffer and sort the output")

    p = sub.add_parser("generate", help="emit a generated instance in the input format")
    p.add_argument("--kind", choices=("lb", "triangles", "random"), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-measure", help="check the branching constraints of a weight table")
    p.add_argument("--weights", default=None, help="weights file (default: built-in table)")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("bounds-table", help="print lower/upper bound bases per rank")
    p.add_argument("--kmax", type=int, required=True)

    return parser


def _read_input(path: str) -> Hypergraph:
    if path == "-":
        return parse_hypergraph(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_hypergraph(handle.read())


def _pick_algorithm(name: str, h: Hypergraph) -> str:
    if name != "auto":
        return name
    rank = h.rank()
    if rank <= 3:
        return "rank3"
    if rank == 4:
        return "compression"
    return "rankk"


def _run_engine(name: str, h: Hypergraph, config: CompressionConfig, sink) -> SearchStats:
    if name == "rank3":
        return enumerate_rank3(h, sink, masks=True)
    if name == "rankk":
        return enumerate_rankk(h, sink, masks=True)
    if name == "compression":
        return enumerate_compression(h, sink, config, masks=True)
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
    # Validates --alpha for every input, whichever engine runs.
    config = CompressionConfig(alpha=args.alpha)
    h = _read_input(args.input)
    algorithm = _pick_algorithm(args.algorithm, h)
    out = sys.stdout
    words = byte_tables(h.n)

    def line(mask: int) -> str:
        return " ".join(byte_entries(mask, words, _byte_words)) + "\n"

    if args.command == "enumerate":
        if getattr(args, "canonical", False):
            collected: list[int] = []
            stats = _run_engine(algorithm, h, config, collected.append)
            for mask in sorted(collected, key=edge_key):  # ascending vertex lists
                out.write(line(mask))
        else:
            stats = _run_engine(algorithm, h, config, lambda m: out.write(line(m)))
    elif args.command == "count":
        stats = _run_engine(algorithm, h, config, lambda m: None)
        out.write(f"{stats.outputs}\n")
    elif args.command in ("minimum", "count-minimum"):
        best: int | None = None  # the first transversal of minimum size
        size, ties = h.n + 1, 0  # its size (n + 1 before any), and how many have it

        def tally(m: int) -> None:
            nonlocal best, size, ties
            c = m.bit_count()
            if c < size:
                best, size, ties = m, c, 1
            elif c == size:
                ties += 1

        stats = _run_engine(algorithm, h, config, tally)
        if args.command == "count-minimum":
            out.write(f"{ties}\n")
        elif best is not None:
            out.write(line(best))
    else:  # bench
        started = time.perf_counter()
        stats = _run_engine(algorithm, h, config, lambda m: None)
        elapsed = time.perf_counter() - started
        out.write(
            f"algorithm={algorithm} n={h.n} edges={len(h.edge_masks())} rank={h.rank()} "
            f"outputs={stats.outputs} nodes={stats.nodes} leaves={stats.leaves} "
            f"max_depth={stats.max_depth}\n"
        )
        sys.stderr.write(f"time_s={elapsed:.3f}\n")

    if args.stats:
        sys.stderr.write(
            f"stats: nodes={stats.nodes} leaves={stats.leaves} "
            f"max_depth={stats.max_depth} outputs={stats.outputs}\n"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .instances import GeneratorSpec, generate

    kind = {"lb": "lower_bound", "triangles": "triangles", "random": "random"}[args.kind]
    if kind == "triangles":
        if args.k not in (None, 2):
            raise ParseError("--kind triangles fixes k at 2")
        spec = GeneratorSpec(kind=kind, k=2, n=args.n)
    elif kind == "lower_bound":
        if args.k is None:
            raise ParseError("--kind lb requires --k")
        spec = GeneratorSpec(kind=kind, k=args.k, n=args.n)
    else:
        if args.k is None or args.m is None:
            raise ParseError("--kind random requires --k and --m")
        spec = GeneratorSpec(kind=kind, k=args.k, n=args.n, m=args.m, seed=args.seed)
    sys.stdout.write(serialize_hypergraph(generate(spec)))
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
        if args.command in ENUM_COMMANDS:
            return _cmd_enumeration(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "verify-measure":
            return _cmd_verify_measure(args)
        return _cmd_bounds_table(args)
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
