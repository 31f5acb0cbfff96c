import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transversals as tv
from transversals import bitsets, cli, compression, find_split, hypergraph, serialize_hypergraph
from transversals.bitsets import iter_bits, set_of

from helpers import packed_blocks

SRC = str(Path(__file__).resolve().parents[1] / "src")
TRIANGLE_TEXT = "p hg 3 3\n1 2\n1 3\n2 3\n"
TWO_TRIPLES = "p hg 5 2\n1 2 3\n3 4 5\n"


def run_cli(args, stdin_text=None, out=None):
    out = io.StringIO() if out is None else out
    err = io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


class Recorder:
    """A stdout that keeps each write, line-buffered as on a terminal or not."""

    def __init__(self, line_buffering):
        self.line_buffering = line_buffering
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass

    def getvalue(self):
        return "".join(self.writes)


def line(mask):
    """The reference output line of a mask."""
    return " ".join(map(str, iter_bits(mask))) + "\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.hg"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


class TestEnumerate:
    @pytest.mark.parametrize("algorithm", ["auto", "rank3", "rankk", "compression"])
    def test_no_leaf_builds_a_frozenset(self, tmp_path, monkeypatch, algorithm):
        # The CLI formats, counts and tallies straight from the engines' masks.
        path = tmp_path / "lb3.hg"
        path.write_text(serialize_hypergraph(tv.gen_lower_bound(3, 10)))
        commands = [["enumerate"], ["enumerate", "--canonical"], ["count"], ["minimum"], ["count-minimum"]]
        runs = [[*cmd, str(path), "--algorithm", algorithm] for cmd in commands]
        want = [run_cli(args) for args in runs]

        def decode(mask):
            raise AssertionError("a transversal was decoded into a frozenset")

        for module in (bitsets, hypergraph):
            monkeypatch.setattr(module, "set_of", decode)
        for args, expected in zip(runs, want):
            assert run_cli(args) == expected
            assert expected[0] == 0 and expected[1]

    def test_canonical_golden(self, triangle_file):
        code, out, _ = run_cli(["enumerate", "--canonical", triangle_file])
        assert code == 0
        assert out == "1 2\n1 3\n2 3\n"

    def test_stdin_default(self):
        code, out, _ = run_cli(["enumerate", "--canonical"], stdin_text=TRIANGLE_TEXT)
        assert code == 0
        assert out == "1 2\n1 3\n2 3\n"

    def test_streaming_order_matches_engine(self, triangle_file):
        code, out, _ = run_cli(["enumerate", triangle_file])
        assert code == 0
        engine_order = []
        tv.enumerate_rank3(tv.parse_hypergraph(TRIANGLE_TEXT), lambda m: engine_order.append(set_of(m)))
        want = "".join(" ".join(map(str, sorted(t))) + "\n" for t in engine_order)
        assert out == want

    def test_edgeless_prints_blank_line(self):
        code, out, _ = run_cli(["enumerate"], stdin_text="p hg 2 0\n")
        assert code == 0
        assert out == "\n"

    def test_empty_edge_prints_nothing(self):
        code, out, _ = run_cli(["enumerate"], stdin_text="p hg 2 1\n\n")
        assert code == 0
        assert out == ""

    @pytest.mark.parametrize("algorithm", ["auto", "rank3", "rankk", "compression", "oracle"])
    def test_algorithms_agree_on_rank3_input(self, algorithm):
        code, out, _ = run_cli(
            ["enumerate", "--canonical", "--algorithm", algorithm], stdin_text=TWO_TRIPLES
        )
        assert code == 0
        assert out == "1 4\n1 5\n2 4\n2 5\n3\n"

    def test_stats_on_stderr(self):
        code, out, err = run_cli(["enumerate", "--stats"], stdin_text=TRIANGLE_TEXT)
        assert code == 0
        assert err.startswith("stats: nodes=")
        assert "outputs=3" in err


class TestLinesAcrossByteBoundaries:
    """Lines are joined from per-byte strings; ids next to byte boundaries."""

    H = tv.Hypergraph(65, [{7, 8}, {8, 9, 15}, {15, 16, 17}, {17, 63}, {63, 64, 65}, {7, 65}, {9, 16, 64}])
    ENGINES = {"rank3": tv.enumerate_rank3, "rankk": tv.enumerate_rankk}

    @staticmethod
    def text(t):
        return " ".join(map(str, sorted(t))) + "\n"

    @pytest.fixture
    def emitted(self, request):
        found = []
        self.ENGINES[request.param](self.H, lambda m: found.append(set_of(m)))
        assert set().union(*found) == {7, 8, 9, 15, 16, 17, 63, 64, 65}
        return request.param, found

    @pytest.mark.parametrize("emitted", sorted(ENGINES), indirect=True)
    def test_enumerate_minimum_and_canonical(self, emitted):
        algorithm, found = emitted
        text = serialize_hypergraph(self.H)
        run = lambda *cmd: run_cli([*cmd, "--algorithm", algorithm], stdin_text=text)
        assert run("enumerate") == (0, "".join(map(self.text, found)), "")
        canonical = sorted(found, key=sorted)
        assert run("enumerate", "--canonical") == (0, "".join(map(self.text, canonical)), "")
        first_minimum = min(found, key=len)
        assert run("minimum") == (0, self.text(first_minimum), "")


class TestLines:
    """Every enumeration command prints `line(mask)` per mask; `enumerate`
    writes in blocks of up to 256 masks and 8 KB of lines, or one line at a
    time to a line-buffered stdout."""

    WIDTHS = [0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 64, 200]

    @staticmethod
    def boundary_path(n):
        """A path through the vertices in 1..n next to byte boundaries, n among them."""
        ids = [v for v in (1, 7, 8, 9, 15, 16, 17, 24, 25, 63, 64, 65, 199, 200) if v <= n]
        return tv.Hypergraph(n, [{u, v} for u, v in zip(ids, ids[1:])] or ([{1}] if n else []))

    @staticmethod
    def blocks(*sizes):
        """Disjoint edges of the given sizes: the product of the sizes is the output count."""
        edges, base = [], 0
        for size in sizes:
            edges.append(range(base + 1, base + size + 1))
            base += size
        return tv.Hypergraph(base, edges)

    @staticmethod
    def emitted(algorithm, h):
        found = []
        cli._run_engine(algorithm, h, found.append)
        return found

    @pytest.mark.parametrize("algorithm", ["rank3", "rankk", "compression"])
    @pytest.mark.parametrize("n", WIDTHS)
    def test_every_command_across_widths(self, n, algorithm):
        h = self.boundary_path(n)
        if algorithm == "compression" and len(find_split(h) or ()) > compression._MAX_ANCHOR:
            # n = 64 and 200: an anchor of 42 and 133 vertices, most of them isolated
            for command in (["enumerate"], ["enumerate", "--canonical"], ["minimum"]):
                code, out, err = run_cli([*command, "--algorithm", algorithm], stdin_text=serialize_hypergraph(h))
                assert (code, out, err.count("\n")) == (3, "", 1)
                assert err.startswith("error: anchor of ") and err.endswith(" subproblems\n")
            return
        found = self.emitted(algorithm, h)
        assert found and (n == 0 or max(found).bit_length() == n + 1)  # vertex n is in an output
        run = lambda *cmd: run_cli([*cmd, "--algorithm", algorithm], stdin_text=serialize_hypergraph(h))
        assert run("enumerate") == (0, "".join(map(line, found)), "")
        canonical = sorted(found, key=lambda m: tuple(iter_bits(m)))
        assert run("enumerate", "--canonical") == (0, "".join(map(line, canonical)), "")
        assert run("minimum") == (0, line(min(found, key=int.bit_count)), "")

    @pytest.mark.parametrize("n", WIDTHS)
    def test_formatter_on_random_masks(self, n):
        rng = random.Random(n)
        masks = [rng.getrandbits(n + 1) & ~1 for _ in range(300)] + [0, (1 << (n + 1)) - 2]
        packed = b"".join(m.to_bytes((n >> 3) + 1, "little") for m in masks)
        assert cli._text(n)(packed) == "".join(map(line, masks))

    @pytest.mark.parametrize(
        "command", [["enumerate"], ["enumerate", "--canonical"], ["minimum"]], ids=["streamed", "canonical", "minimum"]
    )
    def test_edgeless_and_empty_edge(self, command):
        # the empty set is the one transversal of an edgeless input; no set hits an empty edge
        assert run_cli(command, stdin_text="p hg 9 0\n") == (0, "\n", "")
        assert run_cli(command, stdin_text="p hg 9 2\n1 9\n\n") == (0, "", "")

    @pytest.mark.parametrize(
        "count, sizes",
        [(255, (3, 5, 17)), (256, (2,) * 8), (257, (257,)), (513, (3, 3, 3, 19))],
        ids=["255", "256", "257", "513"],
    )
    @pytest.mark.parametrize("command", [["enumerate"], ["enumerate", "--canonical"]], ids=["streamed", "canonical"])
    def test_blocks_of_256(self, count, sizes, command):
        h = self.blocks(*sizes)
        found = self.emitted("auto", h)
        if "--canonical" in command:
            found.sort(key=lambda m: tuple(iter_bits(m)))
        assert len(found) == count
        out = Recorder(line_buffering=False)
        assert run_cli(command, stdin_text=serialize_hypergraph(h), out=out) == (0, "".join(map(line, found)), "")
        assert [text.count("\n") for text in out.writes] == [256] * (count // 256) + [count % 256] * (count % 256 > 0)

        out = Recorder(line_buffering=True)
        assert run_cli(command, stdin_text=serialize_hypergraph(h), out=out)[0] == 0
        assert out.writes == list(map(line, found))

    def test_wide_lines_make_smaller_blocks(self):
        # 100 forced vertices and 9 pairs: 512 lines of at most 109 ids of 4 bytes each
        h = self.blocks(*(1,) * 100, *(2,) * 9)
        found = self.emitted("auto", h)
        assert len(found) == 512
        out = Recorder(line_buffering=False)
        assert run_cli(["enumerate"], stdin_text=serialize_hypergraph(h), out=out) == (0, "".join(map(line, found)), "")
        block = 8192 // (109 * 4)
        assert [text.count("\n") for text in out.writes] == [block] * (512 // block) + [512 % block]
        assert max(len(text) for text in out.writes) <= 8192

    def test_lines_longer_than_a_block_go_out_one_by_one(self, monkeypatch):
        # vertex 1 is forced and 1,639 more edges hold it: the longest line possible is
        # 1,640 ids of 5 bytes, over 8 KB; a 3-block lb3 at the top of n = 2000 has replays
        lb = tv.gen_lower_bound(3, 10)
        h = tv.Hypergraph(2000, [{1}] + [{1, v} for v in range(2, 1641)] + [{v + 1990 for v in e} for e in lb.edges])
        assert cli._block_size(h, Recorder(line_buffering=False)) == 1
        found = self.emitted("auto", h)
        assert len(found) == 100
        replayed, extend = [], bitsets.PackedSink.extend
        monkeypatch.setattr(bitsets.PackedSink, "extend", lambda sink, packed: (replayed.append(packed), extend(sink, packed)))
        text = serialize_hypergraph(h)
        out = Recorder(line_buffering=False)
        assert run_cli(["enumerate"], stdin_text=text, out=out) == (0, "".join(map(line, found)), "")
        assert replayed and out.writes == list(map(line, found))
        canonical = sorted(found, key=lambda m: tuple(iter_bits(m)))
        out = Recorder(line_buffering=False)
        assert run_cli(["enumerate", "--canonical"], stdin_text=text, out=out) == (0, "".join(map(line, canonical)), "")
        assert out.writes == list(map(line, canonical))

    def test_lines_before_an_engine_error_come_out(self, monkeypatch):
        masks = [m << 1 for m in range(300)]  # one full block and 44 lines pending

        def emits_then_breaks(h, sink):
            for m in masks:
                sink(m)
            raise tv.SearchInvariantError("broken after 300 outputs")

        monkeypatch.setattr(cli, "enumerate_rank3", emits_then_breaks)
        code, out, err = run_cli(["enumerate", "--algorithm", "rank3"], stdin_text="p hg 20 0\n")
        assert (code, out, err) == (4, "".join(map(line, masks)), "internal error: broken after 300 outputs\n")


class TestScalarCommands:
    def test_count_lower_bound_family(self):
        text = serialize_hypergraph(tv.gen_lower_bound(3, 10))
        code, out, _ = run_cli(["count"], stdin_text=text)
        assert code == 0
        assert out == "100\n"

    def test_count_equals_enumerate_lines(self):
        for seed in (2, 9, 21):
            h = tv.gen_random(k=4, n=10, m=12, seed=seed)
            text = serialize_hypergraph(h)
            _, listing, _ = run_cli(["enumerate"], stdin_text=text)
            _, total, _ = run_cli(["count"], stdin_text=text)
            assert int(total) == len(listing.splitlines())

    def test_minimum(self):
        code, out, _ = run_cli(["minimum"], stdin_text=TWO_TRIPLES)
        assert code == 0
        assert out == "3\n"

    def test_minimum_no_transversal(self):
        code, out, _ = run_cli(["minimum"], stdin_text="p hg 2 1\n\n")
        assert code == 0
        assert out == ""

    def test_count_minimum(self):
        code, out, _ = run_cli(["count-minimum"], stdin_text=TWO_TRIPLES)
        assert code == 0
        assert out == "1\n"

    def test_count_minimum_empty(self):
        code, out, _ = run_cli(["count-minimum"], stdin_text="p hg 2 1\n\n")
        assert code == 0
        assert out == "0\n"

    @pytest.mark.parametrize(
        "h,command,want_out,want_err",
        [
            (packed_blocks(4, 4, 2), "minimum", "1 2 6 7 8 12 13 14 15 17\n",
             "stats: nodes=24891 leaves=4658 max_depth=18 outputs=3675\n"),
            (packed_blocks(4, 4, 2), "count-minimum", "3675\n",
             "stats: nodes=24891 leaves=4658 max_depth=18 outputs=3675\n"),
            (tv.gen_random(k=4, n=20, m=30, seed=3), "minimum",
             "4 5 8 9 10 12 14 15 16 19 20\n", "stats: nodes=9006 leaves=8216 max_depth=21 outputs=16\n"),
            (tv.gen_random(k=4, n=20, m=30, seed=3), "count-minimum",
             "10\n", "stats: nodes=9006 leaves=8216 max_depth=21 outputs=16\n"),
        ],
        ids=["blocks-minimum", "blocks-count-minimum", "random-minimum", "random-count-minimum"],
    )
    def test_rank4_stats_pinned(self, h, command, want_out, want_err):
        # rank 4 runs compression; stdout and the stats line are pinned
        code, out, err = run_cli([command, "--stats"], stdin_text=serialize_hypergraph(h))
        assert (code, out, err) == (0, want_out, want_err)

    def test_minimum_matches_enumerate(self):
        for seed in (3, 11, 27):
            h = tv.gen_random(k=3, n=9, m=12, seed=seed)
            text = serialize_hypergraph(h)
            _, listing, _ = run_cli(["enumerate", "--canonical"], stdin_text=text)
            sizes = [len(line.split()) for line in listing.splitlines()]
            _, smallest, _ = run_cli(["minimum"], stdin_text=text)
            assert len(smallest.split()) == min(sizes)

    def test_auto_policy_by_rank(self):
        # auto's stats line is its engine's, and on each input every other
        # engine that runs prints a different one
        for text, engine in (
            (TRIANGLE_TEXT, "rank3"),
            (TWO_TRIPLES, "rank3"),
            ("p hg 4 1\n1 2 3 4\n", "compression"),
            ("p hg 5 1\n1 2 3 4 5\n", "rankk"),
        ):
            errs = {}
            for algorithm in ("auto", "rank3", "rankk", "compression", "oracle"):
                code, _, err = run_cli(["count", "--stats", "--algorithm", algorithm], stdin_text=text)
                if code == 0:
                    errs[algorithm] = err
            want = errs.pop(engine)
            assert errs.pop("auto") == want
            assert errs and want not in errs.values(), (text, errs)


class TestExitCodes:
    def test_parse_failure(self):
        code, _, err = run_cli(["count"], stdin_text="p hg 2 1\n1 5\n")
        assert code == 2
        assert "out of range" in err

    def test_non_decimal_ids(self):
        # int() would read all of these: 1_2, 1_0, +3 and the Arabic-Indic 3
        code, out, err = run_cli(["enumerate", "--canonical"], stdin_text="p hg 1_2 2\n1_0 +3\n\u0663 12\n")
        assert (code, out, err) == (2, "", "error: line 1: non-integer token in header: 'p hg 1_2 2'\n")

    def test_missing_file(self):
        code, _, err = run_cli(["count", "/nonexistent/file.hg"])
        assert code == 2

    def test_rank_mismatch(self):
        code, _, err = run_cli(
            ["count", "--algorithm", "rank3"], stdin_text="p hg 4 1\n1 2 3 4\n"
        )
        assert code == 3
        assert "rank" in err

    @pytest.mark.parametrize(
        "h",
        [tv.gen_lower_bound(5, 9), tv.gen_random(k=6, n=10, m=8, seed=1)],
        ids=["rank5", "rank6"],
    )
    @pytest.mark.parametrize("command", [["count"], ["enumerate", "--canonical"]], ids=["count", "enumerate"])
    def test_compression_runs_above_rank_four(self, h, command):
        # compression runs rankk as its inner engine there
        text = serialize_hypergraph(h)
        code, out, err = run_cli([*command, "--algorithm", "compression"], stdin_text=text)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli([*command, "--algorithm", "rankk"], stdin_text=text)

    @pytest.mark.parametrize(
        "h,algorithm,width",
        [
            (tv.Hypergraph(64, [range(1, 5), range(5, 9)]), "compression", 42),
            (tv.Hypergraph(64, [range(1, 5), range(5, 9)]), "auto", 42),
            (tv.Hypergraph(257, [range(1, 258)]), "compression", 172),
        ],
        ids=["two-4-edges-n64", "two-4-edges-n64-auto", "one-257-edge"],
    )
    def test_compression_anchor_guard(self, h, algorithm, width):
        # phase 2 would step through 2^width subsets of the anchor: one error line, exit 3, no table
        text = serialize_hypergraph(h)
        for command in ("count", "enumerate", "minimum", "count-minimum"):
            got = run_cli([command, "--algorithm", algorithm, "--stats"], stdin_text=text)
            assert got == (
                3,
                "",
                f"error: anchor of {width} vertices exceeds compression's guard (26): "
                f"phase 2 would solve 2^{width} subproblems\n",
            )

    def test_compression_out_of_memory(self, monkeypatch):
        def no_room(edge_masks, xm):
            raise MemoryError

        monkeypatch.setattr(compression, "_key_table", no_room)
        code, out, err = run_cli(["count", "--algorithm", "compression"], stdin_text="p hg 8 2\n1 2 3 4\n5 6 7 8\n")
        assert (code, out) == (3, "")
        assert err == "error: no memory for compression's 2^5 subsets of its anchor\n"

    def test_oracle_guard(self):
        text = serialize_hypergraph(tv.Hypergraph(26, [{1, 2}]))
        code, _, _ = run_cli(["count", "--algorithm", "oracle"], stdin_text=text)
        assert code == 3

    def test_usage_error(self):
        code, _, _ = run_cli(["enumerate", "--algorithm", "magic"], stdin_text=TRIANGLE_TEXT)
        assert code == 2

    def test_reader_closes_the_pipe(self, tmp_path):
        # like `transversals enumerate lb3-30.hg | head -1`: 141 (128 + SIGPIPE), and stderr stays empty
        path = tmp_path / "lb3-30.hg"
        path.write_text(serialize_hypergraph(tv.gen_lower_bound(3, 30)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "transversals.cli", "enumerate", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), first, err) == (141, b"1 2 3 6 7 8 11 12 13 16 17 18 21 22 23 26 27 28\n", b"")

    @pytest.mark.parametrize(
        "argv", [["count"], ["enumerate"], ["bounds-table", "--kmax", "3"]], ids=["count", "enumerate", "bounds-table"]
    )
    def test_closed_stdout(self, triangle_file, argv):
        # like `transversals count f.hg >&-`: Python starts with sys.stdout None
        if argv[0] != "bounds-table":
            argv = [*argv, triangle_file]
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "transversals.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: [Errno 9] standard output is closed\n")

    @pytest.mark.parametrize(
        "text", [TRIANGLE_TEXT, TWO_TRIPLES, "p hg 4 1\n1 2 3 4\n", "p hg 5 1\n1 2 3 4 5\n"],
        ids=["rank2", "rank3", "rank4", "rank5"],
    )
    def test_removed_forms_rejected(self, text):
        # bench is no command and --alpha no option: usage errors at every rank
        for argv in (["bench"], ["count", "--alpha", "0.5"]):
            code, out, _ = run_cli(argv, stdin_text=text)
            assert (code, out) == (2, "")

    @pytest.mark.parametrize("algorithm", ["rank3", "rankk"])
    def test_invariant_breach(self, monkeypatch, algorithm):
        # a discard that returns its own state does not shrink |V|+|E|
        monkeypatch.setattr(tv.Instance, "discard", lambda self, v: self)
        code, _, err = run_cli(["enumerate", "--algorithm", algorithm], stdin_text="p hg 3 1\n1 2\n")
        assert code == 4
        assert err.startswith("internal error:")

    @pytest.mark.parametrize("algorithm", ["rank3", "rankk"])
    def test_invariant_breach_in_branch(self, monkeypatch, algorithm):
        # the triangle's first rule branches, and every child is built by branch
        monkeypatch.setattr(tv.Instance, "branch", lambda self, sel, dis: self)
        code, _, err = run_cli(["enumerate", "--algorithm", algorithm], stdin_text="p hg 3 3\n1 2\n1 3\n2 3\n")
        assert code == 4
        assert err.startswith("internal error:")


#: Usage and help: (exit code, stdout, stderr) per argv, as the parser that
#: builds every subcommand printed them under Python 3.10 and 3.11 with
#: COLUMNS=80. Python 3.13 wraps the top-level usage line differently, and
#: later releases print the choices of an invalid-choice error unquoted.
TOP_USAGE = (
    "usage: transversals [-h]\n"
    "                    {enumerate,count,minimum,count-minimum,generate,verify-measure,bounds-table}\n"
    "                    ...\n"
)
PARSER_GOLDENS = {
    ("--help",): (
        0,
        TOP_USAGE + (
            "\n"
            "Enumerate all minimal transversals (minimal hitting sets) of a hypergraph.\n"
            "\n"
            "positional arguments:\n"
            "  {enumerate,count,minimum,count-minimum,generate,verify-measure,bounds-table}\n"
            "    enumerate           print every minimal transversal, one per line\n"
            "    count               print the number of minimal transversals\n"
            "    minimum             print one minimum-cardinality minimal transversal\n"
            "    count-minimum       print the number of minimum-cardinality minimal\n"
            "                        transversals\n"
            "    generate            emit a generated instance in the input format\n"
            "    verify-measure      check the branching constraints of a weight table\n"
            "    bounds-table        print lower/upper bound bases per rank\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (): (
        2,
        "",
        TOP_USAGE + "transversals: error: the following arguments are required: command\n",
    ),
    ("enumerate", "--help"): (
        0,
        (
            "usage: transversals enumerate [-h]\n"
            "                              [--algorithm {auto,rank3,rankk,compression,oracle}]\n"
            "                              [--stats] [--canonical]\n"
            "                              [input]\n"
            "\n"
            "positional arguments:\n"
            "  input                 input file (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --algorithm {auto,rank3,rankk,compression,oracle}\n"
            "  --stats               print node/leaf counters to stderr\n"
            "  --canonical           buffer and sort the output\n"
        ),
        "",
    ),
    ("count", "--help"): (
        0,
        (
            "usage: transversals count [-h]\n"
            "                          [--algorithm {auto,rank3,rankk,compression,oracle}]\n"
            "                          [--stats]\n"
            "                          [input]\n"
            "\n"
            "positional arguments:\n"
            "  input                 input file (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --algorithm {auto,rank3,rankk,compression,oracle}\n"
            "  --stats               print node/leaf counters to stderr\n"
        ),
        "",
    ),
    ("minimum", "--help"): (
        0,
        (
            "usage: transversals minimum [-h]\n"
            "                            [--algorithm {auto,rank3,rankk,compression,oracle}]\n"
            "                            [--stats]\n"
            "                            [input]\n"
            "\n"
            "positional arguments:\n"
            "  input                 input file (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --algorithm {auto,rank3,rankk,compression,oracle}\n"
            "  --stats               print node/leaf counters to stderr\n"
        ),
        "",
    ),
    ("count-minimum", "--help"): (
        0,
        (
            "usage: transversals count-minimum [-h]\n"
            "                                  [--algorithm {auto,rank3,rankk,compression,oracle}]\n"
            "                                  [--stats]\n"
            "                                  [input]\n"
            "\n"
            "positional arguments:\n"
            "  input                 input file (default: stdin)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --algorithm {auto,rank3,rankk,compression,oracle}\n"
            "  --stats               print node/leaf counters to stderr\n"
        ),
        "",
    ),
    ("generate", "--help"): (
        0,
        (
            "usage: transversals generate [-h] --kind {lb,random} [--k K] --n N [--m M]\n"
            "                             [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help          show this help message and exit\n"
            "  --kind {lb,random}\n"
            "  --k K\n"
            "  --n N\n"
            "  --m M\n"
            "  --seed SEED\n"
        ),
        "",
    ),
    ("verify-measure", "--help"): (
        0,
        (
            "usage: transversals verify-measure [-h] [--weights WEIGHTS]\n"
            "\n"
            "options:\n"
            "  -h, --help         show this help message and exit\n"
            "  --weights WEIGHTS  weights file (default: built-in table)\n"
        ),
        "",
    ),
    ("bounds-table", "--help"): (
        0,
        (
            "usage: transversals bounds-table [-h] --kmax KMAX\n"
            "\n"
            "options:\n"
            "  -h, --help   show this help message and exit\n"
            "  --kmax KMAX\n"
        ),
        "",
    ),
    ("enumarate",): (
        2,
        "",
        TOP_USAGE + (
            "transversals: error: argument command: invalid choice: 'enumarate' (choose from 'enumerate', "
            "'count', 'minimum', 'count-minimum', 'generate', 'verify-measure', 'bounds-table')\n"
        ),
    ),
    ("enumerate", "--bogus"): (
        2,
        "",
        TOP_USAGE + "transversals: error: unrecognized arguments: --bogus\n",
    ),
    ("count", "--algorithm", "nope"): (
        2,
        "",
        (
            "usage: transversals count [-h]\n"
            "                          [--algorithm {auto,rank3,rankk,compression,oracle}]\n"
            "                          [--stats]\n"
            "                          [input]\n"
            "transversals count: error: argument --algorithm: invalid choice: 'nope' "
            "(choose from 'auto', 'rank3', 'rankk', 'compression', 'oracle')\n"
        ),
    ),
}


class TestParser:
    """Help, usage errors and exit codes: `main` reports what its parser
    reports, and on the argparse of Python 3.11 these bytes."""

    @staticmethod
    def full_parser(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", PARSER_GOLDENS, ids=[" ".join(argv) or "no arguments" for argv in PARSER_GOLDENS])
    def test_usage_and_help(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = run_cli(list(argv))
        assert got == self.full_parser(list(argv))
        if sys.version_info < (3, 12):
            assert got == PARSER_GOLDENS[argv]


COMMANDS = ["enumerate", "count", "minimum", "count-minimum", "generate", "verify-measure", "bounds-table"]
#: Every command (and the removed `bench`), flag and choice of the full
#: parser, and forms that only argparse reads.
WORDS = [
    *COMMANDS, "bench", "--stats", "--canonical", "--algorithm", *cli._ALGORITHMS, "--kind", "lb", "random", "--k", "--n",
    "--m", "--seed", "--weights", "--kmax", "3", "-", "--", "-h", "--help", "--stat", "--alg", "--algorithm=rank3",
    "", "-1", "in.hg", "other.hg",
]
#: Half of the words drawn come from the reader's own, so that many argv reach its end.
READER_WORDS = ["--stats", "--canonical", "--algorithm", *cli._ALGORITHMS, "-", "in.hg"]
WORD = st.one_of(st.sampled_from(READER_WORDS), st.sampled_from(WORDS))


def argparse_fields(argv):
    """vars() of the full parser's namespace, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestReader:
    """`main` reads the enumeration commands written out in full without
    argparse; whatever that reader accepts, argparse reads the same way."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.sampled_from(COMMANDS), st.sampled_from(WORDS)), st.lists(WORD, max_size=5))
    def test_agrees_with_argparse(self, first, rest):
        argv = [first, *rest]
        got = cli._read_enumeration(argv)
        if got is not None:
            assert vars(got) == argparse_fields(argv)

    @pytest.mark.parametrize("command", list(cli._ENUMERATION))
    def test_benchmark_shape_skips_argparse(self, command):
        # the benchmark runs `transversals <command> --stats <input>`
        argv = [command, "--stats", "in.hg"]
        got = cli._read_enumeration(argv)
        assert got is not None and vars(got) == argparse_fields(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--stat", "in.hg"],
            ["count", "--alg", "rank3"],
            ["count", "--algorithm=rankk"],
            ["count", "--algorithm"],
            ["count", "--algorithm", "nope"],
            ["count", "in.hg", "other.hg"],
            ["count", "--", "in.hg"],
            ["count", "-1"],
            ["count", "-h"],
            ["minimum", "--canonical"],
            ["generate", "--kind", "lb", "--k", "3", "--n", "6"],
            [],
        ],
    )
    def test_other_forms_go_to_argparse(self, argv):
        assert cli._read_enumeration(argv) is None


class TestGenerate:
    def test_lb_golden(self):
        code, out, _ = run_cli(["generate", "--kind", "lb", "--k", "2", "--n", "3"])
        assert code == 0
        assert out == "p hg 3 3\n1 2\n1 3\n2 3\n"

    def test_triangles_fixed_k(self):
        # the k=2 packed blocks are `--kind lb --k 2`; neither removed option parses
        for args in (["generate", "--kind", "triangles", "--n", "6"], ["verify-measure", "--tolerance", "0.5"]):
            code, out, _ = run_cli(args)
            assert (code, out) == (2, "")

    def test_random_deterministic(self):
        args = ["generate", "--kind", "random", "--k", "3", "--n", "8", "--m", "10", "--seed", "1"]
        code1, out1, _ = run_cli(args)
        code2, out2, _ = run_cli(args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert tv.parse_hypergraph(out1) == tv.gen_random(k=3, n=8, m=10, seed=1)

    def test_random_requires_m(self):
        code, _, _ = run_cli(["generate", "--kind", "random", "--k", "3", "--n", "8"])
        assert code == 2

    def test_random_negative_m(self):
        code, out, err = run_cli(["generate", "--kind", "random", "--k", "2", "--n", "4", "--m", "-3"])
        assert (code, out, err) == (2, "", "error: m must be at least 0\n")

    def test_random_infeasible(self):
        code, _, err = run_cli(
            ["generate", "--kind", "random", "--k", "4", "--n", "5", "--m", "100"]
        )
        assert code == 2
        assert "infeasible" in err

    def test_lb_requires_k(self):
        code, _, _ = run_cli(["generate", "--kind", "lb", "--n", "6"])
        assert code == 2

    def test_roundtrips_through_enumerate(self):
        _, text, _ = run_cli(["generate", "--kind", "lb", "--k", "3", "--n", "5"])
        code, out, _ = run_cli(["count"], stdin_text=text)
        assert code == 0
        assert out == "10\n"


class TestVerifyMeasure:
    def test_default_table_passes(self):
        code, out, _ = run_cli(["verify-measure"])
        assert code == 0
        assert "overall PASS" in out
        assert "growth_base 2^omega_5 = 1.675441706" in out
        assert "tight at (5,5) (6,5) (6,6)" in out
        assert out.count("\n") == 13  # growth line + 11 families + verdict

    def test_custom_weights_fail(self, tmp_path):
        path = tmp_path / "w.txt"
        lines = [f"omega_{i} 0.0" for i in range(7)] + [f"psi_{i} 0.0" for i in range(7)]
        path.write_text("\n".join(lines))
        code, out, _ = run_cli(["verify-measure", "--weights", str(path)])
        assert code == 1
        assert "overall FAIL" in out

    def test_weights_roundtrip_passes(self, tmp_path):
        w = tv.DEFAULT_WEIGHTS
        path = tmp_path / "w.txt"
        lines = [f"omega_{i} {w.omega[i]!r}" for i in range(7)]
        lines += [f"psi_{i} {w.psi[i]!r}" for i in range(7)]
        path.write_text("\n".join(lines))
        code, out, _ = run_cli(["verify-measure", "--weights", str(path)])
        assert code == 0

    def test_malformed_weights_file(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("omega_0 zero\n")
        code, _, err = run_cli(["verify-measure", "--weights", str(path)])
        assert code == 2

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        w = tv.DEFAULT_WEIGHTS
        lines = [f"omega_{i} {w.omega[i]!r}" for i in range(5)] + [f"omega_5 {bad}", f"omega_6 {bad}"]
        lines += [f"psi_{i} {w.psi[i]!r}" for i in range(7)]
        path = tmp_path / "w.txt"
        path.write_text("\n".join(lines))
        assert run_cli(["verify-measure", "--weights", str(path)]) == (2, "", "error: weights must be finite\n")


    @pytest.mark.parametrize(
        "omega, psi, first, failing",
        [
            # c21's eta at m = 1 is about -1e6, and 2^(-eta) overflows
            (tv.DEFAULT_WEIGHTS.omega, (1e6,) + (0.0,) * 6, "growth_base 2^omega_5 = 1.675441706 (bound base 1.6755)", "c21"),
            # 2^omega_5 overflows
            (tv.DEFAULT_WEIGHTS.omega[:5] + (1e308,) * 2, tv.DEFAULT_WEIGHTS.psi, "growth_base 2^omega_5 = inf (bound base inf)", "deltas"),
        ],
        ids=["psi0-1e6", "omega5-1e308"],
    )
    def test_overflowing_table_fails_in_full(self, tmp_path, omega, psi, first, failing):
        path = tmp_path / "w.txt"
        path.write_text("".join(f"omega_{i} {x!r}\n" for i, x in enumerate(omega)) + "".join(f"psi_{i} {x!r}\n" for i, x in enumerate(psi)))
        code, out, err = run_cli(["verify-measure", "--weights", str(path)])
        lines = out.splitlines()
        assert (code, err, len(lines), lines[0]) == (1, "", 13, first)
        assert lines[-1].startswith("overall FAIL")
        assert any(line.startswith(failing) and line.endswith(" FAIL") for line in lines)
        report = tv.verify_weights(tv.Weights(omega, psi))
        assert all(not row.passed(report.tolerance) for row in report.rows if row.lhs == float("inf"))


class TestBoundsTable:
    def test_golden_prefix(self):
        code, out, _ = run_cli(["bounds-table", "--kmax", "5"])
        assert code == 0
        assert out == (
            "k lower upper\n"
            "2 1.4422 1.4423\n"
            "3 1.5848 1.6755\n"
            "4 1.6618 1.8863\n"
            "5 1.7114 1.9538\n"
        )

    def test_k20_upper_precision(self):
        code, out, _ = run_cli(["bounds-table", "--kmax", "20"])
        assert code == 0
        assert out.splitlines()[-1] == "20 1.8962 1.9999988"

    def test_seven_decimals_once_four_read_two(self):
        # 7 decimals from k = 14; from k = 24, where the 7-decimal ceiling is 2.0000000
        # itself, the fewest decimals that stay below 2
        code, out, _ = run_cli(["bounds-table", "--kmax", "30"])
        assert code == 0
        lines = out.splitlines()
        assert lines[12:14] == ["13 1.8562 1.9999", "14 1.8640 1.9999186"]
        assert lines[22:] == [
            "23 1.9068 1.9999999",
            "24 1.9098 1.99999993",
            "25 1.9127 1.99999997",
            "26 1.9153 1.99999999",
            "27 1.9177 1.999999991",
            "28 1.9200 1.999999996",
            "29 1.9222 1.999999998",
            "30 1.9242 1.999999999",
        ]

    def test_any_kmax(self):
        # from k = 516 C(2k-1, k) is too large for a float, and from k = 41 every upper is 2
        start = time.perf_counter()
        code, out, err = run_cli(["bounds-table", "--kmax", "1000"])
        elapsed = time.perf_counter() - start
        lines = out.splitlines()
        assert (code, err, len(lines), lines[-1]) == (0, "", 1000, "1000 1.9959 2.0000000")
        assert out.startswith(run_cli(["bounds-table", "--kmax", "30"])[1])
        assert elapsed < 2.0  # one bisection per row below 2, none after

    def test_kmax_validated(self):
        code, _, _ = run_cli(["bounds-table", "--kmax", "1"])
        assert code == 2
