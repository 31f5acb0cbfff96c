import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import transversals as tv
from transversals import bitsets, cli, hypergraph, serialize_hypergraph
from transversals.bitsets import set_of

from helpers import packed_blocks

TRIANGLE_TEXT = "p hg 3 3\n1 2\n1 3\n2 3\n"
TWO_TRIPLES = "p hg 5 2\n1 2 3\n3 4 5\n"


def run_cli(args, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


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

    def test_oracle_guard(self):
        text = serialize_hypergraph(tv.Hypergraph(26, [{1, 2}]))
        code, _, _ = run_cli(["count", "--algorithm", "oracle"], stdin_text=text)
        assert code == 3

    def test_usage_error(self):
        code, _, _ = run_cli(["enumerate", "--algorithm", "magic"], stdin_text=TRIANGLE_TEXT)
        assert code == 2

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


class TestGenerate:
    def test_lb_golden(self):
        code, out, _ = run_cli(["generate", "--kind", "lb", "--k", "2", "--n", "3"])
        assert code == 0
        assert out == "p hg 3 3\n1 2\n1 3\n2 3\n"

    def test_triangles_fixed_k(self):
        code, out, _ = run_cli(["generate", "--kind", "triangles", "--n", "6"])
        assert code == 0
        assert out.startswith("p hg 6 6\n")
        code, _, _ = run_cli(["generate", "--kind", "triangles", "--k", "3", "--n", "6"])
        assert code == 2

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

    def test_kmax_validated(self):
        code, _, _ = run_cli(["bounds-table", "--kmax", "1"])
        assert code == 2
