"""The package surface: lazy public names, the CLI's import set, the
engines' options, the contract of the value class SearchStats, the
README's library example, and the syntax floor declared in pyproject.toml."""

import ast
import copy
import hashlib
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import transversals as tv
from transversals import serialize_hypergraph

from helpers import packed_blocks

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

#: Modules the enumeration path must not load: the analysis toolbox, the
#: generators, `dataclasses` with its `inspect` import, and `argparse`
#: with its `gettext` import (the enumeration commands written out in
#: full are read without it).
HEAVY = ("argparse", "dataclasses", "gettext", "inspect", "transversals.analysis", "transversals.instances")

#: What `import transversals.cli` loads: the kernel, and no engine.
CLI_IMPORT = {
    "transversals",
    "transversals.bitsets",
    "transversals.cli",
    "transversals.errors",
    "transversals.hypergraph",
}

#: The engine modules that a run adds at each rank: the one `auto` picks,
#: and at rank 4 compression with its inner engine rank3, never rankk.
ENGINES_BY_RANK = {
    3: {"transversals.rank3"},
    4: {"transversals.compression", "transversals.rank3"},
    6: {"transversals.rankk"},
}

#: The home module of every public name.
HOMES = {
    "analysis": [
        "BoundsRow", "ConstraintReport", "ConstraintRow", "DEFAULT_WEIGHTS", "Weights", "bounds_table",
        "branching_factor", "format_report", "load_weights", "lower_bound_base", "measure", "verify_weights",
    ],
    "compression": ["DEFAULT_ALPHA", "enumerate_compression", "find_split", "project"],
    "errors": ["ParseError", "SearchInvariantError", "UnsupportedInstanceError"],
    "hypergraph": [
        "Hypergraph", "Instance", "SearchStats", "TransversalSink", "count_only", "parse_hypergraph",
        "serialize_hypergraph",
    ],
    "instances": ["brute_force_enumerate", "gen_lower_bound", "gen_random"],
    "rank3": ["RuleId", "apply_rule", "enumerate_rank3", "next_rule"],
    "rankk": ["enumerate_rankk"],
}


#: The console script's body, for a fresh interpreter.
CLI = "import sys; from transversals.cli import main; sys.exit(main(sys.argv[1:]))"


def fresh_python(code, *args, stdin=""):
    """Run code in a new interpreter that sees only this checkout's package."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


class TestImportSet:
    def test_enumeration_path_loads_only_the_engines(self, tmp_path):
        script = """
import io, json, sys
import transversals.cli as cli
seen = {"import": sorted(m for m in sys.modules if m.startswith("transversals"))}
heavy = json.loads(sys.argv[1])
seen["heavy_after_import"] = [m for m in heavy if m in sys.modules]
codes = []
stdout, sys.stdout = sys.stdout, io.StringIO()
for command in ("enumerate", "count", "minimum"):
    codes.append(cli.main([command, sys.argv[2]]))
sys.stdout = stdout
seen["codes"] = codes
seen["heavy_after_runs"] = [m for m in heavy if m in sys.modules]
seen["runs"] = sorted(m for m in sys.modules if m.startswith("transversals"))
print(json.dumps(seen))
"""
        rank3 = packed_blocks(3, 2)
        inputs = {3: rank3, 4: packed_blocks(4, 2), 6: tv.Hypergraph(rank3.n, [*rank3.edges, range(1, 7)])}
        for rank, engines in ENGINES_BY_RANK.items():
            h = inputs[rank]
            assert h.rank() == rank
            path = tmp_path / f"r{rank}.hg"
            path.write_text(serialize_hypergraph(h))
            proc = fresh_python(script, json.dumps(HEAVY), str(path))  # one fresh process per rank
            assert proc.returncode == 0, proc.stderr
            seen = json.loads(proc.stdout)
            assert seen["import"] == sorted(CLI_IMPORT)
            assert seen["heavy_after_import"] == []
            assert seen["codes"] == [0] * 3
            assert seen["heavy_after_runs"] == []
            # `count` walks in the kernel the engine already loaded
            assert seen["runs"] == sorted(CLI_IMPORT | engines), rank

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["bounds-table", "--kmax", "5"],
                "k lower upper\n2 1.4422 1.4423\n3 1.5848 1.6755\n4 1.6618 1.8863\n5 1.7114 1.9538\n",
            ),
            (
                ["generate", "--kind", "lb", "--k", "3", "--n", "6"],
                "p hg 6 10\n1 2 3\n1 2 4\n1 2 5\n1 3 4\n1 3 5\n1 4 5\n2 3 4\n2 3 5\n2 4 5\n3 4 5\n",
            ),
            (
                ["generate", "--kind", "random", "--k", "3", "--n", "6", "--m", "4", "--seed", "2"],
                "p hg 6 4\n2\n3\n3 4\n3 4 6\n",
            ),
            (["enumerate", "--algorithm", "oracle"], "1 4\n2 4\n3 4\n3 5\n"),
        ],
    )
    def test_other_commands_from_a_fresh_process(self, argv, stdout):
        proc = fresh_python(CLI, *argv, stdin="p hg 5 3\n1 2 3\n3 4\n4 5\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")

    def test_verify_measure_from_a_fresh_process(self):
        proc = fresh_python(CLI, "verify-measure")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("growth_base 2^omega_5 = 1.675441706 (bound base 1.6755)\n")
        # stdout digest of the release that imported the toolbox eagerly
        digest = "2b939f4242a69a1af077d369df5b6209e441fcd470b988f05881dfdd9ead2f3a"
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestLazyPackage:
    def test_every_public_name_is_its_home_modules_object(self):
        assert sorted(name for names in HOMES.values() for name in names) == tv.__all__
        for home, names in HOMES.items():
            module = importlib.import_module(f"transversals.{home}")
            for name in names:
                assert getattr(tv, name) is getattr(module, name)

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from transversals import *", namespace)
        assert set(tv.__all__) <= set(namespace)
        for name in tv.__all__:
            assert namespace[name] is getattr(tv, name)
        assert set(tv.__all__) <= set(dir(tv))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            tv.no_such_name  # noqa: B018
        assert not hasattr(tv, "enumerate_everything")

    @pytest.mark.parametrize("name", ["choose_b2", "B2Choice", "relabel", "CompressionConfig"])
    def test_removed_names_raise(self, name):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(tv, name)

    def test_submodules_import_through_the_package(self):
        from transversals import cli, rankk

        assert cli is sys.modules["transversals.cli"]
        assert rankk is sys.modules["transversals.rankk"]
        assert rankk.enumerate_rankk is tv.enumerate_rankk

    def test_bare_import_loads_no_submodule(self):
        proc = fresh_python(
            "import sys, transversals; print(sorted(m for m in sys.modules if m.startswith('transversals')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['transversals']\n"


class TestEngineOptions:
    """Two settable values in all: rank3's check_measure and compression's
    alpha. Every engine hands its sink vertex masks, so no option picks the
    output type; the inner engine follows from the input rank and the
    measure check uses the verified weights. None of these is an option."""

    @staticmethod
    def shape(fn):
        return [(p.name, p.kind.name, p.default) for p in inspect.signature(fn).parameters.values()]

    def test_signatures(self):
        empty = inspect.Parameter.empty
        h, sink = ("h", "POSITIONAL_OR_KEYWORD", empty), ("sink", "POSITIONAL_OR_KEYWORD", empty)
        assert self.shape(tv.enumerate_rank3) == [h, sink, ("check_measure", "KEYWORD_ONLY", False)]
        assert self.shape(tv.enumerate_rankk) == [h, sink]
        assert self.shape(tv.enumerate_compression) == [h, sink, ("alpha", "KEYWORD_ONLY", tv.DEFAULT_ALPHA)]

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: tv.enumerate_compression(h, lambda t: None, config=None),
            lambda h: tv.enumerate_compression(h, lambda t: None, 0.5),
            lambda h: tv.enumerate_compression(h, lambda t: None, inner_engine=tv.enumerate_rankk),
            lambda h: tv.enumerate_rank3(h, lambda t: None, check_measure=True, weights=tv.DEFAULT_WEIGHTS),
            lambda h: tv.enumerate_rank3(h, lambda t: None, masks=True),
            lambda h: tv.enumerate_rankk(h, lambda t: None, masks=True),
            lambda h: tv.enumerate_compression(h, lambda t: None, masks=True),
        ],
        ids=[
            "config-keyword", "config-positional", "compression", "rank3-weights",
            "rank3-masks", "rankk-masks", "compression-masks",
        ],
    )
    def test_removed_options_raise(self, call):
        with pytest.raises(TypeError):
            call(tv.Hypergraph(3, [{1, 2, 3}]))


class TestValueClasses:
    def test_search_stats(self):
        stats = tv.SearchStats()
        assert repr(stats) == "SearchStats(nodes=0, leaves=0, max_depth=0, outputs=0)"
        assert repr(tv.SearchStats(1, 2, 3, 4)) == "SearchStats(nodes=1, leaves=2, max_depth=3, outputs=4)"
        assert tv.SearchStats(1, 2, 3, 4) == tv.SearchStats(nodes=1, leaves=2, max_depth=3, outputs=4)
        assert tv.SearchStats(1, 2, 3, 4) != tv.SearchStats(1, 2, 3, 5)
        assert tv.SearchStats(leaves=2) == tv.SearchStats(0, 2)
        assert tv.SearchStats() != (0, 0, 0, 0)
        with pytest.raises(TypeError):
            hash(stats)
        stats.nodes += 5
        stats.outputs = 2
        assert stats == tv.SearchStats(nodes=5, outputs=2)

    def test_copy_and_pickle_round_trip(self):
        value = tv.SearchStats(1, 2, 3, 4)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_readme_library_example_runs():
    # The documented example runs as written, so it follows the engines' sink contract.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^## Library\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_sources_parse_at_the_declared_python_floor():
    # CI also runs tier-1 on 3.10; this checks the grammar without that interpreter.
    assert re.search(r'^requires-python = ">=3\.10"$', (ROOT / "pyproject.toml").read_text(), re.M)
    sources = sorted((ROOT / "src" / "transversals").glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
