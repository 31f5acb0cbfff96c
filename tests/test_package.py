"""The package surface: lazy public names, the CLI's import set, the
contracts of the value classes SearchStats and CompressionConfig, and the
syntax floor declared in pyproject.toml."""

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
#: generators, and `dataclasses` with its `inspect` import.
HEAVY = ("dataclasses", "inspect", "transversals.analysis", "transversals.instances")

ENGINE_PATH = {
    "transversals",
    "transversals.bitsets",
    "transversals.cli",
    "transversals.compression",
    "transversals.errors",
    "transversals.hypergraph",
    "transversals.rank3",
    "transversals.rankk",
}

#: The home module of every public name.
HOMES = {
    "analysis": [
        "BoundsRow", "ConstraintReport", "ConstraintRow", "DEFAULT_WEIGHTS", "Weights", "bounds_table",
        "branching_factor", "format_report", "load_weights", "lower_bound_base", "measure", "verify_weights",
    ],
    "compression": ["CompressionConfig", "DEFAULT_ALPHA", "enumerate_compression", "find_split", "project"],
    "errors": ["ParseError", "SearchInvariantError", "UnsupportedInstanceError"],
    "hypergraph": [
        "Hypergraph", "Instance", "SearchStats", "TransversalSink", "parse_hypergraph", "serialize_hypergraph",
    ],
    "instances": ["GeneratorSpec", "brute_force_enumerate", "gen_lower_bound", "gen_random", "gen_triangles", "generate"],
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
        rank6 = packed_blocks(3, 2)
        rank6 = tv.Hypergraph(rank6.n, [*rank6.edges, range(1, 7)])
        paths = []
        for name, h in (("r3", packed_blocks(3, 2)), ("r4", packed_blocks(4, 2)), ("r6", rank6)):
            path = tmp_path / f"{name}.hg"
            path.write_text(serialize_hypergraph(h))
            paths.append(str(path))
        script = """
import io, json, sys
import transversals.cli as cli
seen = {"import": sorted(m for m in sys.modules if m.startswith("transversals"))}
heavy = json.loads(sys.argv[1])
seen["heavy_after_import"] = [m for m in heavy if m in sys.modules]
codes = []
stdout, sys.stdout = sys.stdout, io.StringIO()
for path in sys.argv[2:]:
    for command in ("enumerate", "count", "minimum"):
        codes.append(cli.main([command, path]))
sys.stdout = stdout
seen["codes"] = codes
seen["heavy_after_runs"] = [m for m in heavy if m in sys.modules]
seen["runs"] = sorted(m for m in sys.modules if m.startswith("transversals"))
print(json.dumps(seen))
"""
        proc = fresh_python(script, json.dumps(HEAVY), *paths)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["import"] == sorted(ENGINE_PATH)
        assert seen["heavy_after_import"] == []
        assert seen["codes"] == [0] * 9
        assert seen["heavy_after_runs"] == []
        assert seen["runs"] == sorted(ENGINE_PATH)

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

    @pytest.mark.parametrize("name", ["choose_b2", "B2Choice", "relabel"])
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
    """Five settable values in all: rank3's check_measure and masks, rankk's
    masks, compression's alpha (through CompressionConfig) and masks. The
    inner engine follows from the input rank and the measure check uses
    the verified weights; neither is an option."""

    @staticmethod
    def shape(fn):
        return [(p.name, p.kind.name, p.default) for p in inspect.signature(fn).parameters.values()]

    def test_signatures(self):
        empty = inspect.Parameter.empty
        h, sink = ("h", "POSITIONAL_OR_KEYWORD", empty), ("sink", "POSITIONAL_OR_KEYWORD", empty)
        masks = ("masks", "KEYWORD_ONLY", False)
        assert self.shape(tv.enumerate_rank3) == [h, sink, ("check_measure", "KEYWORD_ONLY", False), masks]
        assert self.shape(tv.enumerate_rankk) == [h, sink, masks]
        assert self.shape(tv.enumerate_compression) == [h, sink, ("config", "POSITIONAL_OR_KEYWORD", None), masks]
        assert self.shape(tv.CompressionConfig) == [("alpha", "POSITIONAL_OR_KEYWORD", tv.DEFAULT_ALPHA)]
        assert tv.CompressionConfig.__slots__ == ("alpha",)

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: tv.CompressionConfig(alpha=0.5, inner_engine=tv.enumerate_rankk),
            lambda h: tv.CompressionConfig(0.5, tv.enumerate_rankk),
            lambda h: tv.enumerate_compression(h, lambda t: None, inner_engine=tv.enumerate_rankk),
            lambda h: tv.enumerate_rank3(h, lambda t: None, check_measure=True, weights=tv.DEFAULT_WEIGHTS),
        ],
        ids=["config-keyword", "config-positional", "compression", "rank3-weights"],
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

    def test_compression_config(self):
        cfg = tv.CompressionConfig()
        assert repr(cfg) == "CompressionConfig(alpha=0.66938)"
        assert cfg == tv.CompressionConfig(0.66938)
        assert cfg != tv.CompressionConfig(alpha=0.7)
        assert cfg != (0.66938,)
        half = tv.CompressionConfig(0.5)
        assert half == tv.CompressionConfig(alpha=0.5)
        assert repr(half) == "CompressionConfig(alpha=0.5)"
        assert hash(cfg) == hash(tv.CompressionConfig()) == hash((0.66938,))
        assert len({cfg, tv.CompressionConfig(), half}) == 2
        for alpha in (0.4, 1.2):
            with pytest.raises(ValueError, match=r"^alpha must lie in \[0\.5, 1\]$"):
                tv.CompressionConfig(alpha=alpha)
        with pytest.raises(AttributeError):
            cfg.alpha = 0.9
        with pytest.raises(AttributeError):
            del cfg.alpha
        assert cfg.alpha == 0.66938

    def test_copy_and_pickle_round_trip(self):
        values = [
            tv.SearchStats(1, 2, 3, 4),
            tv.CompressionConfig(0.5),
        ]
        for value in values:
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


def test_sources_parse_at_the_declared_python_floor():
    # CI also runs tier-1 on 3.10; this checks the grammar without that interpreter.
    assert re.search(r'^requires-python = ">=3\.10"$', (ROOT / "pyproject.toml").read_text(), re.M)
    sources = sorted((ROOT / "src" / "transversals").glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
