"""Exact enumeration of minimal hypergraph transversals (minimal hitting sets).

Three engines back the same sink contract: a branch-and-reduce engine for
rank <= 3, an iterative-compression engine for rank 4, and a general
branching engine for every rank. An analysis toolbox verifies the weighted
measure behind the rank-3 bound and reproduces the per-rank bound table,
and a brute-force oracle plus instance generators support differential
testing.

The public names below load their home module on first access (PEP 562),
so `import transversals` imports no submodule, and a program that uses
only the engines never loads the analysis toolbox or the generators.
"""

from importlib import import_module

_HOMES = {
    "analysis": (
        "DEFAULT_WEIGHTS",
        "BoundsRow",
        "ConstraintReport",
        "ConstraintRow",
        "Weights",
        "bounds_table",
        "branching_factor",
        "format_report",
        "load_weights",
        "lower_bound_base",
        "measure",
        "verify_weights",
    ),
    "compression": ("DEFAULT_ALPHA", "enumerate_compression", "find_split", "project"),
    "errors": ("ParseError", "SearchInvariantError", "UnsupportedInstanceError"),
    "hypergraph": (
        "Hypergraph",
        "Instance",
        "SearchStats",
        "TransversalSink",
        "count_only",
        "parse_hypergraph",
        "serialize_hypergraph",
    ),
    "instances": ("brute_force_enumerate", "gen_lower_bound", "gen_random"),
    "rank3": ("RuleId", "apply_rule", "enumerate_rank3", "next_rule"),
    "rankk": ("enumerate_rankk",),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def _loader(name: str):
    """A stand-in for the public function `name`: each call looks it up in its
    home module, loaded on the first call, so a patch there takes effect."""
    return lambda *args, **kwargs: __getattr__(name)(*args, **kwargs)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
