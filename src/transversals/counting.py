"""The search kernel's walk for the `count_only` sink: counters from subtree summaries.

`hypergraph.search` hands its run here when nobody reads the outputs.
The walk visits states in the kernel's preorder and expands them through
the same memo and branch step, and it returns the same `SearchStats`.
But once a subtree's counters are known, a later state with the same
key adds them and is not walked again.

Take a state with working vertices V, working edges E and partial set
S, and a leaf S | T below it (T inside V). The leaf is a minimal
transversal of the leaf graph iff (a) each t in T has an edge of E that
T meets only in t, which depends on (V, E) and T alone, and (b) each s
in S keeps a private edge that T misses: `priv(s) & ~once_T != 0`,
where `priv(s) = row(s) & ~twice(S)`. T hits only edges in U, the OR of
V's incidence rows, so (b) reads S only through K, the private-edge
masks of S that lie wholly inside U, and it fails for every T when some
`priv(s)` is 0. The subtree's node, leaf and output counts and its
height are therefore functions of (V, E, K). This is the "crit" test of
Murakami and Uno (DAM 2014), which compression's final filter also
applies, moved to every state.

Summaries are kept only for states that the memo stores, and are made at
a state's second visit, the first one that finds its children in the
memo: a state seen once costs nothing. Such a state pushes a marker
under its children; the marker pops when the subtree is done and stores
the difference of the counters since the state opened. The summaries
have their own budget of `hypergraph._MEMO_MASKS` units, one plus |K|
per summary; past it, states are walked as the kernel walks them.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Any

from . import hypergraph
from .hypergraph import BranchStep, Hypergraph, Instance, SearchStats, _expansion


def _crit_key(leaf_graph: Hypergraph, vmask: int, fold: tuple) -> tuple[int, ...] | None:
    """K for working vertices vmask and S's fold: the private edges of S's members
    that lie inside U, ascending (they are disjoint), or None if a member has none."""
    privs = list(map((~fold[1]).__and__, fold[2]))
    if not all(privs):
        return None
    outside = ~leaf_graph._fold(vmask)[0]  # the edges that no vertex of V can hit
    return tuple(sorted(filterfalse(outside.__and__, privs)))


def count(root: Instance, branch: BranchStep, leaf_graph: Hypergraph, carry: Any) -> SearchStats:
    """The stats of `search(root, branch, leaf_graph, count_only, carry)`."""
    memo, fold_of, expand = _expansion(branch, leaf_graph)
    # (id of a state's stored children, K) -> (nodes, leaves, height, outputs) of its
    # subtree. The memo keeps each stored list alive for the run, so its id names a state.
    sums: dict[tuple[int, tuple[int, ...] | None], tuple[int, int, int, int]] = {}
    room = hypergraph._MEMO_MASKS
    nodes = leaves = outputs = 0
    deep = 0  # the greatest depth seen since the innermost open marker
    stack = [(root, root.smask, carry, 0, fold_of(root.smask))]
    pop, push = stack.pop, stack.append
    while stack:
        inst, s, carry, depth, fold = pop()
        if inst is None:  # a marker: s is the summary's key, fold the counters at open
            n0, l0, o0, deep0 = fold
            sums[s] = (nodes - n0, leaves - l0, deep - depth, outputs - o0)
            if deep0 > deep:
                deep = deep0
            continue
        edges = inst.emasks
        if not edges or 0 in edges:
            nodes += 1
            leaves += 1
            if depth > deep:
                deep = depth
            if not edges and leaf_graph.is_minimal_transversal(s, fold=fold):
                outputs += 1
            continue
        key = (inst.vmask, edges)
        children = memo.get(key)
        if children is None:
            children = expand(inst, s, carry, key)
        else:
            k = _crit_key(leaf_graph, inst.vmask, fold)
            summary = (id(children), k)
            got = sums.get(summary)
            if got is not None:
                nodes += got[0]
                leaves += got[1]
                if depth + got[2] > deep:
                    deep = depth + got[2]
                outputs += got[3]
                continue
            cost = 1 if k is None else 1 + len(k)
            if cost <= room:
                room -= cost
                push((None, summary, None, depth, (nodes, leaves, outputs, deep)))
                deep = depth
        nodes += 1
        if depth > deep:
            deep = depth
        depth += 1
        once, twice, rows = fold
        for child, delta, value, (o, t, r) in children:
            push((child, s | delta, value, depth, (once | o, twice | t | (once & o), rows + r)))
    return SearchStats(nodes, leaves, deep, outputs)
