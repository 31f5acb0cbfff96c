"""Branch-and-reduce enumerator for hypergraphs of rank at most 3.

Rule pipeline, first match wins:

  R0_0  an empty edge remains            halt, emit nothing
  R0_1  no edges remain                  halt, emit the partial set if minimal
  R1_0  a vertex of degree 0             discard it
  R1_1  an edge inside a size-3 edge     drop the superset
  R1_2  a size-1 edge {v}                select v
  R2_*  a degree-1 vertex v, edge e      branch on v's membership
  R3_*  a size-2 edge                    branch on the busiest small-edge vertex
  R4_*  3-uniform, all degrees >= 2      branch on a maximum-degree vertex

Select-branches discard the companion vertices whose selection would leave
the pivot without a private edge; those transversals cannot be minimal, so
the branches stay a partition and no set is emitted twice. Emission happens
only at R0_1, after a minimality check against the untouched input, because
the partial set reaching an edge-free state need not be minimal.

`next_rule` reads the working edges once. That pass collects the size-1
and size-2 edges and three degree bit-planes s1, s2, s3, the vertices of
degree >= 1, >= 2 and >= 3. R1_0 reads vmask & ~s1; R1_1 only looks for
supersets of small edges that lie inside s2; R2 takes its pivot from
s1 & ~s2 and tests its companions' degree 1 against s2; R4 splits on s3:
with s3 empty every vertex has degree exactly 2 (R4_2/R4_3, pivot the
lowest bit of s1), otherwise R4_1. Exact degree counts come from one
bit-sliced count (`_busiest`), only where a pivot needs them: R3's size-2
degrees, then full degrees among the vertices tied on those, and R4_1's.

All pivots are deterministic: smallest vertex id, then the canonical edge
order. The tree is walked by the kernel shared with rankk,
`hypergraph.search`: it halts at R0_0 and R0_1 before `next_rule` runs,
checks that every child shrinks |V| + |E|, which bounds the depth, and
keeps its pending nodes on an explicit stack. This module supplies the
branch step, `next_rule` then `apply_rule`; with `check_measure` the step
also re-validates the weighted-measure inequality at every node that
spawns children. `next_rule` states each child of R2_*/R3_*/R4_* as a
pair (select mask, discard mask), and `apply_rule` builds it with one
`Instance.branch`, a single pass over the working edges; it builds the
reductions R1_* with one select, discard or drop_edge.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .bitsets import edge_key, iter_bits
from .errors import SearchInvariantError, UnsupportedInstanceError
from .hypergraph import Hypergraph, Instance, SearchStats, TransversalSink, search

#: Absolute tolerance on sums of 2**mu in the measure re-validation.
MEASURE_TOLERANCE = 1e-9


class RuleId(NamedTuple):
    """First applicable rule and what it does to the working state.

    R1_0 and R1_2 carry v, the vertex they discard or select; R1_1 carries
    e, the mask of the superset it drops. A branching rule (R2_*, R3_*,
    R4_*) lists its children in branch order as (select mask, discard
    mask) pairs; a halting rule has none.
    """

    tag: str
    v: int | None = None
    e: int | None = None
    branches: tuple[tuple[int, int], ...] = ()


R0_0 = RuleId("R0_0")
R0_1 = RuleId("R0_1")


def next_rule(inst: Instance) -> RuleId:
    """First applicable rule for the working state, with deterministic pivots."""
    edges = inst.emasks
    if not edges:
        return R0_1
    units: list[int] = []
    pairs: list[int] = []
    s1 = s2 = s3 = 0  # vertices of degree >= 1, >= 2, >= 3
    for e in edges:
        c = e.bit_count()
        if c != 3:
            if c == 2:
                pairs.append(e)
            elif c == 1:
                units.append(e)
            elif c > 3:
                raise UnsupportedInstanceError("working edge of size > 3; dispatch to the general engine")
        s3 |= s2 & e
        s2 |= s1 & e
        s1 |= e

    if 0 in edges:
        return R0_0

    isolated = inst.vmask & ~s1
    if isolated:
        return RuleId("R1_0", v=(isolated & -isolated).bit_length() - 1)

    # A small edge inside a triple has all its vertices in >= 2 edges.
    inner = [s for s in units + pairs if not s & ~s2]
    if inner:
        supersets = [e for s in inner for e in edges if e & s == s and e.bit_count() == 3]
        if supersets:
            return RuleId("R1_1", e=min(supersets, key=edge_key))

    if units:  # single-bit masks sort like their vertex ids
        return RuleId("R1_2", v=min(units).bit_length() - 1)

    ones = s1 & ~s2
    if ones:
        vb = ones & -ones
        for em in edges:
            if em & vb:
                break
        others = em ^ vb
        lo = others & -others
        if others == lo:
            return RuleId("R2_1", branches=((vb, lo), (lo, vb)))
        if not others & s2:
            return RuleId("R2_2", branches=tuple((1 << x, em ^ (1 << x)) for x in iter_bits(em)))
        return RuleId("R2_3", branches=((vb, others), (0, vb)))

    if pairs:
        tied = _busiest(edges, _busiest(pairs, s1))
        vb = tied & -tied
        partners = 0
        for e in pairs:
            if e & vb:
                partners |= e ^ vb
        return RuleId(f"R3_{min(partners.bit_count(), 3)}", branches=((vb, 0), (partners, vb)))

    if s3:
        vb = _busiest(edges, s3)
        vb &= -vb
        return RuleId("R4_1", branches=((vb, 0), (0, vb)))
    # Every vertex now lies in exactly two triples.
    vb = s1 & -s1
    ea, eb = sorted((e for e in edges if e & vb), key=edge_key)
    shared = ea & eb & ~vb
    if shared:
        return RuleId("R4_2", branches=((vb, shared & -shared), (0, vb)))
    a = ea ^ vb
    la = a & -a
    return RuleId("R4_3", branches=((vb | la, eb ^ vb), (vb, la), (0, vb)))


def _busiest(edges: Iterable[int], cand: int) -> int:
    """The vertices of cand that lie in the most edges, as a mask; all of cand if none lies in any.

    Counts degrees of the cand vertices in bit-sliced form: digits[i]
    holds bit i of every vertex's count, and adding an edge is a
    ripple-carry add of its cand bits. The maximum is then narrowed
    from the top digit down.
    """
    digits: list[int] = []
    for e in edges:
        carry = e & cand
        i = 0
        while carry:
            if i == len(digits):
                digits.append(carry)
                break
            d = digits[i]
            digits[i] = d ^ carry
            carry &= d
            i += 1
    for d in reversed(digits):
        if cand & d:
            cand &= d
    return cand


def apply_rule(inst: Instance, rule: RuleId) -> list[Instance]:
    """Child instances of a rule, in branch order; empty for halting rules."""
    t = rule.tag
    if t == "R1_0":
        return [inst.discard(rule.v)]
    if t == "R1_1":
        return [inst.drop_edge(rule.e)]
    if t == "R1_2":
        return [inst.select(rule.v)]
    return [inst.branch(s, d) for s, d in rule.branches]


def _step(inst: Instance, _: None) -> list[tuple[Instance, None]]:
    """rank3's `hypergraph.BranchStep`: the first applicable rule's children, carrying nothing."""
    return [(c, None) for c in apply_rule(inst, next_rule(inst))]


def enumerate_rank3(
    h: Hypergraph,
    sink: TransversalSink,
    *,
    check_measure: bool = False,
) -> SearchStats:
    """Invoke sink once per minimal transversal of h, in deterministic DFS order.

    sink gets each transversal's vertex mask (bit v for vertex v).
    check_measure validates, at every node with children, that the weighted
    measures satisfy sum_i 2**mu(child_i) <= 2**mu(parent) + tolerance,
    under the verified weights `analysis.DEFAULT_WEIGHTS`.
    """
    if h.rank() > 3:
        raise UnsupportedInstanceError(f"rank {h.rank()} input; this engine handles rank <= 3")
    root = Instance(h)
    if not check_measure:
        return search(root, _step, h, sink)
    from .analysis import DEFAULT_WEIGHTS, mask_measure  # the toolbox loads only for this check

    def scaled(inst: Instance) -> float:
        return 2.0 ** mask_measure(inst.vmask, inst.emasks, DEFAULT_WEIGHTS)

    # Each state carries its own 2**mu, computed once when it is built.
    def branch(inst: Instance, parent: float) -> list[tuple[Instance, float]]:
        rule = next_rule(inst)
        children = [(c, scaled(c)) for c in apply_rule(inst, rule)]
        total = sum(value for _, value in children)
        if total > parent + MEASURE_TOLERANCE:
            raise SearchInvariantError(f"measure inequality violated at {rule.tag}: {total!r} > {parent!r}")
        return children

    return search(root, branch, h, sink, scaled(root))
