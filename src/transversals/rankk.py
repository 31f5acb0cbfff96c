"""General enumerator of minimal transversals, correct for every rank.

The tree is walked by the kernel shared with rank3, `hypergraph.search`.
It halts on an edge-free state (emit if the partial set is a minimal
transversal of the input) or on an empty edge, checks that every child
shrinks |V| + |E|, and keeps its pending nodes on an explicit stack.
This module supplies the branch step. Rule order: reductions (isolated
vertex, subsumed edge, unit edge); then the degree-1 branch; otherwise
the smallest-edge branch. One pass over the edges gives the degree
bit-planes s1 and s2 (vertices of degree >= 1 and >= 2), so the isolated
vertices are V minus s1 and the degree-1 pivot is the lowest bit of
s1 minus s2. In the smallest-edge branch over
e = v_1..v_|e| (vertices shared with the overlap partner first), branch i
discards v_1..v_{i-1} and selects v_i, so branch i enumerates exactly the
minimal transversals whose first vertex along that ordering is v_i.
Each branching child is one `Instance.branch(select mask, discard mask)`.
The reductions stay apart from rank3's: its R1_1 drops only size-3
supersets of small edges, R2 here any strict superset, so one shared
rule would change one engine's tree.

The subsumed-edge rule drops the canonically smallest edge that strictly
contains another edge. The set of such edges is computed once at the root
and carried down the tree. A child keeps the parent's subsumed edges that
it still has and adds the strict-subset pairs that involve a mask new in
the child. Only discarding creates new masks, by shrinking the edges
through the discarded vertices; selecting and drop_edge only remove
edges. A new pair must involve a new mask, and a subsumed edge that survives
unchanged keeps its witness: the rule never drops an inclusion-minimal
edge, a select that removes the witness removes the superset too, and a
discard that shrinks the witness changes the superset's mask as well. So
a child costs O(|new masks| * |E|) instead of a rescan of all edge pairs.
The root's set also gives the input's inclusion-minimal edges, which have
the same minimal transversals as the input; the leaf check runs on them.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import groupby

from .bitsets import edge_key, iter_bits
from .hypergraph import BranchStep, Hypergraph, Instance, SearchStats, TransversalSink, search


def _subsumed(edges: frozenset[int]) -> set[int]:
    """Every edge that strictly contains another edge.

    Only a smaller edge can be a strict subset, so each edge is compared
    with the edges of smaller size alone.
    """
    out: set[int] = set()
    smaller: list[int] = []
    for _, group in groupby(sorted(edges, key=int.bit_count), key=int.bit_count):
        same_size = list(group)
        out.update(f for f in same_size if any(g & f == g for g in smaller))
        smaller += same_size
    return out


def _derive_subsumed(subsumed: set[int], parent: frozenset[int], child: frozenset[int]) -> set[int]:
    """The subsumed edges of a child state, from those of its parent.

    Exact for a child reached by selects, discards (one at a time or
    through `Instance.branch`), or dropping one edge of `subsumed` (the
    module docstring gives the argument).
    """
    out = subsumed & child
    for g in child - parent:
        for f in child:
            if f != g:
                common = f & g
                if common == g:
                    out.add(f)
                elif common == f:
                    out.add(g)
    return out


class _EdgeKeys(dict):
    """Canonical edge keys, memoized for the masks of one run."""

    def __missing__(self, mask: int) -> tuple[bytes, int]:
        key = self[mask] = edge_key(mask)
        return key


def _choose_b2(
    edges: frozenset[int], key: Callable[[int], tuple[bytes, int]] = edge_key
) -> tuple[int, int, tuple[int, ...]]:
    """The smallest edge e, its maximum-overlap partner, and the branch order.

    Ties go to the canonically first edge (`key`); the order lists e's
    vertices shared with the partner first. Under the branch's
    preconditions (degrees >= 2) every edge meets another one, so a
    partner-less edge raises ValueError rather than being picked.
    """
    min_size = min(e.bit_count() for e in edges)
    e = min((x for x in edges if x.bit_count() == min_size), key=key)
    partners = [f for f in edges if f != e and f & e]
    if not partners:
        raise ValueError("smallest edge overlaps no other edge; an earlier rule applies")
    best = max((f & e).bit_count() for f in partners)
    e_prime = min((f for f in partners if (f & e).bit_count() == best), key=key)
    ordering = (*iter_bits(e & e_prime), *iter_bits(e & ~e_prime))
    return e, e_prime, ordering


def enumerate_rankk(h: Hypergraph, sink: TransversalSink) -> SearchStats:
    """Invoke sink once per minimal transversal of h, with its vertex mask (bit v for vertex v); any rank."""
    root = Instance(h)
    subsumed = _subsumed(root.emasks)
    leaf_graph = Hypergraph._from_masks(h.n, root.emasks - subsumed)
    return search(root, _branch_step(), leaf_graph, sink, subsumed)


def _branch_step() -> BranchStep:
    """The rules R1..B2 for one run of the kernel.

    The value carried with each state is the set of its edges that
    strictly contain another of its edges; the canonical edge order is
    memoized for the run.
    """
    key = _EdgeKeys().__getitem__

    def branch(inst: Instance, subsumed: set[int]) -> list[tuple[Instance, set[int]]]:
        edges = inst.emasks
        s1 = s2 = 0  # vertices of degree >= 1, >= 2
        for e in edges:
            s2 |= s1 & e
            s1 |= e
        isolated = inst.vmask & ~s1

        children: list[Instance]
        if isolated:  # R1
            children = [inst.discard((isolated & -isolated).bit_length() - 1)]
        elif subsumed:  # R2
            children = [inst.drop_edge(min(subsumed, key=key))]
        else:
            units = [e for e in edges if e.bit_count() == 1]
            if units:  # R3
                children = [inst.select(min(units).bit_length() - 1)]
            elif ones := s1 & ~s2:  # B1 on the lowest degree-1 vertex
                vb = ones & -ones
                em = next(e for e in edges if e & vb)
                children = [inst.discard(vb.bit_length() - 1), inst.branch(vb, em ^ vb)]
            else:  # B2: child i selects v_i and discards v_1..v_{i-1}
                children = []
                dis = 0
                for v in _choose_b2(edges, key)[2]:
                    vb = 1 << v
                    children.append(inst.branch(vb, dis))
                    dis |= vb
        return [(child, _derive_subsumed(subsumed, edges, child.emasks)) for child in children]

    return branch
