"""Hypergraph data model, text I/O, and the primitives shared by all engines.

Vertices are the integers 1..n. Edges have set semantics: duplicates
collapse and no order is kept. Shown, they follow the canonical edge order
(ascending vertex lists, lexicographically), the package's tie-break.

A hypergraph stores only its edge masks (bit v for vertex v), as a
frozenset; `edges` and `edge_masks()` list them in the canonical order. An
incidence row per vertex over edge indices is built on first use, and
the minimality check folds a set's rows eight vertices at a time: one
table per byte of vertices maps each byte value, on first use, to its
members' folded rows. An `Instance` holds the working state as masks,
and `Instance.branch` builds a child that selects and discards several
vertices in one pass over its edges. The search kernel hands each leaf's
partial set to the minimality check and to its sink as a mask, and every
engine's sink gets masks; `bitsets.set_of` decodes one into a frozenset.
As the branching rules never read the partial set, the kernel expands
each distinct working state once per run and replays its children. It
carries each partial set's fold down the tree, so a leaf's check folds
nothing. A repeated subtree whose results are known is not walked again:
handed the sink `count_only`, the walk adds its counters from a stored
summary; handed any other sink, it also replays the subtree's stored
outputs onto the visit's partial set: as one packed block to a
`bitsets.PackedSink` of their width (the CLI's one line writer), one
mask per call to other sinks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from itertools import filterfalse
from operator import index
from types import SimpleNamespace
from typing import Any

from .bitsets import ByteTable, PackedSink, byte_tables, each_mask, edge_key, iter_bits, set_of, xor_each
from .errors import ParseError, SearchInvariantError

#: Consumer invoked exactly once per enumerated minimal transversal, with
#: its vertex mask (bit v for vertex v).
TransversalSink = Callable[[int], None]


def _fold_byte(inc: tuple[int, ...], j: int, b: int) -> tuple[int, int, tuple[int, ...]]:
    """The fold of the vertices 8j..8j+7 picked by the bits of b: the
    edges their incidence rows inc[v] hit once or more and twice or more,
    and the rows as a tuple."""
    rows = tuple(map(inc.__getitem__, iter_bits(b << 8 * j)))
    once = twice = 0
    for row in rows:
        twice |= once & row
        once |= row
    return once, twice, rows


class Hypergraph:
    """Immutable hypergraph on the vertex universe 1..n.

    Its edge masks are a frozenset, shown in the canonical order (`edges`,
    `edge_masks()`, repr, text); incidence row bit i is the set's i-th mask.
    The empty edge is legal (no set hits it). Isolated vertices are legal.
    Values are safe to share between concurrent enumeration runs: the
    incidence rows and per-byte tables are caches built on first use,
    outside ==, and two runs that fill one entry at once compute the same
    value.
    """

    __slots__ = ("n", "_masks", "_inc", "_folds")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._masks: frozenset[int] = frozenset(map(self._vertex_mask, edges))
        self._inc: tuple[int, ...] | None = None
        self._folds: list[ByteTable] | None = None

    @classmethod
    def _from_masks(cls, n: int, masks: Iterable[int]) -> Hypergraph:
        """A hypergraph from edge masks that the caller has range-checked."""
        h = cls(n)
        h._masks = frozenset(masks)
        return h

    @property
    def edges(self) -> tuple[frozenset[int], ...]:
        """The edges as vertex sets, in the canonical order."""
        return tuple(map(set_of, self.edge_masks()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        shown = [list(iter_bits(e)) for e in self.edge_masks()]
        return f"Hypergraph({self.n}, {shown})"

    def rank(self) -> int:
        """Maximum edge cardinality (0 when there are no edges)."""
        return max((e.bit_count() for e in self._masks), default=0)

    def edge_masks(self) -> tuple[int, ...]:
        """The stored edge masks, in the canonical order."""
        return tuple(sorted(self._masks, key=edge_key))

    def _vertex_mask(self, vertices: Iterable[int]) -> int:
        """The mask of vertices; TypeError on a non-integral id, ValueError on one outside 1..n."""
        m = 0
        for v in map(index, vertices):
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
            m |= 1 << v
        return m

    def _check_mask(self, m: int) -> None:
        """Raise ValueError unless m is the mask of a vertex set on 1..n (a negative m has bits above n)."""
        if m & 1 or m >> (self.n + 1):
            bad = m & ~((1 << (self.n + 1)) - 2)
            raise ValueError(f"vertex {(bad & -bad).bit_length() - 1} out of range 1..{self.n}")

    def is_transversal(self, s: Iterable[int] | int) -> bool:
        """True iff s, a vertex set or its mask (bit v for vertex v), hits every edge."""
        if isinstance(s, int):
            self._check_mask(s)
        else:
            s = self._vertex_mask(s)
        return all(e & s for e in self._masks)

    def _incidence(self) -> tuple[int, ...]:
        """inc[v] has bit i set iff edge i contains v (inc[0] is unused)."""
        if self._inc is None:
            inc = [0] * (self.n + 1)
            for i, e in enumerate(self._masks):
                for v in iter_bits(e):
                    inc[v] |= 1 << i
            self._inc = tuple(inc)
        return self._inc

    def _fold(self, s: int) -> tuple[int, int, tuple[int, ...]]:
        """The edges that s, a range-checked mask, hits once or more and twice
        or more, and the incidence rows of its members in ascending order.

        A set of one vertex or none reads its row, if any, directly. Larger
        ones are folded a byte of vertices at a time: each nonzero byte's
        (once, twice, rows) comes from a table that `_fold_byte` fills on
        first use, and the bytes combine as twice |= t | (once & o), once |= o.
        """
        if not s & (s - 1):
            rows = (self._incidence()[s.bit_length() - 1],) if s else ()
            return sum(rows), 0, rows  # once is the one row, or 0
        if self._folds is None:
            self._folds = byte_tables(self.n, partial(_fold_byte, self._incidence()))
        once, twice, rows = 0, 0, []
        for table, b in zip(self._folds, s.to_bytes(len(self._folds), "little")):
            if b:
                o, t, r = table[b]
                twice |= t | (once & o)
                once |= o
                rows += r
        return once, twice, tuple(rows)

    def is_minimal_transversal(self, s: Iterable[int] | int, fold: tuple | None = None) -> bool:
        """True iff s hits every edge and every member of s has a private edge.

        s is a vertex set (repeats ignored) or its mask, an int with bit v
        for vertex v. A private edge of v is an edge whose only vertex in s
        is v. The private-edge criterion is equivalent to "no proper subset
        of s is a transversal". The members' incidence rows fold into the
        edges hit once or more (`once`) and twice or more (`twice`): s is a
        transversal iff `once` holds every edge, and v has a private edge
        iff its row leaves `twice`. This is the "crit" test of Murakami and
        Uno (DAM 2014); the fold (`_fold`) takes one table lookup per byte
        of vertices. A caller that has s's fold already (the search kernel
        carries it down the tree) passes it as `fold`; it is trusted and
        must equal `_fold(s)`, its rows in any order. s is range-checked
        either way.
        """
        if not isinstance(s, int):
            s = self._vertex_mask(s)
        elif s & 1 or s >> (self.n + 1):  # the test of _check_mask, inline on this hot path
            self._check_mask(s)
        once, twice, rows = self._fold(s) if fold is None else fold
        return once == (1 << len(self._masks)) - 1 and all(map((~twice).__and__, rows))


class Instance:
    """Working state of one enumeration run.

    `vmask` holds the vertices still eligible for the partial solution
    `smask`, and `emasks` the hyperedges not yet hit, all as masks. The
    partial solution and the working vertex set never overlap. `Instance(h)`
    is the root: all of 1..n, every edge, S empty. Instances are persistent
    values: select/discard/branch return new ones, and `==` compares masks only.
    """

    __slots__ = ("vmask", "emasks", "smask")

    def __init__(self, h: Hypergraph) -> None:
        self.vmask = (1 << (h.n + 1)) - 2
        self.emasks = h._masks
        self.smask = 0

    def _spawn(self, vmask: int, emasks: frozenset[int], smask: int) -> Instance:
        inst = object.__new__(Instance)
        inst.vmask = vmask
        inst.emasks = emasks
        inst.smask = smask
        return inst

    def eta(self) -> int:
        """Progress measure |V| + |E|; strictly decreases down the search tree."""
        return self.vmask.bit_count() + len(self.emasks)

    def select(self, v: int) -> Instance:
        """Commit v: drop every edge containing v, move v into the partial set."""
        vb = 1 << v
        if not self.vmask & vb:
            raise ValueError(f"vertex {v} is not in the working set")
        emasks = frozenset(e for e in self.emasks if not e & vb)
        return self._spawn(self.vmask ^ vb, emasks, self.smask | vb)

    def discard(self, v: int) -> Instance:
        """Forbid v: remove it from the working set and shrink its edges."""
        vb = 1 << v
        if not self.vmask & vb:
            raise ValueError(f"vertex {v} is not in the working set")
        keep = ~vb
        return self._spawn(self.vmask ^ vb, frozenset(e & keep for e in self.emasks), self.smask)

    def drop_edge(self, em: int) -> Instance:
        """Remove the working edge of mask em (used by the subsumption reductions)."""
        if em not in self.emasks:
            raise ValueError("no such working edge")
        return self._spawn(self.vmask, self.emasks - {em}, self.smask)

    def branch(self, sel: int, dis: int) -> Instance:
        """Select the vertices of mask sel and discard those of mask dis, in one pass.

        Equal to any chain of select and discard calls on the same
        vertices, since the two commute; the masks must be disjoint
        subsets of the working vertices.
        """
        if sel & dis:
            raise ValueError("select and discard masks overlap")
        if (sel | dis) & ~self.vmask:
            raise ValueError("branch mask holds a vertex outside the working set")
        keep = ~dis
        emasks = frozenset(e & keep for e in self.emasks if not e & sel)
        return self._spawn(self.vmask & ~(sel | dis), emasks, self.smask | sel)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.vmask == other.vmask and self.emasks == other.emasks and self.smask == other.smask

    def __hash__(self) -> int:
        return hash((self.vmask, self.emasks, self.smask))

    def __repr__(self) -> str:
        edges = sorted(list(iter_bits(e)) for e in self.emasks)
        return f"Instance(V={list(iter_bits(self.vmask))}, E={edges}, S={list(iter_bits(self.smask))})"


class SearchStats(SimpleNamespace):
    """Counters for one run; leaves <= nodes and outputs <= leaves throughout.

    A namespace gives field-wise ==, a keyword repr, copying, pickling and
    no hash, as a mutable `@dataclass` would, without importing
    `dataclasses` (and with it `inspect`) on the enumeration path."""

    def __init__(self, nodes: int = 0, leaves: int = 0, max_depth: int = 0, outputs: int = 0) -> None:
        super().__init__(nodes=nodes, leaves=leaves, max_depth=max_depth, outputs=outputs)


#: An engine's branching rules: a state that has working edges, none of
#: them empty, plus the value the engine carries with it -> the children
#: in branch order, each with its own carried value. Contract: these
#: depend only on (vmask, emasks) and the carried value, itself a function
#: of (vmask, emasks), never on smask: rank3's step never reads it, its
#: measure check carries 2**mu(state), and rankk carries exactly the
#: state's subsumed edges. A rule that reads the partial set, such as
#: pruning by |S|, belongs in the walk, not in the step.
BranchStep = Callable[[Instance, Any], list[tuple[Instance, Any]]]

#: The most edge masks (the sum of len(emasks) over the stored states) in
#: one run's memo; past it, new states are expanded but not stored.
_MEMO_MASKS = 1 << 17

#: The most outputs of one subtree that a run with a reading sink stores
#: for replay. A subtree with more leaves than this is always walked.
_REPLAY_CAP = 1 << 12


def count_only(mask: int) -> None:
    """The sink that reads nothing, and the one sink `search` recognises:
    an engine handed it returns the same stats without walking the
    subtrees it has already counted."""


def _private_edges(outside: int, fold: tuple) -> list[int] | None:
    """The crit test on S's fold at a state whose working vertices cannot hit the edges of outside:
    the private edges of S's members inside U = ~outside, in the rows' order (they are disjoint);
    None if a member has none. With outside=0, every member's: compression's final filter."""
    once, twice, rows = fold
    single = once & ~twice  # the edges S hits once: the union of its members' private edges
    spared = single & outside  # a member that hits one of these keeps a private edge below
    k = list(map(single.__and__, filterfalse(spared.__and__, rows)))
    return k if all(k) else None


def _crit_key(outside: int, fold: tuple) -> tuple[int, ...] | None:
    """K, `_private_edges` ascending: `search` keys its subtree summaries on it."""
    k = _private_edges(outside, fold)
    return None if k is None else tuple(sorted(k))


def search(
    root: Instance,
    branch: BranchStep,
    leaf_graph: Hypergraph,
    sink: TransversalSink,
    carry: Any = None,
) -> SearchStats:
    """Depth-first branch-and-reduce search from root, on an explicit stack.

    A state without working edges is a leaf; its partial set goes to sink
    as a mask (never a frozenset) if it is a minimal transversal of
    leaf_graph, which must be on root's vertices 1..n and have the same
    minimal transversals as root's input. A state with an empty edge is a
    leaf that emits nothing. Every other state is expanded by branch, and
    each child must shrink |V| + |E|, which bounds the depth. Children are
    visited in branch order, so the visit and emission order is the
    preorder of the tree. `carry` is the value that goes with root.

    By BranchStep's contract equal (vmask, emasks) have equal subtrees,
    so each distinct state is expanded once (while the memo has room,
    _MEMO_MASKS): its children are stored in push order with the vertices
    each adds to S, and later visits replay them onto their own S. A
    state that reaches branch is first rebuilt with its true S.

    Each stack entry also carries S's fold over leaf_graph's incidence
    rows (`Hypergraph._fold`: the edges hit once or more, twice or more,
    and the members' rows), and each stored child the fold of the
    vertices it adds, so a push folds only those in and a leaf's check
    reads its fold instead of folding S again.

    A repeated subtree is not walked again once its results are known. A
    leaf S | T below a state (V, E) is a minimal transversal iff (a) each
    t in T has an edge of E that T meets only in t, which depends on
    (V, E) and T alone, and (b) each member of S keeps a private edge
    that T misses. T hits only edges in U, the OR of V's incidence rows,
    so (b) reads S only through K, the private edges of S's members that
    lie wholly inside U, and fails for every T when a member has none:
    the "crit" test of Murakami and Uno (DAM 2014). A subtree's nodes,
    leaves and height, its outputs' T masks and their preorder are thus
    functions of (V, E, K). At the second visit of a state the memo
    stores, a marker goes under its children; when it pops, the counters
    since the state opened are stored under (its stored children, K).
    With sink `count_only`, later visits with that key add them instead
    of walking. With any other sink, a later visit with that key records
    the T masks it emits, packed, when the subtree has at most
    _REPLAY_CAP leaves, and the visits after it add the counters and
    hand the sink S | T for each stored T (one packed block to a
    PackedSink of their width); a subtree that emits nothing is skipped
    at once. So every leaf outside the skipped subtrees is still
    checked, and the stats and the emitted sequence are those of the
    full walk. Summaries and T lists share a budget of _MEMO_MASKS
    units: one plus |K| per summary, and the 8-byte words of each list.
    """
    counting = sink is count_only
    memo = {}
    # id of a stored state's children -> the edges its working vertices cannot hit (~U),
    # or 0 once a reading run has seen its subtree hold more than _REPLAY_CAP leaves.
    # The memo keeps each stored list alive for the run, so its id names a state.
    reach: dict[int, int] = {}
    # (id of a stored state's children, K) -> (nodes, leaves, height, outputs, ts) of its
    # subtree, where ts packs the outputs' T masks, width bytes each, or is None until recorded
    sums: dict[tuple[int, tuple[int, ...] | None], tuple[int, int, int, int, bytes | None]] = {}
    room = sum_room = _MEMO_MASKS
    nodes = leaves = outputs = 0
    deep = 0  # the greatest depth seen since the innermost open summary (none open: in the run)
    width = (leaf_graph.n >> 3) + 1
    emitted = bytearray()  # the masks emitted since the outermost open recording opened, packed
    recording = 0  # how many recordings are open
    put_block = sink.extend if type(sink) is PackedSink and sink.width == width else partial(each_mask, sink, width)

    stack = [(root, root.smask, carry, 0, leaf_graph._fold(root.smask))]
    pop, push = stack.pop, stack.append
    while stack:
        inst, s, carry, depth, fold = pop()
        if inst is None:  # a marker: s is a summary's key
            if carry is None:  # it closes the summary; fold holds the counters at open
                n0, l0, o0, deep0 = fold
                sums[s] = (nodes - n0, leaves - l0, deep - depth, outputs - o0, None)
                if leaves - l0 > _REPLAY_CAP and not counting:
                    reach[s[0]] = 0  # outputs <= leaves, so no K of this state will replay
                if deep0 > deep:
                    deep = deep0
            else:  # it closes a recording: carry is where it opened in emitted, fold its S
                sums[s] = (*sums[s][:4], xor_each(emitted[carry:], fold, width))
                recording -= 1
                if not recording:
                    emitted.clear()
            continue
        edges = inst.emasks
        if not edges or 0 in edges:
            nodes += 1
            leaves += 1
            if depth > deep:
                deep = depth
            if not edges and leaf_graph.is_minimal_transversal(s, fold=fold):
                sink(s)
                outputs += 1
                if recording:
                    emitted += s.to_bytes(width, "little")
            continue
        key = (inst.vmask, edges)
        children = memo.get(key)
        if children is None:
            if inst.smask != s:
                inst = inst._spawn(inst.vmask, edges, s)
            bound = inst.eta() - 1
            children = []
            for child, value in branch(inst, carry):
                if child.eta() > bound:
                    raise SearchInvariantError(f"|V|+|E| did not decrease at {inst!r}")
                delta = child.smask ^ s
                children.append((child, delta, value, leaf_graph._fold(delta)))
            children.reverse()
            if len(edges) <= room:
                memo[key] = children
                room -= len(edges)
        else:
            outside = reach.get(id(children))
            if outside is None:
                outside = reach[id(children)] = ~leaf_graph._fold(inst.vmask)[0]
            if outside:
                summary = (id(children), _crit_key(outside, fold))
                got = sums.get(summary)
                if got is None:
                    cost = 1 + len(summary[1] or ())
                    if cost <= sum_room:
                        sum_room -= cost
                        push((None, summary, None, depth, (nodes, leaves, outputs, deep)))
                        deep = depth
                elif counting or not got[3] or got[4] is not None:
                    nodes += got[0]
                    leaves += got[1]
                    if depth + got[2] > deep:
                        deep = depth + got[2]
                    outputs += got[3]
                    if got[4]:
                        put_block(block := xor_each(got[4], s, width))  # S | T for each stored T
                        if recording:
                            emitted += block
                    continue
                else:  # got[3] <= got[1] <= _REPLAY_CAP, as reach is not 0
                    cost = (got[3] * width + 7) >> 3
                    if cost <= sum_room:
                        sum_room -= cost
                        push((None, summary, len(emitted), depth, s))
                        recording += 1
        nodes += 1
        if depth > deep:
            deep = depth
        depth += 1
        once, twice, rows = fold
        for child, delta, value, (o, t, r) in children:
            push((child, s | delta, value, depth, (once | o, twice | t | (once & o), rows + r)))
    return SearchStats(nodes, leaves, deep, outputs)


def _decimal(tok: str) -> int:
    """tok, ASCII digits after an optional '-', as an int; else ValueError, also where `int` would read it."""
    if tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit()):
        return int(tok)
    raise ValueError(tok)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format: comments (c/#), one `p hg <n> <m>` header, m edge lines.

    Each edge line is a whitespace-separated list of vertex ids; a blank
    line inside the edge block denotes the empty edge. Ids and counts are
    ASCII decimal numbers, a negative one with a leading '-'. Duplicate edges
    collapse. Errors report 1-based line numbers.
    """
    n = m = 0
    header_seen = False
    masks: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        stripped = raw.strip()
        if stripped.startswith(("c", "#")):
            continue
        if not header_seen:
            if not stripped:
                continue
            toks = stripped.split()
            if len(toks) != 4 or toks[0] != "p" or toks[1] != "hg":
                raise ParseError("expected header 'p hg <n> <m>'", lineno)
            try:
                n, m = _decimal(toks[2]), _decimal(toks[3])
            except ValueError:
                raise ParseError(f"non-integer token in header: {stripped!r}", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("vertex and edge counts must be non-negative", lineno)
            header_seen = True
            continue
        if len(masks) < m:
            em = 0
            for tok in raw.split():
                try:
                    v = _decimal(tok)
                except ValueError:
                    raise ParseError(f"non-integer token {tok!r}", lineno) from None
                if not 1 <= v <= n:
                    raise ParseError(f"vertex {v} out of range 1..{n}", lineno)
                em |= 1 << v
            masks.append(em)
        elif stripped:
            raise ParseError("unexpected content after the last edge", lineno)
    if not header_seen:
        raise ParseError("missing 'p hg <n> <m>' header")
    if len(masks) < m:
        raise ParseError(f"expected {m} edge lines, found {len(masks)}", last_line)
    return Hypergraph._from_masks(n, masks)


def serialize_hypergraph(h: Hypergraph) -> str:
    """Render in the text format accepted by parse_hypergraph."""
    lines = [f"p hg {h.n} {len(h._masks)}"]
    lines.extend(" ".join(map(str, iter_bits(e))) for e in h.edge_masks())
    return "\n".join(lines) + "\n"
