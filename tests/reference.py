"""A reference enumerator of minimal transversals that shares no code with
the package: MMCS (Murakami and Uno, "Efficient algorithms for dualizing
large-scale hypergraphs", DAM 2014) on bitmasks, standard library only.

Vertex v is bit v of a mask and edge i bit i of an edge set. MMCS grows S
one vertex at a time from an uncovered edge F with the fewest candidates,
trying F's candidates in turn and making each tried one a candidate again
for the siblings after it. crit[u], the edges that S hits only in u, must
stay nonempty for every member u: otherwise S cannot grow into a minimal
transversal. S is emitted when it hits every edge.

    python tests/reference.py FILE

prints the number of minimal transversals of a `p hg <n> <m>` file.
"""

import sys


def read_hg(text):
    """(n, edge masks) of a `p hg` text: comments start with c or #, a blank edge line is the empty edge."""
    n = m = None
    edges = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] and words[0][0] in "c#":
            continue
        if n is None:
            if words:
                n, m = int(words[2]), int(words[3])
        elif len(edges) < m:
            mask = 0
            for v in words:
                mask |= 1 << int(v)
            edges.append(mask)
    return n, edges


def mmcs(n, edges, sink):
    """Call sink once per minimal transversal of the hypergraph on 1..n with these edge masks, with its mask."""
    inc = [0] * (n + 1)  # inc[v]: the edges that hold v
    for i, e in enumerate(edges):
        for v in range(1, n + 1):
            if e >> v & 1:
                inc[v] |= 1 << i

    def grow(s, cand, crit, uncov):
        if not uncov:
            sink(s)
            return
        fewest = None
        rest = uncov
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            c = edges[i] & cand
            if fewest is None or c.bit_count() < fewest.bit_count():
                fewest = c
        cand &= ~fewest
        while fewest:
            vb = fewest & -fewest
            fewest ^= vb
            row = inc[vb.bit_length() - 1]
            kept = [k & ~row for k in crit]
            if all(kept):
                grow(s | vb, cand, kept + [uncov & row], uncov & ~row)
            cand |= vb

    grow(0, (2 << n) - 2, [], (1 << len(edges)) - 1)


def count(text):
    """The number of minimal transversals of a `p hg` text."""
    found = []
    mmcs(*read_hg(text), found.append)
    return len(found)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as handle:
        print(count(handle.read()))
