"""Benchmark workloads: seeded input generation and the correctness gates.

Everything here is independent of the package under test. Inputs are
built from the paper's packed-block family (disjoint blocks of 2k-1
vertices carrying all their k-subsets as edges), whose minimal
transversals are known in closed form: one k-subset per block. The gates
check the CLI's output against that closed form, never against package
code.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from itertools import combinations, product


@dataclass(frozen=True)
class Workload:
    """One CLI command on one seeded packed-block input.

    Block i has 2*ks[i]-1 vertices and all their ks[i]-subsets as edges.
    With `permuted`, the seed relabels the vertices. `supersets` redundant
    edges (an edge plus one more vertex), drawn by the seed, are added on
    top of the blocks; they raise the rank without changing the set of
    minimal transversals.
    """

    name: str
    command: str
    ks: tuple[int, ...]
    permuted: bool = True
    supersets: int = 0


# Each workload keeps two of the three engines idle, so a change to one
# engine moves one workload and is predicted to leave the other two alone.
# One CLI run takes well under a second, so a run holds dozens of them.
WORKLOADS = {
    w.name: w
    for w in (
        # rank 3 -> rank3: one deep tree (depth 32) and 10,000 output lines,
        # the heaviest formatting and write path.
        Workload("lb3-enumerate", "enumerate", ks=(3, 3, 3, 3)),
        # rank 4 -> compression: phase-1 scan, projections and many small
        # rank3 calls, then the final filter; one output line.
        Workload("lb4-minimum", "minimum", ks=(4, 4, 2)),
        # rank 6 via redundant supersets -> rankk: its subsumption scans and
        # branching; one output line. Not relabelled: rankk's tree size
        # depends on how the blocks' ids interleave, and the seed already
        # varies the supersets.
        Workload("rank6-redundant-count", "count", ks=(5, 4), permuted=False, supersets=60),
    )
}


@dataclass(frozen=True)
class Input:
    """A generated instance: its text and the closed-form facts the gates use."""

    workload: Workload
    text: str
    blocks: tuple[tuple[int, ...], ...]
    n: int
    m: int
    rank: int

    @property
    def expected_outputs(self) -> int:
        return math.prod(math.comb(2 * k - 1, k) for k in self.workload.ks)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def describe(self) -> dict:
        return {"n": self.n, "m": self.m, "rank": self.rank, "sha256": self.sha256}


def build_input(workload: Workload, seed: int) -> Input:
    """The workload's instance for `seed`; the same seed gives the same text."""
    rng = random.Random(f"{workload.name}/{seed}")
    n = sum(2 * k - 1 for k in workload.ks)
    label = list(range(1, n + 1))
    if workload.permuted:
        rng.shuffle(label)  # vertex v of the unpermuted family is label[v - 1]
    blocks, start = [], 0
    for k in workload.ks:
        blocks.append(tuple(sorted(label[start : start + 2 * k - 1])))
        start += 2 * k - 1
    base = [frozenset(c) for block, k in zip(blocks, workload.ks) for c in combinations(block, k)]
    edges = list(base)
    seen = set(base)
    while len(edges) < len(base) + workload.supersets:
        edge = rng.choice(base)
        grown = edge | {rng.randint(1, n)}
        if len(grown) == len(edge) + 1 and grown not in seen:
            seen.add(grown)
            edges.append(grown)
    rng.shuffle(edges)
    lines = [f"c {workload.name} seed {seed}", f"p hg {n} {len(edges)}"]
    lines.extend(" ".join(map(str, sorted(e))) for e in edges)
    return Input(
        workload=workload,
        text="\n".join(lines) + "\n",
        blocks=tuple(blocks),
        n=n,
        m=len(edges),
        rank=max(len(e) for e in edges),
    )


def lines_digest(lines: list[str]) -> str:
    """Order-insensitive digest of output lines (sorted, newline-joined)."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Gate:
    """Checks one run's stdout against the closed form of its input."""

    def __init__(self, inp: Input) -> None:
        self.inp = inp
        self.expected_digest = None
        if inp.workload.command == "enumerate":
            rows = (
                " ".join(map(str, sorted(v for part in choice for v in part)))
                for choice in product(*(combinations(b, k) for b, k in zip(inp.blocks, inp.workload.ks)))
            )
            self.expected_digest = lines_digest(list(rows))

    def check(self, stdout: str) -> str | None:
        """None when the output is right, otherwise a one-line reason."""
        inp = self.inp
        command = inp.workload.command
        if command == "enumerate":
            lines = stdout.splitlines()
            if lines_digest(lines) != self.expected_digest:
                return f"enumerate output digest mismatch ({len(lines)} lines)"
            return None
        if command == "count":
            want = f"{inp.expected_outputs}\n"
            return None if stdout == want else f"count printed {stdout[:40]!r}, want {want!r}"
        if command == "minimum":
            lines = stdout.splitlines()
            if len(lines) != 1:
                return f"minimum printed {len(lines)} lines, want 1"
            chosen = [int(tok) for tok in lines[0].split()]
            if len(set(chosen)) != len(chosen) or len(chosen) != sum(inp.workload.ks):
                return f"minimum printed {lines[0]!r}"
            for block, k in zip(inp.blocks, inp.workload.ks):
                inside = sum(1 for v in chosen if v in block)
                if inside != k:
                    return f"minimum has {inside} vertices in block {block}, want {k}"
            return None
        raise ValueError(f"no gate for command {command!r}")
