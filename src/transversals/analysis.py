"""Measure evaluation, branching-constraint verification, and bound tables.

The rank-3 engine's running-time analysis assigns a weight omega_i to each
vertex of degree i and a credit psi(j) to the count j of edges of size at
most 2. The measure of a working hypergraph is

    mu(H) = psi(m_le2) + sum over vertices v of omega(d(v))

with the extension convention omega_i = omega_5 and psi(i) = 0 for i >= 6.
Each branching rule contributes a family of inequalities of the shape
sum_i 2^(-eta_i) <= 1, where eta_i is the guaranteed measure decrease in
branch i. `verify_weights` enumerates every family over its full parameter
grid and reports the left-hand sides and slacks, so a weight table can be
checked mechanically instead of trusted.

This module also hosts the recurrence-root solver for the general-rank
engine's branching factor and the generator for the lower/upper bound table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .bitsets import iter_bits
from .errors import UnsupportedInstanceError
from .hypergraph import Hypergraph

#: Constraint family identifiers, in report order.
FAMILIES = (
    "deltas",
    "rule1_2",
    "c21",
    "rule2_2",
    "rule2_3",
    "c31",
    "c32",
    "rule3_3",
    "c41",
    "rule4_2",
    "rule4_3",
)

#: Families whose rows are branching inequalities sum 2^(-eta) <= 1.
BRANCHING_FAMILIES = frozenset(FAMILIES[2:])

#: A row passes when its slack is at least -TOLERANCE.
TOLERANCE = 1e-6


@dataclass(frozen=True)
class Weights:
    """Weight table: omega[0..6] per vertex degree, psi[0..6] per small-edge count.

    Indices above 6 follow the extension convention (omega stays at
    omega[5], psi drops to 0), which the table must already satisfy at
    index 6. Monotonicity of the difference sequences is *not* enforced
    here; it is one of the verified constraint families.
    """

    omega: tuple[float, ...]
    psi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.omega) != 7 or len(self.psi) != 7:
            raise ValueError("need omega_0..omega_6 and psi_0..psi_6")
        if not all(map(math.isfinite, self.omega + self.psi)):
            raise ValueError("weights must be finite")
        if any(x < 0 for x in self.omega) or any(x < 0 for x in self.psi):
            raise ValueError("weights must be non-negative")
        if self.omega[6] != self.omega[5]:
            raise ValueError("extension convention requires omega_6 == omega_5")
        if self.psi[6] != 0.0:
            raise ValueError("extension convention requires psi_6 == 0")

    def omega_at(self, i: int) -> float:
        return self.omega[i] if i < 6 else self.omega[6]

    def psi_at(self, i: int) -> float:
        return self.psi[i] if i < 6 else 0.0

    def d_omega(self, i: int) -> float:
        """omega_i - omega_{i-1} for i >= 1."""
        return self.omega_at(i) - self.omega_at(i - 1)

    def d_psi(self, i: int) -> float:
        """psi(i) - psi(i-1) for i >= 1 (non-positive for valid tables)."""
        return self.psi_at(i) - self.psi_at(i - 1)

    @property
    def growth_base(self) -> float:
        """2**omega_5, the per-vertex base of the rank-3 running-time bound."""
        return 2.0 ** self.omega[5]


#: Weight table under which every constraint family verifies; its growth
#: base 2**omega_5 = 1.67547.. is the rank-3 bound base.
DEFAULT_WEIGHTS = Weights(
    omega=(
        0.0,
        0.580392137,
        0.699175718,
        0.730706814,
        0.742114220,
        0.744541491,
        0.744541491,
    ),
    psi=(
        0.566096928,
        0.436314617,
        0.306532603,
        0.211986294,
        0.119795899,
        0.035202514,
        0.0,
    ),
)


def mask_measure(vmask: int, edges: Iterable[int], w: Weights) -> float:
    """mu of the vertices in mask vmask and the edges given as masks.

    psi of the number of edges of size <= 2, plus omega of each vertex's
    degree, summed over the vertices in ascending id order.
    """
    small = 0
    deg = dict.fromkeys(iter_bits(vmask), 0)
    for e in edges:
        if e.bit_count() <= 2:
            small += 1
        for v in iter_bits(e):
            deg[v] += 1
    return w.psi_at(small) + sum(w.omega_at(d) for d in deg.values())


def measure(h: Hypergraph, w: Weights = DEFAULT_WEIGHTS) -> float:
    """Measure of a rank-<=3 hypergraph over its full vertex universe."""
    if h.rank() > 3:
        raise UnsupportedInstanceError(f"rank {h.rank()} input; the measure is defined for rank <= 3")
    return mask_measure((1 << (h.n + 1)) - 2, h.edge_masks(), w)


@dataclass(frozen=True)
class ConstraintRow:
    """One verified inequality: pass iff slack >= -tolerance.

    For branching families, lhs is sum_i 2^(-eta_i) and slack is 1 - lhs.
    For `deltas` and `rule1_2`, lhs is the inspected difference and slack
    the margin of the stated inequality.
    """

    family: str
    params: tuple
    lhs: float
    slack: float

    def passed(self, tolerance: float) -> bool:
        return self.slack >= -tolerance


@dataclass(frozen=True)
class ConstraintReport:
    """Verification outcome; growth_base is raw 2**omega_5, bound_base its
    4-decimal ceiling (the running-time base as one would publish it)."""

    tolerance: float
    growth_base: float
    bound_base: float
    rows: tuple[ConstraintRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed(self.tolerance) for r in self.rows)

    @property
    def max_lhs(self) -> float:
        return max(r.lhs for r in self.rows if r.family in BRANCHING_FAMILIES)

    def family(self, name: str) -> list[ConstraintRow]:
        return [r for r in self.rows if r.family == name]

    def tight(self, name: str) -> list[ConstraintRow]:
        """Rows of a branching family whose inequality holds with near equality."""
        return [r for r in self.family(name) if abs(r.slack) <= self.tolerance]


def verify_weights(w: Weights) -> ConstraintReport:
    """Evaluate every constraint family on its full parameter grid, at TOLERANCE.

    Parameter tuples per family:
      deltas    (kind, i)            difference-monotonicity rows
      rule1_2   (i,)                 psi(i) - psi(0) >= -omega_i
      c21       (d_u, m_le2)
      rule2_2   ()
      rule2_3   ()
      c31       (d_u1, m_le2)
      c32       (d_v, d_u1, d_u2, m_le2)
      rule3_3   (d2_v, m_le2, d_u1, d_u2, d_u3)
      c41       (d_v,)
      rule4_2   ()
      rule4_3   ()
    """
    rows: list[ConstraintRow] = []
    add = rows.append

    def branching(family: str, params: tuple, *etas: float) -> None:
        """The row sum_i 2^(-eta_i) <= 1 for the measure decreases etas of one rule's branches."""
        lhs = sum(2.0 ** -e for e in etas)
        add(ConstraintRow(family, params, lhs, 1.0 - lhs))

    for i in range(1, 6):
        add(ConstraintRow("deltas", ("domega_nonneg", i + 1), w.d_omega(i + 1), w.d_omega(i + 1)))
        add(ConstraintRow("deltas", ("domega_monotone", i), w.d_omega(i + 1), w.d_omega(i) - w.d_omega(i + 1)))
        add(ConstraintRow("deltas", ("dpsi_nonpos", i + 1), w.d_psi(i + 1), -w.d_psi(i + 1)))
        add(ConstraintRow("deltas", ("dpsi_monotone", i), w.d_psi(i + 1), w.d_psi(i + 1) - w.d_psi(i)))

    for i in range(1, 7):
        lhs = w.psi_at(i) - w.psi_at(0)
        add(ConstraintRow("rule1_2", (i,), lhs, lhs + w.omega_at(i)))

    for du, m in product(range(1, 7), repeat=2):
        branching(
            "c21",
            (du, m),
            w.omega_at(1) + w.omega_at(du) + w.d_psi(m),
            w.omega_at(1) + w.omega_at(du) + w.psi_at(m) - w.psi_at(max(m - du, 0)),
        )

    branching("rule2_2", (), *[3.0 * w.omega_at(1)] * 3)

    branching("rule2_3", (), 2.0 * w.omega_at(1) + w.omega_at(2), w.omega_at(1))

    for du1, m in product(range(2, 7), range(1, 7)):
        branching(
            "c31",
            (du1, m),
            w.omega_at(du1) + w.d_omega(du1) + w.d_psi(m),
            2.0 * w.omega_at(du1) + w.psi_at(m) - w.psi_at(m + du1 - 2),
        )

    for dv, du1, du2, m in product(range(2, 7), repeat=4):
        branching(
            "c32",
            (dv, du1, du2, m),
            w.omega_at(dv) + w.d_omega(du1) + w.d_omega(du2) + w.psi_at(m) - w.psi_at(m - 2),
            w.omega_at(dv) + w.omega_at(du1) + w.omega_at(du2) + w.psi_at(m) - w.psi_at(max(m - 4, 0) + dv - 2),
        )

    for d2v in range(3, 7):
        for m in range(d2v, 7):
            for du1, du2, du3 in product(range(2, 7), repeat=3):
                dsum = du1 + du2 + du3
                branching(
                    "rule3_3",
                    (d2v, m, du1, du2, du3),
                    w.omega_at(d2v)
                    + w.d_omega(du1)
                    + w.d_omega(du2)
                    + w.d_omega(du3)
                    + w.psi_at(m)
                    - w.psi_at(m - d2v),
                    w.omega_at(d2v)
                    + w.omega_at(du1)
                    + w.omega_at(du2)
                    + w.omega_at(du3)
                    + (d2v - 3) * w.omega_at(2)
                    + w.psi_at(m)
                    - w.psi_at(max(m - dsum, 0)),
                )

    for dv in range(3, 7):
        branching("c41", (dv,), w.omega_at(dv) + 2.0 * dv * w.d_omega(dv), w.omega_at(dv) + w.psi_at(0) - w.psi_at(dv))

    branching("rule4_2", (), 2.0 * w.omega_at(2) + 2.0 * w.d_omega(2), w.omega_at(2) + w.psi_at(0) - w.psi_at(2))

    branching(
        "rule4_3",
        (),
        4.0 * w.omega_at(2) + w.d_omega(2) - w.d_psi(1),
        2.0 * w.omega_at(2) + 3.0 * w.d_omega(2) - w.d_psi(1),
        w.omega_at(2) - w.d_psi(2),
    )

    return ConstraintReport(
        tolerance=TOLERANCE,
        growth_base=w.growth_base,
        bound_base=ceil_at(w.growth_base, 4),
        rows=tuple(rows),
    )


def format_report(report: ConstraintReport) -> str:
    """One summary line per family, plus the growth base and the verdict."""
    out = [f"growth_base 2^omega_5 = {report.growth_base:.9f} (bound base {report.bound_base:.4f})"]
    for fam in FAMILIES:
        rows = report.family(fam)
        worst = min(r.slack for r in rows)
        line = f"{fam:<8} rows={len(rows):<5} min_slack={worst:+.3e}"
        if fam in BRANCHING_FAMILIES:
            line += f" max_lhs={max(r.lhs for r in rows):.9f}"
            tight = report.tight(fam)
            if tight:
                tuples = " ".join("(" + ",".join(map(str, r.params)) + ")" for r in tight)
                line += f" tight at {tuples}"
        line += " pass" if all(r.passed(report.tolerance) for r in rows) else " FAIL"
        out.append(line)
    verdict = "PASS" if report.passed else "FAIL"
    out.append(f"overall {verdict} (tolerance={report.tolerance:g}, max_lhs={report.max_lhs:.9f})")
    return "\n".join(out) + "\n"


def load_weights(text: str) -> Weights:
    """Parse a weights file: 14 lines `omega_<i> <decimal>` / `psi_<i> <decimal>`, i = 0..6."""
    omega: dict[int, float] = {}
    psi: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if len(toks) != 2:
            raise ValueError(f"line {lineno}: expected '<label> <decimal>'")
        label, value = toks
        try:
            kind, idx_text = label.split("_", 1)
            idx = int(idx_text)
            x = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse {stripped!r}") from None
        target = {"omega": omega, "psi": psi}.get(kind)
        if target is None or not 0 <= idx <= 6:
            raise ValueError(f"line {lineno}: unknown label {label!r}")
        if idx in target:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        target[idx] = x
    if sorted(omega) != list(range(7)) or sorted(psi) != list(range(7)):
        raise ValueError("need omega_0..omega_6 and psi_0..psi_6, each exactly once")
    return Weights(tuple(omega[i] for i in range(7)), tuple(psi[i] for i in range(7)))


def _branching_poly(k: int, x: float) -> float:
    """-1 + x^-1 + sum_{i=3..k}(i-2)x^-i + sum_{i=k+1..2k-1}(2k-i)x^-i."""
    total = -1.0 + 1.0 / x
    for i in range(3, k + 1):
        total += (i - 2) * x**-i
    for i in range(k + 1, 2 * k):
        total += (2 * k - i) * x**-i
    return total


def branching_factor(k: int) -> float:
    """Positive real root of the rank-k branching recurrence.

    The defining function is strictly decreasing on (0, inf), positive at 1
    and negative at 2 for every k >= 2, so bisection on [1, 2] runs until
    no double lies strictly between its ends. The root's distance to 2
    about halves with each k (1.2e-9 at k = 30), so a fixed tolerance such
    as 1e-10 would exceed it from k = 34 on, and `bounds_table` would ceil
    a value below the root.
    """
    if k < 2:
        raise ValueError("defined for k >= 2")
    lo, hi = 1.0, 2.0
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if _branching_poly(k, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def lower_bound_base(k: int) -> float:
    """C(2k-1, k)^(1/(2k-1)): per-vertex growth of the packed-blocks family."""
    if k < 1:
        raise ValueError("defined for k >= 1")
    return math.comb(2 * k - 1, k) ** (1.0 / (2 * k - 1))


def floor_at(x: float, decimals: int) -> float:
    """Round down to the given number of decimals (safe reporting of lower bounds)."""
    scale = 10**decimals
    return math.floor(x * scale) / scale


def ceil_at(x: float, decimals: int) -> float:
    """Round up to the given number of decimals (safe reporting of upper bounds)."""
    scale = 10**decimals
    return math.ceil(x * scale) / scale


class BoundsRow(NamedTuple):
    k: int
    lower: float
    upper: float


#: Rank-4 upper bound delivered by the iterative-compression engine.
RANK4_UPPER = 1.8863


def bounds_table(k_max: int) -> list[BoundsRow]:
    """Per-rank bound bases on the number of minimal transversals, k = 2..k_max.

    Entries carry publication rounding: lower bases are floored and upper
    bases ceiled to 4 decimals. Once 4 would read 2.0000, an upper base is
    ceiled to the fewest decimals from 7 on at which it stays below 2, and
    is 2 itself when 12 do not suffice (from k = 41, where the base lies
    within 1e-12 of 2; 12 keeps the last printed digit well above the
    error of the double-precision root). Uppers: the
    ceiled rank-2 lower base, the ceiled 2**omega_5 for rank 3, the
    iterative-compression constant for rank 4, the branching factor for
    k >= 5. Raw values come from lower_bound_base and branching_factor.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    rows = []
    for k in range(2, k_max + 1):
        if k == 2:
            # Moon and Moser: no graph has more maximal independent sets than disjoint triangles.
            upper = ceil_at(lower_bound_base(2), 4)
        elif k == 3:
            upper = ceil_at(DEFAULT_WEIGHTS.growth_base, 4)
        elif k == 4:
            upper = RANK4_UPPER
        else:
            raw = branching_factor(k)
            upper = ceil_at(raw, 4)
            if upper >= 2.0:
                upper = next((c for d in range(7, 13) if (c := ceil_at(raw, d)) < 2.0), 2.0)
        rows.append(BoundsRow(k, floor_at(lower_bound_base(k), 4), upper))
    return rows
