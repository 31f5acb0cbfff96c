"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time

import pytest

import transversals as tv
from transversals import enumerate_compression, enumerate_rank3, enumerate_rankk
from transversals.analysis import verify_weights

from helpers import canon, oracle, run
from test_cli import run_cli


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    """rank3/rankk/compression each equal brute force on 500 seeded instances."""
    started = time.monotonic()
    counts = {"rankk": 0, "rank3": 0, "compression": 0}
    for seed in range(500):
        k = 2 + seed % 5                      # ranks 2..6
        n = 6 + (seed // 5) % 7               # n 6..12
        available = sum(math.comb(n, s) for s in range(1, k + 1))
        m = min(4 + (seed * 7) % 21, available)  # m 4..24
        h = tv.gen_random(k=k, n=n, m=m, seed=seed)
        want = oracle(h)
        assert run(enumerate_rankk, h) == want, f"rankk mismatch at seed {seed}"
        counts["rankk"] += 1
        if h.rank() <= 3:
            assert run(enumerate_rank3, h) == want, f"rank3 mismatch at seed {seed}"
            counts["rank3"] += 1
        if h.rank() == 4:
            assert run(enumerate_compression, h) == want, f"compression mismatch at seed {seed}"
            counts["compression"] += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 300 and counts["rank3"] >= 100 and counts["compression"] >= 50
    report(
        1,
        ok,
        f"500 instances: rankk x{counts['rankk']}, rank3 x{counts['rank3']}, "
        f"compression x{counts['compression']} all equal brute force ({elapsed:.1f}s)",
    )


def test_criterion_2_lower_bound_counts():
    """CLI count on the packed-block family matches C(2k-1,k)^blocks exactly."""
    want = {(2, 3): 3, (2, 9): 27, (3, 5): 10, (3, 12): 100, (4, 7): 35, (4, 14): 1225}
    got = {}
    for (k, n), expected in want.items():
        text = tv.serialize_hypergraph(tv.gen_lower_bound(k, n))
        code, out, _ = run_cli(["count"], stdin_text=text)
        assert code == 0
        got[(k, n)] = int(out)
        assert got[(k, n)] == expected, f"count mismatch at (k={k}, n={n})"
    report(2, got == want, f"counts {sorted(got.values())} match the closed form")


def test_criterion_3_measure_verification():
    """All 11 families pass at 1e-6; bound base and tight tuples as published."""
    rep = verify_weights(tv.DEFAULT_WEIGHTS, tolerance=1e-6)
    families_pass = rep.passed and len({r.family for r in rep.rows}) == 11

    # raw 2**omega_5 = 1.6754417..; the running-time base carried by the
    # report rounds it up to 4 decimals. Both quantities are pinned.
    raw_ok = abs(rep.growth_base - 1.675441706) < 1e-8
    window_ok = 1.67547 <= rep.bound_base <= 1.67550

    tight_expect = {
        "c21": {(5, 5), (6, 5), (6, 6)},
        "c31": {(2, 1)},
        "c32": {(2, 6, 6, 2), (2, 6, 6, 3), (2, 6, 6, 4)},
        "c41": {(3,), (4,), (5,), (6,)},
    }
    tight_ok = True
    for family, expected in tight_expect.items():
        tight = {r.params for r in rep.tight(family)}
        slacks = [abs(r.slack) for r in rep.family(family) if r.params in expected]
        tight_ok = tight_ok and expected <= tight and all(s <= 1e-6 for s in slacks)

    ok = families_pass and raw_ok and window_ok and tight_ok
    report(
        3,
        ok,
        f"11 families pass, 2^omega_5={rep.growth_base:.9f} (bound base "
        f"{rep.bound_base}), published tight tuples tight at <=1e-6",
    )


def test_criterion_4_bounds_table():
    """bounds_table(20) reproduces both published columns."""
    rows = {r.k: r for r in tv.bounds_table(20)}
    lower = {2: 1.4422, 3: 1.5848, 4: 1.6618, 5: 1.7114, 6: 1.7467,
             7: 1.7734, 8: 1.7943, 9: 1.8112, 10: 1.8253, 20: 1.8962}
    upper = {5: 1.9538, 6: 1.9779, 7: 1.9893, 8: 1.9947, 9: 1.9974, 10: 1.9987}
    for k, value in lower.items():
        assert abs(rows[k].lower - value) <= 5e-5, f"lower bound at k={k}"
    for k, value in upper.items():
        assert abs(rows[k].upper - value) <= 5e-5, f"upper bound at k={k}"
    assert abs(rows[3].upper - 1.6755) <= 5e-5
    assert abs(rows[4].upper - 1.8863) <= 5e-5
    assert abs(rows[20].upper - 1.9999988) <= 5e-8, "k=20 upper at 7 decimals"
    report(4, True, "both columns match for k=2..10 and k=20 (5e-5, k=20 upper 5e-8)")


def test_criterion_5_search_tree_growth():
    """Leaf counts within n^3 * 1.6755^n; measure inequality holds per node."""
    started = time.monotonic()
    leaf_counts = {}
    for n in (5, 10, 15, 20, 25):
        h = tv.gen_lower_bound(3, n)
        # check_measure raises SearchInvariantError on any per-node violation
        stats = enumerate_rank3(h, lambda t: None, check_measure=True)
        bound = n**3 * 1.6755**n
        assert stats.leaves <= bound, f"leaf bound violated at n={n}"
        leaf_counts[n] = stats.leaves
    elapsed = time.monotonic() - started
    ok = elapsed < 120
    report(
        5,
        ok,
        f"leaves {leaf_counts} within n^3*1.6755^n, measure inequality held "
        f"at every node ({elapsed:.1f}s)",
    )


def test_criterion_6_compression_internals():
    """Projection correspondence on every (X, N) of 100 rank-4 runs; alpha-stable."""
    started = time.monotonic()
    alphas = (0.5, 0.66938, 0.8)
    instances = []
    seed = 0
    while len(instances) < 100:
        n = 7 + seed % 4
        m = 6 + (seed * 3) % 11
        h = tv.gen_random(k=4, n=n, m=m, seed=2000 + seed)
        seed += 1
        if h.rank() == 4:
            instances.append(h)
    pairs_checked = 0
    for h in instances:
        want = oracle(h)
        full = [frozenset(t) for t in want]
        outputs = {}
        for alpha in alphas:
            outputs[alpha] = run(enumerate_compression, h, alpha=alpha)
            assert outputs[alpha] == want, "compression output differs from brute force"
            x = tv.find_split(h, alpha)
            if x is None:
                continue
            anchor = sorted(x)
            for counter in range(1 << len(anchor)):
                n_sub = frozenset(anchor[j] for j in range(len(anchor)) if counter >> j & 1)
                projected = {frozenset(t) for t in oracle(tv.project(h, x, n_sub))}
                for t in full:
                    if t & x == n_sub:
                        assert t - n_sub in projected, "projection correspondence broken"
                pairs_checked += 1
        assert outputs[0.5] == outputs[0.66938] == outputs[0.8]
    elapsed = time.monotonic() - started
    ok = elapsed < 300 and pairs_checked > 0
    report(
        6,
        ok,
        f"100 rank-4 instances, {pairs_checked} (X,N) pairs verified, "
        f"alpha-independent outputs ({elapsed:.1f}s)",
    )


def corpus():
    instances = [tv.gen_lower_bound(3, 10), tv.gen_lower_bound(4, 9), tv.gen_lower_bound(2, 9)]
    seed = 0
    while len(instances) < 20:
        k = 2 + seed % 5
        n = max(6 + seed % 6, k)
        available = sum(math.comb(n, s) for s in range(1, k + 1))
        m = min(5 + seed, available)
        instances.append(tv.gen_random(k=k, n=n, m=m, seed=3000 + seed))
        seed += 1
    return instances


def test_criterion_7_determinism():
    """Byte-identical output for every command over a 20-instance corpus, 3 runs."""
    commands_run = 0
    for h in corpus():
        text = tv.serialize_hypergraph(h)
        per_instance = [
            ["enumerate"],
            ["enumerate", "--canonical"],
            ["enumerate", "--stats"],
            ["count"],
            ["minimum"],
            ["count-minimum"],
        ]
        if h.rank() == 4:
            per_instance.append(["enumerate", "--algorithm", "compression"])
        if h.n <= 12:
            per_instance.append(["enumerate", "--algorithm", "oracle"])
        for argv in per_instance:
            runs = [run_cli(argv, stdin_text=text) for _ in range(3)]
            codes = {code for code, _, _ in runs}
            outs = {out for _, out, _ in runs}
            assert codes == {0} and len(outs) == 1, f"nondeterministic {argv}"
            assert len({err for _, _, err in runs}) == 1, f"nondeterministic stderr {argv}"
            commands_run += 1
    for argv in (
        ["verify-measure"],
        ["bounds-table", "--kmax", "20"],
        ["generate", "--kind", "random", "--k", "4", "--n", "10", "--m", "12", "--seed", "9"],
    ):
        runs = [run_cli(argv) for _ in range(3)]
        assert len({(code, out, err) for code, out, err in runs}) == 1
        commands_run += 1
    report(7, True, f"{commands_run} command invocations byte-identical across 3 runs")
