import math

import pytest

import transversals as tv
from transversals.analysis import (
    DEFAULT_WEIGHTS,
    RANK4_UPPER,
    Weights,
    _branching_poly,
    bounds_table,
    branching_factor,
    ceil_at,
    floor_at,
    format_report,
    load_weights,
    lower_bound_base,
    mask_measure,
    measure,
    verify_weights,
)
from transversals.compression import DEFAULT_ALPHA

from helpers import instance_deck


class TestWeights:
    def test_extension_convention_enforced(self):
        good = DEFAULT_WEIGHTS
        with pytest.raises(ValueError):
            Weights(good.omega[:6] + (0.9,), good.psi)
        with pytest.raises(ValueError):
            Weights(good.omega, good.psi[:6] + (0.1,))
        with pytest.raises(ValueError):
            Weights((-0.1,) + good.omega[1:], good.psi)

    def test_lookup_clamps_above_six(self):
        w = DEFAULT_WEIGHTS
        assert w.omega_at(9) == w.omega[5]
        assert w.psi_at(9) == 0.0
        assert w.d_omega(7) == 0.0
        assert w.d_psi(8) == 0.0

    def test_growth_base(self):
        assert DEFAULT_WEIGHTS.growth_base == pytest.approx(1.675441706, abs=1e-9)


class TestMeasure:
    def test_edgeless(self):
        assert measure(tv.Hypergraph(4, [])) == pytest.approx(0.566096928, abs=1e-9)

    def test_block(self):
        assert measure(tv.gen_lower_bound(3, 5)) == pytest.approx(4.288804383, abs=1e-9)

    def test_single_pair(self):
        assert measure(tv.Hypergraph(2, [{1, 2}])) == pytest.approx(1.597098891, abs=1e-9)

    def test_rank4_rejected(self):
        with pytest.raises(tv.UnsupportedInstanceError):
            measure(tv.Hypergraph(4, [{1, 2, 3, 4}]))

    def test_non_negative(self):
        for h in instance_deck(25, kmax=3):
            assert measure(h) >= 0.0

    @pytest.mark.parametrize(
        "w",
        [
            DEFAULT_WEIGHTS,
            # omega_0 > 0, so isolated vertices count too
            Weights((0.1, 0.5, 0.6, 0.7, 0.8, 0.9, 0.9), (0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.0)),
        ],
        ids=["default", "other"],
    )
    def test_equals_the_per_node_measure(self, w):
        # rank3's check_measure evaluates mask_measure on each working state
        deck = instance_deck(120, kmin=1, kmax=3, nmin=4) + [tv.gen_lower_bound(3, 15)]
        for h in deck:
            if h.rank() <= 3:
                inst = tv.Instance(h)
                assert measure(h, w) == mask_measure(inst.vmask, inst.emasks, w)


class TestVerifyWeights:
    def test_default_table_passes(self):
        report = verify_weights(DEFAULT_WEIGHTS, tolerance=1e-6)
        assert report.passed
        assert report.max_lhs <= 1.0 + 1e-6

    def test_family_row_counts(self):
        report = verify_weights(DEFAULT_WEIGHTS)
        assert len(report.family("deltas")) == 20
        assert len(report.family("rule1_2")) == 6
        assert len(report.family("c21")) == 36
        assert len(report.family("rule2_2")) == 1
        assert len(report.family("c31")) == 30
        assert len(report.family("c32")) == 625
        assert len(report.family("rule3_3")) == 1250
        assert len(report.family("c41")) == 4

    def test_tight_tuples(self):
        report = verify_weights(DEFAULT_WEIGHTS, tolerance=1e-6)
        assert {r.params for r in report.tight("c21")} == {(5, 5), (6, 5), (6, 6)}
        assert (2, 1) in {r.params for r in report.tight("c31")}
        assert {r.params for r in report.tight("c32")} == {(2, 6, 6, 2), (2, 6, 6, 3), (2, 6, 6, 4)}
        assert {r.params for r in report.tight("c41")} == {(3,), (4,), (5,), (6,)}

    def test_zero_weights_fail_at_three_way_branch(self):
        report = verify_weights(Weights((0.0,) * 7, (0.0,) * 7))
        assert not report.passed
        (row,) = report.family("rule2_2")
        assert row.lhs == pytest.approx(3.0)
        assert not row.passed(report.tolerance)

    def test_lowered_omega1_fails(self):
        w = DEFAULT_WEIGHTS
        lowered = Weights((w.omega[0], w.omega[1] - 0.3) + w.omega[2:], w.psi)
        report = verify_weights(lowered)
        assert not report.passed
        failing = {r.family for r in report.rows if not r.passed(report.tolerance)}
        assert failing & {"rule2_2", "c21"}

    def test_bound_base_is_published_ceiling(self):
        report = verify_weights(DEFAULT_WEIGHTS)
        assert report.bound_base == pytest.approx(1.6755, abs=1e-12)

    def test_format_report_lines(self):
        report = verify_weights(DEFAULT_WEIGHTS)
        text = format_report(report)
        assert "growth_base 2^omega_5 = 1.675441706" in text
        assert "bound base 1.6755" in text
        assert "overall PASS" in text
        assert "tight at (5,5) (6,5) (6,6)" in text
        for fam in ("deltas", "rule1_2", "c21", "c32", "rule3_3", "c41", "rule4_3"):
            assert f"\n{fam}" in "\n" + text


class TestWeightsFile:
    def test_roundtrip(self):
        lines = []
        for i in range(7):
            lines.append(f"omega_{i} {DEFAULT_WEIGHTS.omega[i]!r}")
            lines.append(f"psi_{i} {DEFAULT_WEIGHTS.psi[i]!r}")
        assert load_weights("\n".join(lines)) == DEFAULT_WEIGHTS

    def test_comments_allowed(self):
        text = "# table\n" + "\n".join(
            [f"omega_{i} 0.0" for i in range(7)] + [f"psi_{i} 0.0" for i in range(7)]
        )
        assert load_weights(text) == Weights((0.0,) * 7, (0.0,) * 7)

    @pytest.mark.parametrize(
        "text",
        [
            "omega_0 0.0",
            "banana_0 0.0",
            "omega_7 0.0",
            "omega_0 zero",
            "omega_0 0.0 0.0",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            load_weights(text)

    def test_rejects_duplicates(self):
        text = "\n".join(
            [f"omega_{i} 0.0" for i in range(7)]
            + [f"psi_{i} 0.0" for i in range(7)]
            + ["omega_0 0.0"]
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_weights(text)


class TestBranchingFactor:
    def test_k2_is_cubic_root(self):
        # positive root of x^3 = x^2 + 1
        root = branching_factor(2)
        assert root == pytest.approx(1.46557, abs=5e-5)
        assert root**3 == pytest.approx(root**2 + 1.0, abs=1e-8)

    @pytest.mark.parametrize("k,value", [(5, 1.9538), (10, 1.9987)])
    def test_published_values(self, k, value):
        # published values are 4-decimal ceilings of the roots
        assert ceil_at(branching_factor(k), 4) == pytest.approx(value, abs=5e-5)

    def test_root_residual_small(self):
        for k in range(2, 31):
            assert abs(_branching_poly(k, branching_factor(k, 1e-10))) <= 1e-9

    def test_monotone_and_below_two(self):
        values = [branching_factor(k) for k in range(2, 31)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            branching_factor(1)


class TestLowerBoundBase:
    def test_values(self):
        assert lower_bound_base(2) == pytest.approx(3 ** (1 / 3), abs=1e-12)
        assert lower_bound_base(2) == pytest.approx(1.44225, abs=5e-5)
        assert lower_bound_base(3) == pytest.approx(10 ** (1 / 5), abs=1e-12)
        assert lower_bound_base(3) == pytest.approx(1.58489, abs=5e-5)
        assert lower_bound_base(20) == pytest.approx(math.comb(39, 20) ** (1 / 39), abs=1e-12)
        assert floor_at(lower_bound_base(20), 4) == pytest.approx(1.8962, abs=1e-12)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            lower_bound_base(0)


class TestBoundsTable:
    def test_rows(self):
        rows = {r.k: r for r in bounds_table(8)}
        assert (rows[3].lower, rows[3].upper) == (1.5848, 1.6755)
        assert (rows[4].lower, rows[4].upper) == (1.6618, 1.8863)
        assert (rows[8].lower, rows[8].upper) == (1.7943, 1.9947)

    def test_lower_below_upper(self):
        for row in bounds_table(30):
            assert row.lower < row.upper
        for k in range(5, 31):
            assert lower_bound_base(k) < branching_factor(k)

    def test_kmax_validated(self):
        with pytest.raises(ValueError):
            bounds_table(1)

    def test_rank4_constants_balance_the_compression_phases(self):
        # Phase 1 scans about C(n, alpha n) ~ (1 / (alpha^alpha (1-alpha)^(1-alpha)))^n
        # subsets; phase 2 runs the rank-3 engine (base b) under each of the
        # 2^(alpha n) subsets of the anchor, on the other (1-alpha) n vertices.
        # alpha equalizes the two bases, and their common value is the rank-4 bound.
        b = 1.6755

        def gap(a):  # log phase-1 base minus log phase-2 base, decreasing on (0.5, 1)
            return -a * math.log(a) - (1 - a) * math.log(1 - a) - a * math.log(2) - (1 - a) * math.log(b)

        lo, hi = 0.5, 1 - 1e-12
        for _ in range(100):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        alpha = (lo + hi) / 2
        base = 2**alpha * b ** (1 - alpha)
        assert alpha == pytest.approx(0.669381, abs=1e-6)
        assert base == pytest.approx(1.886298, abs=1e-6)
        assert round(alpha, 5) == DEFAULT_ALPHA
        assert ceil_at(base, 4) == RANK4_UPPER

    def test_rank2_upper_is_cited_not_recurrence(self):
        # the k=2 branching factor 1.4656 is a different number from the
        # cited 1.4423 bound; the table must not conflate them
        rows = bounds_table(2)
        assert rows[0].upper == 1.4423
        assert abs(branching_factor(2) - rows[0].upper) > 0.02


def test_directional_rounding_helpers():
    assert floor_at(1.58489319, 4) == 1.5848
    assert ceil_at(1.95370089, 4) == 1.9538
    assert ceil_at(1.9999987283, 7) == 1.9999988
