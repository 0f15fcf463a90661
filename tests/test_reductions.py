"""Unit tests for the special-case exponents and the comparison bound."""

import math

import numpy as np
import pytest

from wakexp.probkit import DomainError, JointPmf2, Pmf, conditional_entropy, entropy
from wakexp.reductions import (
    DEFAULT_THETA_GRID,
    GapReport,
    OohamaEvaluator,
    ThetaGrid,
    exponent_ne,
    exponent_single_direct,
    exponent_single_parametric,
    gap_check,
    oohama_single,
    oohama_wak_bound,
    s_theta,
)
from wakexp.simplex_optim import SolverConfig


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def random_pmf(rng, k):
    e = rng.exponential(size=k)
    return Pmf(e / e.sum())


class TestThetaGrid:
    def test_default_grid_shape(self):
        g = DEFAULT_THETA_GRID.abscissae
        assert g[0] == 0.0
        assert -1.0 in g
        assert min(g) == -1e4
        assert all(b < a for a, b in zip(g, g[1:]))

    def test_restriction(self):
        r = DEFAULT_THETA_GRID.restricted_to_unit()
        assert min(r) == -1.0
        assert max(r) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            ThetaGrid((0.5, 0.0, -1.0))
        with pytest.raises(DomainError):
            ThetaGrid((0.0, -0.5))  # no -1


class TestSTheta:
    def test_zero_tilt(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, 5):
            assert s_theta(random_pmf(rng, k), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_binary_is_linear(self):
        p = Pmf([0.5, 0.5])
        for theta in (-0.5, -1.0, -7.0, -1e4):
            assert s_theta(p, theta) == pytest.approx(theta, abs=1e-9)

    def test_skewed_value(self):
        assert s_theta(Pmf([0.9, 0.1]), -1.0) == pytest.approx(
            math.log2(0.81 + 0.01), abs=1e-12
        )

    def test_null_atoms_ignored(self):
        assert s_theta(Pmf([0.9, 0.1, 0.0]), -2.0) == s_theta(Pmf([0.9, 0.1]), -2.0)

    def test_positive_tilt_rejected(self):
        with pytest.raises(DomainError):
            s_theta(Pmf([1.0]), 0.1)

    def test_convex_in_theta(self):
        rng = np.random.default_rng(1)
        thetas = np.linspace(-3.0, 0.0, 61)
        for _ in range(20):
            p = random_pmf(rng, 4)
            vals = np.array([s_theta(p, t) for t in thetas])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert second.min() >= -1e-9


class TestSingleUserForms:
    def test_direct_zero_at_entropy_rate(self):
        rng = np.random.default_rng(2)
        for k in (2, 3):
            p = random_pmf(rng, k)
            assert exponent_single_direct(p, entropy(p) + 0.01) == 0.0

    def test_direct_point_mass_limit(self):
        assert exponent_single_direct(Pmf([0.9, 0.1]), 0.0) == pytest.approx(
            -math.log2(0.9), abs=1e-9
        )

    def test_direct_uniform_line(self):
        assert exponent_single_direct(Pmf([0.5, 0.5]), 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_parametric_zero_at_entropy_rate(self):
        p = Pmf([0.6, 0.4])
        assert exponent_single_parametric(p, entropy(p)) == pytest.approx(0.0, abs=1e-12)

    def test_parametric_uniform_truncation(self):
        v = exponent_single_parametric(Pmf([0.5, 0.5]), 0.5)
        assert 0.49995 <= v <= 0.5 + 1e-12

    def test_forms_agree(self):
        p = Pmf([0.9, 0.1])
        assert exponent_single_parametric(p, 0.0) == pytest.approx(
            exponent_single_direct(p, 0.0), abs=1e-3
        )

    def test_both_non_increasing_and_convex_in_rate(self):
        rng = np.random.default_rng(3)
        p = random_pmf(rng, 3)
        grid = np.linspace(0.0, entropy(p), 7)
        for fn in (exponent_single_direct, exponent_single_parametric):
            vals = [fn(p, float(r)) for r in grid]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
            mids = [
                vals[i + 1] - 0.5 * (vals[i] + vals[i + 2]) for i in range(len(vals) - 2)
            ]
            assert max(mids) <= 1e-3

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            exponent_single_direct(Pmf([0.5, 0.5]), -0.1)

    def test_nan_rate_rejected_by_every_entry_point(self):
        p = Pmf([0.9, 0.1])
        src = JointPmf2([[0.45, 0.05], [0.05, 0.45]])
        calls = [
            lambda: exponent_ne(src, math.nan),
            lambda: exponent_single_direct(p, math.nan),
            lambda: exponent_single_parametric(p, math.nan),
            lambda: oohama_single(p, math.nan),
            lambda: gap_check(p, math.nan),
            lambda: OohamaEvaluator(src).bound(math.nan, 0.1),
            lambda: OohamaEvaluator(src).bound(0.1, math.nan),
        ]
        for call in calls:
            with pytest.raises(DomainError):
                call()


class TestOohamaSingle:
    def test_zero_at_entropy_rate(self):
        p = Pmf([0.7, 0.3])
        assert oohama_single(p, entropy(p)) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_boundary_tilt(self):
        assert oohama_single(Pmf([0.5, 0.5]), 0.5) == pytest.approx(1 / 6, abs=1e-9)

    def test_skewed_anchor(self):
        assert oohama_single(Pmf([0.9, 0.1]), 0.0) == pytest.approx(
            0.09543472838554697, abs=1e-6
        )

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            oohama_single(Pmf([0.5, 0.5]), 0.1, grid=[-2.0, -1.0, 0.0])


class TestGapCheck:
    def test_uniform_anchor(self):
        rep = gap_check(Pmf([0.5, 0.5]), 0.5)
        assert rep.f_oohama == pytest.approx(1 / 6, abs=1e-4)
        assert rep.f_tight == pytest.approx(0.5, abs=1e-3)
        assert rep.gap == pytest.approx(rep.f_tight - rep.f_oohama, abs=1e-12)

    def test_skewed_anchor(self):
        rep = gap_check(Pmf([0.9, 0.1]), 0.0)
        assert rep.gap == pytest.approx(0.0565684, abs=1e-3)
        assert rep.argmax_theta_oohama == pytest.approx(-1.0, abs=1e-6)

    def test_hypothesis_violation(self):
        p = Pmf([0.9, 0.1])
        with pytest.raises(DomainError):
            gap_check(p, entropy(p) + 0.1)

    def test_strictly_positive_below_entropy(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            p = random_pmf(rng, 3)
            r1 = max(0.0, entropy(p) - 0.3)
            assert gap_check(p, r1).gap > 1e-3

    def test_report_consistency_guard(self):
        with pytest.raises(ValueError):
            GapReport(0.1, 0.5, 0.3, -1.0, -2.0)


class TestExponentNe:
    def test_zero_at_conditional_entropy(self):
        src = dsbs(0.1)
        assert exponent_ne(src, conditional_entropy(src) + 0.01) == 0.0

    def test_uniform_independent_line(self):
        src = JointPmf2(np.full((2, 2), 0.25))
        assert exponent_ne(src, 0.5) == pytest.approx(0.5, abs=1e-6)

    def test_dsbs_regression_against_fine_oracle(self):
        src = dsbs(0.1)
        fine = exponent_ne(src, 0.2, SolverConfig(grid_resolution=200, starts=8, seed=0))
        assert fine == pytest.approx(0.05066591652923008, abs=1e-9)
        assert exponent_ne(src, 0.2) == pytest.approx(fine, abs=1e-4)


class TestOohamaWakBound:
    def test_single_letter_reduction(self):
        rng = np.random.default_rng(5)
        for k in (2, 3):
            p = random_pmf(rng, k)
            src = JointPmf2(p.probs[:, None])
            ev = OohamaEvaluator(src)
            for r1 in (0.0, 0.3):
                assert ev.bound(r1, 0.7) == pytest.approx(
                    oohama_single(p, r1), abs=1e-3
                )

    def test_inside_region_is_zero(self):
        src = dsbs(0.1)
        assert oohama_wak_bound(src, (1.0, 1.0)) <= 2e-3

    def test_nu_above_output_alphabet_rejected(self):
        with pytest.raises(DomainError):
            OohamaEvaluator(dsbs(0.1), nu=3)

    def test_nonnegative(self):
        src = dsbs(0.3)
        assert oohama_wak_bound(src, (0.0, 0.0)) >= 0.0
