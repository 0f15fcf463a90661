"""Unit tests for the exponent, its decomposition, and the rate region."""

import math
import warnings

import numpy as np
import pytest

from wakexp.probkit import (
    AuxJointPmf,
    DimensionError,
    DomainError,
    JointPmf2,
    binary_entropy,
    conditional_entropy,
)
from wakexp.reductions import exponent_ne
from wakexp.simplex_optim import SolverConfig
from wakexp.wak_exponent import (
    RatePair,
    RegionCurve,
    UpperBoundWarning,
    region_contains,
    region_curve,
    region_min_r1,
    soft_markov_decompose,
    wak_divergence_term,
    wak_exponent,
    wak_objective,
)

CFG = SolverConfig(grid_resolution=12, starts=16, seed=7)


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def constant_u_aux(table, nu=2):
    t = np.zeros((nu,) + np.asarray(table).shape)
    t[0] = table
    return AuxJointPmf(t)


def copy_x_aux(table):
    table = np.asarray(table)
    nx, ny = table.shape
    t = np.zeros((nx, nx, ny))
    for x in range(nx):
        t[x, x, :] = table[x, :]
    return AuxJointPmf(t)


def markov_aux(rng, src, nu=3):
    """U - Y - X by construction: a random channel glued onto the source."""
    w = rng.exponential(size=(nu, src.ny))
    w /= w.sum(axis=0, keepdims=True)
    t = src.probs[None, :, :] * w[:, None, :]
    return AuxJointPmf(t)


def random_aux(rng, nu, nx, ny):
    t = rng.exponential(size=(nu, nx, ny))
    return AuxJointPmf(t / t.sum())


class TestDivergenceTerm:
    def test_independent_aux_on_the_source_is_zero(self):
        src = dsbs(0.1)
        t = np.stack([0.5 * src.probs, 0.5 * src.probs])
        assert wak_divergence_term(AuxJointPmf(t), src) == pytest.approx(0.0, abs=1e-12)

    def test_copy_aux_pays_the_conditional_entropy(self):
        src = dsbs(0.1)
        val = wak_divergence_term(copy_x_aux(src.probs), src)
        assert val == pytest.approx(binary_entropy(0.1), abs=1e-12)

    def test_support_violation_is_inf(self):
        src = JointPmf2([[0.5, 0.5], [0.0, 0.0]])
        bad = constant_u_aux([[0.0, 0.0], [0.5, 0.5]])
        assert wak_divergence_term(bad, src) == math.inf

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionError):
            wak_divergence_term(constant_u_aux(np.full((2, 3), 1 / 6)), dsbs(0.1))


class TestSoftMarkovDecomposition:
    def test_markov_aux_has_zero_conditional_mi(self):
        rng = np.random.default_rng(3)
        src = dsbs(0.15)
        for _ in range(20):
            a = markov_aux(rng, src)
            _, cond_mi = soft_markov_decompose(a, src)
            assert abs(cond_mi) <= 1e-10

    def test_diagonal_against_product(self):
        src = JointPmf2(np.full((2, 2), 0.25))
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[1, 1, 1] = 0.5
        kl, cond_mi = soft_markov_decompose(AuxJointPmf(t), src)
        assert kl == pytest.approx(1.0, abs=1e-12)
        assert cond_mi == pytest.approx(0.0, abs=1e-12)

    def test_sum_matches_direct_form(self):
        rng = np.random.default_rng(4)
        src = dsbs(0.1)
        for _ in range(200):
            a = random_aux(rng, 3, 2, 2)
            kl, cond_mi = soft_markov_decompose(a, src)
            assert abs(wak_divergence_term(a, src) - (kl + cond_mi)) <= 1e-10


class TestObjective:
    def test_constant_u_source_is_zero(self):
        src = dsbs(0.1)
        assert wak_objective(constant_u_aux(src.probs), src, 0.5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_copy_y_pays_output_entropy_at_r2_zero(self):
        src = dsbs(0.1)
        t = np.zeros((2, 2, 2))
        for y in range(2):
            t[y, :, y] = src.probs[:, y]
        assert wak_objective(AuxJointPmf(t), src, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_large_r2_drops_the_rate_penalty(self):
        rng = np.random.default_rng(5)
        src = dsbs(0.2)
        for _ in range(25):
            a = random_aux(rng, 3, 2, 2)
            full = wak_objective(a, src, math.log2(src.ny) + 0.5)
            assert full == pytest.approx(wak_divergence_term(a, src), abs=1e-12)

    def test_negative_r2_rejected(self):
        src = dsbs(0.1)
        with pytest.raises(DomainError):
            wak_objective(constant_u_aux(src.probs), src, -0.1)

    def test_nan_r2_rejected(self):
        src = dsbs(0.1)
        with pytest.raises(DomainError):
            wak_objective(constant_u_aux(src.probs), src, math.nan)
        with pytest.raises(DomainError):
            region_min_r1(src, math.nan)


class TestExponent:
    def test_zero_inside_region_top_rate(self):
        src = dsbs(0.1)
        b = wak_exponent(src, RatePair(1.0, 0.0), CFG)
        assert b.value <= 1e-12
        assert b.constraint_slack >= -1e-9

    def test_breakdown_identity_and_nonnegativity(self):
        src = dsbs(0.1)
        b = wak_exponent(src, RatePair(0.3, 0.4), CFG)
        assert b.value == pytest.approx(
            b.kl_term + b.soft_markov_term + b.rate2_term, abs=1e-9
        )
        assert b.value >= -1e-9
        assert min(b.kl_term, b.soft_markov_term, b.rate2_term) >= -1e-9

    def test_matches_non_encoded_form_at_large_r2(self):
        src = dsbs(0.1)
        b = wak_exponent(src, RatePair(0.0, 2.0), CFG)
        assert b.value == pytest.approx(exponent_ne(src, 0.0), abs=2e-2)

    def test_uniform_independent_reduction(self):
        src = JointPmf2(np.full((2, 2), 0.25))
        b = wak_exponent(src, RatePair(0.5, 2.0), CFG)
        assert b.value == pytest.approx(0.5, abs=2e-2)

    def test_warm_candidates_are_validated(self):
        src = dsbs(0.1)
        bad = [
            [[0.45, 0.05], [0.05, 0.45]],                 # 2-d
            [[[0.6, -0.1], [0.3, 0.2]]],                  # a negative entry
            [[[0.45, np.nan], [0.05, 0.45]]],
            [[[0.5, 0.5], [0.5, 0.5]]],                   # sums to 2
        ]
        for w in bad:
            with pytest.raises(ValueError):
                wak_exponent(src, RatePair(0.3, 0.3), CFG, warm_candidates=[w])
        with pytest.raises(DimensionError):
            wak_exponent(src, RatePair(0.3, 0.3), CFG, warm_candidates=[np.full((1, 3, 2), 1 / 6)])
        fast = SolverConfig(grid_resolution=6, starts=2, max_iterations=200, seed=1)
        raw = [[[0.45, 0.05], [0.05, 0.45]]]
        a = wak_exponent(src, RatePair(0.3, 0.3), fast, warm_candidates=[raw])
        b = wak_exponent(src, RatePair(0.3, 0.3), fast, warm_candidates=[AuxJointPmf(raw)])
        assert (a.value, a.evaluations) == (b.value, b.evaluations)

    def test_rate_pair_validation(self):
        with pytest.raises(DomainError):
            RatePair(-0.1, 0.0)
        with pytest.raises(DomainError):
            RatePair(math.inf, 0.0)

    def test_explicit_small_nu_warns(self):
        src = dsbs(0.1)
        with pytest.warns(UpperBoundWarning):
            wak_exponent(src, RatePair(0.9, 0.9), CFG, nu=2)

    def test_nu_above_support_bound_rejected(self):
        src = dsbs(0.1)
        with pytest.raises(DomainError):
            wak_exponent(src, RatePair(0.5, 0.5), CFG, nu=7)

    def test_full_cardinality_flag(self):
        src = dsbs(0.1)
        b = wak_exponent(src, RatePair(0.9, 0.9), CFG, full_cardinality=True)
        assert b.argmin.nu == src.nx * src.ny + 2

    def test_serialization_keys(self):
        src = dsbs(0.1)
        d = wak_exponent(src, RatePair(0.8, 0.8), CFG).to_dict()
        assert set(d) == {
            "value",
            "kl_term",
            "soft_markov_term",
            "rate2_term",
            "constraint_slack",
            "argmin",
            "evaluations",
            "converged",
        }
        assert len(d["argmin"]["probs"]) == d["argmin"]["nu"] * 4

    def test_monotone_in_both_rates(self):
        src = dsbs(0.1)
        warm = []
        vals = []
        for r1 in (0.1, 0.35, 0.6, 0.85):
            b = wak_exponent(src, RatePair(r1, 0.3), CFG, warm_candidates=warm)
            warm = [b.argmin]
            vals.append(b.value)
        assert all(a >= b - 1e-3 for a, b in zip(vals, vals[1:]))
        warm = []
        vals = []
        for r2 in (0.05, 0.35, 0.65, 0.95):
            b = wak_exponent(src, RatePair(0.4, r2), CFG, warm_candidates=warm)
            warm = [b.argmin]
            vals.append(b.value)
        assert all(a >= b - 1e-3 for a, b in zip(vals, vals[1:]))

    def test_midpoint_convexity(self):
        src = dsbs(0.1)
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = RatePair(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            b = RatePair(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            mid = RatePair(0.5 * (a.r1 + b.r1), 0.5 * (a.r2 + b.r2))
            fa = wak_exponent(src, a, CFG)
            fb = wak_exponent(src, b, CFG)
            fm = wak_exponent(src, mid, CFG, warm_candidates=[fa.argmin, fb.argmin])
            assert fm.value <= 0.5 * (fa.value + fb.value) + 2e-3

    def test_cardinality_monotone_with_warm_chain(self):
        src = dsbs(0.1)
        rates = RatePair(0.3, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UpperBoundWarning)
            prev = wak_exponent(src, rates, CFG, nu=2)
            for nu in (3, 4):
                cur = wak_exponent(src, rates, CFG, nu=nu, warm_candidates=[prev.argmin])
                assert cur.value <= prev.value + 1e-9
                prev = cur


class TestRegion:
    def test_no_rate_forces_full_entropy(self):
        src = dsbs(0.1)
        assert region_min_r1(src, 0.0, CFG) == pytest.approx(1.0, abs=1e-9)

    def test_full_rate_gives_conditional_entropy(self):
        src = dsbs(0.1)
        assert region_min_r1(src, 1.0, CFG) == pytest.approx(
            conditional_entropy(src), abs=1e-9
        )

    def test_against_binary_channel_oracle(self):
        # independent lattice over |U| = 2 test channels at denominator 200
        src = dsbs(0.1)
        r2 = 1.0 - binary_entropy(0.2)
        probs = src.probs
        py = probs.sum(axis=0)

        def ent_cols(stacked):
            with np.errstate(divide="ignore", invalid="ignore"):
                t = stacked * np.log2(stacked)
            return -np.nansum(t, axis=0)

        hy = float(ent_cols(py[:, None])[0])
        grid = np.arange(201) / 200
        best = math.inf
        for a in grid:
            b = grid
            puy = np.stack(
                [
                    np.full_like(b, a * py[0]),
                    b * py[1],
                    np.full_like(b, (1 - a) * py[0]),
                    (1 - b) * py[1],
                ]
            )
            pu = np.stack([puy[0] + puy[1], puy[2] + puy[3]])
            pux = np.stack(
                [
                    a * probs[0, 0] + b * probs[0, 1],
                    a * probs[1, 0] + b * probs[1, 1],
                    (1 - a) * probs[0, 0] + (1 - b) * probs[0, 1],
                    (1 - a) * probs[1, 0] + (1 - b) * probs[1, 1],
                ]
            )
            h_u = ent_cols(pu)
            mi = h_u + hy - ent_cols(puy)
            h_x_given_u = ent_cols(pux) - h_u
            cand = np.where(mi <= r2 + 1e-12, h_x_given_u, math.inf)
            best = min(best, float(cand.min()))
        assert region_min_r1(src, r2, CFG) == pytest.approx(best, abs=5e-5)

    def test_region_contains_anchors(self):
        src = dsbs(0.1)
        hx = 1.0
        hxy = conditional_entropy(src)
        hy = 1.0
        assert region_contains(src, RatePair(hx, 0.0), CFG)
        assert region_contains(src, RatePair(hxy, hy), CFG)
        assert not region_contains(src, RatePair(hxy - 0.05, 1.5), CFG)

    def test_curve_monotone_and_bounded(self):
        src = dsbs(0.1)
        curve = region_curve(src, [0.0, 0.25, 0.5, 0.75, 1.0], CFG)
        r1s = [b for _, b in curve.points]
        assert all(a >= b - 1e-9 for a, b in zip(r1s, r1s[1:]))
        hxy = conditional_entropy(src)
        assert all(hxy - 1e-6 <= v <= 1.0 + 1e-9 for v in r1s)

    def test_curve_type_validation(self):
        with pytest.raises(ValueError):
            RegionCurve(((0.5, 0.3), (0.2, 0.4)))
        with pytest.raises(ValueError):
            RegionCurve(((0.1, 0.3), (0.2, 0.4)))
