"""Unit tests for the exponent, its decomposition, and the rate region."""

import hashlib
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from wakexp import simplex_optim
from wakexp.probkit import (
    AuxJointPmf,
    DimensionError,
    DomainError,
    JointPmf2,
    Pmf,
    arimoto_dual,
    arimoto_floor,
    aux_measures,
    binary_entropy,
    conditional_entropy,
    entropy_bits,
    entropy_rows,
    kl_rows,
)
from wakexp.reductions import exponent_ne, exponent_single_direct
from wakexp.simplex_optim import _CALL_ROWS, SolverConfig
from wakexp.wak_exponent import (
    REGION_TOL,
    STOP_RTOL,
    RatePair,
    _ExponentSearch,
    _region_argmin,
    _RegionSearch,
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
# the module, which the package's wak_exponent function shadows
_exponent = importlib.import_module("wakexp.wak_exponent")


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def _random_cases():
    """(name, table, r1, r2) of the 16 random cases: shapes 2x2, 2x3, 3x2, 1x3 in turn."""
    rng = np.random.default_rng(1)
    out = []
    for i in range(16):
        e = rng.exponential(size=((2, 2), (2, 3), (3, 2), (1, 3))[i % 4])
        r1, r2 = rng.uniform(0.0, 1.2, size=2)
        out.append((f"random{i}", e / e.sum(), float(r1), float(r2)))
    return out


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
        assert b.value == pytest.approx(exponent_ne(src, 0.0), abs=1e-12)

    def test_uniform_independent_reduction(self):
        src = JointPmf2(np.full((2, 2), 0.25))
        b = wak_exponent(src, RatePair(0.5, 2.0), CFG)
        # 1.0e-12 below 0.5: a start counts as feasible up to 1e-12 above r1
        assert b.value == pytest.approx(0.5, abs=1e-11)

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

    @pytest.mark.parametrize(
        "table, r2",
        [
            # H(X|Y) = 0: the search ends at -4.44e-16
            ([[0.3, 0.0, 0.2], [0.0, 0.5, 0.0]], 1.2),
            # H(X) = 0: the entropy of the point mass is -0.0
            ([[0.5, 0.5], [0.0, 0.0]], 0.0),
        ],
    )
    def test_rounding_at_zero_reports_plus_zero(self, table, r2):
        value = region_min_r1(JointPmf2(table), r2)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

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

    def test_region_contains_certified_pairs_run_no_search(self, monkeypatch):
        # the constant channel, U = Y and the cut-set bound answer alone
        def no_search(*args, **kwargs):
            raise AssertionError("a certified pair ran the region search")

        monkeypatch.setattr(_exponent, "region_min_r1", no_search)
        src = dsbs(0.1)
        hxy = conditional_entropy(src)
        assert region_contains(src, RatePair(1.0, 0.0), CFG)
        assert region_contains(src, RatePair(hxy + 1e-9, 1.0), CFG)
        assert not region_contains(src, RatePair(hxy - 0.05, 1.5), CFG)
        assert not region_contains(src, RatePair(0.6, 0.2), CFG)   # below H(X) - r2

    def test_region_contains_answers_as_the_search_does(self, monkeypatch):
        # every answer, certified or searched, is the bisection's; pairs
        # within 1e-9 of its threshold could go either way by rounding.  The
        # search is deterministic, so a searched pair reuses its value
        module = importlib.import_module("wakexp.wak_exponent")
        memo = {}

        def remembered(src, r2, config):
            key = (src.probs.tobytes(), r2)
            if key not in memo:
                memo[key] = region_min_r1(src, r2, config)
            return memo[key]

        monkeypatch.setattr(module, "region_min_r1", remembered)
        cfg = SolverConfig(grid_resolution=8, starts=4, seed=7)
        sources = [dsbs(0.1)] + [JointPmf2(t) for _, t, _, _ in _random_cases()]
        for src in sources:
            h_x = entropy_bits(src.probs.sum(axis=1))
            h_x_given_y = entropy_bits(src.probs) - entropy_bits(src.probs.sum(axis=0))
            for r2 in (0.0, 0.3, 0.8, 1.6):
                threshold = remembered(src, r2, cfg) - REGION_TOL
                edges = [h_x, h_x_given_y, h_x - r2, threshold + REGION_TOL]
                r1s = list(np.linspace(0.0, 1.6, 9)) + [e + d for e in edges for d in (-2e-6, -5e-7, 0.0, 5e-7)]
                for r1 in r1s:
                    if r1 >= 0.0 and abs(r1 - threshold) > 1e-9:
                        assert region_contains(src, RatePair(r1, r2), cfg) == (r1 >= threshold), (src, r1, r2)

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


# ---------------------------------------------------------------------------
# structured starts: one embedding against the separate builders it replaced
# ---------------------------------------------------------------------------

def _reference_pad_blocks(prob, weights, blocks):
    tensor = np.zeros((prob.nu, prob.k))
    for u, (w, b) in enumerate(zip(weights, blocks)):
        tensor[u] = w * b
    return prob.encode(tensor)


def _reference_constant_u(prob, table=None):
    table = prob.src_flat if table is None else np.asarray(table).ravel()
    return _reference_pad_blocks(prob, [1.0], [table])


def _reference_point_masses(prob):
    px = prob.src.probs.sum(axis=1)
    out = []
    for x in range(prob.nx):
        if px[x] <= 0.0:
            continue
        block = np.zeros((prob.nx, prob.ny))
        block[x] = prob.src.probs[x] / px[x]
        out.append(_reference_constant_u(prob, block))
    return out


def _reference_copy_y(prob, table=None):
    if prob.nu < prob.ny:
        return None
    tab = prob.src.probs if table is None else np.asarray(table).reshape(prob.nx, prob.ny)
    tensor = np.zeros((prob.nu, prob.nx, prob.ny))
    for y in range(prob.ny):
        tensor[y, :, y] = tab[:, y]
    return prob.encode(tensor.reshape(prob.nu, prob.k))


def _reference_copy_x(prob, table=None):
    if prob.nu < prob.nx:
        return None
    tab = prob.src.probs if table is None else np.asarray(table).reshape(prob.nx, prob.ny)
    tensor = np.zeros((prob.nu, prob.nx, prob.ny))
    for x in range(prob.nx):
        tensor[x, x, :] = tab[x, :]
    return prob.encode(tensor.reshape(prob.nu, prob.k))


def _reference_split(prob, kind, table=None):
    tab = prob.src.probs if table is None else np.asarray(table).reshape(prob.nx, prob.ny)
    if kind == "x":
        if prob.nu < prob.nx + 1:
            return None
        h_full = entropy_bits(tab.sum(axis=1))
        gamma = 1.0 if h_full <= 0.0 else min(1.0, prob.r1 / h_full)
        gamma *= 1.0 - 1e-12
        tensor = np.zeros((prob.nu, prob.nx, prob.ny))
        for x in range(prob.nx):
            tensor[x, x, :] = (1.0 - gamma) * tab[x, :]
        tensor[prob.nu - 1] = gamma * tab
    else:
        if prob.nu < prob.ny + 1:
            return None
        h_cond = entropy_bits(tab) - entropy_bits(tab.sum(axis=0))
        h_full = entropy_bits(tab.sum(axis=1))
        if h_full - h_cond <= 1e-15:
            gamma = 1.0
        else:
            gamma = (prob.r1 - h_cond) / (h_full - h_cond)
        gamma = min(1.0, max(0.0, gamma)) * (1.0 - 1e-12)
        tensor = np.zeros((prob.nu, prob.nx, prob.ny))
        for y in range(prob.ny):
            tensor[y, :, y] = (1.0 - gamma) * tab[:, y]
        tensor[prob.nu - 1] = gamma * tab
    return prob.encode(tensor.reshape(prob.nu, prob.k))


def _reference_channel_embed(prob, channel):
    w = np.asarray(channel, dtype=np.float64)
    if w.shape[0] > prob.nu or w.shape[1] != prob.ny:
        return None
    tensor = np.zeros((prob.nu, prob.nx, prob.ny))
    tensor[: w.shape[0]] = prob.src.probs[None, :, :] * w[:, None, :]
    return prob.encode(tensor.reshape(prob.nu, prob.k))


def _reference_region_candidates(prob):
    out = []
    rows = np.zeros((prob.ny, prob.nu))
    rows[:, 0] = 1.0
    out.append(rows.reshape(-1))
    if prob.nu >= prob.ny:
        rows = np.zeros((prob.ny, prob.nu))
        for y in range(prob.ny):
            rows[y, y] = 1.0
        out.append(rows.reshape(-1))
    return out


def _same_bytes(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got.tobytes() == want.tobytes()


START_SOURCES = {
    "2x2": [[0.4, 0.1], [0.15, 0.35]],
    "3x2": [[0.13, 0.14], [0.28, 0.13], [0.07, 0.25]],
    "2x3": [[0.15, 0.06, 0.29], [0.36, 0.05, 0.09]],
    "1x3": [[0.47, 0.34, 0.19]],
    "3x1": [[0.6], [0.25], [0.15]],
    "zero-entry": [[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]],
    "zero-row": [[0.3, 0.2], [0.0, 0.0], [0.1, 0.4]],
}
START_NUS = (1, 2, 3, 4, 5)


def _random_table(rng, nx, ny):
    t = rng.exponential(size=(nx, ny))
    t[rng.random(size=(nx, ny)) < 0.25] = 0.0
    t.flat[rng.integers(nx * ny)] += 0.1
    return t / t.sum()


class TestStructuredStarts:
    @pytest.mark.parametrize("name", sorted(START_SOURCES))
    def test_fixed_starts_match_the_reference_builders(self, name):
        # U = Y on the non-encoded minimizer q comes last, and only when
        # H_q(Y) <= r2 and U = Y fits (nu >= |Y|)
        src = JointPmf2(START_SOURCES[name])
        with_tilt = set()
        for nu in START_NUS:
            for r1 in (0.0, 0.4, 5.0):
                q = arimoto_dual(src.probs, r1)[2]
                for r2 in (0.0, 0.3, 5.0):
                    prob = _ExponentSearch(src, r1, r2, nu)
                    # the point masses only where U = X does not fit
                    masses = _reference_point_masses(prob) if nu < src.nx else []
                    want = [_reference_constant_u(prob)] + masses
                    want += [
                        _reference_copy_y(prob),
                        _reference_copy_x(prob),
                        _reference_split(prob, "x"),
                        _reference_split(prob, "y"),
                    ]
                    if entropy_bits(q.sum(axis=0)) <= r2:
                        want.append(_reference_copy_y(prob, q))
                    want = [w for w in want if w is not None]
                    with_tilt.add(nu >= src.ny and entropy_bits(q.sum(axis=0)) <= r2)
                    got = prob.fixed_starts()
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (nu, r1, r2)
        # without side information H_q(Y) = 0, so the start is always there
        assert with_tilt == ({True, False} if src.ny > 1 else {True})

    @pytest.mark.parametrize("name", sorted(START_SOURCES))
    def test_table_and_channel_embeds_match_the_reference_builders(self, name):
        src = JointPmf2(START_SOURCES[name])
        rng = np.random.default_rng(11)
        for nu in START_NUS:
            prob = _ExponentSearch(src, 0.4, 0.3, nu)
            for _ in range(4):
                table = _random_table(rng, src.nx, src.ny)
                assert _same_bytes(prob.embed(np.eye(src.nx), "x", table), _reference_copy_x(prob, table))
                assert _same_bytes(prob.embed(np.eye(src.ny), "y", table), _reference_copy_y(prob, table))
                assert _same_bytes(prob.embed(np.ones((1, src.ny)), "y", table), _reference_constant_u(prob, table))
                w = rng.exponential(size=(int(rng.integers(1, nu + 2)), src.ny))
                w /= w.sum(axis=0)
                assert _same_bytes(prob.embed(w, "y"), _reference_channel_embed(prob, w))
            region = _RegionSearch(src, 0.3, nu)
            want = _reference_region_candidates(region)
            assert [c.tobytes() for c in region.candidates()] == [c.tobytes() for c in want]
        _, channel, _ = _region_argmin(src, 0.0, CFG, nu_cap=3)
        rows = np.zeros((src.ny, channel.shape[0]))
        rows[:, 0] = 1.0
        assert channel.tobytes() == rows.T.tobytes()

    def test_a_channel_longer_than_nu_gives_none(self):
        # nu = 2 on a 3x2 source: U = Y and its split fit, U = X and its split do not
        prob = _ExponentSearch(JointPmf2(START_SOURCES["3x2"]), 0.4, 0.3, 2)
        assert prob.embed(np.eye(3), "x") is None and _reference_copy_x(prob) is None
        assert prob.embed(np.eye(2), "y") is not None
        assert prob.embed(prob.split_channel("x", prob.src.probs), "x") is None
        assert prob.embed(prob.split_channel("y", prob.src.probs), "y") is None
        assert _reference_split(prob, "y") is None

    @pytest.mark.parametrize("name", sorted(START_SOURCES))
    def test_channel_shapes_fix_the_markov_term_or_the_equivocation(self, name):
        # m(x, y) W(u|y) makes U - Y - X Markov under m; U = X leaves no
        # equivocation H(X|U), and its timeshare stays within r1
        src = JointPmf2(START_SOURCES[name])
        rng = np.random.default_rng(12)
        nu = max(src.nx, src.ny) + 1
        for r1 in (0.0, 0.4, 5.0):
            prob = _ExponentSearch(src, r1, 0.3, nu)

            def aux(pt):
                return AuxJointPmf(prob.tensors(pt)[0].reshape(nu, src.nx, src.ny))

            for table in (src.probs, _random_table(rng, src.nx, src.ny)):
                w = rng.exponential(size=(nu, src.ny))
                w /= w.sum(axis=0)
                for channel in (np.ones((1, src.ny)), np.eye(src.ny), prob.split_channel("y", table), w):
                    a = aux(prob.embed(channel, "y", table))
                    assert abs(soft_markov_decompose(a, src)[1]) <= 1e-12
                    assert abs(aux_measures(a).i_u_x_given_y) <= 1e-12
                assert abs(aux_measures(aux(prob.embed(np.eye(src.nx), "x", table))).h_x_given_u) <= 1e-12
                split = aux_measures(aux(prob.embed(prob.split_channel("x", table), "x", table)))
                assert split.h_x_given_u <= r1 + 1e-12


# ---------------------------------------------------------------------------
# fused kernels against the one-measure-at-a-time forms they replaced
# ---------------------------------------------------------------------------

def _reference_evaluate(prob, pts):
    """The exponent objective from six entropy_rows calls and kl_rows."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    pu = pts[:, : prob.nu]
    t = pu[:, :, None] * pts[:, prob.nu :].reshape(-1, prob.nu, prob.k)
    txy = t.sum(axis=1)
    t4 = t.reshape(-1, prob.nu, prob.nx, prob.ny)
    ty = txy.reshape(-1, prob.nx, prob.ny).sum(axis=1)
    h_u = entropy_rows(pu)
    h_uxy = entropy_rows(t)
    h_xy = entropy_rows(txy)
    h_y = entropy_rows(ty)
    h_uy = entropy_rows(t4.sum(axis=2))
    h_ux = entropy_rows(t4.sum(axis=3))
    kl = kl_rows(txy, prob.log_src)
    cond_mi = (h_xy - h_y) - (h_uxy - h_uy)
    rate2 = np.maximum((h_u + h_y - h_uy) - prob.r2, 0.0)
    with np.errstate(invalid="ignore"):
        obj = kl + cond_mi + rate2
    obj = np.where(np.isnan(obj), math.inf, obj)
    violation = np.maximum((h_ux - h_u) - prob.r1, 0.0)
    return obj, violation


def _reference_table_stats(prob, pts):
    m = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    kl = kl_rows(m, prob.log_src)
    h_xy = entropy_rows(m)
    h_y = entropy_rows(m.reshape(-1, prob.nx, prob.ny).sum(axis=1))
    h_x = entropy_rows(m.reshape(-1, prob.nx, prob.ny).sum(axis=2))
    return kl, h_xy, h_y, h_x


def _reference_region_stats(prob, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    w = pts.reshape(-1, prob.ny, prob.nu)
    puy = w.transpose(0, 2, 1) * prob.py[None, None, :]
    pu = puy.sum(axis=2)
    pux = np.einsum("byu,xy->bux", w, prob.src.probs)
    h_u = entropy_rows(pu)
    return entropy_rows(pux) - h_u, h_u + prob.hy - entropy_rows(puy)


def _kernel_rows(domain, rng, n):
    """``n`` domain points, a fifth of their coordinates zeroed (unnormalized,
    so every marginal meets 0 * log2 0), and a NaN row."""
    pts = np.array([domain.sample(rng) for _ in range(n)])
    pts[rng.random(pts.shape) < 0.2] = 0.0
    pts[n // 2] = np.nan
    return pts


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


# |X| or |Y| of 8 and more and nu of 8 and more take numpy's pairwise sums
KERNEL_SHAPES = [(2, 2), (3, 2), (2, 3), (1, 3), (3, 1), (1, 1), (9, 2), (2, 9), (8, 1), (1, 8)]
KERNEL_ROWS = (1, 7, 193, _CALL_ROWS + 1)


class TestFusedKernels:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_exponent_and_table_match_the_reference(self, shape):
        rng = np.random.default_rng(sum(shape))
        table = _random_table(rng, *shape)
        src = JointPmf2(table)
        for nu in (1, 2, 4, 9):
            prob = _ExponentSearch(src, 0.4, 0.3, nu)
            for n in KERNEL_ROWS:
                with np.errstate(invalid="ignore"):
                    pts = _kernel_rows(prob.domain, rng, n)
                    _assert_same(prob.evaluate(pts), _reference_evaluate(prob, pts))
                    tables = pts[:, nu : nu + prob.k]
                    _assert_same(prob.table_stats(tables), _reference_table_stats(prob, tables))

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_region_matches_the_reference(self, shape):
        rng = np.random.default_rng(7 + sum(shape))
        src = JointPmf2(_random_table(rng, *shape))
        for nu in (1, 2, 4, 9):
            prob = _RegionSearch(src, 0.3, nu)
            for n in KERNEL_ROWS:
                pts = _kernel_rows(prob.domain, rng, n)
                with np.errstate(invalid="ignore"):
                    _assert_same(prob.stats(pts), _reference_region_stats(prob, pts))


# ---------------------------------------------------------------------------
# sources without side information
# ---------------------------------------------------------------------------

def test_single_user_value_at_nu_equal_to_the_alphabet():
    # a timeshare of U = X needs nu >= |X| + 1; constant U on the tilt that
    # meets r1 gives the single-user exponent at every nu
    rng = np.random.default_rng(9)
    cfg = SolverConfig(starts=16, seed=2718)
    worst = 0.0
    for i in range(8):
        nx = (2, 3, 4)[i % 3]
        p = rng.exponential(size=nx)
        p /= p.sum()
        r1 = float(rng.uniform(0.0, math.log2(nx)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UpperBoundWarning)
            b = wak_exponent(JointPmf2(p[:, None]), RatePair(r1, 0.3), cfg, nu=nx)
        worst = max(worst, abs(b.value - exponent_single_direct(Pmf(p), r1)))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# pinned benchmark cases
# ---------------------------------------------------------------------------

PINNED = {
    # name: (source, r1, r2, value hex, evaluations), at the benchmark's config;
    # the positive values are those of perfbench/reference.json.  A fixed
    # start certifies the zeros and case0-2x2, so their count is the number
    # of fixed starts, and the seeded batch certifies dsbs0.1
    "case0-2x2": (
        [[0.15063553039154987, 0.043301720479387865], [0.754622442161684, 0.05144030696737834]],
        0.5079917387670908, 0.99324311258453, "0x1.ab17804f38443p-6", 6,
    ),
    "case3-1x3": (
        [[0.4704535532506672, 0.33642007514760724, 0.19312637160172555]],
        0.6494722266569211, 0.332269444854445, "0x0.0p+0", 5,
    ),
    "case4-2x2": (
        [[0.013967104012289433, 0.7457383183907793], [0.02088948508151678, 0.2194050925154144]],
        0.9320197372107575, 0.7356039612636486, "0x0.0p+0", 6,
    ),
    "case6-3x2": (
        [
            [0.13587766017292377, 0.14564772852756022],
            [0.2802418813809834, 0.12708263504457637],
            [0.06447814616711398, 0.24667194870684236],
        ],
        0.9835520629431324, 0.8199442872039086, "0x1.a6c270cd92a73p-3", 545_671,
    ),
    "case7-1x3": (
        [[0.8195177007032262, 0.05445439773665263, 0.1260279015601211]],
        0.22958871126864033, 0.09786314083621525, "0x0.0p+0", 5,
    ),
    "case11-1x3": (
        [[0.3942462415254647, 0.3359858551643965, 0.2697679033101387]],
        0.2946627206918131, 0.9222203986755052, "0x0.0p+0", 5,
    ),
    "case13-2x3": (
        [
            [0.15468281556880634, 0.05616382104346113, 0.2915906716633682],
            [0.3637804108774483, 0.015253752212244545, 0.11852852863467146],
        ],
        0.5054265770747463, 0.12710548404878932, "0x1.80a87f2ff2c8cp-2", 669_908,
    ),
    "dsbs0.1": ([[0.45, 0.05], [0.05, 0.45]], 0.5, 0.278, "0x1.c6a7ef9dd6f01p-3", 64_007),
}
PINNED_CONFIG = SolverConfig(grid_resolution=12, starts=16, seed=2718)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_benchmark_cases(name):
    table, r1, r2, value, evaluations = PINNED[name]
    b = wak_exponent(JointPmf2(table), RatePair(r1, r2), PINNED_CONFIG)
    assert (b.value.hex(), b.evaluations) == (value, evaluations)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_values_lie_above_the_non_encoded_exponent(name):
    # F(r1, r2) >= NE(r1): encoding the side information never helps
    table, r1, _, value, _ = PINNED[name]
    assert exponent_ne(JointPmf2(table), r1) <= float.fromhex(value) + 1e-12


@pytest.mark.parametrize("name", sorted(PINNED))
def test_point_masses_win_nowhere_u_equals_x_fits(name):
    # fixed_starts leaves the point masses out at nu >= |X|; handed back as
    # warm candidates they must leave the pinned value as it is
    table, r1, r2, value, _ = PINNED[name]
    src = JointPmf2(table)
    nu = 4
    assert nu >= src.nx
    prob = _ExponentSearch(src, r1, r2, nu)
    masses = [AuxJointPmf(prob.tensors(pt)[0].reshape(nu, src.nx, src.ny)) for pt in _reference_point_masses(prob)]
    assert len(masses) == src.nx
    b = wak_exponent(src, RatePair(r1, r2), PINNED_CONFIG, warm_candidates=masses)
    assert b.value.hex() == value


def _patch_compass(monkeypatch, wrap):
    """Replace compass_batch, in simplex_optim (every ``minimize``) and in
    wak_exponent (the main batch), by ``wrap`` of the original."""
    fn = wrap(simplex_optim.compass_batch)
    monkeypatch.setattr(simplex_optim, "compass_batch", fn)
    monkeypatch.setattr(_exponent, "compass_batch", fn)


def _record_batches(monkeypatch) -> list:
    """The start bytes of every later compass_batch call, one list per call."""
    batches = []

    def recording(compass):
        def run(domain, starts, config, **kwargs):
            batches.append([s.tobytes() for s in starts])
            return compass(domain, starts, config, **kwargs)

        return run

    _patch_compass(monkeypatch, recording)
    return batches


def _no_search(*args, **kwargs):
    raise AssertionError("a certified solve ran a search")


# neither the fixed starts nor the seeded batch reach their floor here
SEARCHED_ARGMINS = {
    # name: sha256 of the argmin's bytes, the same as with one main batch
    "case6-3x2": "e4de80b65a381384",
    "case13-2x3": "fda05da6c4e5ed08",
}


@pytest.mark.parametrize("name", sorted(SEARCHED_ARGMINS))
def test_main_batch_descends_each_distinct_start_once(monkeypatch, name):
    # a warm candidate byte-equal to a fixed start joins the seeded batch
    # once, so it adds no evaluation to the pinned count, and the searched
    # starts' batch leaves out every start the seeded batch descended
    batches = _record_batches(monkeypatch)
    table, r1, r2, value, evaluations = PINNED[name]
    src = JointPmf2(table)
    prob = _ExponentSearch(src, r1, r2, 4)
    fixed = prob.fixed_starts()
    twin = AuxJointPmf(prob.tensors(fixed[-1])[0].reshape(4, src.nx, src.ny))
    assert prob.encode(twin.probs).tobytes() == fixed[-1].tobytes()
    b = wak_exponent(src, RatePair(r1, r2), PINNED_CONFIG, warm_candidates=[twin])
    seeded, late = batches[0], batches[-1]
    assert len(set(seeded)) == len(seeded) and len(set(late)) == len(late)
    distinct = list(dict.fromkeys(s.tobytes() for s in fixed))
    assert seeded == distinct + seeded[len(distinct) :]
    assert len(seeded) == len(distinct) + PINNED_CONFIG.starts
    assert late and not set(late) & set(seeded)
    assert (b.value.hex(), b.evaluations) == (value, evaluations)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_evaluations_count_every_lattice_and_descent(monkeypatch, name):
    # every grid_search and compass_batch call of the solve adds to
    # b.evaluations, and so does every row a kernel evaluates outside them:
    # the batch of fixed starts and the argmin check of each multiplier solve
    tally, inside = [], []

    def tallied(fn, count):
        def wrapper(*args, **kwargs):
            inside.append(True)
            try:
                out = fn(*args, **kwargs)
            finally:
                inside.pop()
            tally.append(count(out))
            return out

        return wrapper

    def outside_rows(kernel):
        def rows(self, pts):
            if not inside:
                tally.append(len(pts))
            return kernel(self, pts)

        return rows

    monkeypatch.setattr(simplex_optim, "grid_search", tallied(simplex_optim.grid_search, lambda r: r.evaluations))
    _patch_compass(monkeypatch, lambda compass: tallied(compass, lambda rs: sum(r.evaluations for r in rs)))
    for owner, kernel in ((_ExponentSearch, "evaluate"), (_ExponentSearch, "table_stats"), (_RegionSearch, "stats")):
        monkeypatch.setattr(owner, kernel, outside_rows(getattr(owner, kernel)))
    table, r1, r2, _, evaluations = PINNED[name]
    b = wak_exponent(JointPmf2(table), RatePair(r1, r2), PINNED_CONFIG)
    assert sum(tally) == b.evaluations == evaluations


def _certified_at_a_fixed_start(monkeypatch, table, r1, r2):
    """The solve, run with every search patched to raise, and its problem;
    checks that it returns the first fixed start at or below the stop."""
    monkeypatch.setattr(simplex_optim, "grid_search", _no_search)
    _patch_compass(monkeypatch, lambda compass: _no_search)
    src = JointPmf2(table)
    b = wak_exponent(src, RatePair(r1, r2), PINNED_CONFIG)
    prob = _ExponentSearch(src, r1, r2, 4)
    stop = prob.floor() * (1.0 + STOP_RTOL)
    fixed = prob.fixed_starts()
    assert b.evaluations == len(fixed)
    assert b.value <= stop and b.constraint_slack >= -1e-12 and b.converged
    vals, violations = prob.evaluate(np.stack(fixed))
    first = next(s for s, v, c in zip(fixed, vals, violations) if c <= 1e-12 and v <= stop)
    assert b.argmin.probs.tobytes() == prob.tensors(first)[0].tobytes()
    return b, prob


# the 8 random zero cases; the PINNED zero cases are random cases 3, 4, 7 and 11
ZERO_CASES = [_random_cases()[i] for i in (1, 3, 4, 5, 7, 9, 11, 15)]


@pytest.mark.parametrize("name, table, r1, r2", ZERO_CASES, ids=[c[0] for c in ZERO_CASES])
def test_zero_cases_are_certified_before_any_search(monkeypatch, name, table, r1, r2):
    # F is a sum of nonnegative terms, so at a floor of 0 a feasible fixed
    # start at 0 is returned as it is; random case 9 read 2.22e-16 when it
    # was searched
    b, prob = _certified_at_a_fixed_start(monkeypatch, table, r1, r2)
    assert prob.floor() == 0.0 and b.value == 0.0 and b.constraint_slack >= 0.0


# random case 0 is PINNED case0-2x2
TIGHT_CASES = [_random_cases()[i] for i in (0, 10)]


@pytest.mark.parametrize("name, table, r1, r2", TIGHT_CASES, ids=[c[0] for c in TIGHT_CASES])
def test_tight_floors_are_certified_at_a_fixed_start(monkeypatch, name, table, r1, r2):
    # U = Y on the non-encoded minimizer q meets NE(r1), the floor, so the
    # solve stops there, with the argmin one main batch used to return
    b, prob = _certified_at_a_fixed_start(monkeypatch, table, r1, r2)
    ny = prob.ny
    assert b.argmin.probs.tobytes() == prob.tensors(prob.embed(np.eye(ny), "y", prob.ne_dual[2]))[0].tobytes()
    assert prob.floor() == arimoto_floor(np.asarray(table), r1, prob.ne_dual[1]) > 0.0
    if name == "random0":
        assert hashlib.sha256(b.argmin.probs.tobytes()).hexdigest()[:16] == "b7e9c9a66dc2f6e9"


def test_dsbs_is_certified_by_the_seeded_batch(monkeypatch):
    # the cut-set floor 1 - r1 - r2 = 0.222 of the uniform X is met by a
    # descent of the seeded batch, so the copy manifolds and the region
    # search never run; value and argmin are those of one main batch
    monkeypatch.setattr(_ExponentSearch, "candidates_copy_manifolds", _no_search)
    monkeypatch.setattr(_exponent, "_region_argmin", _no_search)
    table, r1, r2, value, evaluations = PINNED["dsbs0.1"]
    src = JointPmf2(table)
    b = wak_exponent(src, RatePair(r1, r2), PINNED_CONFIG)
    assert (b.value.hex(), b.evaluations) == (value, evaluations)
    floor = _ExponentSearch(src, r1, r2, 4).floor()
    assert abs(floor - 0.222) <= 1e-15
    assert floor < b.value <= floor * (1.0 + STOP_RTOL)
    assert hashlib.sha256(b.argmin.probs.tobytes()).hexdigest()[:16] == "29579779328fef63"


@pytest.mark.parametrize("name", sorted(SEARCHED_ARGMINS))
def test_searched_cases_still_run_every_phase(monkeypatch, name):
    batches = _record_batches(monkeypatch)
    table, r1, r2, value, _ = PINNED[name]
    b = wak_exponent(JointPmf2(table), RatePair(r1, r2), PINNED_CONFIG)
    fixed = _ExponentSearch(JointPmf2(table), r1, r2, 4).fixed_starts()
    assert {s.tobytes() for s in fixed} <= set(batches[0])
    assert len(batches) > 2
    assert b.value.hex() == value
    assert hashlib.sha256(b.argmin.probs.tobytes()).hexdigest()[:16] == SEARCHED_ARGMINS[name]


def _weak_duality_solves(group):
    """(name, table, r1, r2, nu, config) of the solves of one group."""
    if group == "pinned":
        return [(k, t, r1, r2, None, PINNED_CONFIG) for k, (t, r1, r2, _, _) in PINNED.items()]
    acceptance = SolverConfig(starts=16, seed=2718)
    if group == "random":
        return [(f"{k}-nu{nu}", t, r1, r2, nu, acceptance) for k, t, r1, r2 in _random_cases() for nu in (2, 4)]
    tool = _load_tool("start_ablation")
    solves = tool.corpus()
    # every 4th solve: one per source, its nu cycling through tool.NUS
    n = len(tool.NUS)
    picked = [solves[i * n + i % n] for i in range(len(solves) // n)]
    return [(f"{k}-nu{nu}", t, r1, r2, nu, tool.CONFIG) for k, t, r1, r2, nu in picked]


@pytest.mark.parametrize("group", ["pinned", "random", "corpus"])
def test_no_exponent_is_below_its_floor(group):
    # L <= F by weak duality; the slack covers _FEAS_TOL, by which H(X|U)
    # may exceed r1 at a feasible argmin, times a tilt of at most 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UpperBoundWarning)
        for name, table, r1, r2, nu, config in _weak_duality_solves(group):
            src = JointPmf2(table)
            b = wak_exponent(src, RatePair(r1, r2), config, nu=nu)
            assert _ExponentSearch(src, r1, r2, 1).floor() <= b.value + 1e-11, name


@pytest.mark.parametrize(
    "table, r1, r2",
    [
        # sources s10-2x2 and s35-2x2 of tools/start_ablation.py, inside the region
        ([[0.500331547930762, 0.13455115313792945], [0.22545393604420988, 0.13966336288709863]],
         1.101894748817744, 0.36429725443114225),
        ([[0.04400892402508538, 0.1062142459284479], [0.7564823664768546, 0.09329446356961212]],
         0.45181916558168855, 0.77640633415848),
    ],
)
def test_the_lowest_finisher_wins_with_no_tie_window(table, r1, r2):
    # a descent of the main batch reached 0 on both, other finishers ending
    # 4.6e-13 to 4.8e-13 above it; now a fixed start certifies the 0 first,
    # and the next test checks the rule where the main batch decides
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UpperBoundWarning)
        b = wak_exponent(JointPmf2(table), RatePair(r1, r2), PINNED_CONFIG, nu=2)
    assert b.value <= 1e-15


def test_the_lowest_finisher_wins_in_the_main_batch(monkeypatch):
    # source s12-4x2 of tools/start_ablation.py: no fixed start and no
    # descent of the seeded batch reaches the floor 0, so the searched
    # starts run too.  Start 3 ends at 2.9e-16, before the region channel's
    # start at -2.2e-16, and the lowest of all the descents wins
    results = []

    def recording(compass):
        def run(*args, **kwargs):
            results.append(compass(*args, **kwargs))
            return results[-1]

        return run

    _patch_compass(monkeypatch, recording)
    table = [[0.04896984512565735, 0.0], [0.17750592520197353, 0.019689029052144306],
             [0.0, 0.6174465946142366], [0.0, 0.13638860600598826]]
    b = wak_exponent(JointPmf2(table), RatePair(1.1191976418261143, 0.7436585966752961), PINNED_CONFIG)
    assert len(results) > 2
    finishers = [r.value for r in results[0] + results[-1] if not r.infeasible]
    first_near_zero = next(v for v in finishers if v <= 1e-12)
    assert 0.0 < first_near_zero < min(finishers) + 1e-15
    assert b.value == 0.0


def _load_tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tools_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_start_ablation_labels_every_fixed_start():
    # the tool checks this only inside its ten-minute corpus run; here on
    # the first 10 corpus sources at every nu it solves them at
    tool = _load_tool("start_ablation")
    solves = tool.corpus()[: 10 * len(tool.NUS)]
    assert {nu for *_, nu in solves} == set(tool.NUS)
    for name, table, r1, r2, nu in solves:
        prob = _ExponentSearch(JointPmf2(table), r1, r2, nu)
        got = [s.tobytes() for _, s in tool.labelled_starts(prob)]
        assert got == [s.tobytes() for s in prob.fixed_starts()], (name, nu)


def test_start_ablation_counts_the_phase_that_stopped_each_solve():
    # corpus source s0-2x2 stops at a fixed start, dsbs0.1 after the seeded
    # batch, and s1-3x2 at nu = 1 runs the searched starts
    tool = _load_tool("start_ablation")
    table, r1, r2, _, evaluations = PINNED["dsbs0.1"]
    solves = tool.corpus()[:2] + [("dsbs0.1", np.array(table), r1, r2, 4)] + tool.corpus()[4:5]
    breakdowns, phases = tool.solve_all(solves, None)
    assert phases == [1, 1, 2, 3]
    assert [b.evaluations for b in breakdowns[:3]] == [3, 4, evaluations]
