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
    _entropy_matched_tilts,
    aux_measures,
    binary_entropy,
    conditional_entropy,
    entropy_bits,
)
from wakexp.reductions import exponent_ne
from wakexp.simplex_optim import SolverConfig
from wakexp.wak_exponent import (
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
        src = JointPmf2(START_SOURCES[name])
        for nu in START_NUS:
            for r1 in (0.0, 0.4, 5.0):
                prob = _ExponentSearch(src, r1, 0.3, nu)
                want = [_reference_constant_u(prob)] + _reference_point_masses(prob)
                want += [
                    _reference_copy_y(prob),
                    _reference_copy_x(prob),
                    _reference_split(prob, "x"),
                    _reference_split(prob, "y"),
                ]
                if src.ny == 1:
                    tilts = _entropy_matched_tilts(src.probs[:, 0], r1)
                    want += [_reference_split(prob, "x", q[:, None]) for q in tilts]
                want = [w for w in want if w is not None]
                got = prob.fixed_starts()
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (nu, r1)

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
