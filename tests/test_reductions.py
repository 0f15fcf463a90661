"""Unit tests for the special-case exponents and the comparison bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wakexp.probkit import DomainError, JointPmf2, Pmf, conditional_entropy, entropy, entropy_bits
from wakexp.reductions import (
    _OMEGA_GRID_CAP,
    MU_ALPHA_GRID,
    GapReport,
    OohamaEvaluator,
    _tilt_coefficients,
    _tilt_key,
    exponent_ne,
    exponent_single_direct,
    exponent_single_parametric,
    gap_check,
    oohama_single,
    oohama_wak_bound,
    s_theta,
)
from wakexp import reductions
from wakexp.simplex_optim import (
    Lockstep,
    SolverConfig,
    _capped_resolution,
    _zoom_max,
    compass_batch,
    grid_search,
    grid_search_batch,
    random_starts,
)
from test_acceptance import _fifty_sources
from test_simplex_optim import _reference_lattice


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def random_pmf(rng, k):
    e = rng.exponential(size=k)
    return Pmf(e / e.sum())


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
        # the supremum sits at the end of the tilt range, which the dual reaches
        v = exponent_single_parametric(Pmf([0.5, 0.5]), 0.5)
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_forms_agree(self):
        p = Pmf([0.9, 0.1])
        assert exponent_single_parametric(p, 0.0) == pytest.approx(
            exponent_single_direct(p, 0.0), abs=1e-12
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

    def test_uniform_maximum_is_exactly_at_minus_one(self):
        # s(theta) = theta on the uniform bit, so the ratio theta*(r1 - 1)/(2 - theta)
        # falls in theta and the bracket's left end is the maximum
        for r1 in (0.0, 0.25, 0.5, 0.9):
            rep = gap_check(Pmf([0.5, 0.5]), r1)
            assert rep.argmax_theta_oohama == -1.0
            assert rep.f_oohama == pytest.approx((1.0 - r1) / 3.0, abs=1e-15)

    def test_zero_at_and_above_entropy(self):
        p = Pmf([0.7, 0.2, 0.1])
        for r1 in (entropy(p), entropy(p) + 0.5, 2.0):
            assert abs(oohama_single(p, r1)) <= 1e-15

    def test_point_mass_is_zero(self):
        for p in (Pmf([1.0]), Pmf([0.0, 1.0, 0.0])):
            for r1 in (0.0, 0.3, 1.0):
                assert oohama_single(p, r1) == 0.0


class TestGapCheck:
    def test_uniform_anchor(self):
        rep = gap_check(Pmf([0.5, 0.5]), 0.5)
        assert rep.f_oohama == pytest.approx(1 / 6, abs=1e-12)
        assert rep.f_tight == pytest.approx(0.5, abs=1e-12)
        assert rep.argmax_theta_tight == reductions._THETA_AT_LAM_ONE
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

    def test_both_sides_are_the_public_forms(self):
        cases = [(Pmf([0.5, 0.5]), 0.5), (Pmf([0.9, 0.1]), 0.0)]
        for p in _fifty_sources():
            h = entropy(p)
            cases += [(p, float(f * h)) for f in np.linspace(0.0, 1.0, 11) if f * h <= h - 0.05]
        for p, r1 in cases:
            rep = gap_check(p, r1)
            assert rep.f_tight == exponent_single_parametric(p, r1)
            assert rep.f_oohama == oohama_single(p, r1)

    def test_tight_theta_attains_the_tight_value(self):
        p, r1 = Pmf([0.8, 0.2]), 0.3
        rep = gap_check(p, r1)
        theta = rep.argmax_theta_tight
        assert (-s_theta(p, theta) + theta * r1) / (1.0 - theta) == pytest.approx(rep.f_tight, abs=1e-12)


class TestExponentNe:
    def test_zero_at_conditional_entropy(self):
        src = dsbs(0.1)
        assert exponent_ne(src, conditional_entropy(src) + 0.01) == 0.0

    def test_uniform_independent_line(self):
        src = JointPmf2(np.full((2, 2), 0.25))
        assert exponent_ne(src, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_dsbs_regression_against_fine_oracle(self):
        # the concave dual's maximum (lam = 0.3609...), evaluated at 50 digits
        assert exponent_ne(dsbs(0.1), 0.2) == pytest.approx(0.05066529832160067, abs=1e-14)


@st.composite
def joint_sources(draw):
    """Tables of up to 3x3 with some null atoms, empty rows and columns."""
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=nx * ny, max_size=nx * ny))
    assume(sum(weights) > 0.0)
    t = np.array(weights).reshape(nx, ny)
    return JointPmf2(t / t.sum())


PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
RATES = st.floats(0.0, 2.0)


class TestExponentNeProperties:
    @PROPERTY_SETTINGS
    @given(joint_sources(), RATES, RATES)
    def test_nonincreasing_and_convex_in_r1(self, src, a, b):
        lo, hi = min(a, b), max(a, b)
        f_lo, f_mid, f_hi = (exponent_ne(src, r1) for r1 in (lo, 0.5 * (lo + hi), hi))
        assert f_lo >= f_mid - 1e-12 and f_mid >= f_hi - 1e-12
        assert f_mid <= 0.5 * (f_lo + f_hi) + 1e-12

    @PROPERTY_SETTINGS
    @given(joint_sources(), RATES, st.data())
    def test_invariant_under_relabelling(self, src, r1, data):
        rows = data.draw(st.permutations(range(src.nx)))
        cols = data.draw(st.permutations(range(src.ny)))
        value = exponent_ne(src, r1)
        assert exponent_ne(JointPmf2(src.probs[rows]), r1) == pytest.approx(value, abs=1e-12)
        assert exponent_ne(JointPmf2(src.probs[:, cols]), r1) == pytest.approx(value, abs=1e-12)

    @PROPERTY_SETTINGS
    @given(joint_sources(), RATES)
    def test_zero_exactly_when_r1_covers_the_conditional_entropy(self, src, r1):
        assert (exponent_ne(src, r1) == 0.0) == (r1 >= conditional_entropy(src))


@st.composite
def single_pmfs(draw):
    """Pmfs on up to 6 letters, some with null atoms."""
    weights = draw(st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=1, max_size=6))
    assume(sum(weights) > 0.0)
    w = np.array(weights)
    return Pmf(w / w.sum())


class TestOohamaSingleProperties:
    @PROPERTY_SETTINGS
    @given(single_pmfs(), RATES)
    def test_at_least_a_fine_scan(self, p, r1):
        # log2 sum_x p(x)^(1-theta), one row per theta, apart from s_theta
        thetas = np.linspace(-1.0, 0.0, 2001)
        logs = np.log2(p.probs[p.probs > 0.0])
        s = np.log2(np.exp2((1.0 - thetas)[:, None] * logs).sum(axis=1))
        scan = ((-s + thetas * r1) / (2.0 - thetas)).max()
        assert oohama_single(p, r1) >= scan - 1e-15

    @PROPERTY_SETTINGS
    @given(single_pmfs(), RATES)
    def test_at_most_the_tight_form(self, p, r1):
        assert oohama_single(p, r1) <= exponent_single_parametric(p, r1) + 1e-15

    @PROPERTY_SETTINGS
    @given(single_pmfs(), st.floats(0.0, 0.95))
    def test_gap_report_below_entropy(self, p, fraction):
        h = entropy(p)
        assume(h > 1e-3)
        rep = gap_check(p, fraction * h)
        assert -1.0 <= rep.argmax_theta_oohama <= 0.0
        assert rep.argmax_theta_tight <= 0.0
        assert rep.gap > 0.0


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rates_rejected(self, bad):
        # an infinite r2 once made 0 * inf = nan and dropped the mu = 0 column
        ev = OohamaEvaluator(dsbs(0.1))
        for rates in ((0.3, bad), (bad, 0.3)):
            with pytest.raises(DomainError):
                ev.bound(*rates)
        assert not ev._omega_cache

    @pytest.mark.parametrize(
        "tilt", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5), (2.0, 3.0), (0.5, -0.1), (1.0 + 1e-12, 0.0)]
    )
    def test_tilt_outside_the_unit_square_rejected(self, tilt):
        # nan once failed inside the solve with a bare ValueError, and
        # (2, 3) returned -146.49 with no error
        ev = OohamaEvaluator(dsbs(0.1))
        with pytest.raises(DomainError):
            ev.omega(*tilt)
        assert not ev._omega_cache


# ---------------------------------------------------------------------------
# the batched inner solve against the one-tilt-at-a-time solve
# ---------------------------------------------------------------------------

def _reference_omega_rows(ev, mu, alpha, pts):
    """The inner objective at one scalar tilt, computed in one pass."""

    def scaled(coef, arr):
        return np.zeros_like(arr) if coef == 0.0 else coef * arr

    ny, nu = ev.src.ny, ev.nu
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    pyt = pts[:, :ny]
    w = pts[:, ny:].reshape(-1, ny, nu)
    pt_uy = pyt[:, None, :] * w.transpose(0, 2, 1)
    pt_u = pt_uy.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        py_given_u = pt_uy / pt_u[:, :, None]
    px_given_u = np.einsum("buy,xy->bux", np.nan_to_num(py_given_u), ev.cond_x_given_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (
            scaled(1.0 - alpha, (np.log2(pyt) - ev.log_py)[:, None, None, :])
            + scaled(alpha * mu, (np.log2(py_given_u) - ev.log_py[None, None, :])[:, :, None, :])
            + scaled(alpha * (1.0 - mu), -np.log2(px_given_u)[:, :, :, None])
        )
    weight = pt_uy[:, :, None, :] * ev.cond_x_given_y[None, None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        exponents = np.where(weight > 0.0, np.log2(weight) - tau, -math.inf)
    z = np.exp2(exponents).sum(axis=(1, 2, 3))
    with np.errstate(divide="ignore"):
        return -np.log2(z)


def _reference_row_terms(ev, pts):
    """The tilt-free terms, row-major (point, u, x, y), with the mask of
    positive weights."""
    ny, nu = ev.src.ny, ev.nu
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    pyt = pts[:, :ny]
    w = pts[:, ny:].reshape(-1, ny, nu)
    pt_uy = pyt[:, None, :] * w.transpose(0, 2, 1)
    weight = pt_uy[:, :, None, :] * ev.cond_x_given_y
    with np.errstate(divide="ignore", invalid="ignore"):
        py_given_u = pt_uy / pt_uy.sum(axis=2)[:, :, None]
        known = np.where(np.isnan(py_given_u), 0.0, py_given_u)
        px_given_u = np.einsum("buy,xy->bux", known, ev.cond_x_given_y)
        y_term = np.log2(pyt) - ev.log_py
        u_term = np.log2(py_given_u) - ev.log_py
        x_term = -np.log2(px_given_u)
        return y_term, u_term, x_term, weight > 0.0, np.log2(weight)


def _reference_tilted(terms, coefs):
    """-log2 of the tilted sum, masked by the positive weights."""
    y_term, u_term, x_term, positive, log_weight = terms
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (
            (coefs[..., 0:1] * y_term)[:, None, None, :]
            + (coefs[..., 1:2, None] * u_term)[:, :, None, :]
            + (coefs[..., 2:3, None] * x_term)[:, :, :, None]
        )
        exponents = np.where(positive, log_weight - tau, -math.inf)
        return -np.log2(np.exp2(exponents).sum(axis=(1, 2, 3)))


def _reference_omega(ev, mu, alpha):
    """One tilt alone: its own lattice pass, then descents from its starts."""

    def batch_evaluate(pts):
        return _reference_omega_rows(ev, mu, alpha, pts), 0.0

    candidates = [np.concatenate([ev.py, np.full(ev.src.ny * ev.nu, 1.0 / ev.nu)])]
    if ev.nu >= 2:
        rows = np.zeros((ev.src.ny, ev.nu))
        for y in range(ev.src.ny):
            rows[y, y % ev.nu] = 1.0
        candidates.append(np.concatenate([ev.py, rows.ravel()]))
    runs = [grid_search(ev.domain, resolution=ev.config.grid_resolution, batch_evaluate=batch_evaluate)]
    if not runs[0].infeasible:
        candidates.append(runs[0].argmin)
    runs += compass_batch(ev.domain, candidates, ev.config, batch_evaluate=batch_evaluate)
    return float(min(r.value for r in runs if not r.infeasible))


def _solve_all(ev, tilts):
    """Cache every uncached tilt of ``tilts``: one lattice pass and one
    lockstep, run to the end."""
    solves = reductions._TiltSolves(ev)
    solves.add(tilts)
    solves.run()


_AXIS = np.linspace(0.0, 1.0, MU_ALPHA_GRID)
_TILTS = [(mu, alpha) for mu in _AXIS[::8] for alpha in _AXIS[::8]] + [
    (0.4123, 0.777),
    (0.05, 0.3),
    (0.3, 1.0),
]


class TestBatchedInnerSolve:
    CASES = {
        "dsbs": (dsbs(0.1), None),
        "3x2": (JointPmf2([[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]]), None),
        "single-output": (JointPmf2([[0.3], [0.7]]), None),
        "dsbs-nu1": (dsbs(0.1), 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_matches_per_tilt_reference(self, case):
        src, nu = self.CASES[case]
        ev = OohamaEvaluator(src, nu=nu)
        _solve_all(ev, _TILTS)
        assert len(ev._omega_cache) == len(_TILTS)
        for mu, alpha in _TILTS:
            got = ev._omega_cache[_tilt_key(mu, alpha)]
            assert got.hex() == _reference_omega(ev, mu, alpha).hex(), (mu, alpha)
            assert ev.omega(mu, alpha) is got

    def test_single_tilt_omega_is_the_batch_of_one(self):
        src, _ = self.CASES["dsbs"]
        batch = OohamaEvaluator(src)
        _solve_all(batch, _TILTS)
        for mu, alpha in _TILTS[::5]:
            alone = OohamaEvaluator(src).omega(mu, alpha)
            assert alone.hex() == batch.omega(mu, alpha).hex()

    def test_comparison_pairs_keep_their_recorded_values(self, monkeypatch):
        # the five rate pairs of the comparison benchmark on dsbs:0.1, the
        # bounds of the zooming refinement, and those recorded tilt by tilt
        # under golden section, which a bound may exceed by at most 1e-6
        pairs = [
            (0.7743311158139575, 0.7315084672188445, 0.0, 0.0),
            (0.026956300413916945, 0.4360506751232537, 0.14715149025229862, 0.14715148280579043),
            (0.096492197022501, 0.044503635821253495, 0.19249654436816913, 0.19249654436839492),
            (0.33340071980445596, 0.6915632531904445, 0.03729547844044811, 0.037295501838920234),
            (0.1734610958455215, 0.8359783837121457, 0.05578343370206855, 0.0557834335495673),
        ]
        # each bound's lockstep iterations pin how it steps: the cold grid
        # runs to the end, and each level stops at its first exact maximum
        steps, step = [], Lockstep.step

        def counted(lockstep):
            steps[-1] += 1
            return step(lockstep)

        monkeypatch.setattr(Lockstep, "step", counted)
        ev = OohamaEvaluator(dsbs(0.1))
        got = []
        for r1, r2, _, _ in pairs:
            steps.append(0)
            got.append(ev.bound(r1, r2))
        assert got == [v for _, _, v, _ in pairs]
        assert steps == [660, 997, 150, 1464, 3794]
        for v, (_, _, _, golden) in zip(got, pairs):
            assert v <= golden + 1e-6

    def test_three_output_lattice_is_capped(self):
        src = JointPmf2([[0.1, 0.2, 0.05], [0.3, 0.15, 0.2]])
        ev = OohamaEvaluator(src)
        res = _capped_resolution(ev.domain, ev.config.grid_resolution, _OMEGA_GRID_CAP)
        rows = math.comb(res + 2, 2) ** 4
        assert 2 < res < ev.config.grid_resolution and rows <= _OMEGA_GRID_CAP
        assert math.isfinite(ev.omega(0.4, 0.5))

    def test_capped_lattice_keeps_the_inner_minimum(self, monkeypatch):
        # the capped resolution-3 lattice against an uncapped resolution-4
        # lattice and a 48-start multistart, on the 2x3 source
        src = JointPmf2([[0.1, 0.2, 0.05], [0.3, 0.15, 0.2]])
        tilts = [(0.4, 0.5), (0.0, 1.0), (0.25, 0.75), (0.7, 0.3), (0.1, 0.9)]
        ev = OohamaEvaluator(src)
        capped = [ev.omega(mu, alpha) for mu, alpha in tilts]
        monkeypatch.setattr(reductions, "_OMEGA_GRID_CAP", 10**6)
        finer = OohamaEvaluator(src, config=dataclasses.replace(ev.config, grid_resolution=4))
        draws = random_starts(ev.domain, dataclasses.replace(ev.config, starts=48, seed=3))
        for (mu, alpha), got in zip(tilts, capped):
            coefs = np.repeat(_tilt_coefficients([(mu, alpha)]), len(draws), axis=0)
            runs = compass_batch(ev.domain, draws, ev.config, batch_evaluate=ev._omega_evaluate, params=coefs)
            assert got <= finer.omega(mu, alpha) + 1e-9, (mu, alpha)
            assert got <= min(r.value for r in runs) + 1e-9, (mu, alpha)

    @pytest.mark.parametrize(
        "probs",
        [
            [[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]],
            [[0.4, 0.0, 0.1], [0.2, 0.0, 0.3]],
            [[0.45, 0.05], [0.05, 0.45]],                  # only the empty u
        ],
        ids=["zero-entry", "zero-py-column", "empty-u"],
    )
    def test_row_terms_are_finite_at_every_positive_weight(self, probs):
        # the kernel sets every infinite or NaN term to 0 and lets the -inf
        # log-weight drop its entry, so a term that counts, one at a
        # positive weight, must never be infinite
        ev = OohamaEvaluator(JointPmf2(probs))
        empty_u = np.concatenate([ev.py, np.tile(np.eye(ev.nu)[0], ev.src.ny)])
        pts = np.vstack([_reference_lattice(ev.domain, 3), empty_u])
        y_term, u_term, x_term, positive, log_weight = _reference_row_terms(ev, pts)
        shape = positive.shape
        terms = [
            np.broadcast_to(y_term[:, None, None, :], shape),
            np.broadcast_to(u_term[:, :, None, :], shape),
            np.broadcast_to(x_term[:, :, :, None], shape),
            log_weight,
        ]
        assert np.isnan(u_term[-1, 1:]).all()                  # u = 1.. are empty
        assert not all(np.isfinite(t).all() for t in terms)
        for t in terms:
            assert np.isfinite(t[positive]).all()
        # the kernel's terms: feature-major, (x,) y, u order, finite throughout
        *got, got_log_weight = ev._row_terms(pts)
        for g, w in zip(got, (y_term.T, u_term.transpose(2, 1, 0), x_term.transpose(1, 2, 0))):
            assert np.isfinite(g).all()
            assert np.array_equal(g, np.where(np.isfinite(w), w, 0.0))
        want = np.where(positive, log_weight, -math.inf).transpose(2, 3, 1, 0)
        assert got_log_weight.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["dsbs", "3x2"])
    def test_grid_tilts_match_the_reference(self, case):
        # the kernel takes 0 * term as it comes; the reference drops a term
        # with a zero weight.  Only the edge tilts of the grid have a zero
        # weight: all of them are checked, and every 13th grid tilt
        src, nu = self.CASES[case]
        ev = OohamaEvaluator(src, nu=nu)
        grid = [(mu, alpha) for mu in _AXIS for alpha in _AXIS]
        _solve_all(ev, grid)
        edge = [t for t in grid if (_tilt_coefficients([t]) == 0.0).any()]
        assert len(edge) == 4 * (MU_ALPHA_GRID - 1)
        lattice = _reference_lattice(ev.domain, ev.config.grid_resolution)
        for mu, alpha in edge:
            got = ev._omega_rows(lattice, _tilt_coefficients([(mu, alpha)]))
            assert got.tobytes() == _reference_omega_rows(ev, mu, alpha, lattice).tobytes(), (mu, alpha)
        for mu, alpha in edge + grid[::13]:
            want = _reference_omega(ev, mu, alpha)
            assert ev._omega_cache[_tilt_key(mu, alpha)].hex() == want.hex(), (mu, alpha)

    def test_binary_output_lattice_keeps_full_resolution(self):
        ev = OohamaEvaluator(dsbs(0.1))
        assert _capped_resolution(ev.domain, 12, _OMEGA_GRID_CAP) == 12


# ---------------------------------------------------------------------------
# the zooming refinement, one batch of inner solves per level
# ---------------------------------------------------------------------------

class TestZoomRefinement:
    def test_warm_bound_solves_only_tilts_it_reads(self, monkeypatch):
        ev = OohamaEvaluator(dsbs(0.1))
        ev.bound(0.3, 0.7)
        before = set(ev._omega_cache)
        add, read = reductions._TiltSolves.add, reductions._TiltSolves.read
        batches, seen = [], set()

        def counting_add(solves, tilts):
            new = {_tilt_key(mu, alpha) for mu, alpha in tilts} - set(ev._omega_cache) - set(solves.pending)
            if new:
                batches.append(new)
            add(solves, tilts)

        def counting_read(solves, tilts):
            seen.update(_tilt_key(mu, alpha) for mu, alpha in tilts)
            read(solves, tilts)

        monkeypatch.setattr(reductions._TiltSolves, "add", counting_add)
        monkeypatch.setattr(reductions._TiltSolves, "read", counting_read)
        ev.bound(0.026956300413916945, 0.4360506751232537)
        # the grid is cached, so at most six levels on each of the two lines
        assert 0 < len(batches) <= 12
        solved = set().union(*batches)
        assert solved <= seen
        # each solved tilt either stopped and was cached, or was dropped
        # unfinished; nothing else reaches the cache
        assert set(ev._omega_cache) - before <= solved <= set(ev._omega_cache) | set(ev._unfinished)


    def test_a_dropped_tilt_is_solved_later_at_the_tilt_it_first_ran_at(self):
        # two tilts of one cache key give different omegas; the key keeps
        # the first one read, as if its dropped descents had run on
        first, later = (0.3, 0.6), (0.30000000000009996, 0.6)
        assert _tilt_key(*first) == _tilt_key(*later)
        want = OohamaEvaluator(dsbs(0.1)).omega(*first)
        assert want != OohamaEvaluator(dsbs(0.1)).omega(*later)
        ev = OohamaEvaluator(dsbs(0.1))
        solves = reductions._TiltSolves(ev)
        solves.read([first])
        solves.step()
        solves.read([])
        assert ev._unfinished == {_tilt_key(*first): first} and not ev._omega_cache
        assert ev.omega(*later).hex() == want.hex()
        assert not ev._unfinished


def _solve_to_the_end(ev, tilts):
    """Cache every uncached tilt: one lattice pass, then one
    ``compass_batch`` of the descents of every tilt, run to the end."""
    todo = {}
    for mu, alpha in tilts:
        key = _tilt_key(mu, alpha)
        if key not in ev._omega_cache:
            todo.setdefault(key, (mu, alpha))
    if not todo:
        return
    coefs = _tilt_coefficients(list(todo.values()))
    ny, nu = ev.src.ny, ev.nu
    fixed = [np.concatenate([ev.py, np.full(ny * nu, 1.0 / nu)])]
    if nu >= 2:
        rows = np.zeros((ny, nu))
        rows[np.arange(ny), np.arange(ny) % nu] = 1.0
        fixed.append(np.concatenate([ev.py, rows.ravel()]))
    res = _capped_resolution(ev.domain, ev.config.grid_resolution, reductions._OMEGA_GRID_CAP)
    lattice = grid_search_batch(ev.domain, res, coefs, ev._lattice_sweep)
    starts, owner = [], []
    for t, g in enumerate(lattice):
        own = fixed if g.infeasible else fixed + [g.argmin]
        starts += own
        owner += [t] * len(own)
    runs = compass_batch(ev.domain, starts, ev.config, batch_evaluate=ev._omega_evaluate, params=coefs[owner])
    per_tilt = [[g] for g in lattice]
    for t, r in zip(owner, runs):
        per_tilt[t].append(r)
    for key, tilt_runs in zip(todo, per_tilt):
        ev._omega_cache[key] = float(min(r.value for r in tilt_runs if not r.infeasible))


def _full_solve_bound(ev, r1, r2):
    """The comparison bound with every tilt of every zoom level solved to
    the end by ``_solve_to_the_end`` before ``_zoom_max`` reads the level."""

    def f(mu, alpha):
        omega = ev._omega_cache[_tilt_key(mu, alpha)]
        return (omega - alpha * ((1.0 - mu) * r1 + mu * r2)) / (2.0 + alpha * (1.0 - mu))

    axis = np.linspace(0.0, 1.0, reductions.MU_ALPHA_GRID)
    _solve_to_the_end(ev, [(mu, alpha) for mu in axis for alpha in axis])
    best_val, i, j = -math.inf, 0, 0
    for a, mu in enumerate(axis):
        for b, alpha in enumerate(axis):
            v = f(mu, alpha)
            if v > best_val:
                best_val, i, j = v, a, b

    def line(tilts):
        _solve_to_the_end(ev, tilts)
        return [f(mu, alpha) for mu, alpha in tilts]

    last = len(axis) - 1
    mu_star, v1 = _zoom_max(lambda ms: line([(m, axis[j]) for m in ms]), axis[max(i - 1, 0)], axis[min(i + 1, last)], 15, 6)
    if v1 < best_val:
        mu_star = axis[i]
    best_val = max(best_val, v1)
    _, v2 = _zoom_max(lambda alphas: line([(mu_star, a) for a in alphas]), axis[max(j - 1, 0)], axis[min(j + 1, last)], 15, 6)
    return max(float(max(best_val, v2)), 0.0) + 0.0


class TestCertifiedLevels:
    """Each zoom level stops once its first maximum is a stopped tilt; the
    bounds and the cache must be those of solving every level to the end."""

    # coarse grids and a short inner solve keep the test fast; the cap of
    # 40 iterations stops many of the line descents unconverged
    CONFIG = SolverConfig(grid_resolution=6, max_iterations=40, step_tolerance=1e-5)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
    @pytest.mark.parametrize("full_nu", [False, True], ids=["nu1", "nuY"])
    def test_bounds_and_cache_match_a_full_solve(self, monkeypatch, shape, full_nu):
        monkeypatch.setattr(reductions, "MU_ALPHA_GRID", 9)
        monkeypatch.setattr(reductions, "_OMEGA_GRID_CAP", 1_500)
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        probs = rng.exponential(size=shape)
        src = JointPmf2(probs / probs.sum())
        nu = src.ny if full_nu else 1
        hx, hy = entropy_bits(src.probs.sum(axis=1)), entropy_bits(src.probs.sum(axis=0))
        pairs = [(hx * rng.random(), hy * rng.random()) for _ in range(6)] + [(0.0, 0.0), (hx, 0.0)]
        tilts = {}
        key = reductions._tilt_key

        def recording_key(mu, alpha):
            k = key(mu, alpha)
            tilts.setdefault(k, (mu, alpha))
            return k

        monkeypatch.setattr(reductions, "_tilt_key", recording_key)
        ev = OohamaEvaluator(src, nu=nu, config=self.CONFIG)
        full = OohamaEvaluator(src, nu=nu, config=self.CONFIG)
        for r1, r2 in pairs:
            want = _full_solve_bound(full, r1, r2)
            assert ev.bound(r1, r2).hex() == want.hex(), (r1, r2)
        # every cached omega is the exact value of its tilt solved alone
        assert set(ev._omega_cache) <= set(full._omega_cache)
        assert len(ev._omega_cache) > reductions.MU_ALPHA_GRID ** 2
        fresh = OohamaEvaluator(src, nu=nu, config=self.CONFIG)
        _solve_all(fresh, [tilts[k] for k in ev._omega_cache])
        for k, v in ev._omega_cache.items():
            assert v.hex() == fresh._omega_cache[k].hex() == full._omega_cache[k].hex(), k
        for k in list(ev._omega_cache)[-3:]:
            alone = OohamaEvaluator(src, nu=nu, config=self.CONFIG).omega(*tilts[k])
            assert alone.hex() == ev._omega_cache[k].hex(), k


# ---------------------------------------------------------------------------
# the fused feature-major kernel against the row-major one it replaced
# ---------------------------------------------------------------------------

# |X| or |Y| of 8 and more, and nu * |X| * |Y| above 128, take numpy's
# pairwise and blocked pairwise sums
OMEGA_SHAPES = [((2, 2), 1), ((2, 2), 2), ((3, 2), 2), ((2, 3), 3), ((3, 1), 1), ((9, 2), 2), ((2, 9), 9), ((8, 3), 1)]


@pytest.mark.parametrize("shape, nu", OMEGA_SHAPES, ids=[f"{a}x{b}-nu{n}" for (a, b), n in OMEGA_SHAPES])
def test_omega_kernel_matches_the_reference(shape, nu):
    rng = np.random.default_rng(shape[0] * 10 + shape[1] + nu)
    probs = rng.exponential(size=shape)
    probs[rng.random(shape) < 0.2] = 0.0
    probs.flat[0] += 0.1
    ev = OohamaEvaluator(JointPmf2(probs / probs.sum()), nu=nu)
    for n in (1, 7, 193, 2049):
        pts = np.array([ev.domain.sample(rng) for _ in range(n)])
        pts[rng.random(pts.shape) < 0.2] = 0.0          # empty y and u, unnormalized rows
        pts[n // 2] = np.nan
        coefs = _tilt_coefficients(rng.random((n, 2)))
        coefs[::5] = _tilt_coefficients([(0.0, 0.0)])     # zero weights meet the empty entries
        want = _reference_tilted(_reference_row_terms(ev, pts), coefs)
        assert ev._omega_rows(pts, coefs).tobytes() == want.tobytes()
        sweep = ev._lattice_sweep(pts)
        for coef in _tilt_coefficients([(0.3, 0.6), (1.0, 0.0), (0.0, 1.0)]):
            want = _reference_tilted(_reference_row_terms(ev, pts), coef)
            assert sweep(coef).tobytes() == want.tobytes()
