"""Unit tests for the special-case exponents and the comparison bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wakexp.probkit import DomainError, JointPmf2, Pmf, conditional_entropy, entropy
from wakexp.reductions import (
    _OMEGA_GRID_CAP,
    DEFAULT_THETA_GRID,
    MU_ALPHA_GRID,
    GapReport,
    OohamaEvaluator,
    ThetaGrid,
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
from wakexp import reductions, simplex_optim
from wakexp.simplex_optim import (
    _capped_resolution,
    compass_batch,
    grid_search,
    random_starts,
)
from test_simplex_optim import _reference_lattice


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
        ev._solve_tilts(_TILTS)
        assert len(ev._omega_cache) == len(_TILTS)
        for mu, alpha in _TILTS:
            got = ev._omega_cache[_tilt_key(mu, alpha)]
            assert got.hex() == _reference_omega(ev, mu, alpha).hex(), (mu, alpha)
            assert ev.omega(mu, alpha) is got

    def test_single_tilt_omega_is_the_batch_of_one(self):
        src, _ = self.CASES["dsbs"]
        batch = OohamaEvaluator(src)
        batch._solve_tilts(_TILTS)
        for mu, alpha in _TILTS[::5]:
            alone = OohamaEvaluator(src).omega(mu, alpha)
            assert alone.hex() == batch.omega(mu, alpha).hex()

    def test_comparison_pairs_keep_their_recorded_values(self):
        # the five rate pairs of the comparison benchmark on dsbs:0.1 and the
        # bounds recorded for them, computed tilt by tilt before batching
        pairs = [
            (0.7743311158139575, 0.7315084672188445, 0.0),
            (0.026956300413916945, 0.4360506751232537, 0.14715148280579043),
            (0.096492197022501, 0.044503635821253495, 0.19249654436839492),
            (0.33340071980445596, 0.6915632531904445, 0.037295501838920234),
            (0.1734610958455215, 0.8359783837121457, 0.0557834335495673),
        ]
        ev = OohamaEvaluator(dsbs(0.1))
        assert [ev.bound(r1, r2) for r1, r2, _ in pairs] == [v for _, _, v in pairs]

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
        ev._solve_tilts(grid)
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
# the golden-section refinement with its probes solved ahead in batches
# (simplex_optim._golden_max, as the comparison bound calls it)
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _reference_golden_max(f, a, b, iters=24):
    """The golden-section loop with one probe at a time and no lookahead."""
    if not a < b:
        return a, f(a)
    best_x, best_v = a, f(a)
    fb = f(b)
    if fb > best_v:
        best_x, best_v = b, fb
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            probe_x, probe_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            probe_x, probe_v = d, fd
        if probe_v > best_v:
            best_x, best_v = probe_x, probe_v
    return float(best_x), float(best_v)


class TestGoldenLookahead:
    CASES = {
        "unimodal": (lambda x: -((x - 0.37) ** 2), 0.0, 1.0, 24),
        "multimodal": (lambda x: math.sin(17.0 * x) + 0.3 * math.cos(41.0 * x), 0.0, 1.0, 24),
        "constant": (lambda x: 1.0, 0.2, 0.7, 24),                # fc == fd at every step
        "degenerate": (lambda x: x * x, 0.4, 0.4, 24),
        "ten-shrinks": (lambda x: -abs(x - 0.61), 0.55, 0.65, 10),
        "three-shrinks": (lambda x: math.cos(9.0 * x), 0.0, 1.0, 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_lookahead_keeps_the_plain_loop(self, case):
        g, a, b, iters = self.CASES[case]
        plain = []
        want = _reference_golden_max(lambda x: plain.append(x) or g(x), a, b, iters)
        fetched, batches, calls = set(), [], []

        def f(x):
            assert x in fetched, x
            calls.append(x)
            return g(x)

        def prefetch(xs):
            batches.append(len(xs))
            fetched.update(xs)

        got = simplex_optim._golden_max(f, a, b, iters, prefetch)
        assert got == want
        assert calls == plain
        unfetched = []
        assert simplex_optim._golden_max(lambda x: unfetched.append(x) or g(x), a, b, iters) == want
        assert unfetched == plain
        lookahead = simplex_optim._GOLDEN_LOOKAHEAD
        assert len(batches) == (1 if a == b else 1 + -(-iters // lookahead))
        assert max(batches) <= 2**lookahead - 1

    def test_warm_bound_solves_in_few_batches(self, monkeypatch):
        ev = OohamaEvaluator(dsbs(0.1))
        ev.bound(0.3, 0.7)
        before = set(ev._omega_cache)
        solve, omega = ev._solve_tilts, ev.omega
        batches, read = [], set()

        def counting_solve(tilts):
            batches.append(list(tilts))
            solve(tilts)

        def reading_omega(mu, alpha):
            read.add(_tilt_key(mu, alpha))
            return omega(mu, alpha)

        monkeypatch.setattr(ev, "_solve_tilts", counting_solve)
        monkeypatch.setattr(ev, "omega", reading_omega)
        ev.bound(0.026956300413916945, 0.4360506751232537)
        assert len(batches) <= 15
        # speculated tilts the loop never read sit in the cache with the
        # value a fresh evaluator gives them
        unread = {}
        for mu, alpha in (t for batch in batches for t in batch):
            key = _tilt_key(mu, alpha)
            if key not in before and key not in read:
                unread.setdefault(key, (mu, alpha))
        spread = list(unread.values())
        assert len(spread) >= 8
        for mu, alpha in spread[:: len(spread) // 8][:8]:
            assert mu not in _AXIS or alpha not in _AXIS
            fresh = OohamaEvaluator(dsbs(0.1)).omega(mu, alpha)
            assert fresh.hex() == ev._omega_cache[_tilt_key(mu, alpha)].hex(), (mu, alpha)


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
