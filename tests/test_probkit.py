"""Unit tests for the pmf types and information measures."""

import json
import math

import numpy as np
import pytest

from wakexp.probkit import (
    AuxJointPmf,
    DimensionError,
    DomainError,
    JointPmf2,
    Layout,
    Pmf,
    arimoto_dual,
    arimoto_floor,
    aux_measures,
    binary_entropy,
    binary_entropy_inverse,
    binary_kl,
    check_rate,
    conditional_entropy,
    entropy,
    entropy_bits,
    entropy_rows,
    joint_from_dict,
    joint_to_dict,
    kl_bits,
    kl_divergence,
    kl_rows,
    lead_sum,
    mutual_information,
    tv_distance,
    y_contract,
)


def dsbs_joint(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def random_pmf(rng, k):
    e = rng.exponential(size=k)
    return Pmf(e / e.sum())


class TestTypes:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf([1.2, -0.2])

    def test_pmf_rejects_bad_total(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.5 + 1e-9])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_types_reject_non_finite(self, bad):
        # abs(nan - 1) > tol is False, so the total check alone lets NaN in
        with pytest.raises(ValueError):
            Pmf([bad, 0.5, 0.5])
        with pytest.raises(ValueError):
            JointPmf2([[bad, 0.5], [0.25, 0.25]])

    def test_pmf_accepts_tolerance_without_renormalizing(self):
        p = Pmf([0.5, 0.5 + 1e-13])
        assert p.probs[1] == 0.5 + 1e-13

    def test_probs_are_read_only(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_joint_shapes(self):
        j = JointPmf2([[0.25, 0.25], [0.25, 0.25]])
        assert (j.nx, j.ny) == (2, 2)
        a = AuxJointPmf(np.full((3, 2, 2), 1 / 12))
        assert (a.nu, a.nx, a.ny) == (3, 2, 2)

    def test_marginals_are_exact_sums(self):
        j = JointPmf2([[0.1, 0.2], [0.3, 0.4]])
        np.testing.assert_array_equal(j.marginal_x().probs, [0.1 + 0.2, 0.3 + 0.4])
        np.testing.assert_array_equal(j.marginal_y().probs, [0.1 + 0.3, 0.2 + 0.4])


class TestEntropy:
    def test_uniform_two_symbols(self):
        assert entropy(Pmf([0.5, 0.5])) == 1.0

    def test_point_mass(self):
        assert entropy(Pmf([1.0, 0.0, 0.0])) == 0.0

    def test_skewed_binary(self):
        assert entropy(Pmf([0.2, 0.8])) == pytest.approx(0.7219280948873623, abs=1e-12)


class TestConditionalEntropy:
    def test_independent_uniform_bits(self):
        j = JointPmf2(np.full((2, 2), 0.25))
        assert conditional_entropy(j) == pytest.approx(1.0, abs=1e-12)

    def test_identity_coupling(self):
        j = JointPmf2([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(j) == pytest.approx(0.0, abs=1e-12)

    def test_dsbs(self):
        assert conditional_entropy(dsbs_joint(0.1)) == pytest.approx(
            binary_entropy(0.1), abs=1e-12
        )


class TestMutualInformation:
    def test_independent(self):
        j = JointPmf2(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling(self):
        assert mutual_information(JointPmf2([[0.5, 0.0], [0.0, 0.5]])) == pytest.approx(1.0)

    def test_dsbs_02(self):
        assert mutual_information(dsbs_joint(0.2)) == pytest.approx(
            0.2780719051126377, abs=1e-9
        )


class TestKlAndTv:
    def test_identity(self):
        p = Pmf([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0
        assert tv_distance(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5])) == pytest.approx(1.0)

    def test_absolute_continuity_violation(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.0, 1.0])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kl_divergence(Pmf([1.0]), Pmf([0.5, 0.5]))
        with pytest.raises(DimensionError):
            tv_distance(Pmf([1.0]), Pmf([0.5, 0.5]))

    def test_tv_values(self):
        assert tv_distance(Pmf([1, 0]), Pmf([0, 1])) == 1.0
        assert tv_distance(Pmf([0.6, 0.4]), Pmf([0.4, 0.6])) == pytest.approx(0.2)


class TestBinaryFunctions:
    def test_binary_entropy_symmetric_peak(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        for a in (0.1, 0.26, 0.4):
            assert binary_entropy(a) == pytest.approx(binary_entropy(1 - a), abs=1e-12)

    def test_binary_kl(self):
        assert binary_kl(0.3, 0.3) == 0.0
        # direct evaluation of 0.2 log2 2 + 0.8 log2(8/9)
        assert binary_kl(0.2, 0.1) == pytest.approx(0.06405999884615017, abs=1e-12)

    def test_binary_kl_boundary_reference(self):
        assert binary_kl(0.0, 0.0) == 0.0
        assert binary_kl(1.0, 1.0) == 0.0
        assert binary_kl(0.5, 0.0) == math.inf
        assert binary_kl(0.5, 1.0) == math.inf

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            binary_entropy(1.2)
        with pytest.raises(DomainError):
            binary_kl(-0.1, 0.5)

    def test_entropy_inverse(self):
        for t in (0.0, 0.3, 0.7219280948873623, 1.0):
            a = binary_entropy_inverse(t)
            assert 0.0 <= a <= 0.5
            assert binary_entropy(a) == pytest.approx(t, abs=1e-10)


def roadmap_cases():
    """(table, r1) of the 16 random cases: shapes 2x2, 2x3, 3x2, 1x3 in turn."""
    rng = np.random.default_rng(1)
    for i in range(16):
        e = rng.exponential(size=((2, 2), (2, 3), (3, 2), (1, 3))[i % 4])
        r1, _ = rng.uniform(0.0, 1.2, size=2)
        yield e / e.sum(), float(r1)


ZERO_TABLES = {
    "zero-entry": [[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]],
    "zero-row": [[0.3, 0.2], [0.0, 0.0], [0.1, 0.4]],
    "empty-column": [[0.3, 0.0, 0.2], [0.0, 0.0, 0.5]],
}


def dual_value(table, lam, r1):
    """-log2 sum_y (sum_x S^(1/(1-lam)))^(1-lam) - lam*r1, as a sum of
    column norms ||S(., y)||_(1/(1-lam)), max_x S(x, y) at lam = 1."""
    s = table[:, table.sum(axis=0) > 0.0]
    top = s.max(axis=0)
    if lam == 1.0:
        norms = top
    else:
        norms = top * ((s / top) ** (1.0 / (1.0 - lam))).sum(axis=0) ** (1.0 - lam)
    return -math.log2(norms.sum()) - lam * r1


def primal_value(table, q, r1):
    """D(q||S) + max(H_q(X|Y) - r1, 0)."""
    return kl_bits(q, table) + max(entropy_bits(q) - entropy_bits(q.sum(axis=0)) - r1, 0.0)


class TestArimotoDual:
    def test_duality_certificate(self):
        cases = list(roadmap_cases())
        cases += [(np.array(t), r1) for t in ZERO_TABLES.values() for r1 in (0.0, 0.1, 0.3, 0.5, 2.0)]
        for table, r1 in cases:
            value, lam, q = arimoto_dual(table, r1)
            assert 0.0 <= lam <= 1.0
            # the bisection keeps the end that meets r1, unless none does
            assert lam == 1.0 or conditional_entropy(JointPmf2(q)) <= r1
            primal = primal_value(table, q, r1)
            assert value == pytest.approx(primal, abs=1e-15)
            assert abs(primal - dual_value(table, lam, r1)) <= 1e-12, (table, r1)

    def test_null_atoms_and_empty_columns_carry_no_mass(self):
        table = np.array(ZERO_TABLES["empty-column"])
        for r1 in (0.0, 0.3):
            value, lam, q = arimoto_dual(table, r1)
            assert math.isfinite(value) and 0.0 < lam <= 1.0
            assert np.all(np.isfinite(q)) and abs(q.sum() - 1.0) <= 1e-15
            assert np.all(q[table == 0.0] == 0.0)

    def test_mass_goes_to_the_largest_atoms_as_lam_reaches_one(self):
        # no tilt of a uniform column lowers its entropy, so lam = 1
        assert arimoto_dual(np.full((2, 2), 0.25), 0.5)[:2] == (0.5, 1.0)
        for r1 in (0.0, 0.25, 0.5, 0.75):
            assert arimoto_dual(np.array([[0.5], [0.5]]), r1)[:2] == (1.0 - r1, 1.0)
        # a tie on top of column 0 keeps H(X|Y) above r1 = 0
        value, lam, q = arimoto_dual(np.array([[0.3, 0.1], [0.3, 0.05], [0.1, 0.15]]), 0.0)
        assert lam == 1.0
        assert q == pytest.approx(np.array([[1, 0], [1, 0], [0, 1]]) / 3, abs=1e-15)

    def test_lam_is_one_where_the_tilt_underflows_onto_its_limit(self):
        # from lam ~ 0.997 the tilt of (0.9, 0.1) rounds to exactly (1, 0),
        # whose entropy 0 meets r1 = 0; lam must still read 1, not that point
        table = np.array([[0.9], [0.1]])
        value, lam, q = arimoto_dual(table, 0.0)
        assert lam == 1.0
        assert q.tolist() == [[1.0], [0.0]]
        assert value == pytest.approx(-math.log2(0.9), abs=1e-15)

    def test_source_itself_when_r1_covers_the_conditional_entropy(self):
        src = dsbs_joint(0.1)
        for r1 in (conditional_entropy(src), conditional_entropy(src) + 0.1, 5.0):
            value, lam, q = arimoto_dual(src.probs, r1)
            assert (value, lam) == (0.0, 0.0) and q is src.probs


def floor_tables():
    """32 random tables of 1 to 4 rows and columns, about a fifth of the
    atoms null, each at a random rate in [0, 2]."""
    rng = np.random.default_rng(5)
    for _ in range(32):
        t = rng.exponential(size=tuple(rng.integers(1, 5, size=2)))
        t[rng.random(size=t.shape) < 0.2] = 0.0
        t.flat[0] += 0.05
        yield t / t.sum(), float(rng.uniform(0.0, 2.0))


class TestArimotoFloor:
    def test_lam_zero_gives_zero(self):
        tables = [t for t, _ in floor_tables()] + [np.array(t) for t in ZERO_TABLES.values()]
        for table in tables:
            for r1 in (0.0, 0.3, 2.0):
                assert arimoto_floor(table, r1, 0.0) == 0.0

    def test_lam_one_is_the_limit_on_tied_maxima(self):
        # column 0 ties 0.3 on top, column 1 tops at 0.15
        table = np.array([[0.3, 0.1], [0.3, 0.05], [0.1, 0.15]])
        for r1 in (0.0, 0.2, 0.7):
            limit = -math.log2(0.3 + 0.15) - r1
            assert arimoto_floor(table, r1, 1.0) == pytest.approx(limit, abs=1e-15)
            # a tie of two atoms scales its column's norm by 2^(1 - lam)
            assert abs(arimoto_floor(table, r1, 1.0 - 2.0**-40) - limit) <= 1e-12
        empty = np.array(ZERO_TABLES["empty-column"])
        assert arimoto_floor(empty, 0.1, 1.0) == pytest.approx(-math.log2(0.3 + 0.5) - 0.1, abs=1e-15)

    def test_matches_the_column_norm_reference(self):
        for table, r1 in floor_tables():
            for lam in np.linspace(0.0, 1.0, 21):
                assert arimoto_floor(table, r1, lam) == pytest.approx(dual_value(table, lam, r1), abs=1e-14)

    def test_every_tilt_is_below_the_dual_value(self):
        # weak duality: the dual objective at any lam bounds the minimum
        # from below, to rounding
        for table, r1 in floor_tables():
            value = arimoto_dual(table, r1)[0]
            for lam in np.linspace(0.0, 1.0, 21):
                assert arimoto_floor(table, r1, lam) <= value + 1e-15, (table, r1, lam)

    def test_primal_meets_the_floor_at_the_returned_lam(self):
        cases = list(floor_tables()) + list(roadmap_cases())
        for table, r1 in cases:
            value, lam, q = arimoto_dual(table, r1)
            floor = arimoto_floor(table, r1, lam)
            assert -1e-15 <= value - floor <= 1e-12, (table, r1)


BAD_RATES = [math.inf, -math.inf, math.nan, -0.1]


def _rate_entry_points():
    """Every public function that takes a rate, as a call of that rate."""
    import wakexp as w
    from wakexp.dsbs import dsbs_pair

    src, pmf = w.dsbs_source(0.1), Pmf([0.9, 0.1])
    aux = AuxJointPmf(np.full((1, 2, 2), 0.25))
    return {
        "RatePair.r1": lambda r: w.RatePair(r, 0.1),
        "RatePair.r2": lambda r: w.RatePair(0.1, r),
        "wak_objective": lambda r: w.wak_objective(aux, src, r),
        "wak_exponent": lambda r: w.wak_exponent(src, (r, 0.1)),
        "region_min_r1": lambda r: w.region_min_r1(src, r),
        "region_contains": lambda r: w.region_contains(src, (0.1, r)),
        "region_curve": lambda r: w.region_curve(src, [0.1, r]),
        "exponent_ne": lambda r: w.exponent_ne(src, r),
        "exponent_single_direct": lambda r: w.exponent_single_direct(pmf, r),
        "exponent_single_parametric": lambda r: w.exponent_single_parametric(pmf, r),
        "oohama_single": lambda r: w.oohama_single(pmf, r),
        "gap_check": lambda r: w.gap_check(pmf, r),
        "OohamaEvaluator.bound.r1": lambda r: w.OohamaEvaluator(src).bound(r, 0.1),
        "OohamaEvaluator.bound.r2": lambda r: w.OohamaEvaluator(src).bound(0.1, r),
        "oohama_wak_bound": lambda r: w.oohama_wak_bound(src, (r, 0.1)),
        "dsbs_objective": lambda r: w.dsbs_objective(w.DsbsParams(0.1, 0.2, 0.1, 0.1), r),
        "dsbs_exponent.r1": lambda r: w.dsbs_exponent(0.1, r, 0.1),
        "dsbs_exponent.r2": lambda r: w.dsbs_exponent(0.1, 0.1, r),
        "dsbs_pair": lambda r: dsbs_pair(0.1, 0.1, r),
        "figure2_sweep": lambda r: w.figure2_sweep(0.1, r, [0.5]),
        "pa_generic_bound": lambda r: w.pa_generic_bound(0.1, 1.0, 10, r),
        "pa_bound_from_exponent.r1": lambda r: w.pa_bound_from_exponent(0.1, r1=r, r2=0.1, delta=0.05, n=10),
        "pa_bound_from_exponent.r2": lambda r: w.pa_bound_from_exponent(0.1, r1=0.1, r2=r, delta=0.05, n=10),
        "pa_security_bound.r1": lambda r: w.pa_security_bound(src, r, 0.1, 0.05, 10),
        "pa_security_bound.r2": lambda r: w.pa_security_bound(src, 0.1, r, 0.05, 10),
        "pa_rate_tradeoff.r1": lambda r: w.pa_rate_tradeoff(src, 0.5, 10, 0.05, [0.1], [r]),
        "pa_rate_tradeoff.r2": lambda r: w.pa_rate_tradeoff(src, 0.5, 10, 0.05, [r], [0.1]),
    }


class TestRates:
    def test_check_rate(self):
        for good in (0.0, 0.5, 7.0):
            check_rate(good, "r1")
        for bad in BAD_RATES:
            with pytest.raises(DomainError, match="r1 must be finite and nonnegative"):
                check_rate(bad, "r1")

    @pytest.mark.parametrize("name", sorted(_rate_entry_points()))
    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_every_public_rate_is_checked(self, name, rate):
        # each call raises before it solves anything
        with pytest.raises(DomainError, match="must be finite and nonnegative"):
            _rate_entry_points()[name](rate)


def naive_aux_measures(t):
    """Triple-loop likelihood-ratio forms, independent of the library path."""
    nu, nx, ny = t.shape
    pu = t.sum(axis=(1, 2))
    pux = t.sum(axis=2)
    puy = t.sum(axis=1)
    pxy = t.sum(axis=0)
    py = pxy.sum(axis=0)
    h_x_given_u = 0.0
    for u in range(nu):
        for x in range(nx):
            if pux[u, x] > 0:
                h_x_given_u -= pux[u, x] * math.log2(pux[u, x] / pu[u])
    i_u_y = 0.0
    for u in range(nu):
        for y in range(ny):
            if puy[u, y] > 0:
                i_u_y += puy[u, y] * math.log2(puy[u, y] / (pu[u] * py[y]))
    i_u_x_given_y = 0.0
    for u in range(nu):
        for x in range(nx):
            for y in range(ny):
                if t[u, x, y] > 0:
                    i_u_x_given_y += t[u, x, y] * math.log2(
                        t[u, x, y] * py[y] / (puy[u, y] * pxy[x, y])
                    )
    return h_x_given_u, i_u_y, i_u_x_given_y


class TestAuxMeasures:
    def test_constant_u(self):
        t = np.zeros((2, 2, 2))
        t[0] = dsbs_joint(0.1).probs
        m = aux_measures(AuxJointPmf(t))
        assert m.h_x_given_u == pytest.approx(1.0, abs=1e-12)
        assert m.i_u_y == pytest.approx(0.0, abs=1e-12)
        assert m.i_u_x_given_y == pytest.approx(0.0, abs=1e-12)

    def test_copy_case(self):
        # U = Y uniform, X = Y
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[1, 1, 1] = 0.5
        m = aux_measures(AuxJointPmf(t))
        assert m.i_u_y == pytest.approx(1.0, abs=1e-12)
        assert m.h_x_given_u == pytest.approx(0.0, abs=1e-12)

    def test_against_naive_loops(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            t = rng.exponential(size=(3, 2, 3))
            t /= t.sum()
            m = aux_measures(AuxJointPmf(t))
            h, iuy, iuxy = naive_aux_measures(t)
            assert m.h_x_given_u == pytest.approx(h, abs=1e-12)
            assert m.i_u_y == pytest.approx(iuy, abs=1e-12)
            assert m.i_u_x_given_y == pytest.approx(iuxy, abs=1e-12)


class TestMeasureProperties:
    def test_chain_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            j = rng.exponential(size=(3, 2))
            j /= j.sum()
            joint = JointPmf2(j)
            h_xy = entropy(Pmf(j.ravel()))
            h_y = entropy(joint.marginal_y())
            assert abs(h_xy - (h_y + conditional_entropy(joint))) <= 1e-12

    def test_nonnegativity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            j = rng.exponential(size=(2, 3))
            j /= j.sum()
            assert mutual_information(JointPmf2(j)) >= -1e-12
            p = random_pmf(rng, 4)
            q = random_pmf(rng, 4)
            assert kl_divergence(p, q) >= -1e-12

    def test_merging_symbols_cannot_increase_divergence(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = random_pmf(rng, 4)
            q = random_pmf(rng, 4)
            full = kl_divergence(p, q)
            i, j = rng.choice(4, size=2, replace=False)
            keep = [k for k in range(4) if k not in (i, j)]
            pm = Pmf(np.concatenate([[p.probs[i] + p.probs[j]], p.probs[keep]]))
            qm = Pmf(np.concatenate([[q.probs[i] + q.probs[j]], q.probs[keep]]))
            assert kl_divergence(pm, qm) <= full + 1e-10

    def test_tv_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            p, q, r = (random_pmf(rng, 5) for _ in range(3))
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestJointJson:
    def test_round_trip(self):
        j = dsbs_joint(0.1)
        d = joint_to_dict(j)
        back = joint_from_dict(json.loads(json.dumps(d)))
        np.testing.assert_array_equal(back.probs, j.probs)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            joint_from_dict({"nx": 2, "ny": 1, "probs": [1.5, -0.5]})

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            joint_from_dict({"nx": 2, "ny": 1, "probs": [0.6, 0.5]})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            joint_from_dict(json.loads('{"nx": 3, "ny": 1, "probs": [NaN, 0.5, 0.5]}'))

    def test_rescales_small_drift(self):
        j = joint_from_dict({"nx": 2, "ny": 1, "probs": [0.5, 0.5 + 3e-10]})
        assert j.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            joint_from_dict({"nx": 2, "ny": 2, "probs": [0.5, 0.5]})


# ---------------------------------------------------------------------------
# feature-major sums and the one-pass entropies
# ---------------------------------------------------------------------------

SUM_LENGTHS = list(range(1, 34)) + [64, 127, 128, 129, 136, 255, 256, 257, 1000]


class TestLeadSum:
    @pytest.mark.parametrize("n", SUM_LENGTHS)
    def test_pairwise_matches_a_contiguous_numpy_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.random((5, n)) * rng.choice([1e-12, 1.0, 1e8], size=(5, n)) * rng.choice([-1.0, 1.0], size=(5, n))
        got = lead_sum(np.ascontiguousarray(a.T), pairwise=True)
        assert got.tobytes() == a.sum(axis=1).tobytes()

    @pytest.mark.parametrize("n", SUM_LENGTHS)
    def test_in_order_matches_a_strided_numpy_sum(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.random((4, n, 3)) * rng.choice([1e-12, 1.0, 1e8], size=(4, n, 3))
        out = np.empty((3, 4))
        lead_sum(np.ascontiguousarray(a.transpose(1, 2, 0)), out=out)
        assert out.T.tobytes() == np.ascontiguousarray(a.sum(axis=1)).tobytes()


class TestLayoutEntropies:
    def test_every_block_matches_entropy_rows_and_kl_rows(self):
        rng = np.random.default_rng(3)
        widths = [1, 3, 7, 8, 9, 24, 129, 5]
        layout = Layout(widths)
        log_ref = np.log2(rng.dirichlet(np.ones(widths[-1])))
        log_ref[1] = -math.inf                              # a null reference atom
        for n in (1, 7, 193):
            vecs = [rng.random((n, w)) for w in widths]
            for v in vecs:
                v[rng.random(v.shape) < 0.25] = 0.0         # 0 * log2 0
                v[n // 2] = np.nan                         # a NaN row counts as 0
            vecs[-1][0, 1] = 0.3                            # charges the null atom: +inf
            m = layout.block(n)
            for rows, v in zip(layout.rows, vecs):
                m[rows] = v.T
            got = layout.entropies(m, log_ref)
            for g, v in zip(got[:-1], vecs[:-1]):
                assert g.tobytes() == entropy_rows(v).tobytes()
            with np.errstate(invalid="ignore"):
                assert got[-1].tobytes() == kl_rows(vecs[-1], log_ref).tobytes()
            assert got[-1][0] == math.inf
            plain = layout.entropies(m)                    # without log_ref the last is an entropy
            assert plain[-1].tobytes() == entropy_rows(vecs[-1]).tobytes()

    def test_results_are_not_views_of_the_workspace(self):
        layout = Layout([2, 3])
        m = layout.block(4)
        m[layout.rows[0]] = 0.5
        m[layout.rows[1]] = 1.0 / 3.0
        first = layout.entropies(m)
        kept = first.copy()
        m = layout.block(4)
        m[layout.rows[0]] = 1.0
        m[layout.rows[1]] = 0.0
        layout.entropies(m)
        assert first.tobytes() == kept.tobytes()


class TestYContract:
    # einsum adds a strided y in order and a contiguous one (a single u)
    # in its own vector order; both must come out bit for bit
    @pytest.mark.parametrize("ny", [1, 2, 3, 5, 9, 12])
    @pytest.mark.parametrize("nu", [1, 2, 3, 9])
    def test_matches_einsum(self, ny, nu):
        rng = np.random.default_rng(10 * ny + nu)
        for nx, n in ((1, 1), (2, 7), (9, 83), (3, 10000)):
            table = rng.random((nx, ny)) * rng.choice([1e-9, 1.0, 1e5], size=(nx, ny))
            w = rng.random((n, ny, nu)) * rng.choice([1e-9, 1.0, 1e5], size=(n, ny, nu))
            w[rng.random(w.shape) < 0.2] = 0.0
            want = np.einsum("byu,xy->bux", w, table)
            got = y_contract(np.ascontiguousarray(w.transpose(1, 2, 0)), table)
            assert np.ascontiguousarray(got.transpose(2, 0, 1)).tobytes() == want.tobytes()
