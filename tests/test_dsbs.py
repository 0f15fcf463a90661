"""Unit tests for the binary symmetric study family."""

import itertools
import warnings

import numpy as np
import pytest

from wakexp.dsbs import (
    CSV_HEADER,
    DsbsParams,
    DsbsPoint,
    dsbs_constraint_value,
    dsbs_exponent,
    dsbs_objective,
    dsbs_pair,
    dsbs_source,
    fig2_csv_rows,
    figure2_sweep,
)
from wakexp.probkit import (
    AuxJointPmf,
    DomainError,
    aux_measures,
    binary_entropy,
    binary_kl,
    mutual_information,
)
from wakexp.simplex_optim import SearchDomain, Simplex, SolverConfig, grid_search
from wakexp.wak_exponent import RatePair, region_contains, wak_exponent, wak_objective

R2_STUDY = 1.0 - binary_entropy(0.2)

PINNED_PAIRS = {
    # name: (p, r1, r2, then the value and argmin hex of the unrestricted
    # and of the Markov variant)
    "0.1-study-0.3": (
        0.1, 0.3, R2_STUDY,
        "0x1.b00deb23381edp-2", ["0x1.2406df9780000p-3", "0x1.96eeaeedbaf3cp-8", "0x1.53f3b02da9e2fp-1"],
        "0x1.2032c9d63748dp-1", ["0x1.809ed0f000000p-5", "0x1.c6d1a590de0bcp-8"],
    ),
    "0.1-0.2781-0.6": (
        0.1, 0.6, 0.2781,
        "0x1.fd052bef5fa5dp-4", ["0x1.99923c3e00000p-3", "0x1.64ff1701c5ea7p-6", "0x1.6d28fc4291605p-2"],
        "0x1.df365ab7e3fecp-3", ["0x1.0655bc7e80000p-3", "0x1.8cb055c8b294ep-6"],
    ),
    "0.2-0.5-0.45": (
        0.2, 0.45, 0.5,
        "0x1.574ff9a92f1cbp-3", ["0x1.c2ac93f700000p-4", "0x1.95b14b54b5bf5p-5", "0x1.173957bf20b13p-1"],
        "0x1.4f130a240c827p-2", ["0x1.2aa4c90980000p-4", "0x1.965f60f06e84dp-6"],
    ),
    "0.1-0.2781-0.5": (
        0.1, 0.5, 0.2781,
        "0x1.c67381d7dbf3ap-3", ["0x1.8111d4ca80000p-3", "0x1.bc06af5e49596p-7", "0x1.e4b17cb69e46fp-2"],
        "0x1.62b17c3b6921ap-2", ["0x1.8af5ae9580000p-4", "0x1.141ae072ff46fp-6"],
    ),
    "0.2-0-0.2": (
        0.2, 0.2, 0.0,
        "0x1.9999999999995p-1", ["0x1.bfd8820300000p-3", "0x1.0510d3865fe98p-7", "0x1.c5b36189e261bp-1"],
        "0x1.1c23b1c307b11p+0", ["0x1.8fc9438000000p-6", "0x1.cf3c13b59d63bp-8"],
    ),
}


def _xlogy(a, b):
    # a log2(a / b), 0 where a = 0
    return np.where(a > 0.0, a * np.log2(np.where(a > 0.0, a, 1.0) / b), 0.0)


def lattice_oracle(p, r1, r2, markov, resolution=60):
    """Feasible minimum of the family over the lattice of (beta, q0, q1)
    with the given denominator, each parameter the pmf (t, 1 - t)."""

    def h(a):
        return -(_xlogy(a, 1.0) + _xlogy(1.0 - a, 1.0))

    def div(q):
        return _xlogy(q, p) + _xlogy(1.0 - q, 1.0 - p)

    def evaluate(pts):
        beta, q0 = pts[:, 0], pts[:, 2]
        q1 = q0 if markov else pts[:, 4]
        value = (1.0 - beta) * div(q0) + beta * div(q1) + np.maximum(1.0 - h(beta) - r2, 0.0)
        return value, np.maximum(h((1.0 - beta) * (1.0 - q0) + beta * q1) - r1, 0.0)

    domain = SearchDomain([Simplex(2)] * (2 if markov else 3))
    return grid_search(domain, resolution, evaluate).value


class TestSource:
    def test_entries_and_marginals(self):
        j = dsbs_source(0.1)
        np.testing.assert_allclose(j.probs, [[0.45, 0.05], [0.05, 0.45]])
        np.testing.assert_allclose(j.marginal_x().probs, [0.5, 0.5])
        np.testing.assert_allclose(j.marginal_y().probs, [0.5, 0.5])

    def test_mutual_information(self):
        assert mutual_information(dsbs_source(0.1)) == pytest.approx(
            1.0 - binary_entropy(0.1), abs=1e-12
        )

    def test_boundaries_rejected(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(DomainError):
                dsbs_source(bad)


class TestObjectiveAndConstraint:
    def test_constructed_zero(self):
        params = DsbsParams(0.1, 0.2, 0.1, 0.1)
        assert dsbs_objective(params, R2_STUDY) == pytest.approx(0.0, abs=1e-12)

    def test_rate_term_inactive_when_beta_scrambles(self):
        params = DsbsParams(0.1, 0.5, 0.1, 0.1)
        assert dsbs_objective(params, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_divergence_only_case(self):
        params = DsbsParams(0.1, 0.0, 0.2, 0.9)
        assert dsbs_objective(params, 1.0) == pytest.approx(
            binary_kl(0.2, 0.1), abs=1e-12
        )

    def test_constraint_values(self):
        assert dsbs_constraint_value(DsbsParams(0.1, 0.0, 0.0, 0.3)) == 0.0
        assert dsbs_constraint_value(DsbsParams(0.1, 0.2, 0.1, 0.1)) == pytest.approx(
            binary_entropy(0.26), abs=1e-12
        )
        assert dsbs_constraint_value(DsbsParams(0.1, 0.3, 0.5, 0.5)) == 1.0

    def test_relabeling_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            beta, q0, q1 = rng.random(3)
            a = DsbsParams(0.1, beta, q0, q1)
            b = DsbsParams(0.1, 1.0 - beta, q1, q0)
            assert dsbs_objective(a, 0.4) == pytest.approx(dsbs_objective(b, 0.4), abs=1e-12)
            assert dsbs_constraint_value(a) == pytest.approx(
                dsbs_constraint_value(b), abs=1e-12
            )

    def test_family_embeds_as_a_two_letter_auxiliary(self):
        # P(u, x, y) = 1/2 [beta if u != y else 1 - beta] [q if x != y else 1 - q],
        # q = q1 where u != y and q0 where u = y: every family value is a
        # value of the general objective, so an upper bound on the exponent
        rng = np.random.default_rng(14)
        for _ in range(50):
            p = 0.01 + 0.48 * rng.random()
            beta, q0, q1, r2 = rng.random(4)
            params = DsbsParams(p, beta, q0, q1)
            t = np.zeros((2, 2, 2))
            for u, x, y in itertools.product(range(2), repeat=3):
                q = q1 if u != y else q0
                t[u, x, y] = 0.5 * (beta if u != y else 1.0 - beta) * (q if x != y else 1.0 - q)
            aux = AuxJointPmf(t)
            assert wak_objective(aux, dsbs_source(p), r2) == pytest.approx(
                dsbs_objective(params, r2), abs=1e-12
            )
            assert aux_measures(aux).h_x_given_u == pytest.approx(
                dsbs_constraint_value(params), abs=1e-12
            )

    def test_params_validation(self):
        with pytest.raises(DomainError):
            DsbsParams(0.5, 0.1, 0.1, 0.1)
        with pytest.raises(DomainError):
            DsbsParams(0.1, 1.2, 0.1, 0.1)


class TestExponent:
    def test_vacuous_constraint_gives_zero(self):
        for markov in (False, True):
            val, params = dsbs_exponent(0.1, 1.0, R2_STUDY, markov)
            assert abs(val) <= 1e-12
            assert dsbs_constraint_value(params) <= 1.0 + 1e-12

    def test_constructed_witness_zero(self):
        r1 = binary_entropy(0.26) + 1e-9
        val, params = dsbs_exponent(0.1, r1, R2_STUDY, markov_constrained=True)
        assert abs(val) <= 1e-12
        assert dsbs_constraint_value(params) <= r1 + 1e-9

    def test_markov_restriction_strictly_binds_midrange(self):
        unc, _ = dsbs_exponent(0.1, 0.5, R2_STUDY, False)
        con, _ = dsbs_exponent(0.1, 0.5, R2_STUDY, True)
        assert con - unc > 1e-3

    def test_restriction_dominance(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            r1, r2 = rng.random(2)
            unc, _ = dsbs_exponent(0.1, r1, r2, False)
            con, _ = dsbs_exponent(0.1, r1, r2, True)
            assert con >= unc - 1e-9

    def test_pair_keeps_the_markov_argmin_where_lower(self, monkeypatch):
        import wakexp.dsbs as mod

        solve = mod.dsbs_exponent

        def worse_unrestricted(p, r1, r2, markov_constrained=False):
            val, par = solve(p, r1, r2, markov_constrained)
            return (val, par) if markov_constrained else (val + 1.0, par)

        monkeypatch.setattr(mod, "dsbs_exponent", worse_unrestricted)
        con, con_par = solve(0.1, 0.5, R2_STUDY, True)
        pt = mod.dsbs_pair(0.1, 0.5, R2_STUDY)
        assert pt.unconstrained == pt.constrained == con
        assert pt.argmin_unconstrained == (con_par.beta, con_par.q0, con_par.q1)

    def test_argmin_is_feasible_and_consistent(self):
        val, params = dsbs_exponent(0.1, 0.4, R2_STUDY, False)
        assert dsbs_constraint_value(params) <= 0.4 + 1e-9
        assert dsbs_objective(params, R2_STUDY) == pytest.approx(val, abs=1e-12)

    def test_consistency_with_general_engine(self):
        src = dsbs_source(0.1)
        cfg = SolverConfig(grid_resolution=12, starts=16, seed=11)
        from wakexp.wak_exponent import UpperBoundWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UpperBoundWarning)
            for r1 in (0.2, 0.5, 0.8):
                family, _ = dsbs_exponent(0.1, r1, R2_STUDY, False)
                general = wak_exponent(src, RatePair(r1, R2_STUDY), cfg, nu=2).value
                assert family >= general - 1e-4

    def test_values_at_or_below_zero_read_plus_zero(self):
        # a zero objective reads +0.0, whatever the sign of its rounding
        for markov in (False, True):
            val, _ = dsbs_exponent(0.1, 0.9, 0.2781, markov)
            assert val.hex() == "0x0.0p+0"
        pt = dsbs_pair(0.1, 0.9, 0.2781)
        assert (pt.unconstrained.hex(), pt.constrained.hex()) == ("0x0.0p+0", "0x0.0p+0")

    @pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
    def test_pinned_pairs(self, name):
        p, r1, r2, unc, arg_u, con, arg_c = PINNED_PAIRS[name]
        pt = dsbs_pair(p, r1, r2)
        assert (pt.unconstrained.hex(), [v.hex() for v in pt.argmin_unconstrained]) == (unc, arg_u)
        assert (pt.constrained.hex(), [v.hex() for v in pt.argmin_constrained]) == (con, arg_c)

    @pytest.mark.parametrize(
        "p, r1, r2",
        [(0.1, 0.0, R2_STUDY), (0.1, 0.5, R2_STUDY), (0.2, 0.3, 0.5), (0.05, 0.7, 0.1), (0.3, 0.15, 0.8)],
    )
    def test_at_most_the_lattice_oracle(self, p, r1, r2):
        for markov in (False, True):
            val, _ = dsbs_exponent(p, r1, r2, markov)
            assert val <= lattice_oracle(p, r1, r2, markov) + 1e-12

    def test_zero_set_matches_region_membership(self):
        src = dsbs_source(0.1)
        cfg = SolverConfig(grid_resolution=12, starts=12, seed=12)
        for r1, r2 in ((0.9, 0.9), (0.85, R2_STUDY), (0.3, 0.6), (0.55, 0.2)):
            val, _ = dsbs_exponent(0.1, r1, r2, False)
            if region_contains(src, RatePair(r1, r2), cfg):
                assert val <= 2e-3
            else:
                assert val > 0.0


class TestSweep:
    def test_qualitative_shape(self):
        grid = [0.05 * k for k in range(21)]
        points = figure2_sweep(0.1, R2_STUDY, grid)
        assert len(points) == 21
        assert all(p.constrained >= p.unconstrained - 1e-9 for p in points)
        for a, b in zip(points, points[1:]):
            assert a.unconstrained >= b.unconstrained - 1e-12
            assert a.constrained >= b.constrained - 1e-12
        assert abs(points[-1].unconstrained) <= 1e-9
        assert abs(points[-1].constrained) <= 1e-9
        assert max(p.constrained - p.unconstrained for p in points) > 1e-3

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            figure2_sweep(0.1, R2_STUDY, [0.4, 0.2])
        with pytest.raises(DomainError):
            figure2_sweep(0.1, R2_STUDY, [0.5, 1.5])
        with pytest.raises(DomainError):
            figure2_sweep(0.1, R2_STUDY, [0.2, float("nan")])

    def test_nan_rates_rejected(self):
        for r1, r2 in ((float("nan"), 0.3), (0.3, float("nan"))):
            with pytest.raises(DomainError):
                dsbs_exponent(0.1, r1, r2)

    def test_point_type_guards_dominance(self):
        with pytest.raises(ValueError):
            DsbsPoint(0.1, 0.5, 0.4, (0, 0, 0), (0, 0))

    def test_csv_rows(self):
        points = figure2_sweep(0.1, R2_STUDY, [0.0, 0.5, 1.0])
        rows = fig2_csv_rows(points)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 4
        for row in rows[1:]:
            cells = row.split(",")
            assert len(cells) == 8
            assert all(len(c.split(".")[1]) == 6 for c in cells)
            assert not any(c.startswith("-0.000000") for c in cells)

    def test_workers_do_not_change_results(self):
        grid = [0.0, 0.3, 0.6, 0.9]
        seq = figure2_sweep(0.1, R2_STUDY, grid, workers=1)
        par = figure2_sweep(0.1, R2_STUDY, grid, workers=2)
        for a, b in zip(seq, par):
            assert a.unconstrained == b.unconstrained
            assert a.constrained == b.constrained
            assert a.argmin_unconstrained == b.argmin_unconstrained
