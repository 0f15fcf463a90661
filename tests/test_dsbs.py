"""Unit tests for the binary symmetric study family."""

import os
import warnings

import numpy as np
import pytest

from wakexp.dsbs import (
    CSV_HEADER,
    DSBS_FAST_CONFIG,
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
from wakexp.probkit import DomainError, binary_entropy, binary_kl, mutual_information
from wakexp.simplex_optim import SolverConfig
from wakexp.wak_exponent import RatePair, region_contains, wak_exponent

R2_STUDY = 1.0 - binary_entropy(0.2)
CLI_CONFIG = SolverConfig(grid_resolution=24, starts=6, max_iterations=600, seed=7)

PINNED_PAIRS = {
    # name: (config, p, r1, r2, then the value and argmin hex of the
    # unrestricted and of the Markov variant), as the Box(0, 1) search
    # gave them before each parameter became the pmf (t, 1 - t)
    "fast-0.1-study-0.3": (
        DSBS_FAST_CONFIG, 0.1, 0.3, R2_STUDY,
        "0x1.b01b904cd0e02p-2", ["0x1.28f5c28f5c28fp-3", "0x1.9d12512f5a700p-8", "0x1.570a3d70a3d71p-1"],
        "0x1.203f5402e1290p-1", ["0x1.7a09555555555p-5", "0x1.0000000000000p-7"],
    ),
    "fast-0.1-0.2781-0.6": (
        DSBS_FAST_CONFIG, 0.1, 0.6, 0.2781,
        "0x1.fd0d096f15622p-4", ["0x1.999199999999ap-3", "0x1.5e41d94af6da0p-6", "0x1.6b791eb851eb8p-2"],
        "0x1.dfb472e0dcd84p-3", ["0x1.bd70a3d70a3d7p-1", "0x1.6484130a7830dp-6"],
    ),
    "fast-0.2-0.5-0.45": (
        DSBS_FAST_CONFIG, 0.2, 0.45, 0.5,
        "0x1.576a8e79990adp-3", ["0x1.c28f5c28f5c29p-4", "0x1.956ebf2176190p-5", "0x1.170a3d70a3d71p-1"],
        "0x1.4f5508b6871cfp-2", ["0x1.d99999999999ap-1", "0x1.701ae01f47cb8p-6"],
    ),
    "cli-0.1-0.2781-0.5": (
        CLI_CONFIG, 0.1, 0.5, 0.2781,
        "0x1.c68c2cdd3b430p-3", ["0x1.851eb851eb852p-3", "0x1.c63733a88fa80p-7", "0x1.eb851eb851eb8p-2"],
        "0x1.62da23c4c6fb6p-2", ["0x1.851eb851eb852p-4", "0x1.2ff89526d528cp-6"],
    ),
    "cli-0.2-0-0.2": (
        CLI_CONFIG, 0.2, 0.2, 0.0,
        "0x1.999d37563ee24p-1", ["0x1.c28f5c28f5c29p-3", "0x1.e95fc7c04d580p-8", "0x1.c51eb851eb852p-1"],
        "0x1.1c2758b592e28p+0", ["0x1.f333333333333p-1", "0x1.a67f5c8ab420ep-8"],
    ),
}


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
                assert family >= general - 2e-2

    def test_values_at_or_below_zero_read_plus_zero(self):
        # the searched minimum is -2**-55 here: rounding of a zero objective
        for markov in (False, True):
            val, _ = dsbs_exponent(0.1, 0.9, 0.2781, markov)
            assert val.hex() == "0x0.0p+0"
        pt = dsbs_pair(0.1, 0.9, 0.2781)
        assert (pt.unconstrained.hex(), pt.constrained.hex()) == ("0x0.0p+0", "0x0.0p+0")

    @pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
    def test_pinned_pairs(self, name):
        config, p, r1, r2, unc, arg_u, con, arg_c = PINNED_PAIRS[name]
        pt = dsbs_pair(p, r1, r2, config)
        assert (pt.unconstrained.hex(), [v.hex() for v in pt.argmin_unconstrained]) == (unc, arg_u)
        assert (pt.constrained.hex(), [v.hex() for v in pt.argmin_constrained]) == (con, arg_c)

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

    @pytest.mark.skipif(
        not os.environ.get("WAKEXP_ORACLE_TIER"),
        reason="oracle-tier sweep is a nightly job; set WAKEXP_ORACLE_TIER=1 to run",
    )
    def test_oracle_tier_sweep(self):
        from wakexp.dsbs import DSBS_ORACLE_CONFIG

        grid = [0.05 * k for k in range(21)]
        fast = figure2_sweep(0.1, R2_STUDY, grid)
        fine = figure2_sweep(0.1, R2_STUDY, grid, config=DSBS_ORACLE_CONFIG)
        for a, b in zip(fast, fine):
            assert b.constrained >= b.unconstrained - 1e-9
            assert abs(a.unconstrained - b.unconstrained) <= 1e-3
            assert abs(a.constrained - b.constrained) <= 1e-3
        assert max(p.constrained - p.unconstrained for p in fine) > 1e-3
