"""Unit tests for the privacy-amplification security bound."""

import json
import math

import numpy as np
import pytest

from wakexp import pa_bound
from wakexp.pa_bound import (
    CSV_HEADER,
    PaBoundReport,
    pa_bound_from_exponent,
    pa_generic_bound,
    pa_rate_tradeoff,
    pa_security_bound,
    tradeoff_csv_rows,
)
from wakexp.probkit import DomainError, JointPmf2
from wakexp.simplex_optim import SolverConfig
from wakexp.wak_exponent import RatePair, wak_exponent

CFG = SolverConfig(grid_resolution=12, starts=8, seed=5)


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


class TestGenericBound:
    def test_zero_tail_balanced_hash(self):
        assert pa_generic_bound(0.0, tau=100.0, n=10, r1=10.0) == 0.5

    def test_direct_arithmetic(self):
        n = 16
        v = pa_generic_bound(0.1, tau=n * 0.5 + 2 * n, n=n, r1=0.5)
        assert v == pytest.approx(0.1 + 0.5 * 2.0 ** (-n), abs=1e-15)

    def test_vacuous_direction(self):
        assert pa_generic_bound(0.0, tau=0.0, n=10, r1=1.0) > 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            pa_generic_bound(1.5, tau=1.0, n=1, r1=0.0)
        with pytest.raises(DomainError):
            pa_generic_bound(0.5, tau=-1.0, n=1, r1=0.0)

    def test_nan_inputs_rejected(self):
        for kwargs in ({"tau": math.nan, "n": 10, "r1": 0.1}, {"tau": 1.0, "n": 10, "r1": math.nan}):
            with pytest.raises(DomainError):
                pa_generic_bound(0.1, **kwargs)
        with pytest.raises(DomainError):
            pa_generic_bound(math.nan, tau=1.0, n=10, r1=0.1)


class TestReportArithmetic:
    def test_exact_reference_point(self):
        rep = pa_bound_from_exponent(0.05, r1=0.3, r2=0.2, delta=0.02, n=100)
        assert rep.tail_term == 2.0 ** (-5)
        assert rep.hash_term == 0.25
        assert rep.total == 0.28125
        assert rep.log2_tail_term == -5.0
        assert rep.log2_hash_term == -2.0

    def test_split_exactness_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rep = pa_bound_from_exponent(
                float(rng.uniform(0, 0.5)),
                r1=0.1,
                r2=0.1,
                delta=float(rng.uniform(1e-4, 0.5)),
                n=int(rng.integers(1, 10000)),
            )
            assert rep.total == rep.tail_term + rep.hash_term
            if rep.total > 0:
                assert abs(rep.total - (rep.tail_term + rep.hash_term)) / rep.total <= 1e-15

    def test_log_fields_survive_huge_blocklength(self):
        rep = pa_bound_from_exponent(0.05, r1=0.3, r2=0.2, delta=0.02, n=1_000_000)
        assert rep.tail_term == 0.0  # linear field underflows
        assert rep.log2_tail_term == -50_000.0
        assert rep.log2_hash_term == -10_001.0
        assert rep.log2_total == pytest.approx(-10_001.0, abs=1e-9)

    def test_vacuous_flag(self):
        rep = pa_bound_from_exponent(0.0, r1=0.3, r2=0.2, delta=0.02, n=10)
        assert rep.vacuous
        assert rep.total > 1.0

    def test_monotone_in_blocklength(self):
        n = 8
        prev = None
        while n <= 1024:
            rep = pa_bound_from_exponent(0.011, r1=0.3, r2=0.2, delta=0.05, n=n)
            if prev is not None:
                assert rep.total < prev
            prev = rep.total
            n *= 2

    def test_doubling_decay_rate(self):
        exponent, delta = 0.05, 0.02
        for n in (50, 100, 400):
            a = pa_bound_from_exponent(exponent, r1=0.1, r2=0.1, delta=delta, n=n)
            b = pa_bound_from_exponent(exponent, r1=0.1, r2=0.1, delta=delta, n=2 * n)
            drop = a.log2_total - b.log2_total
            assert drop >= min(n * exponent, n * delta / 2.0) - 1.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            pa_bound_from_exponent(0.1, r1=0.1, r2=0.1, delta=0.0, n=10)
        with pytest.raises(DomainError):
            pa_bound_from_exponent(0.1, r1=0.1, r2=0.1, delta=0.1, n=0)

    def test_nan_delta_and_exponent_rejected(self):
        with pytest.raises(DomainError):
            pa_bound_from_exponent(0.1, r1=0.1, r2=0.1, delta=math.nan, n=10)
        # an infinite slack once gave a report with hash term 0
        with pytest.raises(DomainError, match="delta"):
            pa_bound_from_exponent(0.1, r1=0.1, r2=0.1, delta=math.inf, n=10)
        with pytest.raises(DomainError):
            pa_bound_from_exponent(math.nan, r1=0.1, r2=0.1, delta=0.1, n=10)

    def test_rounding_negative_zero_exponent_accepted(self):
        # solvers report a zero exponent as about -1e-16; it stays a valid input
        rep = pa_bound_from_exponent(-2e-16, r1=0.1, r2=0.1, delta=0.1, n=10)
        assert rep.vacuous

    def test_total_guard(self):
        with pytest.raises(ValueError):
            PaBoundReport(
                n=1, r1=0.1, r2=0.1, delta=0.1, exponent=0.1,
                tail_term=0.5, hash_term=0.25, total=0.8,
                log2_tail_term=-1.0, log2_hash_term=-2.0, log2_total=-0.5,
                vacuous=False,
            )

    def test_json_round_trip(self):
        rep = pa_bound_from_exponent(0.05, r1=0.3, r2=0.2, delta=0.02, n=100)
        d = json.loads(json.dumps(rep.to_dict()))
        assert d["total"] == 0.28125
        assert d["vacuous"] is False


class TestSecurityBound:
    def test_exponent_copied_bit_for_bit(self):
        src = dsbs(0.1)
        rep = pa_security_bound(src, 0.2, 0.3, 0.05, 64, config=CFG)
        direct = wak_exponent(src, RatePair(0.25, 0.3), CFG)
        assert rep.exponent == direct.value

    def test_inside_region_is_vacuous(self):
        src = dsbs(0.1)
        rep = pa_security_bound(src, 0.95, 1.0, 0.05, 100, config=CFG)
        assert rep.exponent <= 2e-3
        assert rep.vacuous

    def test_delta_validation(self):
        with pytest.raises(DomainError):
            pa_security_bound(dsbs(0.1), 0.2, 0.3, -0.01, 100, config=CFG)
        with pytest.raises(DomainError):
            pa_security_bound(dsbs(0.1), 0.2, 0.3, math.nan, 100, config=CFG)
        # an infinite slack once reached RatePair(r1 + delta, r2) and named r1
        with pytest.raises(DomainError, match="delta"):
            pa_security_bound(dsbs(0.1), 0.2, 0.3, math.inf, 100, config=CFG)

    @pytest.mark.parametrize("n", [0, -3, math.nan])
    def test_blocklength_is_checked_before_the_solve(self, monkeypatch, n):
        def unreachable(*args, **kwargs):
            raise AssertionError("the exponent was solved before n was checked")

        monkeypatch.setattr(pa_bound, "wak_exponent", unreachable)
        with pytest.raises(DomainError, match="blocklength"):
            pa_security_bound(dsbs(0.1), 0.2, 0.3, 0.05, n, config=CFG)


class TestRateTradeoff:
    def test_vacuous_target_takes_top_of_grid(self):
        src = dsbs(0.1)
        cols = pa_rate_tradeoff(
            src, 1.6, 32, 0.05, [0.2, 0.6], [0.0, 0.2, 0.4], config=CFG
        )
        assert [c[:2] for c in cols] == [(0.2, 0.4), (0.6, 0.4)]

    def test_tiny_target_returns_nothing(self):
        src = dsbs(0.1)
        n, delta = 32, 0.05
        floor = 0.5 * 2.0 ** (-n * delta / 2)
        cols = pa_rate_tradeoff(
            src, floor * 0.5, n, delta, [0.2], [0.0, 0.2], config=CFG
        )
        assert cols == []

    def test_large_blocklength_meets_strict_target(self):
        src = dsbs(0.1)
        cols = pa_rate_tradeoff(
            src, 1e-6, 4000, 0.05, [0.2], [0.1, 0.2], config=CFG
        )
        assert cols and cols[0][1] >= 0.1

    def test_infinite_delta_rejected(self):
        with pytest.raises(DomainError, match="delta"):
            pa_rate_tradeoff(dsbs(0.1), 1.6, 32, math.inf, [0.2], [0.0], config=CFG)

    def test_csv_rows(self):
        rows = tradeoff_csv_rows([(0.2, 0.4, 0.125), (0.6, 0.4, 0.0625)])
        assert rows[0] == CSV_HEADER
        assert rows[1] == "0.200000,0.400000,0.125000"
