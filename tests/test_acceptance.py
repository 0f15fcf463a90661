"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Every tolerance here is pinned; the solver configs are sized so the whole
module stays within its runtime budgets on a laptop.  Run with ``pytest -s``
to see the per-criterion lines inline.
"""

import time
import warnings

import numpy as np
import pytest

from wakexp.cli import main as cli_main
from wakexp.dsbs import figure2_sweep
from wakexp.pa_bound import pa_bound_from_exponent
from wakexp.probkit import (
    AuxJointPmf,
    JointPmf2,
    Pmf,
    binary_entropy,
    entropy,
)
from wakexp.reductions import (
    OohamaEvaluator,
    exponent_ne,
    exponent_single_direct,
    exponent_single_parametric,
    gap_check,
    oohama_single,
)
from wakexp.simplex_optim import SolverConfig
from wakexp.wak_exponent import (
    RatePair,
    UpperBoundWarning,
    region_contains,
    soft_markov_decompose,
    wak_divergence_term,
    wak_exponent,
)

warnings.simplefilter("ignore", UpperBoundWarning)

ACC_CFG = SolverConfig(grid_resolution=12, starts=16, seed=2718)


def dsbs(p):
    d, o = (1 - p) / 2, p / 2
    return JointPmf2([[d, o], [o, d]])


def random_pmf(rng, k):
    e = rng.exponential(size=k)
    return Pmf(e / e.sum())


def random_joint(rng, nx, ny):
    e = rng.exponential(size=(nx, ny))
    return JointPmf2(e / e.sum())


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_decomposition_identity(capsys):
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        nu, nx, ny = rng.integers(1, 4, size=3)
        t = rng.exponential(size=(nu, nx, ny))
        a = AuxJointPmf(t / t.sum())
        src = random_joint(rng, nx, ny)
        kl, cond_mi = soft_markov_decompose(a, src)
        worst = max(worst, abs(wak_divergence_term(a, src) - (kl + cond_mi)))
    report(
        capsys,
        "01 decomposition identity",
        worst <= 1e-10,
        f"max deviation {worst:.2e} over 1000 instances in {time.time()-t0:.1f}s",
    )


def _fifty_sources():
    rng = np.random.default_rng(202)
    return [random_pmf(rng, 2 + i % 3) for i in range(50)]


def test_02_parametric_equivalence(capsys):
    t0 = time.time()
    worst = 0.0
    for p in _fifty_sources():
        h = entropy(p)
        for frac in np.linspace(0.0, 1.0, 11):
            r1 = float(frac * h)
            diff = abs(
                exponent_single_direct(p, r1) - exponent_single_parametric(p, r1)
            )
            worst = max(worst, diff)
    report(
        capsys,
        "02 parametric equivalence",
        worst <= 5e-14,
        f"max |direct - parametric| {worst:.2e} in {time.time()-t0:.1f}s",
    )


def test_03_uniform_closed_form(capsys):
    t0 = time.time()
    p = Pmf([0.5, 0.5])
    worst = 0.0
    for r1 in (0.0, 0.25, 0.5, 0.75):
        worst = max(worst, abs(exponent_single_direct(p, r1) - (1.0 - r1)))
        worst = max(worst, abs(exponent_single_parametric(p, r1) - (1.0 - r1)))
    report(
        capsys,
        "03 uniform closed form",
        worst <= 1e-12,
        f"max |value - (1 - r1)| {worst:.2e} in {time.time()-t0:.1f}s",
    )


def test_04_strict_gap(capsys):
    t0 = time.time()
    min_gap = np.inf
    count = 0
    for p in _fifty_sources():
        h = entropy(p)
        for frac in np.linspace(0.0, 1.0, 11):
            r1 = float(frac * h)
            if r1 > h - 0.05:
                continue
            min_gap = min(min_gap, gap_check(p, r1).gap)
            count += 1
    anchor = gap_check(Pmf([0.5, 0.5]), 0.5)
    anchors_ok = abs(anchor.f_oohama - 1 / 6) <= 1e-12 and abs(anchor.f_tight - 0.5) <= 1e-12
    report(
        capsys,
        "04 strict comparison gap",
        min_gap >= 1e-3 and anchors_ok,
        f"min gap {min_gap:.2e} over {count} cases, uniform anchors "
        f"({anchor.f_oohama:.5f}, {anchor.f_tight:.5f}) in {time.time()-t0:.1f}s",
    )


def test_05_single_user_reduction(capsys):
    t0 = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(10):
        k = 2 + i % 3
        p = random_pmf(rng, k)
        src = JointPmf2(p.probs[:, None])
        h = entropy(p)
        for frac in (0.0, 0.3, 0.6, 0.9):
            r1 = float(frac * h)
            b = wak_exponent(src, RatePair(r1, 1.0), ACC_CFG, nu=k + 2)
            worst = max(worst, abs(b.value - exponent_single_direct(p, r1)))
    report(
        capsys,
        "05 single-user reduction",
        worst <= 1e-10,
        f"max |general - single| {worst:.2e} over 40 solves in {time.time()-t0:.1f}s",
    )


def test_06_non_encoded_reduction(capsys):
    t0 = time.time()
    rng = np.random.default_rng(404)
    sources = [random_joint(rng, 2, 2) for _ in range(5)]
    worst = 0.0
    for src in sources:
        r1 = float(rng.uniform(0.0, 1.0))
        b = wak_exponent(src, RatePair(r1, 2.0), ACC_CFG)
        worst = max(worst, abs(b.value - exponent_ne(src, r1)))
    report(
        capsys,
        "06 non-encoded reduction",
        worst <= 1e-12,
        f"max |general - non-encoded| {worst:.2e} over 5 sources in {time.time()-t0:.1f}s",
    )


def test_07_zero_positivity(capsys):
    t0 = time.time()
    src = dsbs(0.1)
    rng = np.random.default_rng(505)
    inside_max = 0.0
    outside_min = np.inf
    n_in = n_out = 0
    for _ in range(20):
        r1 = float(rng.uniform(0.0, 1.1))
        r2 = float(rng.uniform(0.0, 1.1))
        from wakexp.wak_exponent import region_min_r1

        min_r1 = region_min_r1(src, r2, ACC_CFG)
        value = wak_exponent(src, RatePair(r1, r2), ACC_CFG).value
        if region_contains(src, RatePair(r1, r2), ACC_CFG):
            inside_max = max(inside_max, value)
            n_in += 1
        elif r1 <= min_r1 - 0.05:
            outside_min = min(outside_min, value)
            n_out += 1
    ok = inside_max <= 1e-14 and (n_out == 0 or outside_min >= 1e-3)
    report(
        capsys,
        "07 zero inside, positive outside",
        ok and n_in > 0 and n_out > 0,
        f"{n_in} inside (max {inside_max:.2e}), {n_out} outside with margin "
        f"(min {outside_min:.2e}) in {time.time()-t0:.1f}s",
    )


def test_08_markov_restriction_sweep(capsys):
    t0 = time.time()
    r2 = 1.0 - binary_entropy(0.2)
    points = figure2_sweep(0.1, r2, [0.05 * k for k in range(21)])
    dominance = all(p.constrained >= p.unconstrained - 1e-9 for p in points)
    monotone = all(
        a.unconstrained >= b.unconstrained - 1e-12
        and a.constrained >= b.constrained - 1e-12
        for a, b in zip(points, points[1:])
    )
    ends_zero = abs(points[-1].unconstrained) <= 1e-9 and abs(points[-1].constrained) <= 1e-9
    max_gap = max(p.constrained - p.unconstrained for p in points)
    report(
        capsys,
        "08 restriction sweep shape",
        dominance and monotone and ends_zero and max_gap > 1e-3,
        f"dominance {dominance}, monotone {monotone}, zero ends {ends_zero}, "
        f"max gap {max_gap:.4f} in {time.time()-t0:.1f}s",
    )


def test_09_comparison_bound_dominance(capsys):
    t0 = time.time()
    rng = np.random.default_rng(606)
    sources = [dsbs(0.1), random_joint(rng, 2, 2)]
    worst = -np.inf
    checked = 0
    for src in sources:
        evaluator = OohamaEvaluator(src)
        for _ in range(5):
            r1 = float(rng.uniform(0.0, 1.0))
            r2 = float(rng.uniform(0.0, 1.0))
            lower = evaluator.bound(r1, r2)
            tight = wak_exponent(src, RatePair(r1, r2), ACC_CFG).value
            worst = max(worst, lower - tight)
            checked += 1
    report(
        capsys,
        "09 comparison bound dominance",
        worst <= 1e-12,
        f"max (bound - exponent) {worst:.2e} over {checked} pairs in {time.time()-t0:.1f}s",
    )


def test_10_security_bound_arithmetic(capsys):
    t0 = time.time()
    rep = pa_bound_from_exponent(0.05, r1=0.3, r2=0.2, delta=0.02, n=100)
    exact = abs(rep.total - 0.28125) <= 1e-12 * 0.28125
    doubled = pa_bound_from_exponent(0.05, r1=0.3, r2=0.2, delta=0.02, n=200)
    report(
        capsys,
        "10 security bound arithmetic",
        exact and doubled.total < rep.total,
        f"total {rep.total!r}, doubling to n=200 gives {doubled.total!r} "
        f"in {time.time()-t0:.2f}s",
    )


def test_11_cli_determinism(capsys, monkeypatch):
    t0 = time.time()
    monkeypatch.setenv("WAK_THREADS", "1")
    fast = ["--starts", "6", "--max-iterations", "600", "--seed", "7"]
    invocations = [
        ["exponent", "--source", "dsbs:0.1", "--r1", "0.5", "--r2", "0.2781", *fast],
        ["region", "--source", "dsbs:0.1", "--r2", "0.5", *fast],
        ["region", "--source", "dsbs:0.1", "--r2-grid", "0:1:0.5", *fast],
        ["ne", "--source", "dsbs:0.1", "--r1", "0.3", *fast],
        ["single", "--pmf", "[0.9,0.1]", "--r1", "0.2", *fast],
        ["oohama", "--pmf", "[0.9,0.1]", "--r1", "0.2", *fast],
        ["oohama", "--source", "dsbs:0.1", "--r1", "0.3", "--r2", "0.4", *fast],
        ["gap", "--pmf", "[0.8,0.2]", "--r1", "0.3", *fast],
        ["dsbs", "--p", "0.1", "--r1", "0.4", "--r2", "0.2781", *fast],
        ["fig2", "--p", "0.1", "--r2", "auto", "--r1-grid", "0:1:0.25", *fast],
        ["pa", "--source", "dsbs:0.1", "--r1", "0.2", "--r2", "0.3",
         "--delta", "0.05", "--n", "64", *fast],
        ["pa-tradeoff", "--source", "dsbs:0.1", "--target", "1.6", "--n", "32",
         "--delta", "0.05", "--r2-grid", "0.2:0.6:0.4", "--r1-grid", "0:0.4:0.2", *fast],
    ]
    stable = True
    for argv in invocations:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            stable = False
            break
    report(
        capsys,
        "11 CLI determinism",
        stable,
        f"{len(invocations)} subcommand invocations replayed byte-identically "
        f"in {time.time()-t0:.1f}s",
    )
