#!/usr/bin/env python3
"""Which structured starts of ``wak_exponent`` win where the others do not.

    python3 tools/start_ablation.py

Solves a fixed corpus once with every structured start, then once more for
each family of ``_ExponentSearch.fixed_starts`` and each searched phase with
that start left out, and prints, per family or phase, every solve whose
value rose without it and by how much.  One that never raises a value wins
nowhere alone on this corpus.  The families are:

* ``constant-u``: m(x, y) W(u|y) with one u;
* ``point-masses``: the point mass at each x (only where U = X does not fit);
* ``copy-y``: U = Y;
* ``copy-x``: U = X;
* ``x-split`` and ``y-split``: the timeshares of U = X and U = Y;
* ``copy-y-tilt``: U = Y on the minimizer q of the non-encoded exponent
  (``probkit.arimoto_dual``), only where H_q(Y) <= r2; where r1 >= H(X|Y),
  q is the source and the start is ``copy-y`` again, so leaving it out
  leaves ``copy-y`` in the batch.

The phases are the searched starts:

* ``u=x-manifold`` and ``u=y-manifold``: the points of
  ``_ExponentSearch.candidates_copy_manifolds``, U = X first where it fits
  (nu >= |X|) and U = Y last where its bisection found a feasible point;
* ``region-embed``: the embedded channel of ``_region_argmin``, replaced by
  the constant channel, whose embedding is the constant-U fixed start, so
  the main batch descends it once, as if the region start were gone.

The corpus: ``SOURCES`` = 40 random sources drawn from
``np.random.default_rng(77)``, shapes cycling through 2x2, 3x2, 4x2, 5x2
and 3x3, about a quarter of the entries zeroed, and (r1, r2) uniform on
[0, 1.2]^2; each is solved at nu = 1, 2, 4 and 5 with
``SolverConfig(starts=16, seed=2718)``, 160 solves in all (about a minute
per pass on one core).

A solve stops at the first feasible point within ``STOP_RTOL`` (relative) of its
closed-form floor: a fixed start, else a descent of the seeded batch (the
fixed and warm starts plus the seeded multistart).  Only a solve that
neither certifies runs the searched phases.  The first line after the
header counts the solves of the full pass that each of the first two
phases stopped; the rest reach the searched phases, and only those can
move in the searched-phase rows.

The families are rebuilt here with ``_ExponentSearch.embed``, and every
solve first checks that they give ``fixed_starts`` byte for byte, so the
tool stops rather than ablate a start list it does not describe.  The
removals patch ``fixed_starts``, ``candidates_copy_manifolds`` and
``_region_argmin`` from outside the package; nothing in ``src/`` knows
about them.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import wakexp  # noqa: E402
from wakexp.probkit import arimoto_dual, entropy_bits  # noqa: E402

_exponent = sys.modules["wakexp.wak_exponent"]
_ExponentSearch = _exponent._ExponentSearch
_fixed_starts = _ExponentSearch.fixed_starts
_copy_manifolds = _ExponentSearch.candidates_copy_manifolds
_compass_batch = _exponent.compass_batch

FAMILIES = ("constant-u", "point-masses", "copy-y", "copy-x", "x-split", "y-split", "copy-y-tilt")
PHASES = ("u=x-manifold", "u=y-manifold", "region-embed")
SHAPES = ((2, 2), (3, 2), (4, 2), (5, 2), (3, 3))
NUS = (1, 2, 4, 5)
SOURCES = 40
CONFIG = wakexp.SolverConfig(starts=16, seed=2718)
RISE_TOL = 1e-9


def corpus() -> list:
    """(name, table, r1, r2, nu) of every solve."""
    rng = np.random.default_rng(77)
    out = []
    for i in range(SOURCES):
        nx, ny = SHAPES[i % len(SHAPES)]
        t = rng.exponential(size=(nx, ny))
        t[rng.random(size=(nx, ny)) < 0.25] = 0.0
        t.flat[rng.integers(nx * ny)] += 0.1
        r1, r2 = rng.uniform(0.0, 1.2, size=2)
        out += [(f"s{i}-{nx}x{ny}", t / t.sum(), float(r1), float(r2), nu) for nu in NUS]
    return out


def labelled_starts(prob) -> list:
    """(family, point) of every fixed start, in ``fixed_starts`` order."""
    nx, ny, src = prob.nx, prob.ny, prob.src.probs
    px = src.sum(axis=1)
    p_y_given_x = np.divide(src, px[:, None], out=np.zeros_like(src), where=px[:, None] > 0.0)
    starts = [("constant-u", prob.embed(np.ones((1, ny)), "y"))]
    if prob.nu < nx:
        starts += [("point-masses", prob.embed(np.eye(nx)[x : x + 1], "x", p_y_given_x)) for x in range(nx) if px[x] > 0.0]
    starts += [("copy-y", prob.embed(np.eye(ny), "y")), ("copy-x", prob.embed(np.eye(nx), "x"))]
    starts += [(fam, prob.embed(prob.split_channel(on, src), on, src)) for fam, on in (("x-split", "x"), ("y-split", "y"))]
    q = arimoto_dual(src, prob.r1)[2]
    if entropy_bits(q.sum(axis=0)) <= prob.r2:
        starts.append(("copy-y-tilt", prob.embed(np.eye(ny), "y", q)))
    return [(fam, s) for fam, s in starts if s is not None]


def without(family: str | None):
    """A ``fixed_starts`` that checks the labelled list and drops ``family``."""

    def fixed_starts(prob):
        labelled = labelled_starts(prob)
        want = [s.tobytes() for s in _fixed_starts(prob)]
        if [s.tobytes() for _, s in labelled] != want:
            raise RuntimeError("labelled starts no longer match _ExponentSearch.fixed_starts")
        return [s for fam, s in labelled if fam != family]

    return fixed_starts


def without_manifold(phase: str):
    """A ``candidates_copy_manifolds`` that drops the point of ``phase``."""

    def candidates_copy_manifolds(prob, config):
        out, evaluations = _copy_manifolds(prob, config)
        labels = ["u=x-manifold"] * (prob.nu >= prob.nx) + ["u=y-manifold"]
        return [pt for label, pt in zip(labels, out) if label != phase], evaluations

    return candidates_copy_manifolds


def constant_region(src, r2, config, nu_cap=None, warm_channel=None):
    """The constant channel in place of the region search."""
    return 0.0, np.ones((1, src.ny)), 0


def solve_all(solves, dropped: str | None) -> tuple:
    """The breakdown of every solve with ``dropped`` left out, and the
    phase that stopped it: 1 a fixed start, 2 the seeded batch, 3 the
    searched starts, counted as 1 + the main-batch ``compass_batch`` calls
    of ``wak_exponent``."""
    phases = []

    def counted(*args, **kwargs):
        phases[-1] += 1
        return _compass_batch(*args, **kwargs)

    patches = [(_ExponentSearch, "fixed_starts", without(dropped)), (_exponent, "compass_batch", counted)]
    if dropped in ("u=x-manifold", "u=y-manifold"):
        patches.append((_ExponentSearch, "candidates_copy_manifolds", without_manifold(dropped)))
    if dropped == "region-embed":
        patches.append((_exponent, "_region_argmin", constant_region))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, fn in patches:
        setattr(owner, name, fn)
    breakdowns = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wakexp.UpperBoundWarning)
            for _, t, r1, r2, nu in solves:
                phases.append(1)
                breakdowns.append(wakexp.wak_exponent(wakexp.JointPmf2(t), wakexp.RatePair(r1, r2), CONFIG, nu=nu))
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return breakdowns, phases


def main():
    solves = corpus()
    breakdowns, phases = solve_all(solves, None)
    base = [b.value for b in breakdowns]
    print(f"{len(solves)} solves, {SHAPES} x nu {NUS}, {CONFIG}")
    print(
        f"{phases.count(1)} of {len(solves)} stopped at a fixed start, {phases.count(2)} after the seeded "
        f"batch; the searched-phase rows count only the other {phases.count(3)}"
    )
    for dropped in FAMILIES + PHASES:
        values = [b.value for b in solve_all(solves, dropped)[0]]
        rose = [(v - b, s) for v, b, s in zip(values, base, solves) if v > b + RISE_TOL]
        worst = max((d for d, _ in rose), default=0.0)
        print(f"\n{dropped}: {len(rose)} of {len(solves)} values rose, most by {worst:.3e}")
        for d, (name, _, r1, r2, nu) in sorted(rose, key=lambda x: -x[0]):
            print(f"  {name} r1={r1:.4f} r2={r2:.4f} nu={nu}: +{d:.3e}")


if __name__ == "__main__":
    main()
