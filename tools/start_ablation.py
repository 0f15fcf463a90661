#!/usr/bin/env python3
"""Which fixed-start families of ``wak_exponent`` win where the others do not.

    python3 tools/start_ablation.py

Solves a fixed corpus once with every fixed start, then once more for each
family of ``_ExponentSearch.fixed_starts`` with that family left out, and
prints, per family, every solve whose value rose without it and by how
much.  A family that never raises a value wins nowhere alone on this
corpus.  The families are:

* ``constant-u``: m(x, y) W(u|y) with one u;
* ``point-masses``: the point mass at each x (only where U = X does not fit);
* ``copy-y``: U = Y;
* ``copy-x``: U = X;
* ``x-split`` and ``y-split``: the timeshares of U = X and U = Y;
* ``power-tilts``: for |Y| = 1, each entropy-matched tilt as an x-split and
  under constant U.

The corpus: ``SOURCES`` = 40 random sources drawn from
``np.random.default_rng(77)``, shapes cycling through 2x2, 3x2, 4x2, 5x2
and 3x3, about a quarter of the entries zeroed, and (r1, r2) uniform on
[0, 1.2]^2; each is solved at nu = 1, 2, 4 and 5 with
``SolverConfig(starts=16, seed=2718)``, 160 solves in all (about 2 minutes
per pass on one core).

The families are rebuilt here with ``_ExponentSearch.embed``, and every
solve first checks that they give ``fixed_starts`` byte for byte, so the
tool stops rather than ablate a start list it does not describe.  The
removal patches ``fixed_starts`` from outside the package; nothing in
``src/`` knows about it.
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import wakexp  # noqa: E402
from wakexp.probkit import _entropy_matched_tilts  # noqa: E402

_exponent = sys.modules["wakexp.wak_exponent"]
_ExponentSearch = _exponent._ExponentSearch
_fixed_starts = _ExponentSearch.fixed_starts

FAMILIES = ("constant-u", "point-masses", "copy-y", "copy-x", "x-split", "y-split", "power-tilts")
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
    tilts = [q[:, None] for q in _entropy_matched_tilts(src[:, 0], prob.r1)] if ny == 1 else []
    tables = [("x-split", "x", src), ("y-split", "y", src)] + [("power-tilts", "x", q) for q in tilts]
    starts += [(fam, prob.embed(prob.split_channel(on, t), on, t)) for fam, on, t in tables]
    starts += [("power-tilts", prob.embed(np.ones((1, 1)), "y", q)) for q in tilts]
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


def solve_all(solves, family: str | None) -> list:
    _ExponentSearch.fixed_starts = without(family)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wakexp.UpperBoundWarning)
            return [
                wakexp.wak_exponent(wakexp.JointPmf2(t), wakexp.RatePair(r1, r2), CONFIG, nu=nu).value
                for _, t, r1, r2, nu in solves
            ]
    finally:
        _ExponentSearch.fixed_starts = _fixed_starts


def main():
    solves = corpus()
    base = solve_all(solves, None)
    print(f"{len(solves)} solves, {SHAPES} x nu {NUS}, {CONFIG}")
    for family in FAMILIES:
        values = solve_all(solves, family)
        rose = [(v - b, s) for v, b, s in zip(values, base, solves) if v > b + RISE_TOL]
        worst = max((d for d, _ in rose), default=0.0)
        print(f"\n{family}: {len(rose)} of {len(solves)} values rose, most by {worst:.3e}")
        for d, (name, _, r1, r2, nu) in sorted(rose, key=lambda x: -x[0]):
            print(f"  {name} r1={r1:.4f} r2={r2:.4f} nu={nu}: +{d:.3e}")


if __name__ == "__main__":
    main()
