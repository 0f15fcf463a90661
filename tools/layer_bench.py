#!/usr/bin/env python3
"""Layer timings: batched kernels, the compass step, the lattice oracle, the comparison bound.

    python3 tools/layer_bench.py [--repeats N] [--iterations N]

Prints the min-of-N ns per row of the four batched kernels at 8, 64, 256,
1024 and 2048 rows:

* ``exponent``: ``_ExponentSearch.evaluate``, the exponent objective;
* ``table``: ``_ExponentSearch.table_stats``, the copy-manifold statistics;
* ``region``: ``_RegionSearch.stats``, the rate-region statistics;
* ``omega``: ``OohamaEvaluator._omega_rows``, the comparison bound's inner
  objective, one tilt per row.

Then the µs per lockstep iteration of ``compass_batch`` on the exponent
objective, for a lone descent and for 16 descents, split into evaluation
(time inside the objective) and the driver (everything else: probe
generation, ranking, bookkeeping).  The descents run a fixed number of
iterations with a step tolerance too small to stop them.

Then the lattice oracle on three domains: the copy manifold's Simplex(6)
at resolution 26 (169,911 rows), Simplex(9) at 12 (125,970 rows) and the
comparison bound's domain for a 2x3 source at its 10,000-row cap.  For each it prints the min-of-N time to enumerate the
lattice with ``lattice_chunks`` and the tracemalloc peak of one
``grid_search`` with a one-column objective, which is the memory of the
enumeration itself.

The exponent, table and region kernels use the benchmark's ``case13-2x3``
source at nu = 4 (the acceptance config); ``omega`` uses ``dsbs:0.1``, the
source of the comparison workload.

Last, the comparison bound: one fresh ``OohamaEvaluator(dsbs:0.1)`` runs
the five rate pairs of ``perfbench/reference.json`` in order (a cold bound,
then four warm ones), and each prints its wall time, the lockstep
iterations it advanced (``Lockstep.step`` calls), and the objective calls
and kernel rows of its descents (``OohamaEvaluator._omega_evaluate``);
the three counts are the same on every machine.  The file is only read.

Timings are wall-clock and noisy on a shared machine: compare two commits
by running this alternately, not by reading one run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import wakexp  # noqa: E402
from wakexp.reductions import _OMEGA_GRID_CAP, OohamaEvaluator, _tilt_coefficients  # noqa: E402
from wakexp.simplex_optim import (  # noqa: E402
    Lockstep,
    SearchDomain,
    Simplex,
    SolverConfig,
    _capped_resolution,
    compass_batch,
    grid_search,
    lattice_chunks,
    lattice_rows,
    random_starts,
)

_exponent = sys.modules["wakexp.wak_exponent"]

CASE13 = [
    [0.15468281556880634, 0.05616382104346113, 0.2915906716633682],
    [0.3637804108774483, 0.015253752212244545, 0.11852852863467146],
]
ROWS = (8, 64, 256, 1024, 2048)


def _min_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def kernels():
    """(name, sampler domain, callable on a row batch) of each kernel."""
    src = wakexp.JointPmf2(CASE13)
    exp = _exponent._ExponentSearch(src, 0.5054265770747463, 0.12710548404878932, 4)
    region = _exponent._RegionSearch(src, 0.12710548404878932, 4)
    table = wakexp.SearchDomain([wakexp.Simplex(exp.k)])
    oohama = OohamaEvaluator(wakexp.dsbs_source(0.1))
    rng = np.random.default_rng(0)
    coefs = _tilt_coefficients(rng.random((max(ROWS), 2)))
    return [
        ("exponent", exp.domain, exp.evaluate),
        ("table", table, exp.table_stats),
        ("region", region.domain, region.stats),
        ("omega", oohama.domain, lambda pts: oohama._omega_rows(pts, coefs[: len(pts)])),
    ]


def bench_kernels(repeats: int):
    rng = np.random.default_rng(1)
    print("kernel      " + "".join(f"{n:>10d}" for n in ROWS) + "   (ns per row, min of N)")
    for name, domain, fn in kernels():
        pts = np.array([domain.sample(rng) for _ in range(max(ROWS))])
        cells = []
        for n in ROWS:
            batch = pts[:n]
            reps = max(repeats, 20 * repeats // n)
            cells.append(_min_time(lambda: fn(batch), reps) / n * 1e9)
        print(f"{name:12s}" + "".join(f"{c:10.0f}" for c in cells))


def bench_compass(repeats: int, iterations: int):
    src = wakexp.JointPmf2(CASE13)
    prob = _exponent._ExponentSearch(src, 0.5054265770747463, 0.12710548404878932, 4)
    config = SolverConfig(starts=16, seed=2718, max_iterations=iterations, step_tolerance=1e-300)
    starts = random_starts(prob.domain, config)
    print(f"compass_batch on the exponent objective, {iterations} iterations (µs per iteration, min of N)")
    print("descents     total  evaluate    driver")
    for count in (1, 16):
        best = None
        for _ in range(repeats):
            spent = [0.0]

            def timed(pts):
                t = time.perf_counter()
                out = prob.evaluate(pts)
                spent[0] += time.perf_counter() - t
                return out

            t = time.perf_counter()
            compass_batch(prob.domain, starts[:count], config, batch_evaluate=timed)
            total = time.perf_counter() - t
            if best is None or total < best[0]:
                best = (total, spent[0])
        total, evaluate = (v / iterations * 1e6 for v in best)
        print(f"{count:8d}  {total:8.1f}  {evaluate:8.1f}  {total - evaluate:8.1f}")


def bench_lattices(repeats: int):
    omega = OohamaEvaluator(wakexp.JointPmf2([[0.1, 0.2, 0.05], [0.3, 0.15, 0.2]])).domain
    cases = [
        ("Simplex(6)@26", SearchDomain([Simplex(6)]), 26),
        ("Simplex(9)@12", SearchDomain([Simplex(9)]), 12),
        ("omega 2x3", omega, _capped_resolution(omega, 12, _OMEGA_GRID_CAP)),
    ]
    print("lattice               rows  enumerate ms  grid_search peak MB   (min of N)")
    for name, domain, res in cases:
        spent = _min_time(lambda: sum(len(c) for c in lattice_chunks(domain, res)), repeats)
        tracemalloc.start()
        grid_search(domain, res, lambda pts: (pts[:, 0], 0.0))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{name:16s}{lattice_rows(domain, res):10d}{spent * 1e3:14.2f}{peak / 1e6:21.2f}")


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def bench_comparison():
    comparison = json.loads(REFERENCE.read_text())["comparison"]
    evaluator = OohamaEvaluator(wakexp.JointPmf2(comparison["source"]["probs"]))
    counts = {"steps": 0, "calls": 0, "rows": 0}
    step, evaluate = Lockstep.step, OohamaEvaluator._omega_evaluate

    def counted_step(self):
        counts["steps"] += 1
        return step(self)

    def counted_evaluate(self, pts, coefs):
        counts["calls"] += 1
        counts["rows"] += len(pts)
        return evaluate(self, pts, coefs)

    print(f"comparison bound on {comparison['source']['name']}, one evaluator, reference pairs in order")
    print("pair        r1        r2     value        s  iterations     calls      rows")
    Lockstep.step, OohamaEvaluator._omega_evaluate = counted_step, counted_evaluate
    try:
        for k, pair in enumerate(comparison["pairs"]):
            counts.update(steps=0, calls=0, rows=0)
            t = time.perf_counter()
            value = evaluator.bound(pair["r1"], pair["r2"])
            spent = time.perf_counter() - t
            print(
                f"{k:4d}{pair['r1']:10.4f}{pair['r2']:10.4f}{value:10.6f}{spent:9.3f}"
                f"{counts['steps']:12d}{counts['calls']:10d}{counts['rows']:10d}"
            )
    finally:
        Lockstep.step, OohamaEvaluator._omega_evaluate = step, evaluate


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=20, help="timed runs per cell (default 20)")
    ap.add_argument("--iterations", type=int, default=200, help="compass iterations per run (default 200)")
    args = ap.parse_args(argv)
    bench_kernels(args.repeats)
    print()
    bench_compass(max(3, args.repeats // 4), args.iterations)
    print()
    bench_lattices(max(3, args.repeats // 4))
    print()
    bench_comparison()


if __name__ == "__main__":
    main()
