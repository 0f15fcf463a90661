"""Benchmark for wakexp: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {exponent,comparison,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Lines starting with ``#`` report the environment, every metric with its
unit, the correctness gate and the exact counts.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wl

wl.pin_threads()

WORKLOADS = ("exponent", "comparison", "cli")
SETUP_REPEATS = 9

E2E_UNITS = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_KERNEL_UNITS = {"calls": "count", "rows": "count", "rows_per_call": "count",
                 "ns_per_row": "ns", "s": "s"}
LAYER_UNITS = {
    "simplex_optim.compass.calls": "count",
    "simplex_optim.compass.iters": "count",
    "simplex_optim.compass.self_s": "s",
    "simplex_optim.compass.self_us_per_iter": "us",
    "simplex_optim.grid.calls": "count",
    "simplex_optim.grid.rows": "count",
    "simplex_optim.grid.self_s": "s",
    "simplex_optim.multistart.s": "s",
    "simplex_optim.maximize_1d.calls": "count",
    "simplex_optim.maximize_1d.s": "s",
    **{f"{k}.{m}": u for k in tracing.KERNELS for m, u in _KERNEL_UNITS.items()},
    **{f"wak_exponent.phase.{p}.{m}": u for p in tracing.PHASES
       for m, u in (("s", "s"), ("evals", "count"))},
    "wak_exponent.calls": "count",
    "wak_exponent.evals": "count",
    "reductions.omega.calls": "count",
    "reductions.omega.solves": "count",
    "reductions.omega.hit_ratio": "ratio",
    "reductions.omega.ms_per_solve": "ms",
    "reductions.bound.cold_s": "s",
    "reductions.bound.warm_s": "s",
    "dsbs.exponent.calls": "count",
    "dsbs.exponent.ms_per_call": "ms",
    "pa_bound.exponent_calls_per_column": "count",
    "pa_bound.column_s": "s",
    "parallel.items": "count",
    "parallel.map_s": "s",
    "parallel.speedup": "ratio",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.startup_s": "s",
    **{f"{layer.lstrip('_')}.self_s": "s" for layer in tracing.LAYERS},
    "trace.wall_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "count.evaluations": "count",
    "count.objective_rows": "count",
    "count.inner_solves": "count",
    "excess_bits": "bits",
    "failed_frac": "ratio",
}


def report(*parts):
    print("#", *parts, flush=True)


def tail_of(times):
    """(tail, percentile, its order statistic, calls averaged).

    The percentile is the highest nearest-rank one with ten calls beyond
    it.  The tail is the mean of the calls at or beyond it: a single order
    statistic of a few dozen calls jumps between neighbouring inputs from
    run to run, the mean of the eleven slowest does not.  With twenty calls
    or fewer that rank is not above the median, so the tail is the slowest
    call.
    """
    xs = sorted(times)
    n = len(xs)
    rank = n - 10 if n > 20 else n
    beyond = xs[rank - 1:]
    return sum(beyond) / len(beyond), 100.0 * rank / n, xs[rank - 1], len(beyond)


def import_times(module: str, reps: int):
    """Fresh-interpreter import times of ``module``, and numpy's version."""
    code = (
        "import time; t = time.perf_counter(); import {m}; dt = time.perf_counter() - t; "
        "import numpy; print(dt, numpy.__version__)"
    ).format(m=module)
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=wl.child_env(), cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {module} from {wl.SRC}: {proc.stderr.strip()[-400:]}")
        dt, version = proc.stdout.split()
        out.append(float(dt))
    return out, version


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class TraceHooks:
    """Installs the tracer around a block; ``keep=False`` drops its spans."""

    def __init__(self):
        self.tracer = tracing.Tracer()

    @contextlib.contextmanager
    def __call__(self, traced: bool, keep: bool = True):
        if not traced:
            yield None
            return
        mark = len(self.tracer)
        restore = tracing.install(self.tracer)
        try:
            yield self.tracer
        finally:
            restore()
            if not keep:
                self.tracer.truncate(mark)


def setup_in_process(build, ref):
    """Import wakexp from the checkout, then time building the inputs."""
    sys.path.insert(0, str(wl.SRC))
    import wakexp

    if os.path.dirname(os.path.dirname(os.path.abspath(wakexp.__file__))) != str(wl.SRC):
        raise RuntimeError(f"wakexp imported from {wakexp.__file__}, not from {wl.SRC}")
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = build(ref)
        builds.append(time.perf_counter() - t)
    return inputs, statistics.median(builds)


def cli_layer_metrics(children, tracer):
    """Merge the traced CLI processes' spans into ``tracer``.

    Returns their process-level metrics and the time they spent after
    ``main`` (the one-worker reruns and writing spans), which is not part
    of the traced run.
    """
    imports, mains, startups, post = [], [], [], 0.0
    for span_file, wall in children:
        child, extra = tracing.load(str(span_file))
        span_file.unlink()
        base = len(tracer)
        tracer.call_id = child.call[0] if len(child) else 0
        tracer.merge(child.export(), -1)
        tracer.sequential_s.update({base + k: v for k, v in child.sequential_s.items()})
        imports.append(extra["import_s"])
        mains.append(extra["main_s"])
        startups.append(wall - extra["main_s"] - extra["post_s"])
        post += extra["post_s"]
    return {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "cli.main_s": statistics.median(mains) if mains else 0.0,
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
    }, post


def run(args) -> int:
    if not (wl.SRC / "wakexp" / "__init__.py").is_file():
        print(f"error: no wakexp package under {wl.SRC}", file=sys.stderr)
        return 2
    with open(wl.REFERENCE) as fh:
        ref = json.load(fh)[args.workload]
    wl.OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    hooks = TraceHooks()

    module = "wakexp.cli" if args.workload == "cli" else "wakexp"
    imports, numpy_version = import_times(module, SETUP_REPEATS)
    setup_s = statistics.median(imports)
    if args.workload == "exponent":
        inputs, build_s = setup_in_process(wl.build_exponent, ref)
        n = len(ref["cases"])
    elif args.workload == "comparison":
        inputs, build_s = setup_in_process(wl.build_comparison, ref)
        n = len(ref["pairs"])
    else:
        build_s = 0.0
        n = len(ref["calls"])
    setup_s += build_s
    report("env", json.dumps({
        "nproc": wl.nproc(), "python": platform.python_version(), "numpy": numpy_version,
        "cpu": cpu_model(), "WAK_THREADS": wl.child_env()["WAK_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }))
    report(f"setup: median import of {module} {statistics.median(imports):.4f} s "
           f"over {SETUP_REPEATS} fresh interpreters, median input build {build_s:.4f} s")

    tally = wl.Tally()
    passes = wl.Passes(args.workload, n, args.seed, args.seconds, trace)
    children = []
    overhead = None
    if args.workload == "exponent":
        wl.run_exponent(ref, inputs, passes, tally, hooks)
    elif args.workload == "comparison":
        wl.run_comparison(ref, inputs, passes, tally, hooks)
        if trace:
            overhead = wl.comparison_overhead(inputs[0], hooks)
    else:
        wl.run_cli(ref, passes, tally, children)

    report(f"workload {args.workload}: seed {args.seed}, {len(passes.walls[False]) + len(passes.walls[True])} "
           f"passes of {n} calls, {tally.attempted} calls in {passes.wall:.3f} s, closed loop, 1 caller")
    report("call times", json.dumps([[label, round(t, 4)] for label, t in zip(tally.labels, tally.times)]))
    if tally.counts:
        report("evaluations per case", json.dumps(tally.counts))
    report(f"gate: {tally.failed} failed of {tally.attempted} attempted, "
           f"excess over reference {tally.excess_bits:.3e} bits")
    for problem in tally.problems[:20]:
        report("  failure:", problem)

    if not trace:
        tail, pct, order_stat, averaged = tail_of(tally.times)
        metrics = {
            "solve_s.p50": statistics.median(tally.times),
            "solve_s.tail": tail,
            "throughput_per_s": tally.attempted / passes.wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        report(f"solve_s.tail is the mean of the {averaged} slowest of {len(tally.times)} calls, "
               f"at or beyond p{pct:.1f} = {order_stat:.4f} s")
        units = E2E_UNITS
    else:
        tracer = hooks.tracer
        extra, post_s = cli_layer_metrics(children, tracer) if args.workload == "cli" else ({}, 0.0)
        metrics = {name: 0.0 for name in LAYER_UNITS}
        metrics.update(tracing.layer_metrics(tracer))
        metrics.update(extra)
        wall = sum(passes.walls[True]) - post_s
        if overhead is not None:
            over_s, base_s = overhead
        elif passes.walls[False]:
            base_s = statistics.mean(passes.walls[False])
            over_s = wall / len(passes.walls[True]) - base_s
        else:
            over_s = base_s = 0.0
        layer_self = sum(metrics[f"{layer.lstrip('_')}.self_s"] for layer in tracing.LAYERS)
        metrics.update({
            "trace.wall_s": wall,
            "trace.attributed_frac": layer_self / wall if wall else 0.0,
            "trace.overhead_s": over_s,
            "trace.overhead_frac": over_s / base_s if base_s else 0.0,
            "excess_bits": tally.excess_bits,
            "failed_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        })
        metrics = {name: metrics[name] for name in LAYER_UNITS}
        phase_sum = sum(metrics[f"wak_exponent.phase.{p}.evals"] for p in tracing.PHASES)
        report(f"counts per traced pass (seed-independent): evaluations {metrics['count.evaluations']:.0f}, "
               f"objective rows {metrics['count.objective_rows']:.0f}, "
               f"inner solves {metrics['count.inner_solves']:.0f}; "
               f"phase evals {phase_sum:.0f} of wak_exponent.evals {metrics['wak_exponent.evals']:.0f}")
        report(f"reductions.omega.hit_ratio base: {metrics['reductions.omega.calls']:.0f} omega calls; "
               f"failed_frac base: {tally.attempted} calls")
        span_path = wl.OUT / f"spans-{args.workload}.npz"
        tracing.dump(tracer, str(span_path))
        report(f"{len(tracer)} spans written to {span_path.relative_to(wl.ROOT)}")
        units = LAYER_UNITS
    for name, value in metrics.items():
        report(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
