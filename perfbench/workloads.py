"""The three workloads: inputs, the timed calls and the correctness gate.

Every workload is a closed loop with one caller.  Its inputs are the fixed
cases of ``reference.json`` (recorded with their reference values); the
workload seed orders them, pass by pass.  A run makes a fixed number of
passes, sized so that they take 30-45 s on a 2-core machine.  The work is
fixed so that the sample count, and with it the tail percentile, is the
same in every run; a new pass does not start after twice ``--seconds``,
which only a machine at well under half speed reaches.

A call fails when it raises or exits nonzero, returns a non-finite value,
breaks the exponent's breakdown identity or feasibility, is worse than its
reference by more than the pinned tolerance, prints different output for
the same argv within a run, or misses a closed-form anchor.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"

# pinned tolerances (bits)
VALUE_TOL = 1e-6          # a value may exceed its reference by this much
CSV_TOL = 2e-6            # VALUE_TOL plus the rounding of six-decimal CSV cells
IDENTITY_TOL = 1e-9       # value == kl + soft Markov + rate-2 term
SLACK_TOL = 1e-9          # constraint_slack >= -SLACK_TOL
UNIFORM_TOL = 1e-3        # single-user uniform source: 1 - r1
GAP_OOHAMA_TOL = 1e-4     # uniform gap anchor: comparison bound 1/6
GAP_TIGHT_TOL = 1e-3      # uniform gap anchor: tight exponent 1/2
FIG2_END_TOL = 1e-9       # fig2 at r1 = 1: both curves 0

# passes per run; one comparison pass is one fresh evaluator
PASSES = {"exponent": 3, "comparison": 1, "cli": 3}


def pin_threads():
    """One BLAS/OpenMP thread, so numpy's thread pool does not compete with
    the process pool; call before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WAK_THREADS"] = str(nproc())
    return env


class Tally:
    """Call times, failures and excess over the reference for one run."""

    def __init__(self):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.excess_bits = 0.0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}     # case -> evaluations the program reported

    def record(self, label: str, seconds: float, problems: list[str], excess: float = 0.0):
        self.times.append(seconds)
        self.labels.append(label)
        self.attempted += 1
        self.excess_bits += excess
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Passes:
    """The run's pass schedule: seeded order, traced passes, time cap."""

    def __init__(self, workload: str, n: int, seed: int, seconds: float, trace: bool):
        self.count = PASSES[workload]
        self.n = n
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.walls: dict[bool, list[float]] = {False: [], True: []}

    def __iter__(self):
        """Yields (order, traced).

        With tracing on, the odd passes are traced and the even ones give
        the untraced time of the same calls; a single pass is traced.
        """
        t0 = time.perf_counter()
        for p in range(self.count):
            if p and time.perf_counter() - t0 >= 2 * self.seconds:
                break
            traced = self.trace and (p % 2 == 1 or self.count == 1)
            s = time.perf_counter()
            yield self.rng.sample(range(self.n), self.n), traced
            self.walls[traced].append(time.perf_counter() - s)
        self.wall = time.perf_counter() - t0


def _worse(value: float, ref: float, direction: str, tol: float):
    """(excess over the reference, whether it breaks the tolerance)."""
    if direction == "min":
        excess = max(0.0, value - ref)
    elif direction == "max":
        excess = max(0.0, ref - value)
    else:
        return 0.0, abs(value - ref) > tol
    return excess, excess > tol


# ---------------------------------------------------------------------------
# exponent
# ---------------------------------------------------------------------------

def build_exponent(ref: dict):
    import wakexp as w

    cases = [(w.JointPmf2(c["probs"]), w.RatePair(c["r1"], c["r2"])) for c in ref["cases"]]
    return cases, w.SolverConfig(**ref["config"])


def check_breakdown(b, ref_value: float | None) -> tuple[list[str], float]:
    problems = []
    terms = b.kl_term + b.soft_markov_term + b.rate2_term
    if not all(math.isfinite(v) for v in (b.value, terms, b.constraint_slack)):
        problems.append("non-finite value")
        return problems, 0.0
    if abs(b.value - terms) > IDENTITY_TOL:
        problems.append(f"breakdown identity off by {b.value - terms:.3e}")
    if b.constraint_slack < -SLACK_TOL:
        problems.append(f"constraint slack {b.constraint_slack:.3e}")
    excess = 0.0
    if ref_value is not None:
        excess, bad = _worse(b.value, ref_value, "min", VALUE_TOL)
        if bad:
            problems.append(f"value {b.value!r} above reference {ref_value!r}")
    return problems, excess


def run_exponent(ref: dict, inputs, passes: Passes, tally: Tally, tracer_hooks):
    import wakexp

    cases, config = inputs
    for p, (order, traced) in enumerate(passes):
        if p == 0:
            # the heap's high-water mark depends on which cases ran before
            # the largest one, so the first pass keeps the reference order
            # and peak_rss_mb does not depend on the seed
            order = sorted(order)
        with tracer_hooks(traced) as tracer:
            for k in order:
                src, rates = cases[k]
                case = ref["cases"][k]
                if tracer is not None:
                    tracer.call_id = tally.attempted
                t = time.perf_counter()
                try:
                    b = wakexp.wak_exponent(src, rates, config)
                except Exception as exc:  # a raising call is a failed call
                    tally.record(case["name"], time.perf_counter() - t, [f"raised {exc!r}"])
                    continue
                dt = time.perf_counter() - t
                problems, excess = check_breakdown(b, case["value"])
                tally.record(case["name"], dt, [f"{case['name']}: {p}" for p in problems], excess)
                tally.counts[case["name"]] = b.evaluations


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def build_comparison(ref: dict):
    import wakexp as w

    src = w.JointPmf2(ref["source"]["probs"])
    return src, w.OohamaEvaluator(src)


def run_comparison(ref: dict, inputs, passes: Passes, tally: Tally, tracer_hooks):
    import wakexp as w

    src, evaluator = inputs
    pairs = ref["pairs"]
    for i, (order, traced) in enumerate(passes):
        ev = evaluator if i == 0 else w.OohamaEvaluator(src)
        # the warm bounds share cached tilts, so each one's cost depends on
        # which ran before it: the pairs keep the reference order, and the
        # work is the same in every run whatever the seed
        order = sorted(order)
        with tracer_hooks(traced) as tracer:
            for k in order:
                pair = pairs[k]
                if tracer is not None:
                    tracer.call_id = tally.attempted
                t = time.perf_counter()
                try:
                    v = ev.bound(pair["r1"], pair["r2"])
                except Exception as exc:  # a raising call is a failed call
                    tally.record(f"pair{k}", time.perf_counter() - t, [f"raised {exc!r}"])
                    continue
                dt = time.perf_counter() - t
                problems, excess = [], 0.0
                if not math.isfinite(v) or v < 0.0:
                    problems.append(f"bound {v!r} not a finite nonnegative number")
                else:
                    excess, bad = _worse(v, pair["value"], "min", VALUE_TOL)
                    if bad:
                        problems.append(f"bound {v!r} above reference {pair['value']!r}")
                tally.record(f"pair{k}", dt, [f"pair {k}: {p}" for p in problems], excess)


def comparison_overhead(src, tracer_hooks, points: int = 24) -> tuple[float, float]:
    """(traced minus untraced, untraced) time of the same cold inner solves.

    A second cold bound does not fit in a run, so the overhead of the traced
    session is measured on ``points`` inner solves, each on a fresh
    evaluator, alternating untraced and traced.
    """
    import wakexp as w

    grid = [(i / 40.0, j / 40.0) for i in range(0, 41, 8) for j in range(5, 41, 9)][:points]
    spent = {False: 0.0, True: 0.0}
    for n, (mu, alpha) in enumerate(grid):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            ev = w.OohamaEvaluator(src)
            with tracer_hooks(traced, keep=False):
                t = time.perf_counter()
                ev.omega(mu, alpha)
                spent[traced] += time.perf_counter() - t
    return spent[True] - spent[False], spent[False]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _numbers(stdout: str) -> dict:
    """Named numeric fields of one CLI output (JSON object or CSV)."""
    text = stdout.strip()
    if text.startswith("{"):
        out = {}

        def walk(prefix, obj):
            for key, v in obj.items():
                name = f"{prefix}{key}"
                if isinstance(v, dict):
                    walk(name + ".", v)
                elif isinstance(v, (int, float)) and not isinstance(v, bool):
                    out[name] = float(v)

        walk("", json.loads(text))
        return out
    lines = text.splitlines()
    header = lines[0].split(",")
    out = {}
    for r, line in enumerate(lines[1:]):
        for col, cell in zip(header, line.split(",")):
            out[f"{col}[{r}]"] = float(cell)
    return out


# field (prefix before any "[row]") -> direction; "min" fields come from a
# minimization, so a higher value is a worse solve, and "max" the reverse
FIELDS = {
    "exponent": {"value": "min"},
    "region": {"min_r1": "min"},
    "ne": {"value": "min"},
    "single": {"direct": "min", "parametric": "max"},
    "oohama": {"value": "max"},
    "gap": {"f_oohama": "max", "f_tight": "max"},
    "dsbs": {"unconstrained.value": "min", "constrained.value": "min"},
    "fig2": {"unconstrained": "min", "constrained": "min"},
    "pa": {"exponent": "min"},
    "pa-tradeoff": {"max_r1": "eq", "total_bound": "eq"},
}


def check_cli(argv: list, stdout: str, ref_stdout: str | None) -> tuple[list[str], float]:
    try:
        got = _numbers(stdout)
    except (ValueError, IndexError) as exc:
        return [f"unparseable output ({exc})"], 0.0
    if not all(math.isfinite(v) for v in got.values()):
        return ["non-finite value in output"], 0.0
    try:
        return _check_fields(argv, got, stdout, ref_stdout)
    except KeyError as exc:
        return [f"output lacks field {exc}"], 0.0


def _check_fields(argv, got, stdout, ref_stdout):
    cmd = argv[0]
    problems: list[str] = []
    excess = 0.0
    csv = not stdout.lstrip().startswith("{")
    if ref_stdout is not None:
        want = _numbers(ref_stdout)
        if set(want) != set(got):
            problems.append("output fields differ from the reference")
        for name, ref_v in want.items():
            direction = FIELDS[cmd].get(name.split("[")[0])
            if direction is None or name not in got:
                continue
            e, bad = _worse(got[name], ref_v, direction, CSV_TOL if csv else VALUE_TOL)
            excess += e
            if bad:
                problems.append(f"{name} {got[name]!r} vs reference {ref_v!r}")
    if cmd == "exponent":
        terms = got["kl_term"] + got["soft_markov_term"] + got["rate2_term"]
        if abs(got["value"] - terms) > IDENTITY_TOL:
            problems.append("breakdown identity broken")
        if got["constraint_slack"] < -SLACK_TOL:
            problems.append("constraint slack negative")
    pmf = argv[argv.index("--pmf") + 1] if "--pmf" in argv else None
    if cmd == "single" and pmf == "[0.5,0.5]":
        want_v = 1.0 - got["r1"]
        if max(abs(got["direct"] - want_v), abs(got["parametric"] - want_v)) > UNIFORM_TOL:
            problems.append("uniform anchor 1 - r1 missed")
    if cmd == "gap" and pmf == "[0.5,0.5]":
        if abs(got["f_oohama"] - 1 / 6) > GAP_OOHAMA_TOL or abs(got["f_tight"] - 0.5) > GAP_TIGHT_TOL:
            problems.append("gap anchors 1/6 and 1/2 missed")
    if cmd == "fig2":
        last = max(int(k.split("[")[1][:-1]) for k in got)
        if max(abs(got[f"unconstrained[{last}]"]), abs(got[f"constrained[{last}]"])) > FIG2_END_TOL:
            problems.append("fig2 end values not 0")
    return problems, excess


def run_cli(ref: dict, passes: Passes, tally: Tally, traced_children):
    """Each call is a fresh interpreter; traced passes run ``cli_child.py``."""
    calls = ref["calls"]
    env = child_env()
    first_stdout: dict[int, str] = {}
    for order, traced in passes:
        for k in order:
            argv = calls[k]["argv"]
            if traced:
                span_file = OUT / f"cli-{tally.attempted}.npz"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file), str(tally.attempted), *argv]
            else:
                cmd = [sys.executable, "-m", "wakexp.cli", *argv]
            t = time.perf_counter()
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
            dt = time.perf_counter() - t
            label = f"{argv[0]}{k}"
            if proc.returncode != 0:
                tally.record(label, dt, [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])
                continue
            problems = []
            if first_stdout.setdefault(k, proc.stdout) != proc.stdout:
                problems.append("stdout differs between repetitions")
            more, excess = check_cli(argv, proc.stdout, calls[k].get("stdout"))
            tally.record(label, dt, [f"{label}: {p}" for p in problems + more], excess)
            if traced:
                traced_children.append((span_file, dt))
