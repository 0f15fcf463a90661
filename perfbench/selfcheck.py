"""Self-check of the harness at a tiny size (under a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload on a few cheap inputs, untraced and traced, and checks
that:

- ``BENCHMARK.json`` names exactly the metrics that ``run.py`` prints, with
  the same units, and each run prints every one of them with its unit;
- each run passes its correctness gate;
- in the traced ``exponent`` run the per-phase evals sum to
  ``wak_exponent.evals``, and the phases other than copy manifolds sum to
  the evaluations the program itself reported, so the wrappers saw every
  search the program counts;
- the traced counts repeat exactly under another seed.

Exits nonzero on the first failed check.
"""

import contextlib
import io
import json
import sys

import run
import tracing
import workloads as wl

# inputs kept from reference.json: the two cheapest exponent cases, and CLI
# calls that reach the anchors, the process pool and pa_bound
EXPONENT_CASES = ("case3-1x3", "case11-1x3")
CLI_COMMANDS = (("single", "[0.5,0.5]"), ("gap", "[0.5,0.5]"), ("fig2", None), ("pa-tradeoff", None))
# comparison: a coarse evaluator, so a cold bound takes seconds, not tens
TINY_EVALUATOR = {"grid_resolution": 3, "starts": 1, "max_iterations": 20,
                  "step_tolerance": 1e-2, "seed": 0}
TINY_PAIRS = ((0.3, 0.4), (0.1, 0.2))


def fail(message: str):
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def tiny_reference() -> dict:
    with open(wl.REFERENCE) as fh:
        ref = json.load(fh)
    ref["exponent"]["cases"] = [c for c in ref["exponent"]["cases"] if c["name"] in EXPONENT_CASES]

    def wanted(argv):
        pmf = argv[argv.index("--pmf") + 1] if "--pmf" in argv else None
        return (argv[0], pmf) in CLI_COMMANDS

    ref["cli"]["calls"] = [c for c in ref["cli"]["calls"] if wanted(c["argv"])]
    sys.path.insert(0, str(wl.SRC))
    import wakexp as w

    ev = w.OohamaEvaluator(w.JointPmf2(ref["comparison"]["source"]["probs"]),
                           config=w.SolverConfig(**TINY_EVALUATOR))
    ref["comparison"]["pairs"] = [{"r1": r1, "r2": r2, "value": ev.bound(r1, r2)}
                                  for r1, r2 in TINY_PAIRS]
    return ref


def tiny_comparison(ref):
    import wakexp as w

    src = w.JointPmf2(ref["source"]["probs"])
    return src, w.OohamaEvaluator(src, config=w.SolverConfig(**TINY_EVALUATOR))


def run_once(workload: str, seed: int, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "60",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    if code != 0 or not lines:
        fail(f"{workload} trace={trace} exited {code}:\n{out.getvalue()}")
    result = json.loads(lines[-1])
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != units:
        fail(f"{workload} trace={trace} printed {sorted(printed)} instead of {sorted(units)}")
    for name, unit in units.items():
        if not any(line.startswith(f"# metric {name} = ") and line.endswith(f" {unit}") for line in lines):
            fail(f"{workload} trace={trace}: no report line for {name} in {unit}")
    if not result["correct"] or result["failed"]:
        fail(f"{workload} trace={trace} failed its gate:\n{out.getvalue()}")
    per_case = [line for line in lines if line.startswith("# evaluations per case ")]
    counts = json.loads(per_case[0].split("case ", 1)[1]) if per_case else {}
    return {name: m["value"] for name, m in result["metrics"].items()}, counts


def main():
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != run.E2E_UNITS:
        fail(f"BENCHMARK.json end_to_end {declared} != run.py {run.E2E_UNITS}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != run.LAYER_UNITS:
        fail(f"BENCHMARK.json per_layer differs from run.py: {set(declared) ^ set(run.LAYER_UNITS)}")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py")

    wl.OUT.mkdir(exist_ok=True)
    tiny = wl.OUT / "selfcheck-reference.json"
    tiny.write_text(json.dumps(tiny_reference()))
    wl.REFERENCE = tiny
    wl.PASSES = {"exponent": 2, "comparison": 1, "cli": 2}
    wl.build_comparison = tiny_comparison

    for workload in run.WORKLOADS:
        run_once(workload, 1, 0)
        print(f"selfcheck: {workload} untraced ok", flush=True)
    traced = {}
    for workload in run.WORKLOADS:
        traced[workload] = run_once(workload, 1, 1)
        print(f"selfcheck: {workload} traced ok", flush=True)
    m, counts = traced["exponent"]
    phases = {p: m[f"wak_exponent.phase.{p}.evals"] for p in tracing.PHASES}
    if sum(phases.values()) != m["wak_exponent.evals"] or not m["wak_exponent.evals"]:
        fail(f"phase evals {phases} do not sum to wak_exponent.evals {m['wak_exponent.evals']}")
    program = sum(counts.values())
    if sum(phases.values()) - phases["copy_manifolds"] != program:
        fail(f"phase evals {phases} miss the program's own count {program}")
    again, _ = run_once("exponent", 2, 1)
    for name in ("count.evaluations", "count.objective_rows", "count.inner_solves"):
        if again[name] != m[name]:
            fail(f"{name} changed with the seed: {m[name]} then {again[name]}")
    tiny.unlink()
    print("selfcheck: every metric printed with its unit, phase evals sum to "
          f"wak_exponent.evals ({m['wak_exponent.evals']:.0f}), counts repeat")


if __name__ == "__main__":
    main()
