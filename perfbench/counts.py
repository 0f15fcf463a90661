"""Write ``counts.json``: the deterministic counts, with their inputs.

    python3 perfbench/counts.py

Records two things. First, ROADMAP item 1's case: the evaluation count of
``wak_exponent(dsbs:0.1, (0.5, r2))`` at the acceptance config for a few
solver seeds and both spellings of r2, and at the default config. Second,
for each workload, the counts of one traced pass, from two traced runs with
different workload seeds. The script fails if the two runs disagree.
Takes about five minutes on 2 cores.
"""

import contextlib
import io
import json
import sys

import run
import workloads as wl

SEEDS = (1, 2)
ITEM1_RATES = ((0.5, 0.278), (0.5, 0.2781))
ITEM1_SOLVER_SEEDS = (2718, 0, 7)
COUNTS = ("count.evaluations", "count.objective_rows", "count.inner_solves")


def item1_cases():
    sys.path.insert(0, str(wl.SRC))
    import wakexp as w

    src = w.dsbs_source(0.1)
    out = []
    configs = [{"grid_resolution": 12, "starts": 16, "seed": s} for s in ITEM1_SOLVER_SEEDS]
    for rates in ITEM1_RATES:
        for cfg in configs + ([{}] if rates == ITEM1_RATES[0] else []):
            b = w.wak_exponent(src, w.RatePair(*rates), w.SolverConfig(**cfg))
            out.append({"source": "dsbs:0.1", "r1": rates[0], "r2": rates[1],
                        "config": cfg or "SolverConfig() default", "value": b.value,
                        "evaluations": b.evaluations})
            print(out[-1], flush=True)
    return out


def traced_counts(workload: str, seed: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "60", "--trace", "1"])
    result = json.loads(out.getvalue().splitlines()[-1])
    if code != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{out.getvalue()}")
    m = result["metrics"]
    counts = {name: int(m[name]["value"]) for name in COUNTS}
    if workload == "exponent":
        counts["wak_exponent.evals"] = int(m["wak_exponent.evals"]["value"])
    if workload == "comparison":
        counts["reductions.omega.solves"] = int(m["reductions.omega.solves"]["value"])
    return counts


def main():
    with open(wl.REFERENCE) as fh:
        ref = json.load(fh)
    inputs = {
        "exponent": {"config": ref["exponent"]["config"],
                     "cases": [c["name"] for c in ref["exponent"]["cases"]]},
        "comparison": {"source": ref["comparison"]["source"]["name"],
                       "pairs": len(ref["comparison"]["pairs"]),
                       "config": "OohamaEvaluator default"},
        "cli": {"argv": [c["argv"] for c in ref["cli"]["calls"]]},
    }
    doc = {"roadmap_item1": item1_cases(), "workloads": {}}
    for workload in run.WORKLOADS:
        first, second = (traced_counts(workload, s) for s in SEEDS)
        if first != second:
            sys.exit(f"{workload}: counts differ between seeds {SEEDS}: {first} vs {second}")
        doc["workloads"][workload] = {"inputs (see reference.json)": inputs[workload],
                                      "seeds": list(SEEDS), "per_traced_pass": first}
        print(workload, first, flush=True)
    with open(wl.HERE / "counts.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
