"""Command-line front end.

Every computation is a subcommand that reads a source specification
(inline JSON, a file path, or the ``dsbs:<p>`` shorthand), prints JSON for
single queries and CSV for sweeps on stdout, and keeps diagnostics on
stderr.  Identical argv and seed produce byte-identical stdout.

Exit codes: 0 success, 2 argument errors, 3 domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import dsbs as dsbs_mod
from . import pa_bound as pa_mod
from .probkit import DomainError, JointPmf2, Pmf, binary_entropy, check_rate, joint_from_dict
from .reductions import (
    OOHAMA_DEFAULT,
    SINGLE_DEFAULT,
    OohamaEvaluator,
    exponent_ne,
    exponent_single_direct,
    exponent_single_parametric,
    gap_check,
    oohama_single,
)
from .simplex_optim import DEFAULT_CONFIG, SolverConfig
from .wak_exponent import REGION_TOL, RatePair, region_curve, region_min_r1, wak_exponent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _load_source(spec: str) -> JointPmf2:
    if spec.startswith("dsbs:"):
        return dsbs_mod.dsbs_source(float(spec.split(":", 1)[1]))
    text = spec.strip()
    if not text.startswith("{"):
        text = Path(spec).read_text()
    return joint_from_dict(json.loads(text))


def _load_pmf(spec: str) -> Pmf:
    values = json.loads(spec)
    if not isinstance(values, list):
        raise ValueError("--pmf expects a JSON list of probabilities")
    return Pmf(values)


def _parse_grid(spec: str) -> list[float]:
    """Inclusive start:stop:step grid; endpoints snapped against drift."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0.0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    count = math.floor((stop - start) / step + 1e-9) + 1
    values = [start + k * step for k in range(count)]
    if values and abs(values[-1] - stop) < 1e-9:
        values[-1] = stop
    return values


def _config_from(args, base: SolverConfig) -> SolverConfig:
    """Solver config from flags; unset flags fall back to ``base``, the
    subcommand's library default."""

    def pick(name, fallback):
        value = getattr(args, name)
        return fallback if value is None else value

    return SolverConfig(
        grid_resolution=pick("grid_resolution", base.grid_resolution),
        starts=pick("starts", base.starts),
        max_iterations=pick("max_iterations", base.max_iterations),
        step_tolerance=pick("step_tolerance", base.step_tolerance),
        seed=pick("seed", base.seed),
    )


def _workers() -> int:
    env = os.environ.get("WAK_THREADS")
    if env is not None:
        return max(1, int(env))
    try:
        # the CPUs this process may run on, not every core of the machine
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _emit_json(obj, out: str | None):
    _emit(json.dumps(obj, indent=2), out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_exponent(args) -> int:
    src = _load_source(args.source)
    breakdown = wak_exponent(
        src,
        RatePair(args.r1, args.r2),
        config=_config_from(args, DEFAULT_CONFIG),
        nu=args.nu,
        full_cardinality=args.full_cardinality,
    )
    _emit_json(breakdown.to_dict(), args.out)
    return EXIT_OK


def _cmd_region(args) -> int:
    src = _load_source(args.source)
    config = _config_from(args, DEFAULT_CONFIG)
    if args.r2_grid is not None:
        curve = region_curve(src, _parse_grid(args.r2_grid), config)
        rows = ["r2,min_r1"] + [f"{dsbs_mod._fmt(a)},{dsbs_mod._fmt(b)}" for a, b in curve.points]
        _emit("\n".join(rows), args.out)
        return EXIT_OK
    if args.r2 is None:
        raise ValueError("region needs --r2 or --r2-grid")
    if args.r1 is not None:
        check_rate(args.r1, "r1")
    min_r1 = region_min_r1(src, args.r2, config)
    payload = {"r2": args.r2, "min_r1": min_r1}
    if args.r1 is not None:
        payload["contains"] = bool(args.r1 >= min_r1 - REGION_TOL)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_ne(args) -> int:
    src = _load_source(args.source)
    value = exponent_ne(src, args.r1)
    _emit_json({"r1": args.r1, "value": value}, args.out)
    return EXIT_OK


def _cmd_single(args) -> int:
    p = _load_pmf(args.pmf)
    direct = exponent_single_direct(p, args.r1, _config_from(args, SINGLE_DEFAULT))
    parametric = exponent_single_parametric(p, args.r1)
    _emit_json({"r1": args.r1, "direct": direct, "parametric": parametric}, args.out)
    return EXIT_OK


def _cmd_oohama(args) -> int:
    if (args.pmf is None) == (args.source is None):
        raise ValueError("oohama needs exactly one of --pmf or --source")
    if args.pmf is not None:
        p = _load_pmf(args.pmf)
        _emit_json({"r1": args.r1, "value": oohama_single(p, args.r1)}, args.out)
        return EXIT_OK
    src = _load_source(args.source)
    evaluator = OohamaEvaluator(src, nu=args.nu, config=_config_from(args, OOHAMA_DEFAULT))
    value = evaluator.bound(args.r1, args.r2)
    _emit_json({"r1": args.r1, "r2": args.r2, "value": value}, args.out)
    return EXIT_OK


def _cmd_gap(args) -> int:
    p = _load_pmf(args.pmf)
    _emit_json(gap_check(p, args.r1).to_dict(), args.out)
    return EXIT_OK


def _cmd_dsbs(args) -> int:
    pt = dsbs_mod.dsbs_pair(args.p, args.r1, args.r2)
    beta_u, q0_u, q1_u = pt.argmin_unconstrained
    beta_c, q_c = pt.argmin_constrained
    payload = {
        "p": args.p,
        "r1": args.r1,
        "r2": args.r2,
        "unconstrained": {"value": pt.unconstrained, "beta": beta_u, "q0": q0_u, "q1": q1_u},
        "constrained": {"value": pt.constrained, "beta": beta_c, "q": q_c},
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_fig2(args) -> int:
    if args.r2 == "auto":
        r2 = 1.0 - binary_entropy(0.2)
        print(f"fig2: resolved --r2 auto to {r2!r}", file=sys.stderr)
    else:
        r2 = float(args.r2)
    points = dsbs_mod.figure2_sweep(args.p, r2, _parse_grid(args.r1_grid), workers=_workers())
    _emit("\n".join(dsbs_mod.fig2_csv_rows(points)), args.out)
    return EXIT_OK


def _cmd_pa(args) -> int:
    src = _load_source(args.source)
    report = pa_mod.pa_security_bound(
        src, args.r1, args.r2, args.delta, args.n, config=_config_from(args, DEFAULT_CONFIG), nu=args.nu
    )
    if report.vacuous:
        print("pa: the bound is vacuous (total >= 1)", file=sys.stderr)
    _emit_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_pa_tradeoff(args) -> int:
    src = _load_source(args.source)
    columns = pa_mod.pa_rate_tradeoff(
        src,
        args.target,
        args.n,
        args.delta,
        _parse_grid(args.r2_grid),
        _parse_grid(args.r1_grid),
        config=_config_from(args, DEFAULT_CONFIG),
        nu=args.nu,
        workers=_workers(),
    )
    _emit("\n".join(pa_mod.tradeoff_csv_rows(columns)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--grid-resolution",
        type=int,
        help="lattice resolution; oohama --source lowers it until its lattice has at most 10,000 rows",
    )
    common.add_argument("--starts", type=int)
    common.add_argument("--max-iterations", type=int)
    common.add_argument("--step-tolerance", type=float)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="write the output to a file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="wakexp",
        description="Strong-converse exponent toolkit for coding with encoded side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", parents=[common], help="exponent with its breakdown")
    p.add_argument("--source", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--nu", type=int)
    p.add_argument("--full-cardinality", action="store_true")
    p.set_defaults(handler=_cmd_exponent)

    p = sub.add_parser("region", parents=[common], help="achievable-region boundary")
    p.add_argument("--source", required=True)
    p.add_argument("--r2", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2-grid")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("ne", parents=[common], help="non-encoded side information exponent")
    p.add_argument("--source", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.set_defaults(handler=_cmd_ne)

    p = sub.add_parser("single", parents=[common], help="single-user exponent, both forms")
    p.add_argument("--pmf", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.set_defaults(handler=_cmd_single)

    p = sub.add_parser("oohama", parents=[common], help="parametric comparison bound")
    p.add_argument("--pmf")
    p.add_argument("--source")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, default=0.0)
    p.add_argument("--nu", type=int)
    p.set_defaults(handler=_cmd_oohama)

    p = sub.add_parser("gap", parents=[common], help="tight-vs-comparison gap report")
    p.add_argument("--pmf", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("dsbs", parents=[common], help="binary symmetric family bound")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.set_defaults(handler=_cmd_dsbs)

    p = sub.add_parser("fig2", parents=[common], help="sweep of both family variants over r1")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r2", required=True, help="a number, or 'auto' for 1 - h(0.2)")
    p.add_argument("--r1-grid", required=True, help="start:stop:step, inclusive")
    p.set_defaults(handler=_cmd_fig2)

    p = sub.add_parser("pa", parents=[common], help="privacy-amplification security bound")
    p.add_argument("--source", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=int)
    p.set_defaults(handler=_cmd_pa)

    p = sub.add_parser("pa-tradeoff", parents=[common], help="key rate vs storage rate table")
    p.add_argument("--source", required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--r2-grid", required=True)
    p.add_argument("--r1-grid", required=True)
    p.add_argument("--nu", type=int)
    p.set_defaults(handler=_cmd_pa_tradeoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
