"""Binary symmetric study case with a two-letter auxiliary.

For a doubly symmetric binary source with crossover p, a three-parameter
family (beta, q0, q1) of auxiliary joints gives the upper bound

    min (1-beta) D(q0||p) + beta D(q1||p) + max(1 - h(beta) - r2, 0)
    s.t. h((1-beta)(1-q0) + beta q1) <= r1

on the exponent; restricting q0 = q1 makes the auxiliary chain Markov.
The sweep over r1 reports both variants side by side — the unrestricted
minimum is the interesting one, since it dips strictly below the Markov
variant in the middle of the rate range.

The search domain is a product of 2-simplices: each parameter t in [0, 1]
is the first coordinate of the pmf (t, 1 - t), so a search point reads
(beta, 1 - beta, q0, 1 - q0, q1, 1 - q1) and the objective reads every
other coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .probkit import (
    DomainError,
    JointPmf2,
    binary_entropy,
    binary_entropy_inverse,
    binary_kl,
    check_rate,
)
from .simplex_optim import SearchDomain, Simplex, SolverConfig, minimize

# per-axis lattice denominators: fast tier for sweeps, oracle tier for checks
DSBS_FAST_CONFIG = SolverConfig(grid_resolution=24, starts=4, max_iterations=800, seed=0)
DSBS_ORACLE_CONFIG = SolverConfig(grid_resolution=400, starts=8, seed=0)

CSV_HEADER = "r1,unconstrained,constrained,beta_u,q0_u,q1_u,beta_c,q_c"


@dataclass(frozen=True)
class DsbsParams:
    """One point of the three-parameter auxiliary family."""

    p: float
    beta: float
    q0: float
    q1: float

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise DomainError("crossover probability must be strictly inside (0, 1/2)")
        for name in ("beta", "q0", "q1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class DsbsPoint:
    """Both variants of the bound at one r1."""

    r1: float
    unconstrained: float
    constrained: float
    argmin_unconstrained: tuple
    argmin_constrained: tuple

    def __post_init__(self):
        if self.constrained < self.unconstrained - 1e-9:
            raise ValueError("the Markov restriction cannot decrease the minimum")


def dsbs_source(p: float) -> JointPmf2:
    """Uniform binary input through a binary symmetric channel of crossover p."""
    if not 0.0 < p < 0.5:
        raise DomainError("crossover probability must be strictly inside (0, 1/2)")
    d = (1.0 - p) / 2.0
    o = p / 2.0
    return JointPmf2([[d, o], [o, d]])


def dsbs_objective(params: DsbsParams, r2: float) -> float:
    """(1-beta) D(q0||p) + beta D(q1||p) + max(1 - h(beta) - r2, 0)."""
    check_rate(r2, "r2")
    div = (1.0 - params.beta) * binary_kl(params.q0, params.p) + params.beta * binary_kl(
        params.q1, params.p
    )
    return div + max(1.0 - binary_entropy(params.beta) - r2, 0.0)


def dsbs_constraint_value(params: DsbsParams) -> float:
    """H(X|U) of the family: h((1-beta)(1-q0) + beta q1)."""
    return binary_entropy((1.0 - params.beta) * (1.0 - params.q0) + params.beta * params.q1)


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------

def _xlog2(a: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t = a * np.log2(a)
    return np.where(np.isnan(t), 0.0, t)


def _h_arr(a: np.ndarray) -> np.ndarray:
    return -(_xlog2(a) + _xlog2(1.0 - a))


def _db_arr(q: np.ndarray, p: float) -> np.ndarray:
    # finite for q in [0, 1] because p is interior
    return -_h_arr(q) - q * math.log2(p) - (1.0 - q) * math.log2(1.0 - p)


def _evaluate(pts: np.ndarray, p: float, r1: float, r2: float, markov: bool):
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    beta = pts[:, 0]
    q0 = pts[:, 1]
    q1 = q0 if markov else pts[:, 2]
    obj = (
        (1.0 - beta) * _db_arr(q0, p)
        + beta * _db_arr(q1, p)
        + np.maximum(1.0 - _h_arr(beta) - r2, 0.0)
    )
    mix = (1.0 - beta) * (1.0 - q0) + beta * q1
    violation = np.maximum(_h_arr(mix) - r1, 0.0)
    return obj, violation


def _zero_candidates(p: float, r1: float, r2: float):
    """Family points that make the objective exactly zero when feasible."""
    beta_star = binary_entropy_inverse(min(max(1.0 - r2, 0.0), 1.0))
    out = [(beta_star, p, p), (1.0 - beta_star, p, p)]
    q_sat = binary_entropy_inverse(min(r1, 1.0))
    out.append((0.0, min(max(1.0 - q_sat, 0.0), 1.0), p))
    out.append((1.0, p, q_sat))
    return out


def _inner_solved_candidates(p, r1, r2, markov, resolution):
    """Sweep the outer parameters with the inner one solved exactly.

    For fixed (beta, q1) the objective is strictly convex in q0 while the
    constraint mix is affine in it, so the optimal q0 is p when feasible
    and otherwise sits where the mix entropy equals r1; both mix roots
    come from the binary-entropy inverse.  (Tied q0 = q1 works the same
    way along beta.)  Returns the best feasible (beta, q0, q1) row, or
    None when no row is feasible.
    """
    n = int(min(max(4 * resolution + 1, 201), 1601))
    a = binary_entropy_inverse(min(r1, 1.0))
    mix_targets = [a, max(a - 1e-9, 0.0), 1.0 - a, min(1.0 - a + 1e-9, 1.0)]
    beta = np.linspace(0.0, 1.0, n)
    rows = []
    if markov:
        denom = 1.0 - 2.0 * beta
        ok = np.abs(denom) > 1e-12
        for mt in mix_targets:
            q = np.where(ok, ((1.0 - beta) - mt) / np.where(ok, denom, 1.0), p)
            rows.append(np.column_stack([beta, q]))
        rows.append(np.column_stack([beta, np.full(n, p)]))
        pts = np.vstack(rows)
        pts = pts[(pts[:, 1] >= 0.0) & (pts[:, 1] <= 1.0)]
    else:
        bb, qq1 = np.meshgrid(beta, np.linspace(0.0, 1.0, n), indexing="ij")
        bb, qq1 = bb.ravel(), qq1.ravel()
        ok = bb < 1.0 - 1e-12
        for mt in mix_targets:
            q0 = np.where(ok, 1.0 - (mt - bb * qq1) / np.where(ok, 1.0 - bb, 1.0), p)
            rows.append(np.column_stack([bb, q0, qq1]))
        rows.append(np.column_stack([bb, np.full_like(bb, p), qq1]))
        pts = np.vstack(rows)
        pts = pts[(pts[:, 1] >= 0.0) & (pts[:, 1] <= 1.0)]
    obj, viol = _evaluate(pts, p, r1, r2, markov)
    feasible = viol <= 1e-12
    if not feasible.any():
        return None
    return pts[feasible][np.argmin(obj[feasible])]


def dsbs_exponent(
    p: float,
    r1: float,
    r2: float,
    markov_constrained: bool = False,
    config: SolverConfig | None = None,
    warm_candidates=(),
) -> tuple[float, DsbsParams]:
    """Minimize the family bound at one rate pair.

    Returns the value (an upper bound on the exponent of the binary
    symmetric source, +0.0 where the minimum is at or below 0) and the
    minimizing parameters; with ``markov_constrained`` the search is
    restricted to q0 = q1.
    """
    if not 0.0 < p < 0.5:
        raise DomainError("crossover probability must be strictly inside (0, 1/2)")
    check_rate(r1, "r1")
    check_rate(r2, "r2")
    config = DSBS_FAST_CONFIG if config is None else config
    dims = 2 if markov_constrained else 3
    domain = SearchDomain([Simplex(2)] * dims)

    def batch_evaluate(pts):
        return _evaluate(pts[:, 0::2], p, r1, r2, markov_constrained)

    inner = _inner_solved_candidates(p, r1, r2, markov_constrained, config.grid_resolution)
    zero_pts = [
        np.asarray(c[:dims], dtype=np.float64) for c in _zero_candidates(p, r1, r2)
    ]
    if zero_pts:
        obj, viol = _evaluate(np.asarray(zero_pts), p, r1, r2, markov_constrained)
        scored = np.where(viol <= 1e-12, obj, np.inf)
        zero_pts = [zero_pts[int(np.argmin(scored))]] if np.isfinite(scored).any() else []
    rows = ([] if inner is None else [inner]) + zero_pts
    rows.extend(np.asarray(tuple(w)[:dims], dtype=np.float64) for w in warm_candidates)
    rows.extend(np.random.default_rng(config.seed).random((config.starts, dims)))
    starts = [np.column_stack([t, 1.0 - t]).ravel() for t in rows]
    best = minimize(domain, batch_evaluate, config, starts, config.grid_resolution)
    # h(0) = 0 <= r1 makes (beta, q0) = (0, 1) always feasible, so best exists
    vec = best.argmin[0::2]
    if markov_constrained:
        params = DsbsParams(p, float(vec[0]), float(vec[1]), float(vec[1]))
    else:
        params = DsbsParams(p, float(vec[0]), float(vec[1]), float(vec[2]))
    # every term of the objective is nonnegative, so a value <= 0 is rounding
    return (float(best.value) if best.value > 0.0 else 0.0), params


def dsbs_pair(p: float, r1: float, r2: float, config: SolverConfig | None = None) -> DsbsPoint:
    """Both variants at one rate pair: the Markov solve, then the
    unrestricted solve warm-started from its argmin."""
    con_val, con_par = dsbs_exponent(p, r1, r2, markov_constrained=True, config=config)
    unc_val, unc_par = dsbs_exponent(
        p,
        r1,
        r2,
        markov_constrained=False,
        config=config,
        warm_candidates=[(con_par.beta, con_par.q0, con_par.q1)],
    )
    return DsbsPoint(
        r1=r1,
        unconstrained=unc_val,
        constrained=con_val,
        argmin_unconstrained=(unc_par.beta, unc_par.q0, unc_par.q1),
        argmin_constrained=(con_par.beta, con_par.q0),
    )


def _sweep_point(args) -> DsbsPoint:
    return dsbs_pair(*args)


def figure2_sweep(
    p: float,
    r2: float,
    r1_grid,
    config: SolverConfig | None = None,
    workers: int = 1,
) -> list[DsbsPoint]:
    """Both bound variants along an ascending r1 grid.

    The Markov argmin seeds the unrestricted solve at each point, so the
    restriction dominance holds pointwise by construction; a final pass
    carries argmins forward in r1 (they stay feasible as the constraint
    relaxes), which makes both curves non-increasing.
    """
    r1s = [float(v) for v in r1_grid]
    if any(b < a for a, b in zip(r1s, r1s[1:])):
        raise DomainError("r1 grid must be ascending")
    if not all(0.0 <= v <= 1.0 for v in r1s):
        raise DomainError("r1 grid must lie within [0, 1]")
    check_rate(r2, "r2")
    config = DSBS_FAST_CONFIG if config is None else config
    raw = parallel_map(_sweep_point, [(p, r1, r2, config) for r1 in r1s], workers=workers)
    points: list[DsbsPoint] = []
    for k, pt in enumerate(raw):
        if k > 0:
            prev = points[-1]
            unc, arg_u = pt.unconstrained, pt.argmin_unconstrained
            con, arg_c = pt.constrained, pt.argmin_constrained
            if prev.unconstrained < unc:
                unc, arg_u = prev.unconstrained, prev.argmin_unconstrained
            if prev.constrained < con:
                con, arg_c = prev.constrained, prev.argmin_constrained
            pt = DsbsPoint(pt.r1, unc, con, arg_u, arg_c)
        points.append(pt)
    return points


def _fmt(v: float) -> str:
    """Six decimal places, with -0.0 printed as 0.0; shared by the CSV writers."""
    return f"{round(v, 6) + 0.0:.6f}"


def fig2_csv_rows(points) -> list[str]:
    """Fixed-header CSV rows, six decimal places."""
    rows = [CSV_HEADER]
    for pt in points:
        bu, q0u, q1u = pt.argmin_unconstrained
        bc, qc = pt.argmin_constrained
        cells = [pt.r1, pt.unconstrained, pt.constrained, bu, q0u, q1u, bc, qc]
        rows.append(",".join(_fmt(c) for c in cells))
    return rows
