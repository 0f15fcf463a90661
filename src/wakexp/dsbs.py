"""Binary symmetric study case with a two-letter auxiliary.

For a doubly symmetric binary source with crossover p, a three-parameter
family (beta, q0, q1) of auxiliary joints gives the upper bound

    min (1-beta) D(q0||p) + beta D(q1||p) + max(1 - h(beta) - r2, 0)
    s.t. h((1-beta)(1-q0) + beta q1) <= r1

on the exponent; restricting q0 = q1 makes the auxiliary chain Markov.
The sweep over r1 reports both variants side by side — the unrestricted
minimum is the interesting one, since it dips strictly below the Markov
variant in the middle of the rate range.

The minimum is exact in (q0, q1).  For fixed beta the divergence is
convex in (q0, q1) and the mix (1-beta)(1-q0) + beta q1 is affine, so on
the side mix >= 1 - h^-1(r1) of the constraint the minimizer lies on the
KKT path logit q0 = logit p - t, logit q1 = logit p + t, at the smallest
push t >= 0 that is feasible; the side mix <= h^-1(r1) is the same path
after the relabeling (beta, q0, q1) -> (1 - beta, q1, q0).  The Markov
variant pushes its one q up or down from p, and beta -> 1 - beta leaves
it unchanged, so it searches beta <= 1/2 only.  Feasibility is monotone in
the push, so one vectorized bisection finds it for a whole beta grid,
which ``simplex_optim._zoom_max`` refines around its best point; one more
bisection at the winning beta gives its (q0, q1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .probkit import DomainError, JointPmf2, binary_entropy, binary_kl, check_rate
from .simplex_optim import _zoom_max

_BETA_POINTS = 257
_BETA_LEVELS = 5  # each level spans the two cells around the last level's best beta
# exp(-800) underflows, so this push reaches q = 1 and q = 0 exactly, as r1 = 0 needs
_MAX_PUSH = 800.0

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
# exact inner solve along the KKT path
# ---------------------------------------------------------------------------

# the helpers below run inside dsbs_exponent's np.errstate, which silences
# the log of 0 and the exp overflow of a saturated push

def _xlog2(a: np.ndarray, b: float = 1.0) -> np.ndarray:
    # a log2(a / b), 0 where a = 0, and exactly 0 where a = b
    return np.where(a > 0.0, a * np.log2(a / b), 0.0)


def _h_arr(a: np.ndarray) -> np.ndarray:
    return -(_xlog2(a) + _xlog2(1.0 - a))


def _mix_entropy(beta, q0, q1) -> np.ndarray:
    return _h_arr((1.0 - beta) * (1.0 - q0) + beta * q1)


def _push(p: float, t: np.ndarray) -> np.ndarray:
    """q with logit q = logit p + t; exactly p at t = 0, which the logistic is not."""
    q = 1.0 / (1.0 + np.exp(-(math.log(p / (1.0 - p)) + t)))
    return np.where(t == 0.0, p, q)


def _smallest_push(p: float, r1: float, beta, s0, s1):
    """(q0, q1) = (push(s0 u), push(s1 u)) per row at the smallest push u in
    [0, _MAX_PUSH] with h(mix) <= r1, bisected down to adjacent floats.

    Along each ray the mix moves monotonically away from its value at
    u = 0, so once the push is feasible it stays so; a row infeasible even
    at _MAX_PUSH ends there.
    """

    def at(u):
        return _push(p, s0 * u), _push(p, s1 * u)

    def feasible(u):
        return _mix_entropy(beta, *at(u)) <= r1

    lo = np.zeros_like(beta)
    hi = np.where(feasible(lo), 0.0, _MAX_PUSH)
    mid = 0.5 * hi
    while np.any((lo < mid) & (mid < hi)):
        ok = feasible(mid)
        lo, hi = np.where(ok, lo, mid), np.where(ok, mid, hi)
        mid = 0.5 * (lo + hi)
    return at(hi)


def dsbs_exponent(
    p: float, r1: float, r2: float, markov_constrained: bool = False
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
    # the beta range, and (sign of q0's push, sign of q1's push) of each ray
    if markov_constrained:
        lo, hi, rays = 0.0, 0.5, np.array([(1.0, 1.0), (-1.0, -1.0)])
    else:
        lo, hi, rays = 0.0, 1.0, np.array([(-1.0, 1.0)])

    def solve(grid):
        # the smallest feasible push of each ray at each beta and its value, one row per ray
        beta = np.tile(grid, len(rays))
        s0, s1 = np.repeat(rays, len(grid), axis=0).T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q0, q1 = _smallest_push(p, r1, beta, s0, s1)
            value = (
                (1.0 - beta) * (_xlog2(q0, p) + _xlog2(1.0 - q0, 1.0 - p))
                + beta * (_xlog2(q1, p) + _xlog2(1.0 - q1, 1.0 - p))
                + np.maximum(1.0 - _h_arr(beta) - r2, 0.0)
            )
            value = np.where(_mix_entropy(beta, q0, q1) <= r1, value, np.inf)
        return value.reshape(len(rays), -1), q0, q1

    # at beta = 0 the full push makes the mix 0 or 1, so the first level finds a point
    beta, neg_value = _zoom_max(
        lambda grid: -solve(grid)[0].min(axis=0), lo, hi, _BETA_POINTS, _BETA_LEVELS
    )
    value, q0, q1 = solve(np.array([beta]))
    k = int(np.argmin(value))
    # every term of the objective is nonnegative, so a value <= 0 is rounding
    return (-neg_value if neg_value < 0.0 else 0.0), DsbsParams(p, beta, float(q0[k]), float(q1[k]))


def dsbs_pair(p: float, r1: float, r2: float) -> DsbsPoint:
    """Both variants at one rate pair; the unrestricted one keeps the
    Markov argmin where that is lower, so the restriction never reads
    below it."""
    con_val, con_par = dsbs_exponent(p, r1, r2, markov_constrained=True)
    unc_val, unc_par = dsbs_exponent(p, r1, r2)
    if con_val < unc_val:
        unc_val, unc_par = con_val, con_par
    return DsbsPoint(
        r1=r1,
        unconstrained=unc_val,
        constrained=con_val,
        argmin_unconstrained=(unc_par.beta, unc_par.q0, unc_par.q1),
        argmin_constrained=(con_par.beta, con_par.q0),
    )


def _sweep_point(args) -> DsbsPoint:
    return dsbs_pair(*args)


def figure2_sweep(p: float, r2: float, r1_grid, workers: int = 1) -> list[DsbsPoint]:
    """Both bound variants along an ascending r1 grid.

    :func:`dsbs_pair` makes the restriction dominance hold pointwise by
    construction; a final pass carries argmins forward in r1 (they stay
    feasible as the constraint relaxes), which makes both curves
    non-increasing.
    """
    r1s = [float(v) for v in r1_grid]
    if any(b < a for a, b in zip(r1s, r1s[1:])):
        raise DomainError("r1 grid must be ascending")
    if not all(0.0 <= v <= 1.0 for v in r1s):
        raise DomainError("r1 grid must lie within [0, 1]")
    check_rate(r2, "r2")
    raw = parallel_map(_sweep_point, [(p, r1, r2) for r1 in r1s], workers=workers)
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
