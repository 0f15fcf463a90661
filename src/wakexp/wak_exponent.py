"""Tight strong-converse exponent for coding with encoded side information.

The central quantity is the minimum, over auxiliary joints P(u, x, y) with
H(X|U) <= R1, of

    D(Pxy~ || Pxy) + I(U;X|Y) + max(I(U;Y) - R2, 0),

together with its three-term breakdown and the achievable rate region the
zero set of that minimum traces out.  The divergence term also has a direct
form D(P_UXY || P_{U|Y} Pxy); both routes are exposed so they can be checked
against each other.

The minimization is nonconvex (the conditional mutual information and the
positive part both kink), so seeded multistart compass descent runs next
to structured starts, each a table m(x, y) glued to a test channel:

* m(x, y) W(u|y), Markov U - Y - X under m: constant U, U = Y, its
  entropy-saturating timeshare, the optimized U = Y copy manifold and the
  embedded rate-region test channel;
* m(x, y) W(u|x): U = X, its timeshare, the optimized U = X copy manifold
  and, where U = X does not fit (nu < |X|), the point masses.

U = Y on the minimizer q of the non-encoded exponent, a lower bound on
this one, joins them when H_q(Y) <= r2.  Constant U is infeasible when
R1 < H(X), and U = Y when R1 < H(X|Y); their descents rank probes by a
penalized score and count only from the first feasible point.  U = X (or
the point masses) has H(X|U) = 0, so the returned point is always feasible
and its value an upper bound that the other starts can only improve.

Each solve first computes a closed-form floor L <= F, the larger of 0,
the non-encoded exponent NE(r1) and the cut-set bound, the single-user
exponent of the X-marginal at rate r1 + r2, each an Arimoto dual
objective, so certified by weak duality.  Its phases then share one stop
rule: the first feasible point at most L * (1 + STOP_RTOL) is returned.

1. The fixed starts, evaluated in one batch.  A stop here counts only
   those evaluations and reports converged; at L = 0 it is a feasible
   start at value 0.
2. The seeded main batch: one :func:`simplex_optim.compass_batch` from
   the distinct fixed and warm starts, then the seeded multistart.
3. Only then the searched starts: the copy manifolds and the rate
   region's test channel, each search a :func:`simplex_optim.minimize`
   call (the U = Y manifold and the region bisect a multiplier with
   :func:`simplex_optim.bisect_multiplier`).  Those not yet descended run
   in one more ``compass_batch``, and the reported point is the first
   strictly lowest feasible finisher of all the descents, walked in the
   order of one main batch: the distinct fixed, copy, region and warm
   starts, then the multistart.

Every descent runs as if alone, so a solve that reaches phase 3 returns
what one main batch of every start would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .probkit import (
    AuxJointPmf,
    DimensionError,
    DomainError,
    JointPmf2,
    Layout,
    arimoto_dual,
    arimoto_floor,
    aux_measures,
    check_rate,
    entropy_bits,
    kl_bits,
    lead_sum,
    y_contract,
)
from .simplex_optim import (
    DEFAULT_CONFIG,
    SearchDomain,
    Simplex,
    SolverConfig,
    _FEAS_TOL,
    _capped_resolution,
    best_of,
    bisect_multiplier,
    compass_batch,
    lattice_rows,
    minimize,
    random_starts,
)

REGION_TOL = 1e-6          # rate-region membership tolerance, bits
STOP_RTOL = 1e-9           # a feasible point this close to the floor, relative, ends a solve


class UpperBoundWarning(UserWarning):
    """The requested auxiliary alphabet is below the support bound, so the
    computed value is an upper bound on the exponent, not the exponent."""


@dataclass(frozen=True)
class RatePair:
    """Nonnegative description rates (bits/symbol) for the two encoders."""

    r1: float
    r2: float

    def __post_init__(self):
        check_rate(self.r1, "r1")
        check_rate(self.r2, "r2")


@dataclass(frozen=True, eq=False)
class ExponentBreakdown:
    """Optimal value with its decomposition and solver diagnostics."""

    value: float
    kl_term: float
    soft_markov_term: float
    rate2_term: float
    constraint_slack: float
    argmin: AuxJointPmf
    evaluations: int
    converged: bool

    def __post_init__(self):
        terms = self.kl_term + self.soft_markov_term + self.rate2_term
        if abs(self.value - terms) > 1e-9:
            raise ValueError("breakdown terms do not sum to the value")
        if self.value < -1e-9 or self.constraint_slack < -1e-9:
            raise ValueError("breakdown violates feasibility invariants")

    def to_dict(self) -> dict:
        a = self.argmin
        return {
            "value": self.value,
            "kl_term": self.kl_term,
            "soft_markov_term": self.soft_markov_term,
            "rate2_term": self.rate2_term,
            "constraint_slack": self.constraint_slack,
            "argmin": {
                "nu": a.nu,
                "nx": a.nx,
                "ny": a.ny,
                "probs": [float(v) for v in a.probs.ravel()],
            },
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class RegionCurve:
    """Lower boundary of the achievable region: (r2, min r1) pairs, r2 ascending."""

    points: tuple

    def __post_init__(self):
        pts = tuple((float(a), float(b)) for a, b in self.points)
        object.__setattr__(self, "points", pts)
        r2s = [p[0] for p in pts]
        r1s = [p[1] for p in pts]
        if any(b < a for a, b in zip(r2s, r2s[1:])):
            raise ValueError("r2 grid must be ascending")
        if any(b > a + 1e-9 for a, b in zip(r1s, r1s[1:])):
            raise ValueError("min_r1 must be non-increasing in r2")


# ---------------------------------------------------------------------------
# pointwise operations on auxiliary joints
# ---------------------------------------------------------------------------

def _check_alphabets(a: AuxJointPmf, src: JointPmf2):
    if a.nx != src.nx or a.ny != src.ny:
        raise DimensionError(
            f"auxiliary joint is on {a.nx}x{a.ny}, source on {src.nx}x{src.ny}"
        )


def wak_divergence_term(a: AuxJointPmf, src: JointPmf2) -> float:
    """D(P_UXY || P_{U|Y} Pxy) in bits, computed directly from the tensor.

    Returns ``math.inf`` when the (x, y) marginal of ``a`` charges a null
    atom of ``src``.
    """
    _check_alphabets(a, src)
    t = a.probs
    puy = t.sum(axis=1)
    py = puy.sum(axis=0)
    total = 0.0
    for u in range(a.nu):
        for x in range(a.nx):
            for y in range(a.ny):
                w = t[u, x, y]
                if w <= 0.0:
                    continue
                ref = (puy[u, y] / py[y]) * src.probs[x, y]
                if ref == 0.0:
                    return math.inf
                total += w * math.log2(w / ref)
    return total


def soft_markov_decompose(a: AuxJointPmf, src: JointPmf2) -> tuple[float, float]:
    """Split the divergence term into D(Pxy~||Pxy) and I(U;X|Y).

    The two summands are computed from marginal entropies, independently of
    the direct double sum in :func:`wak_divergence_term`; the conditional
    mutual information vanishes exactly when U - Y - X is Markov.
    """
    _check_alphabets(a, src)
    m = aux_measures(a)
    return kl_bits(m.marginal_xy.probs, src.probs), m.i_u_x_given_y


def wak_objective(a: AuxJointPmf, src: JointPmf2, r2: float) -> float:
    """Divergence term plus the rate-2 penalty max(I(U;Y) - r2, 0)."""
    check_rate(r2, "r2")
    div = wak_divergence_term(a, src)
    if math.isinf(div):
        return math.inf
    return div + max(aux_measures(a).i_u_y - r2, 0.0)


# ---------------------------------------------------------------------------
# batched search problem
# ---------------------------------------------------------------------------

def _padded_channel(channel, nu: int) -> np.ndarray | None:
    """Rows W(u|.) of a channel (or the u-slices of a joint) zero-padded to
    ``nu`` rows; None when there are more."""
    w = np.asarray(channel, dtype=np.float64)
    if w.shape[0] > nu:
        return None
    out = np.zeros((nu,) + w.shape[1:])
    out[: w.shape[0]] = w
    return out


class _ExponentSearch:
    """Vectorized objective/violation for the mixture parametrization.

    A point is [P_U | block_0 | ... | block_{nu-1}] where each block is the
    joint conditional P(x, y | u) flattened row-major.
    """

    def __init__(self, src: JointPmf2, r1: float, r2: float, nu: int):
        self.src = src
        self.r1 = float(r1)
        self.r2 = float(r2)
        self.nu = nu
        self.nx, self.ny = src.nx, src.ny
        self.k = self.nx * self.ny
        self.src_flat = src.probs.ravel()
        with np.errstate(divide="ignore"):
            self.log_src = np.log2(self.src_flat)
        self.domain = SearchDomain([Simplex(nu)] + [Simplex(self.k)] * nu)
        # P_U, P_UXY, P_XY, P_Y, P_UY, P_UX and P_XY again, for the divergence
        self.layout = Layout([nu, nu * self.k, self.k, self.ny, nu * self.ny, nu * self.nx, self.k])
        # a table m(x, y), its P_Y and P_X, and m again, for the divergence
        self.table_layout = Layout([self.k, self.ny, self.nx, self.k])

    def tensors(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        pu = pts[:, : self.nu]
        blocks = pts[:, self.nu :].reshape(-1, self.nu, self.k)
        return pu[:, :, None] * blocks

    def evaluate(self, pts: np.ndarray):
        """(objective, violation) rows for a 2-d batch of domain points.

        Every marginal goes to one feature-major block, one row per entry,
        so one entropy pass gives all six entropies and the divergence.
        Each marginal is summed in the order numpy sums it from the
        row-major (point, u, x, y) tensor.
        """
        n, nu, nx, ny, k = len(pts), self.nu, self.nx, self.ny, self.k
        pts = pts.T
        u, uxy, xy, y, uy, ux, div = self.layout.rows
        m = self.layout.block(n)
        m[u] = pts[:nu]
        t = m[uxy].reshape(nu, nx, ny, n)
        np.multiply(pts[:nu, None, None], pts[nu:].reshape(nu, nx, ny, n), out=t)
        lead_sum(t, out=m[xy].reshape(nx, ny, n), pairwise=k == 1)
        lead_sum(m[xy].reshape(nx, ny, n), out=m[y], pairwise=ny == 1)
        lead_sum(t.transpose(1, 0, 2, 3), out=m[uy].reshape(nu, ny, n), pairwise=ny == 1)
        lead_sum(t.transpose(2, 0, 1, 3), out=m[ux].reshape(nu, nx, n), pairwise=True)
        m[div] = m[xy]
        h_u, h_uxy, h_xy, h_y, h_uy, h_ux, kl = self.layout.entropies(m, self.log_src)
        cond_mi = (h_xy - h_y) - (h_uxy - h_uy)
        rate2 = np.maximum((h_u + h_y - h_uy) - self.r2, 0.0)
        with np.errstate(invalid="ignore"):
            obj = kl + cond_mi + rate2
        violation = np.maximum((h_ux - h_u) - self.r1, 0.0)
        return np.fmin(obj, math.inf), violation

    def table_stats(self, pts: np.ndarray):
        """(D(m||src), H(X,Y), H(Y), H(X)) rows for a 2-d batch of tables m(x, y)."""
        pts = pts.T
        xy, y, x, div = self.table_layout.rows
        m = self.table_layout.block(pts.shape[1])
        m[xy] = pts
        m[div] = pts
        table = pts.reshape(self.nx, self.ny, -1)
        lead_sum(table, out=m[y], pairwise=self.ny == 1)
        lead_sum(table.transpose(1, 0, 2), out=m[x], pairwise=True)
        h_xy, h_y, h_x, kl = self.table_layout.entropies(m, self.log_src)
        return kl, h_xy, h_y, h_x

    def encode(self, tensor: np.ndarray) -> np.ndarray:
        """Flat domain point reproducing the given (nu, nx, ny) tensor."""
        t = np.asarray(tensor, dtype=np.float64).reshape(self.nu, self.k)
        pu = t.sum(axis=1)
        # an empty u gets the uniform block
        blocks = np.divide(t, pu[:, None], out=np.full_like(t, 1.0 / self.k), where=pu[:, None] > 0.0)
        return np.concatenate([pu, blocks.ravel()])

    # -- structured starts ---------------------------------------------

    def embed(self, channel, on: str, table=None) -> np.ndarray | None:
        """Domain point of m(x, y) W(u|x) (``on="x"``) or m(x, y) W(u|y) (``on="y"``).

        The table m defaults to the source; W's rows are zero-padded to nu,
        and a channel with more than nu rows gives None.
        """
        w = _padded_channel(channel, self.nu)
        if w is None:
            return None
        m = self.src.probs if table is None else np.asarray(table).reshape(self.nx, self.ny)
        return self.encode(m * (w[:, :, None] if on == "x" else w[:, None, :]))

    def split_channel(self, on: str, table) -> np.ndarray:
        """W that timeshares the copy U = X (``on="x"``) or U = Y of
        ``table`` with a constant last slot.

        The slot's weight makes H(X|U), which moves from H(X|copy) to H(X)
        with it, saturate r1 as tightly as the family allows.  W has nu
        rows, or one more than the copy when nu is smaller than that.
        """
        n = table.shape[0 if on == "x" else 1]
        h_full = entropy_bits(table.sum(axis=1))
        if on == "x":
            h_copy, tol = 0.0, 0.0
        else:
            # H(X|Y) is a difference of entropies, so an empty gap shows as rounding
            h_copy, tol = entropy_bits(table) - entropy_bits(table.sum(axis=0)), 1e-15
        gap = h_full - h_copy
        gamma = 1.0 if gap <= tol else min(1.0, max(0.0, (self.r1 - h_copy) / gap))
        gamma *= 1.0 - 1e-12
        w = np.zeros((max(self.nu, n + 1), n))
        w[:n] = (1.0 - gamma) * np.eye(n)
        w[-1] = gamma
        return w

    def fixed_starts(self) -> list:
        """The closed-form starts, in a fixed order: constant U, the point
        masses (only when nu < |X|, where U = X does not fit), U = Y, U = X,
        the timeshares of U = X and of U = Y, and U = Y on the minimizer q
        of :func:`probkit.arimoto_dual` when H_q(Y) <= r2: its value is then
        the non-encoded exponent, a lower bound on this one.  Where
        r1 >= H(X|Y), q is the source, and the start is U = Y again."""
        nx, ny, src = self.nx, self.ny, self.src.probs
        starts = [self.embed(np.ones((1, ny)), "y")]
        if self.nu < nx:
            # the point mass at x is P(y|x) under the channel that sends only x to u = 0
            px = src.sum(axis=1)
            p_y_given_x = np.divide(src, px[:, None], out=np.zeros_like(src), where=px[:, None] > 0.0)
            starts += [self.embed(np.eye(nx)[x : x + 1], "x", p_y_given_x) for x in range(nx) if px[x] > 0.0]
        starts += [self.embed(np.eye(ny), "y"), self.embed(np.eye(nx), "x")]
        starts += [self.embed(self.split_channel(on, src), on, src) for on in ("x", "y")]
        q = self.ne_dual[2]
        if entropy_bits(q.sum(axis=0)) <= self.r2:
            starts.append(self.embed(np.eye(ny), "y", q))
        return [s for s in starts if s is not None]

    @cached_property
    def ne_dual(self) -> tuple:
        """:func:`probkit.arimoto_dual` of the source at r1: the
        non-encoded exponent, its tilt and its minimizer."""
        return arimoto_dual(self.src.probs, self.r1)

    def floor(self) -> float:
        """L = max(0, NE(r1), single(S_X, r1 + r2)), a lower bound on F.

        F >= NE(r1), since I(U;X|Y) >= H(X|Y) - H(X|U); and the cut-set
        bound I(U;X|Y) + I(U;Y) >= I(U;X) >= H(X) - H(X|U) puts the
        single-user exponent of the X-marginal at rate r1 + r2 below F
        too.  Each term is the Arimoto dual objective at the tilt
        :func:`probkit.arimoto_dual` returns, so by weak duality it is a
        certified lower bound, whatever the bisection's accuracy.
        """
        px = self.src.probs.sum(axis=1)[:, None]
        rate = self.r1 + self.r2
        return max(
            0.0,
            arimoto_floor(self.src.probs, self.r1, self.ne_dual[1]),
            arimoto_floor(px, rate, arimoto_dual(px, rate)[1]),
        )

    def candidates_copy_manifolds(self, config: SolverConfig):
        """Optimize the deformed table of the two copy embeddings.

        On the U = Y manifold the objective collapses to
        D(m||src) + max(H_m(Y) - r2, 0) with the hard constraint
        H_m(X|Y) <= r1; the search is :func:`bisect_multiplier` alone on
        the penalty objective + lam * violation, with no polish, and gives
        no point when no solve is feasible.  On the always-feasible U = X
        manifold the collapse is D(m||src) + H_m(X|Y) + max(I_m(X;Y) - r2, 0),
        unconstrained: one lattice-then-descend :func:`minimize`.  Both
        searches run in the small table simplex.  Returns the embedded
        tensor points, U = X first, and the evaluations the searches spent.
        """
        k = self.k
        domain = SearchDomain([Simplex(k)])
        nx, ny = self.nx, self.ny
        r1, r2 = self.r1, self.r2

        local = replace(
            config,
            starts=max(4, min(config.starts, 8)),
            max_iterations=min(config.max_iterations, 2000),
        )
        base = [self.src_flat.copy()] + list(np.eye(k)[self.src_flat > 0.0])

        out, evaluations = [], 0
        if self.nu >= self.nx:
            def x_copy_evaluate(pts):
                kl, h_xy, h_y, h_x = self.table_stats(pts)
                mi = h_x + h_y - h_xy
                return kl + (h_xy - h_y) + np.maximum(mi - r2, 0.0), 0.0

            res = _capped_resolution(domain, 40, 200_000)
            best = minimize(domain, x_copy_evaluate, local, base, res)
            evaluations += best.evaluations
            out.append(self.embed(np.eye(nx), "x", best.argmin))

        if self.nu >= self.ny:
            def y_copy_evaluate(pts):
                kl, h_xy, h_y, _ = self.table_stats(pts)
                obj = kl + np.maximum(h_y - r2, 0.0)
                return obj, np.maximum((h_xy - h_y) - r1, 0.0)

            def scalarized(lam):
                def objective(pts):
                    obj, violation = y_copy_evaluate(pts)
                    return obj + lam * violation, 0.0

                return objective

            best = bisect_multiplier(domain, y_copy_evaluate, scalarized, base, local, 30, 20)
            evaluations += best.evaluations
            if not best.infeasible:
                out.append(self.embed(np.eye(ny), "y", best.argmin))
        return out, evaluations


# ---------------------------------------------------------------------------
# rate region
# ---------------------------------------------------------------------------

class _RegionSearch:
    """H(X|U) minimization over test channels W(u|y) with I(U;Y) <= r2."""

    def __init__(self, src: JointPmf2, r2: float, nu: int):
        self.src = src
        self.r2 = float(r2)
        self.nu = nu
        self.ny = src.ny
        self.py = src.probs.sum(axis=0)
        self.hy = entropy_bits(self.py)
        self.domain = SearchDomain([Simplex(nu)] * src.ny)
        self.layout = Layout([nu, nu * src.nx, nu * src.ny])     # P_U, P_UX, P_UY

    def stats(self, pts: np.ndarray):
        """(H(X|U), I(U;Y)) rows for a 2-d batch of stacked channel rows."""
        n, nu, ny, nx = len(pts), self.nu, self.ny, self.src.nx
        u, ux, uy = self.layout.rows
        m = self.layout.block(n)
        w = pts.T.reshape(ny, nu, n)
        # P_UY by (u, y); numpy lays the product out y-major, and sums over y so
        puy = m[uy].reshape(nu, ny, n).transpose(1, 0, 2)
        np.multiply(w, self.py[:, None, None], out=puy)
        lead_sum(puy, out=m[u], pairwise=nu == 1)
        y_contract(w, self.src.probs, out=m[ux].reshape(nu, nx, n))
        h_u, h_ux, h_uy = self.layout.entropies(m)
        return h_ux - h_u, h_u + self.hy - h_uy

    def evaluate(self, pts: np.ndarray):
        h, mi = self.stats(pts)
        return h, np.maximum(mi - self.r2, 0.0)

    def scalarized(self, lam: float):
        def batch(pts):
            h, mi = self.stats(pts)
            return h + lam * mi, 0.0

        return batch

    def encode_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=np.float64).reshape(-1)

    def candidates(self):
        """The constant channel and, when nu >= |Y|, the channel U = Y."""
        channels = (_padded_channel(w, self.nu) for w in (np.ones((1, self.ny)), np.eye(self.ny)))
        return [self.encode_rows(w.T) for w in channels if w is not None]


def _region_argmin(
    src: JointPmf2,
    r2: float,
    config: SolverConfig,
    nu_cap: int | None = None,
    warm_channel: np.ndarray | None = None,
) -> tuple[float, np.ndarray, int]:
    """Min H(X|U) and its channel; returns (value, W(u|y), evaluations).

    The boundary traced by (I(U;Y), H(X|U)) is convex, so the active
    constraint is handled by bisecting the multiplier of the scalarized
    objective H + lam * I, with each unconstrained solve warm-started from
    the previous multiplier.  One :func:`minimize` call then guards the
    corner cases: the lattice, and descents from its argmin, the fixed
    channels, the bisection's point and seeded restarts.  The result is
    :func:`best_of` the two, ties to the bisection.  H(X|U) >= 0, so a
    value at or below 0 is rounding and is returned as +0.0.
    """
    nu = src.ny + 1 if nu_cap is None else max(1, min(nu_cap, src.ny + 1))
    if r2 <= 1e-9:
        # I(U;Y) = 0 forces independence, so H(X|U) = H(X) exactly; + 0.0 turns -0.0 into 0.0
        return entropy_bits(src.probs.sum(axis=1)) + 0.0, _padded_channel(np.ones((1, src.ny)), nu), src.ny
    prob = _RegionSearch(src, r2, nu)
    local = replace(
        config,
        starts=max(4, min(config.starts, 12)),
        max_iterations=min(config.max_iterations, 2000),
    )
    base_starts = list(prob.candidates())
    if warm_channel is not None and warm_channel.shape == (nu, src.ny):
        base_starts.append(prob.encode_rows(warm_channel.T))

    bisected = bisect_multiplier(prob.domain, prob.evaluate, prob.scalarized, base_starts, local, 40, 22)

    res = config.grid_resolution if lattice_rows(prob.domain, config.grid_resolution) <= 120_000 else None
    bisected_point = [] if bisected.infeasible else [bisected.argmin]
    polish_starts = base_starts + bisected_point + random_starts(prob.domain, local)
    best = best_of([bisected, minimize(prob.domain, prob.evaluate, local, polish_starts, res)])
    value = best.value if best.value > 0.0 else 0.0
    return value, best.argmin.reshape(src.ny, nu).T, best.evaluations


def region_min_r1(src: JointPmf2, r2: float, config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Smallest r1 with (r1, r2) in the achievable region.

    Equals H(X) at r2 = 0 and H(X|Y) once r2 >= H(Y); non-increasing in
    between.
    """
    check_rate(r2, "r2")
    value, _, _ = _region_argmin(src, r2, config)
    return value


def region_contains(src: JointPmf2, rates: RatePair, config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Whether the rate pair is (within tolerance) achievable.

    Exact certificates answer before any search: the constant channel
    reaches r1 = H(X), U = Y reaches H(X|Y) once r2 >= H(Y), and for
    U - Y - X, H(X|U) >= max(H(X|Y), H(X) - I(U;Y)), the cut-set bound.
    Only a pair between them runs the bisection of :func:`region_min_r1`.
    """
    rates = rates if isinstance(rates, RatePair) else RatePair(*rates)
    h_x = entropy_bits(src.probs.sum(axis=1))
    h_y = entropy_bits(src.probs.sum(axis=0))
    h_x_given_y = entropy_bits(src.probs) - h_y
    if rates.r1 >= h_x or (rates.r2 >= h_y and rates.r1 >= h_x_given_y):
        return True
    if rates.r1 < max(h_x_given_y, h_x - rates.r2) - REGION_TOL:
        return False
    return rates.r1 >= region_min_r1(src, rates.r2, config) - REGION_TOL


def region_curve(src: JointPmf2, r2_values, config: SolverConfig = DEFAULT_CONFIG) -> RegionCurve:
    """Trace (r2, min r1) along an ascending r2 grid.

    Each point warm-starts from the previous channel, which stays feasible
    as r2 grows, so the curve is non-increasing by construction.
    """
    r2s = sorted(float(v) for v in r2_values)
    for r2 in r2s:
        check_rate(r2, "r2")
    points = []
    prev_channel = None
    prev_value = math.inf
    for r2 in r2s:
        value, channel, _ = _region_argmin(src, r2, config, warm_channel=prev_channel)
        if value > prev_value:
            value = prev_value
        else:
            prev_channel = channel
        prev_value = value
        points.append((r2, value))
    return RegionCurve(tuple(points))


# ---------------------------------------------------------------------------
# the exponent
# ---------------------------------------------------------------------------

def default_aux_size(src: JointPmf2) -> int:
    """Fast-tier auxiliary alphabet: min(|X||Y| + 2, 4)."""
    return min(src.nx * src.ny + 2, 4)


def wak_exponent(
    src: JointPmf2,
    rates,
    config: SolverConfig = DEFAULT_CONFIG,
    nu: int | None = None,
    *,
    full_cardinality: bool = False,
    warm_candidates=(),
) -> ExponentBreakdown:
    """Minimize the exponent objective over auxiliary joints of size ``nu``.

    The value is zero (within solver tolerance) exactly when the rate pair
    is achievable and strictly positive outside the region.  When ``nu`` is
    below the support bound |X||Y| + 2 the result is an upper bound on the
    exponent; the fast-tier default deliberately is, while
    ``full_cardinality=True`` requests the full bound.

    ``warm_candidates`` may hold :class:`AuxJointPmf` values (of auxiliary
    size <= nu), or (u, x, y) arrays that are validated as one; they are
    refined alongside the built-in structured starts and never worsen the
    result.
    """
    rates = rates if isinstance(rates, RatePair) else RatePair(*rates)
    warm = [w if isinstance(w, AuxJointPmf) else AuxJointPmf(w) for w in warm_candidates]
    if any((w.nx, w.ny) != (src.nx, src.ny) for w in warm):
        raise DimensionError("warm candidate on the wrong (x, y) alphabet")
    bound = src.nx * src.ny + 2
    if full_cardinality:
        nu = bound
    elif nu is None:
        nu = default_aux_size(src)
    else:
        if nu < 1:
            raise DomainError("auxiliary alphabet size must be >= 1")
        if nu > bound:
            raise DomainError(f"auxiliary alphabet size above the support bound {bound}")
        if nu < bound:
            warnings.warn(
                f"auxiliary alphabet {nu} below the support bound {bound}: "
                "the result is an upper bound on the exponent",
                UpperBoundWarning,
                stacklevel=2,
            )
    prob = _ExponentSearch(src, rates.r1, rates.r2, nu)
    # a feasible point at or below `stop` is within STOP_RTOL of F, relative
    stop = prob.floor() * (1.0 + STOP_RTOL)

    # 1. the fixed starts, in one batch; at a floor of 0 a certified point reads 0
    fixed = prob.fixed_starts()
    vals, violations = prob.evaluate(np.stack(fixed))
    hit = np.flatnonzero((violations <= _FEAS_TOL) & (vals <= stop))
    if hit.size:
        return _breakdown(prob, fixed[hit[0]], vals[hit[0]], len(fixed), True)

    # 2. the seeded main batch from the fixed and warm starts
    padded = (_padded_channel(w.probs, nu) for w in warm)
    warm_starts = [prob.encode(t) for t in padded if t is not None]
    seeded = _distinct(fixed + warm_starts)
    runs = compass_batch(prob.domain, seeded + random_starts(prob.domain, config), config, batch_evaluate=prob.evaluate)
    hit = next((r for r in runs if not r.infeasible and r.value <= stop), None)
    if hit is not None:
        return _breakdown(prob, hit.argmin, hit.value, len(fixed) + sum(r.evaluations for r in runs), hit.converged)

    # 3. the searched starts: the copy manifolds and the region channel,
    # which has at most nu rows, so it always embeds
    copies, copy_evaluations = prob.candidates_copy_manifolds(config)
    _, channel, region_evaluations = _region_argmin(src, rates.r2, config, nu_cap=nu)
    structured = _distinct(fixed + copies + [prob.embed(channel, "y")] + warm_starts)
    # every descent runs as if alone, so those not yet descended make a batch
    # of their own, and the winner is picked in the order of one main batch
    descents = {s.tobytes(): r for s, r in zip(seeded, runs)}
    late = [s for s in structured if s.tobytes() not in descents]
    late_runs = compass_batch(prob.domain, late, config, batch_evaluate=prob.evaluate)
    descents.update((s.tobytes(), r) for s, r in zip(late, late_runs))
    best = best_of([descents[s.tobytes()] for s in structured] + runs[len(seeded) :])
    # U = X, or the point masses where it does not fit, is always feasible, so `best` is too
    evaluations = len(fixed) + copy_evaluations + region_evaluations + best.evaluations
    return _breakdown(prob, best.argmin, best.value, evaluations, best.converged)


def _distinct(starts: list) -> list:
    """``starts`` without the byte-equal repeats, which would descend twice."""
    return list({s.tobytes(): s for s in starts}.values())


def _breakdown(
    prob: _ExponentSearch, point: np.ndarray, value: float, evaluations: int, converged: bool
) -> ExponentBreakdown:
    """The breakdown of a feasible domain point, recomputed from its tensor.

    ``value`` is the point's value in the search kernel.  At or below 0 it
    certifies F = 0, since every term is nonnegative, so the value and the
    three terms read +0.0 whatever the recomputation rounds to.
    """
    src = prob.src
    tensor = prob.tensors(point[None, :])[0].reshape(prob.nu, src.nx, src.ny)
    total = tensor.sum()
    if abs(total - 1.0) > 1e-13:
        tensor = tensor / total
    arg = AuxJointPmf(tensor)
    m = aux_measures(arg)
    # each term is nonnegative, so a negative one is rounding
    kl = max(kl_bits(m.marginal_xy.probs, src.probs), 0.0)
    cond_mi = max(m.i_u_x_given_y, 0.0)
    rate2 = max(m.i_u_y - prob.r2, 0.0)
    if value <= 0.0:
        kl = cond_mi = rate2 = 0.0
    return ExponentBreakdown(
        value=kl + cond_mi + rate2,
        kl_term=kl,
        soft_markov_term=cond_mi,
        rate2_term=rate2,
        constraint_slack=prob.r1 - m.h_x_given_u,
        argmin=arg,
        evaluations=evaluations,
        converged=converged,
    )
