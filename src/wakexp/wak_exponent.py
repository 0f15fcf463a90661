"""Tight strong-converse exponent for coding with encoded side information.

The central quantity is the minimum, over auxiliary joints P(u, x, y) with
H(X|U) <= R1, of

    D(Pxy~ || Pxy) + I(U;X|Y) + max(I(U;Y) - R2, 0),

together with its three-term breakdown and the achievable rate region the
zero set of that minimum traces out.  The divergence term also has a direct
form D(P_UXY || P_{U|Y} Pxy); both routes are exposed so they can be checked
against each other.

The minimization is nonconvex (the conditional mutual information and the
positive part both kink), so the solver combines seeded multistart compass
descent with a family of structured feasible starts: the source itself under
a constant auxiliary, point masses, copy auxiliaries U = X and U = Y,
entropy-saturating timeshares of those copies, and an embedding of the best
rate-region test channel.  Every candidate is a valid feasible point, so the
returned value is always an upper bound that the random restarts can only
improve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .probkit import (
    AuxJointPmf,
    DimensionError,
    DomainError,
    JointPmf2,
    aux_measures,
    entropy_bits,
    entropy_rows,
    kl_bits,
    kl_rows,
)
from .simplex_optim import (
    DEFAULT_CONFIG,
    SearchDomain,
    SearchResult,
    Simplex,
    SolverConfig,
    _golden_max,
    best_of,
    compass_batch,
    grid_search,
    random_starts,
)

REGION_TOL = 1e-6          # rate-region membership tolerance, bits
ZERO_TOL = 2e-3            # solver-resolution zero tolerance, bits


class UpperBoundWarning(UserWarning):
    """The requested auxiliary alphabet is below the support bound, so the
    computed value is an upper bound on the exponent, not the exponent."""


@dataclass(frozen=True)
class RatePair:
    """Nonnegative description rates (bits/symbol) for the two encoders."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (math.isfinite(self.r1) and math.isfinite(self.r2)):
            raise DomainError("rates must be finite")
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise DomainError("rates must be nonnegative")


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
    if not r2 >= 0.0:
        raise DomainError("r2 must be nonnegative")
    div = wak_divergence_term(a, src)
    if math.isinf(div):
        return math.inf
    return div + max(aux_measures(a).i_u_y - r2, 0.0)


def _bisect_multiplier(solve, feasible, doublings: int, halvings: int) -> None:
    """Bisect the multiplier of a scalarized solve onto an active constraint.

    ``solve(lam, warm)`` minimizes objective + lam * constraint from the
    extra starts ``warm`` and returns its argmin; ``feasible(point)`` tests
    (and may record) it.  After the unpenalized solve, the multiplier
    doubles from 1 until a solve is feasible, then ``halvings`` bisection
    steps follow; each solve is warm-started from the previous argmin.
    """
    pt = solve(0.0, [])
    if feasible(pt):
        return
    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(doublings):
        pt = solve(lam_hi, [pt])
        if feasible(pt):
            break
        lam_lo = lam_hi
        lam_hi *= 2.0
    for _ in range(halvings):
        lam = 0.5 * (lam_lo + lam_hi)
        pt = solve(lam, [pt])
        if feasible(pt):
            lam_hi = lam
        else:
            lam_lo = lam


# ---------------------------------------------------------------------------
# batched search problem
# ---------------------------------------------------------------------------

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

    def tensors(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        pu = pts[:, : self.nu]
        blocks = pts[:, self.nu :].reshape(-1, self.nu, self.k)
        return pu[:, :, None] * blocks

    def evaluate(self, pts: np.ndarray):
        """(objective, violation) rows for a batch of domain points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        pu = pts[:, : self.nu]
        t = self.tensors(pts)
        txy = t.sum(axis=1)
        t4 = t.reshape(-1, self.nu, self.nx, self.ny)
        ty = txy.reshape(-1, self.nx, self.ny).sum(axis=1)
        h_u = entropy_rows(pu)
        h_uxy = entropy_rows(t)
        h_xy = entropy_rows(txy)
        h_y = entropy_rows(ty)
        h_uy = entropy_rows(t4.sum(axis=2))
        h_ux = entropy_rows(t4.sum(axis=3))
        kl = kl_rows(txy, self.log_src)
        cond_mi = (h_xy - h_y) - (h_uxy - h_uy)
        rate2 = np.maximum((h_u + h_y - h_uy) - self.r2, 0.0)
        with np.errstate(invalid="ignore"):
            obj = kl + cond_mi + rate2
        obj = np.where(np.isnan(obj), math.inf, obj)
        violation = np.maximum((h_ux - h_u) - self.r1, 0.0)
        return obj, violation

    def encode(self, tensor: np.ndarray) -> np.ndarray:
        """Flat domain point reproducing the given (nu, nx, ny) tensor."""
        t = np.asarray(tensor, dtype=np.float64).reshape(self.nu, self.k)
        pu = t.sum(axis=1)
        blocks = np.empty_like(t)
        for u in range(self.nu):
            if pu[u] > 0.0:
                blocks[u] = t[u] / pu[u]
            else:
                blocks[u] = 1.0 / self.k
        return np.concatenate([pu, blocks.ravel()])

    # -- structured starts ---------------------------------------------

    def _pad_blocks(self, weights, blocks) -> np.ndarray:
        tensor = np.zeros((self.nu, self.k))
        for u, (w, b) in enumerate(zip(weights, blocks)):
            tensor[u] = w * b
        return self.encode(tensor)

    def candidate_constant_u(self, table=None) -> np.ndarray:
        table = self.src_flat if table is None else np.asarray(table).ravel()
        return self._pad_blocks([1.0], [table])

    def candidate_point_masses(self):
        px = self.src.probs.sum(axis=1)
        out = []
        for x in range(self.nx):
            if px[x] <= 0.0:
                continue
            block = np.zeros((self.nx, self.ny))
            block[x] = self.src.probs[x] / px[x]
            out.append(self.candidate_constant_u(block))
        return out

    def candidate_copy_y(self, table=None) -> np.ndarray | None:
        if self.nu < self.ny:
            return None
        tab = self.src.probs if table is None else np.asarray(table).reshape(self.nx, self.ny)
        tensor = np.zeros((self.nu, self.nx, self.ny))
        for y in range(self.ny):
            tensor[y, :, y] = tab[:, y]
        return self.encode(tensor.reshape(self.nu, self.k))

    def candidate_copy_x(self, table=None) -> np.ndarray | None:
        if self.nu < self.nx:
            return None
        tab = self.src.probs if table is None else np.asarray(table).reshape(self.nx, self.ny)
        tensor = np.zeros((self.nu, self.nx, self.ny))
        for x in range(self.nx):
            tensor[x, x, :] = tab[x, :]
        return self.encode(tensor.reshape(self.nu, self.k))

    def candidate_split(self, kind: str, table=None) -> np.ndarray | None:
        """Timeshare a copy auxiliary with a constant slot so that H(X|U)
        saturates the rate constraint as tightly as the family allows."""
        tab = self.src.probs if table is None else np.asarray(table).reshape(self.nx, self.ny)
        if kind == "x":
            if self.nu < self.nx + 1:
                return None
            h_full = entropy_bits(tab.sum(axis=1))
            gamma = 1.0 if h_full <= 0.0 else min(1.0, self.r1 / h_full)
            gamma *= 1.0 - 1e-12
            tensor = np.zeros((self.nu, self.nx, self.ny))
            for x in range(self.nx):
                tensor[x, x, :] = (1.0 - gamma) * tab[x, :]
            tensor[self.nu - 1] = gamma * tab
        else:
            if self.nu < self.ny + 1:
                return None
            h_cond = entropy_bits(tab) - entropy_bits(tab.sum(axis=0))
            h_full = entropy_bits(tab.sum(axis=1))
            if h_full - h_cond <= 1e-15:
                gamma = 1.0
            else:
                gamma = (self.r1 - h_cond) / (h_full - h_cond)
            gamma = min(1.0, max(0.0, gamma)) * (1.0 - 1e-12)
            tensor = np.zeros((self.nu, self.nx, self.ny))
            for y in range(self.ny):
                tensor[y, :, y] = (1.0 - gamma) * tab[:, y]
            tensor[self.nu - 1] = gamma * tab
        return self.encode(tensor.reshape(self.nu, self.k))

    def candidate_channel_embed(self, channel: np.ndarray) -> np.ndarray | None:
        """Embed a rate-region test channel W(u|y) as P(u,x,y) = Pxy * W."""
        w = np.asarray(channel, dtype=np.float64)
        if w.shape[0] > self.nu or w.shape[1] != self.ny:
            return None
        tensor = np.zeros((self.nu, self.nx, self.ny))
        tensor[: w.shape[0]] = self.src.probs[None, :, :] * w[:, None, :]
        return self.encode(tensor.reshape(self.nu, self.k))

    def candidates_copy_manifolds(self, config: SolverConfig):
        """Optimize the deformed table of the two copy embeddings.

        On the U = Y manifold the objective collapses to
        D(m||src) + max(H_m(Y) - r2, 0) with the hard constraint
        H_m(X|Y) <= r1; the active constraint is handled by bisecting the
        multiplier of a scalarized solve, as for the rate region.  On the
        always-feasible U = X manifold the collapse is
        D(m||src) + H_m(X|Y) + max(I_m(X;Y) - r2, 0), unconstrained.
        Both searches run in the small table simplex and return embedded
        tensor points.
        """
        k = self.k
        domain = SearchDomain([Simplex(k)])
        log_src = self.log_src
        nx, ny = self.nx, self.ny
        r1, r2 = self.r1, self.r2

        def table_stats(pts):
            m = np.atleast_2d(np.asarray(pts, dtype=np.float64))
            kl = kl_rows(m, log_src)
            h_xy = entropy_rows(m)
            h_y = entropy_rows(m.reshape(-1, nx, ny).sum(axis=1))
            h_x = entropy_rows(m.reshape(-1, nx, ny).sum(axis=2))
            return kl, h_xy, h_y, h_x

        local = replace(
            config,
            starts=max(4, min(config.starts, 8)),
            max_iterations=min(config.max_iterations, 2000),
        )
        base = [self.src_flat.copy()]
        for i in range(k):
            if self.src_flat[i] > 0.0:
                e = np.zeros(k)
                e[i] = 1.0
                base.append(e)

        out = []
        if self.nu >= self.nx:
            def x_copy_evaluate(pts):
                kl, h_xy, h_y, h_x = table_stats(pts)
                mi = h_x + h_y - h_xy
                return kl + (h_xy - h_y) + np.maximum(mi - r2, 0.0), 0.0

            res = 40
            while res > 2 and math.comb(res + k - 1, k - 1) > 200_000:
                res -= 1
            winners = [grid_search(domain, resolution=res, batch_evaluate=x_copy_evaluate)]
            refine = base + [w.argmin for w in winners if not w.infeasible]
            winners += compass_batch(domain, refine, local, batch_evaluate=x_copy_evaluate)
            best = min((w for w in winners if not w.infeasible), key=lambda w: w.value)
            out.append(self.candidate_copy_x(best.argmin))

        if self.nu >= self.ny:
            def y_copy_evaluate(pts):
                kl, h_xy, h_y, _ = table_stats(pts)
                obj = kl + np.maximum(h_y - r2, 0.0)
                return obj, np.maximum((h_xy - h_y) - r1, 0.0)

            def solve(lam, extra):
                def objective(pts):
                    obj, viol_raw = y_copy_evaluate(pts)
                    return obj + lam * viol_raw, 0.0

                runs = compass_batch(domain, base + extra, local, batch_evaluate=objective)
                return best_of(runs).argmin

            best_m, best_val = None, math.inf

            def consider(m):
                nonlocal best_m, best_val
                obj, viol = y_copy_evaluate(m[None, :])
                if viol[0] <= 1e-12 and obj[0] < best_val:
                    best_m, best_val = m.copy(), float(obj[0])
                return viol[0] <= 0.0

            _bisect_multiplier(solve, consider, 30, 20)
            start = best_m if best_m is not None else self.src_flat.copy()
            polish = compass_batch(domain, [start], local, batch_evaluate=y_copy_evaluate)[0]
            if not polish.infeasible:
                consider(polish.argmin)
            if best_m is not None:
                out.append(self.candidate_copy_y(best_m))
        return [c for c in out if c is not None]

    def candidates_tilted_single(self):
        """For sources without side information (ny == 1): entropy-saturating
        timeshares of power tilts of the marginal, with a golden scan over
        the tilt on every top-m support."""
        if self.ny != 1 or self.nu < self.nx + 1:
            return []
        p = self.src.probs.ravel()
        order = [i for i in np.argsort(-p, kind="stable") if p[i] > 0.0]
        out = []
        for m in range(1, len(order) + 1):
            support = np.array(order[:m])
            logp = np.log(p[support])

            def tilted(c):
                w = np.zeros_like(p)
                w[support] = np.exp(c * (logp - logp.max()))
                return w / w.sum()

            def build(c):
                return self.candidate_split("x", tilted(c)[:, None])

            def score(c):
                obj, viol = self.evaluate(build(c)[None, :])
                return obj[0] if viol[0] <= 1e-12 else math.inf

            if m == 1:
                out.append(build(1.0))
                continue
            cs = np.linspace(0.0, 1.0, 9).tolist() + [2.0, 4.0, 8.0, 16.0, 64.0]
            scored = [score(c) for c in cs]
            i = int(np.argmin(scored))
            lo, hi = cs[max(i - 1, 0)], cs[min(i + 1, len(cs) - 1)]
            best_c, _ = _golden_max(lambda c: -score(c), lo, hi, 40)
            out.append(build(best_c))
            out.append(build(cs[i]))
        return out


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

    def stats(self, pts: np.ndarray):
        """(H(X|U), I(U;Y)) rows for a batch of stacked channel rows."""
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        w = pts.reshape(-1, self.ny, self.nu)
        puy = w.transpose(0, 2, 1) * self.py[None, None, :]
        pu = puy.sum(axis=2)
        pux = np.einsum("byu,xy->bux", w, self.src.probs)
        h_u = entropy_rows(pu)
        h_x_given_u = entropy_rows(pux) - h_u
        mi = h_u + self.hy - entropy_rows(puy)
        return h_x_given_u, mi

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
        out = []
        rows = np.zeros((self.ny, self.nu))
        rows[:, 0] = 1.0                       # U independent of Y
        out.append(self.encode_rows(rows))
        if self.nu >= self.ny:
            rows = np.zeros((self.ny, self.nu))
            for y in range(self.ny):
                rows[y, y] = 1.0               # U = Y
            out.append(self.encode_rows(rows))
        return out


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
    the previous multiplier.  A lattice pass and seeded restarts guard the
    corner cases.
    """
    nu = src.ny + 1 if nu_cap is None else max(1, min(nu_cap, src.ny + 1))
    if r2 <= 1e-9:
        # I(U;Y) = 0 forces independence, so H(X|U) = H(X) exactly
        rows = np.zeros((src.ny, nu))
        rows[:, 0] = 1.0
        return entropy_bits(src.probs.sum(axis=1)), rows.T, src.ny
    prob = _RegionSearch(src, r2, nu)
    local = replace(
        config,
        starts=max(4, min(config.starts, 12)),
        max_iterations=min(config.max_iterations, 2000),
    )
    base_starts = list(prob.candidates())
    if warm_channel is not None and warm_channel.shape == (nu, src.ny):
        base_starts.append(prob.encode_rows(warm_channel.T))

    evaluations = 0
    best_val = math.inf
    best_pt = None

    def consider(pt):
        nonlocal best_val, best_pt
        h, mi = prob.stats(pt[None, :])
        if mi[0] <= r2 + 1e-12 and h[0] < best_val:
            best_val = float(h[0])
            best_pt = pt.copy()
        return mi[0] <= r2 + 1e-12

    def solve_scalarized(lam, extra):
        nonlocal evaluations
        objective = prob.scalarized(lam)
        winner = best_of(
            compass_batch(prob.domain, base_starts + extra, local, batch_evaluate=objective)
        )
        evaluations += winner.evaluations
        return winner.argmin

    _bisect_multiplier(solve_scalarized, consider, 40, 22)

    grid_points = math.comb(config.grid_resolution + nu - 1, nu - 1) ** src.ny
    if grid_points <= 120_000:
        g = grid_search(
            prob.domain, resolution=config.grid_resolution, batch_evaluate=prob.evaluate
        )
        evaluations += g.evaluations
        if not g.infeasible:
            consider(g.argmin)
    polish_starts = list(base_starts)
    if best_pt is not None:
        polish_starts.append(best_pt)
    runs = compass_batch(
        prob.domain,
        polish_starts + random_starts(prob.domain, local),
        local,
        batch_evaluate=prob.evaluate,
    )
    for r in runs[: len(polish_starts)] + [best_of(runs[len(polish_starts) :])]:
        evaluations += r.evaluations
        if not r.infeasible:
            consider(r.argmin)
    channel = best_pt.reshape(src.ny, nu).T
    return best_val, channel, evaluations


def region_min_r1(src: JointPmf2, r2: float, config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Smallest r1 with (r1, r2) in the achievable region.

    Equals H(X) at r2 = 0 and H(X|Y) once r2 >= H(Y); non-increasing in
    between.
    """
    if not r2 >= 0.0:
        raise DomainError("r2 must be nonnegative")
    value, _, _ = _region_argmin(src, r2, config)
    return value


def region_contains(src: JointPmf2, rates: RatePair, config: SolverConfig = DEFAULT_CONFIG) -> bool:
    """Whether the rate pair is (within tolerance) achievable."""
    rates = rates if isinstance(rates, RatePair) else RatePair(*rates)
    return rates.r1 >= region_min_r1(src, rates.r2, config) - REGION_TOL


def region_curve(src: JointPmf2, r2_values, config: SolverConfig = DEFAULT_CONFIG) -> RegionCurve:
    """Trace (r2, min r1) along an ascending r2 grid.

    Each point warm-starts from the previous channel, which stays feasible
    as r2 grows, so the curve is non-increasing by construction.
    """
    r2s = sorted(float(v) for v in r2_values)
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

    starts = [prob.candidate_constant_u()]
    starts.extend(prob.candidate_point_masses())
    for cand in (
        prob.candidate_copy_y(),
        prob.candidate_copy_x(),
        prob.candidate_split("x"),
        prob.candidate_split("y"),
    ):
        if cand is not None:
            starts.append(cand)
    starts.extend(prob.candidates_tilted_single())
    starts.extend(prob.candidates_copy_manifolds(config))

    evaluations = 0
    _, channel, ev = _region_argmin(src, rates.r2, config, nu_cap=nu)
    evaluations += ev
    embed = prob.candidate_channel_embed(channel)
    if embed is not None:
        starts.append(embed)

    for w in warm:
        if w.nu > nu:
            continue
        padded = np.zeros((nu, src.nx, src.ny))
        padded[: w.nu] = w.probs
        starts.append(prob.encode(padded.reshape(nu, prob.k)))

    runs = compass_batch(
        prob.domain,
        starts + random_starts(prob.domain, config),
        config,
        batch_evaluate=prob.evaluate,
    )
    runs = runs[: len(starts)] + [best_of(runs[len(starts) :])]

    best = None
    for r in runs:
        evaluations += r.evaluations
        if r.infeasible:
            continue
        if best is None or r.value < best.value - 1e-12:
            best = r
        elif abs(r.value - best.value) <= 1e-12:
            # reproducibility tie-break: lexicographically smallest tensor
            ta = prob.tensors(r.argmin[None, :]).ravel()
            tb = prob.tensors(best.argmin[None, :]).ravel()
            diff = ta - tb
            nz = np.nonzero(diff)[0]
            if nz.size and diff[nz[0]] < 0:
                best = SearchResult(r.argmin, best.value, r.evaluations, r.converged)
    # point-mass candidates are always feasible, so `best` is never None
    tensor = prob.tensors(best.argmin[None, :])[0].reshape(nu, src.nx, src.ny)
    total = tensor.sum()
    if abs(total - 1.0) > 1e-13:
        tensor = tensor / total
    arg = AuxJointPmf(tensor)
    kl, cond_mi = soft_markov_decompose(arg, src)
    m = aux_measures(arg)
    rate2 = max(m.i_u_y - rates.r2, 0.0)
    return ExponentBreakdown(
        value=kl + cond_mi + rate2,
        kl_term=kl,
        soft_markov_term=cond_mi,
        rate2_term=rate2,
        constraint_slack=rates.r1 - m.h_x_given_u,
        argmin=arg,
        evaluations=evaluations,
        converged=best.converged,
    )
