"""Special-case exponents and the comparison lower bound.

Covers the exponent when the side information is not encoded (r2 at least
log2 |Y|), the single-user exponent in both its divergence-minimization and
parametric tilted forms, the parametric comparison bound restricted to the
same single-user network, and the general-network version of that bound.
The two single-user forms agree (that equivalence is acceptance-tested),
while the comparison bound is strictly smaller whenever r1 < H(X); the gap
report packages that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .probkit import (
    DomainError,
    JointPmf2,
    Pmf,
    _entropy_matched_tilts,
    entropy_bits,
    entropy_rows,
    kl_rows,
)
from .simplex_optim import (
    SearchDomain,
    Simplex,
    SolverConfig,
    _capped_resolution,
    _golden_max,
    best_of,
    compass_batch,
    grid_search,
    grid_search_batch,
    maximize_1d,
    random_starts,
)

THETA_FLOOR = -1e4
MU_ALPHA_GRID = 41

# small simplex problems: lattice oracle first, local descent after
NE_DEFAULT = SolverConfig(grid_resolution=60, starts=24, seed=0)
SINGLE_DEFAULT = SolverConfig(grid_resolution=64, starts=16, seed=0)
OOHAMA_DEFAULT = SolverConfig(
    grid_resolution=12, starts=8, max_iterations=600, step_tolerance=1e-5, seed=0
)

_GRID_POINT_CAP = 1_600_000
_OMEGA_GRID_CAP = 10_000       # lattice rows of the comparison bound's inner solve


def _default_theta_values() -> tuple:
    exps = np.arange(-80, 81) * 0.05
    return (0.0,) + tuple(-np.power(10.0, exps))


@dataclass(frozen=True)
class ThetaGrid:
    """Descending nonpositive tilt abscissae, log-spaced down to -1e4.

    Contains 0 and -1 exactly; the floor bounds the truncation error of the
    parametric supremum by (log2 |X| - r1) / 1e4.
    """

    abscissae: tuple = field(default_factory=_default_theta_values)

    def __post_init__(self):
        t = tuple(float(v) for v in self.abscissae)
        object.__setattr__(self, "abscissae", t)
        if any(v > 0.0 for v in t):
            raise DomainError("theta grid must be nonpositive")
        if any(b >= a for a, b in zip(t, t[1:])):
            raise DomainError("theta grid must be strictly descending")
        if 0.0 not in t or -1.0 not in t:
            raise DomainError("theta grid must contain 0 and -1")

    def restricted_to_unit(self) -> tuple:
        """The sub-grid inside [-1, 0]."""
        return tuple(v for v in self.abscissae if v >= -1.0)


DEFAULT_THETA_GRID = ThetaGrid()


def s_theta(p: Pmf, theta: float) -> float:
    """Tilted log-sum log2 sum_x p(x)^(1-theta) for theta <= 0.

    Evaluated in log space so that tilts as deep as the -1e4 grid floor do
    not underflow; null atoms contribute nothing.
    """
    if theta > 0.0:
        raise DomainError("theta must be nonpositive")
    probs = p.probs[p.probs > 0.0]
    exponents = (1.0 - theta) * np.log2(probs)
    top = exponents.max()
    return float(top + math.log2(np.exp2(exponents - top).sum()))


# ---------------------------------------------------------------------------
# divergence-minimization forms
# ---------------------------------------------------------------------------

def _simplex_min(k, batch_evaluate, config, candidates, use_grid=True):
    """Shared driver: lattice oracle (when enumerable), refined candidates,
    then multistart; returns (value, argmin, evaluations)."""
    domain = SearchDomain([Simplex(k)])
    runs = []
    candidates = list(candidates)
    if use_grid:
        res = _capped_resolution(domain, config.grid_resolution, _GRID_POINT_CAP)
        g = grid_search(domain, resolution=res, batch_evaluate=batch_evaluate)
        runs.append(g)
        if not g.infeasible:
            candidates.append(g.argmin)
    # the multistart's own best comes first among its starts, so one
    # reduction over every run picks the same winner
    starts = candidates + random_starts(domain, config)
    best = best_of(runs + compass_batch(domain, starts, config, batch_evaluate=batch_evaluate))
    return best.value, best.argmin, best.evaluations


def exponent_ne(src: JointPmf2, r1: float, config: SolverConfig | None = None) -> float:
    """Exponent with non-encoded side information.

    Minimum over joints m of D(m || src) + max(H(X|Y under m) - r1, 0);
    zero exactly when r1 >= H(X|Y).
    """
    if not r1 >= 0.0:
        raise DomainError("r1 must be nonnegative")
    config = NE_DEFAULT if config is None else config
    k = src.nx * src.ny
    flat = src.probs.ravel()
    with np.errstate(divide="ignore"):
        log_src = np.log2(flat)

    def batch_evaluate(pts):
        m = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        h_xy = entropy_rows(m)
        h_y = entropy_rows(m.reshape(-1, src.nx, src.ny).sum(axis=1))
        return kl_rows(m, log_src) + np.maximum(h_xy - h_y - r1, 0.0), 0.0

    candidates = [flat.copy()]
    for i in range(k):
        if flat[i] > 0.0:
            e = np.zeros(k)
            e[i] = 1.0
            candidates.append(e)
    px = src.probs.sum(axis=1)
    for x in range(src.nx):
        if px[x] > 0.0:
            row = np.zeros((src.nx, src.ny))
            row[x] = src.probs[x] / px[x]
            candidates.append(row.ravel())
    value, _, _ = _simplex_min(k, batch_evaluate, config, candidates, use_grid=k <= 9)
    return float(value)


def exponent_single_direct(p: Pmf, r1: float, config: SolverConfig | None = None) -> float:
    """Single-user exponent: min over q of D(q || p) + max(H(q) - r1, 0)."""
    if not r1 >= 0.0:
        raise DomainError("r1 must be nonnegative")
    config = SINGLE_DEFAULT if config is None else config
    k = p.alphabet_size
    with np.errstate(divide="ignore"):
        log_p = np.log2(p.probs)

    def batch_evaluate(pts):
        q = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return kl_rows(q, log_p) + np.maximum(entropy_rows(q) - r1, 0.0), 0.0

    candidates = [p.probs.copy(), np.full(k, 1.0 / k)]
    for i in range(k):
        if p.probs[i] > 0.0:
            e = np.zeros(k)
            e[i] = 1.0
            candidates.append(e)
    candidates.extend(_entropy_matched_tilts(p.probs, r1))
    value, _, _ = _simplex_min(k, batch_evaluate, config, candidates)
    return float(value)


# ---------------------------------------------------------------------------
# parametric forms
# ---------------------------------------------------------------------------

def _parametric_max(p: Pmf, r1: float, thetas, denominator_shift: float):
    """max over the grid of (-s(theta) + theta*r1) / (shift - theta)."""

    def f(theta):
        return (-s_theta(p, theta) + theta * r1) / (denominator_shift - theta)

    return maximize_1d(f, thetas)


def exponent_single_parametric(p: Pmf, r1: float, grid: ThetaGrid | None = None) -> float:
    """Parametric single-user exponent max_{theta<=0} (-s+theta*r1)/(1-theta).

    Agrees with :func:`exponent_single_direct` up to the grid-floor
    truncation; for low rates the supremum is approached only as the tilt
    goes to -infinity.
    """
    if not r1 >= 0.0:
        raise DomainError("r1 must be nonnegative")
    grid = DEFAULT_THETA_GRID if grid is None else grid
    _, value = _parametric_max(p, r1, grid.abscissae, 1.0)
    return float(value)


def oohama_single(p: Pmf, r1: float, grid=None) -> float:
    """Parametric comparison bound max_{theta in [-1,0]} (-s+theta*r1)/(2-theta)."""
    if not r1 >= 0.0:
        raise DomainError("r1 must be nonnegative")
    thetas = DEFAULT_THETA_GRID.restricted_to_unit() if grid is None else tuple(grid)
    if any(t < -1.0 or t > 0.0 for t in thetas):
        raise DomainError("the comparison-bound grid must lie in [-1, 0]")
    _, value = _parametric_max(p, r1, thetas, 2.0)
    return float(value)


@dataclass(frozen=True)
class GapReport:
    """Side-by-side parametric values and their strict difference."""

    f_oohama: float
    f_tight: float
    gap: float
    argmax_theta_oohama: float
    argmax_theta_tight: float

    def __post_init__(self):
        if abs(self.gap - (self.f_tight - self.f_oohama)) > 1e-12:
            raise ValueError("gap must equal f_tight - f_oohama")

    def to_dict(self) -> dict:
        return {
            "f_oohama": self.f_oohama,
            "f_tight": self.f_tight,
            "gap": self.gap,
            "argmax_theta_oohama": self.argmax_theta_oohama,
            "argmax_theta_tight": self.argmax_theta_tight,
        }


def gap_check(p: Pmf, r1: float, grid: ThetaGrid | None = None) -> GapReport:
    """Compare the two single-user parametric forms below entropy rate.

    Requires r1 < H(p); the tight form strictly exceeds the comparison
    bound there.
    """
    if not r1 >= 0.0:
        raise DomainError("r1 must be nonnegative")
    if r1 >= entropy_bits(p.probs):
        raise DomainError("gap_check requires r1 < H(p)")
    grid = DEFAULT_THETA_GRID if grid is None else grid
    theta_t, f_t = _parametric_max(p, r1, grid.abscissae, 1.0)
    theta_o, f_o = _parametric_max(p, r1, grid.restricted_to_unit(), 2.0)
    return GapReport(
        f_oohama=float(f_o),
        f_tight=float(f_t),
        gap=float(f_t - f_o),
        argmax_theta_oohama=float(theta_o),
        argmax_theta_tight=float(theta_t),
    )


# ---------------------------------------------------------------------------
# the general-network comparison bound
# ---------------------------------------------------------------------------

def _tilt_key(mu: float, alpha: float) -> tuple:
    return (round(float(mu), 12), round(float(alpha), 12))


def _tilt_coefficients(tilts) -> np.ndarray:
    """The weights (1 - alpha, alpha*mu, alpha*(1 - mu)) of the three
    tilted terms, one row per (mu, alpha)."""
    t = np.asarray(tilts, dtype=np.float64).reshape(-1, 2)
    mu, alpha = t[:, 0], t[:, 1]
    return np.stack([1.0 - alpha, alpha * mu, alpha * (1.0 - mu)], axis=1)


class OohamaEvaluator:
    """Computes the general comparison bound for one source.

    The inner tilted minimization runs over the free parameters of the
    constraint set (an output-marginal candidate and test-channel rows; the
    Markov chain and the matched conditional are enforced by construction)
    and is memoized per tilt pair, so sweeping many rate pairs against one
    source reuses the expensive part.
    """

    def __init__(self, src: JointPmf2, nu: int | None = None, config: SolverConfig | None = None):
        if nu is None:
            nu = src.ny
        if nu < 1 or nu > src.ny:
            raise DomainError("auxiliary size for the comparison bound must be in [1, |Y|]")
        self.src = src
        self.nu = nu
        self.config = OOHAMA_DEFAULT if config is None else config
        self.py = src.probs.sum(axis=0)
        with np.errstate(divide="ignore"):
            self.log_py = np.log2(self.py)
        cond = np.zeros_like(src.probs)
        pos = self.py > 0.0
        cond[:, pos] = src.probs[:, pos] / self.py[pos]
        self.cond_x_given_y = cond
        self.domain = SearchDomain([Simplex(src.ny)] + [Simplex(nu)] * src.ny)
        self._omega_cache: dict = {}

    def _row_terms(self, pts: np.ndarray) -> tuple:
        """The tilt-free terms of the tilted log-sum, per row of ``pts``."""
        ny, nu = self.src.ny, self.nu
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        pyt = pts[:, :ny]
        w = pts[:, ny:].reshape(-1, ny, nu)
        pt_uy = pyt[:, None, :] * w.transpose(0, 2, 1)          # (B, nu, ny)
        weight = pt_uy[:, :, None, :] * self.cond_x_given_y     # (B, nu, nx, ny)
        with np.errstate(divide="ignore", invalid="ignore"):
            py_given_u = pt_uy / pt_uy.sum(axis=2)[:, :, None]
            # only the 0/0 entries of an empty u are NaN; they carry no mass
            known = np.where(np.isnan(py_given_u), 0.0, py_given_u)
            px_given_u = np.einsum("buy,xy->bux", known, self.cond_x_given_y)
            y_term = np.log2(pyt) - self.log_py                   # (B, ny)
            u_term = np.log2(py_given_u) - self.log_py            # (B, nu, ny)
            x_term = -np.log2(px_given_u)                         # (B, nu, nx)
            return y_term, u_term, x_term, weight > 0.0, np.log2(weight)

    def _tilted(self, terms: tuple, coefs: np.ndarray) -> np.ndarray:
        """-log2 of the tilted sum of each row of ``terms``.

        ``coefs`` holds the weights of :func:`_tilt_coefficients`: one row
        per row of ``terms``, or a single row for all of them.
        """
        y_term, u_term, x_term, positive, log_weight = terms
        # the terms are finite wherever the weight is positive; a 0 * inf
        # nan elsewhere is dropped with the entry by the mask
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = (
                (coefs[..., 0:1] * y_term)[:, None, None, :]
                + (coefs[..., 1:2, None] * u_term)[:, :, None, :]
                + (coefs[..., 2:3, None] * x_term)[:, :, :, None]
            )
            exponents = np.where(positive, log_weight - tau, -math.inf)
            return -np.log2(np.exp2(exponents).sum(axis=(1, 2, 3)))

    def _omega_rows(self, pts: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        """The inner objective at each row of ``pts``, under that row's tilt."""
        return self._tilted(self._row_terms(pts), coefs)

    def _omega_evaluate(self, pts: np.ndarray, coefs: np.ndarray):
        """:meth:`_omega_rows` under the batch contract: it has no constraint."""
        return self._omega_rows(pts, coefs), 0.0

    def _lattice_sweep(self, pts: np.ndarray):
        terms = self._row_terms(pts)
        return lambda coef: self._tilted(terms, coef)

    def _solve_tilts(self, tilts) -> None:
        """Cache the inner minimum of every uncached ``(mu, alpha)``.

        All of them share one lattice pass and one lockstep descent, and
        each tilt's value is what a solve of that tilt alone gives: the
        best of its lattice minimum and of the descents from the two fixed
        candidates and the lattice argmin.
        """
        todo = {}
        for mu, alpha in tilts:
            key = _tilt_key(mu, alpha)
            if key not in self._omega_cache:
                todo.setdefault(key, (mu, alpha))
        if not todo:
            return
        coefs = _tilt_coefficients(list(todo.values()))
        ny, nu = self.src.ny, self.nu
        fixed = [np.concatenate([self.py, np.full(ny * nu, 1.0 / nu)])]
        if nu >= 2:
            rows = np.zeros((ny, nu))
            rows[np.arange(ny), np.arange(ny) % nu] = 1.0
            fixed.append(np.concatenate([self.py, rows.ravel()]))
        res = _capped_resolution(self.domain, self.config.grid_resolution, _OMEGA_GRID_CAP)
        lattice = grid_search_batch(self.domain, res, coefs, self._lattice_sweep)
        starts, owner = [], []
        for t, g in enumerate(lattice):
            own = fixed if g.infeasible else fixed + [g.argmin]
            starts += own
            owner += [t] * len(own)
        runs = compass_batch(
            self.domain, starts, self.config, batch_evaluate=self._omega_evaluate, params=coefs[owner]
        )
        per_tilt = [[g] for g in lattice]
        for t, r in zip(owner, runs):
            per_tilt[t].append(r)
        for key, tilt_runs in zip(todo, per_tilt):
            self._omega_cache[key] = float(min(r.value for r in tilt_runs if not r.infeasible))

    def omega(self, mu: float, alpha: float) -> float:
        """Inner minimum of the tilted log-sum at one (mu, alpha) in [0, 1]²."""
        if not (0.0 <= mu <= 1.0 and 0.0 <= alpha <= 1.0):
            raise DomainError("tilts must be finite and lie in [0, 1]")
        key = _tilt_key(mu, alpha)
        if key not in self._omega_cache:
            self._solve_tilts([(mu, alpha)])
        return self._omega_cache[key]

    def bound(self, r1: float, r2: float) -> float:
        """sup over tilts of the normalized comparison exponent.

        The sup includes the (0, 0) corner, whose value is exactly zero, so
        the result is clamped to be nonnegative.
        """
        if not (math.isfinite(r1) and math.isfinite(r2)):
            raise DomainError("rates must be finite")
        if not (r1 >= 0.0 and r2 >= 0.0):
            raise DomainError("rates must be nonnegative")

        def f(mu, alpha):
            return (self.omega(mu, alpha) - alpha * ((1.0 - mu) * r1 + mu * r2)) / (
                2.0 + alpha * (1.0 - mu)
            )

        axis = np.linspace(0.0, 1.0, MU_ALPHA_GRID)
        self._solve_tilts([(mu, alpha) for mu in axis for alpha in axis])
        best_val = -math.inf
        best_ij = (0, 0)
        for i, mu in enumerate(axis):
            for j, alpha in enumerate(axis):
                v = f(mu, alpha)
                if v > best_val:
                    best_val = v
                    best_ij = (i, j)
        i, j = best_ij
        mu_lo = axis[max(i - 1, 0)]
        mu_hi = axis[min(i + 1, MU_ALPHA_GRID - 1)]
        # two dozen shrinks already beat the grid spacing by 1e4
        mu_star, v1 = _golden_max(
            lambda m: f(m, axis[j]), mu_lo, mu_hi, 24,
            lambda ms: self._solve_tilts([(m, axis[j]) for m in ms]),
        )
        if v1 < best_val:
            mu_star = axis[i]
        best_val = max(best_val, v1)
        a_lo = axis[max(j - 1, 0)]
        a_hi = axis[min(j + 1, MU_ALPHA_GRID - 1)]
        _, v2 = _golden_max(
            lambda a: f(mu_star, a), a_lo, a_hi, 24,
            lambda alphas: self._solve_tilts([(mu_star, a) for a in alphas]),
        )
        best_val = max(best_val, v2)
        return max(float(best_val), 0.0)


def oohama_wak_bound(
    src: JointPmf2,
    rates,
    nu: int | None = None,
    config: SolverConfig | None = None,
) -> float:
    """One-shot general comparison bound; see :class:`OohamaEvaluator`."""
    from .wak_exponent import RatePair

    rates = rates if isinstance(rates, RatePair) else RatePair(*rates)
    return OohamaEvaluator(src, nu=nu, config=config).bound(rates.r1, rates.r2)
