"""Special-case exponents and the comparison lower bound.

Covers the exponent when the side information is not encoded (r2 at least
log2 |Y|) and its |Y| = 1 case, the parametric single-user exponent, both
the closed form :func:`probkit.arimoto_dual`; the single-user divergence
minimization; the parametric comparison bound restricted to the same
single-user network, one golden-section maximum over theta in [-1, 0]; and
the general-network version of that bound.  The two single-user forms agree
(that equivalence is acceptance-tested), while the comparison bound is
strictly smaller whenever r1 < H(X); the gap report packages that
difference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .probkit import (
    DomainError,
    JointPmf2,
    Pmf,
    _entropy_matched_tilt,
    arimoto_dual,
    check_rate,
    entropy_bits,
    entropy_rows,
    kl_rows,
    lead_sum,
    y_contract,
)
from .simplex_optim import (
    SearchDomain,
    Simplex,
    SolverConfig,
    _capped_resolution,
    _golden_max,
    compass_batch,
    grid_search_batch,
    minimize,
    random_starts,
)

MU_ALPHA_GRID = 41

# small simplex problems: lattice oracle first, local descent after
SINGLE_DEFAULT = SolverConfig(grid_resolution=64, starts=16, seed=0)
# the comparison bound's inner solve draws no random starts
OOHAMA_DEFAULT = SolverConfig(grid_resolution=12, max_iterations=600, step_tolerance=1e-5)

_GRID_POINT_CAP = 1_600_000
_OMEGA_GRID_CAP = 10_000       # lattice rows of the comparison bound's inner solve
# the tight form's argmax theta at lam = 1, where the supremum is reached
# only as theta -> -inf: the JSON report and the benchmark need a number
_THETA_AT_LAM_ONE = -1e4


def s_theta(p: Pmf, theta: float) -> float:
    """Tilted log-sum log2 sum_x p(x)^(1-theta) for theta <= 0.

    Evaluated in log space so that deep tilts do not underflow; null atoms
    contribute nothing.
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

def exponent_ne(src: JointPmf2, r1: float) -> float:
    """Exponent with non-encoded side information.

    Minimum over joints m of D(m || src) + max(H(X|Y under m) - r1, 0), in
    closed form (:func:`probkit.arimoto_dual`); zero exactly when r1 >= H(X|Y).
    """
    check_rate(r1, "r1")
    return arimoto_dual(src.probs, r1)[0]


def exponent_single_direct(p: Pmf, r1: float, config: SolverConfig | None = None) -> float:
    """Single-user exponent: min over q of D(q || p) + max(H(q) - r1, 0)."""
    check_rate(r1, "r1")
    config = SINGLE_DEFAULT if config is None else config
    k = p.alphabet_size
    with np.errstate(divide="ignore"):
        log_p = np.log2(p.probs)

    def batch_evaluate(pts):
        q = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return kl_rows(q, log_p) + np.maximum(entropy_rows(q) - r1, 0.0), 0.0

    candidates = [p.probs.copy(), np.full(k, 1.0 / k)] + list(np.eye(k)[p.probs > 0.0])
    candidates.append(_entropy_matched_tilt(p.probs, r1))
    domain = SearchDomain([Simplex(k)])
    res = _capped_resolution(domain, config.grid_resolution, _GRID_POINT_CAP)
    return float(minimize(domain, batch_evaluate, config, candidates + random_starts(domain, config), res).value)


# ---------------------------------------------------------------------------
# parametric forms
# ---------------------------------------------------------------------------

def exponent_single_parametric(p: Pmf, r1: float) -> float:
    """Parametric single-user exponent max_{theta<=0} (-s+theta*r1)/(1-theta).

    With lam = -theta/(1 - theta) it is the |Y| = 1 case of
    :func:`probkit.arimoto_dual`, which also reaches a supremum that is
    approached only as theta goes to -infinity.
    """
    check_rate(r1, "r1")
    return arimoto_dual(p.probs[:, None], r1)[0]


def _oohama_max(p: Pmf, r1: float) -> tuple:
    """(argmax, value) of (-s(theta) + theta*r1) / (2 - theta) on [-1, 0].

    The numerator is concave and the denominator positive and affine, so the
    ratio is quasi-concave and one golden-section bracket finds its maximum;
    both ends are evaluated, so a maximum at theta = -1 is exact.
    """
    return _golden_max(lambda t: (-s_theta(p, t) + t * r1) / (2.0 - t), -1.0, 0.0, 80)


def oohama_single(p: Pmf, r1: float) -> float:
    """Parametric comparison bound max_{theta in [-1,0]} (-s+theta*r1)/(2-theta)."""
    check_rate(r1, "r1")
    return _oohama_max(p, r1)[1]


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
        return asdict(self)


def gap_check(p: Pmf, r1: float) -> GapReport:
    """Compare the two single-user parametric forms below entropy rate.

    Requires r1 < H(p); the tight form strictly exceeds the comparison
    bound there.  The tight form's tilt lam maps to theta = -lam/(1 - lam).
    """
    check_rate(r1, "r1")
    if r1 >= entropy_bits(p.probs):
        raise DomainError("gap_check requires r1 < H(p)")
    f_t, lam, _ = arimoto_dual(p.probs[:, None], r1)
    theta_t = _THETA_AT_LAM_ONE if lam == 1.0 else -lam / (1.0 - lam)
    theta_o, f_o = _oohama_max(p, r1)
    return GapReport(
        f_oohama=f_o,
        f_tight=f_t,
        gap=f_t - f_o,
        argmax_theta_oohama=theta_o,
        argmax_theta_tight=theta_t,
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
        """The tilt-free terms of the tilted log-sum, feature-major: one row
        per entry, one column per row of ``pts``.

        The joint P~(y, u) and the weight P~(u, y) P(x|y) are laid out
        (x,) y, u, the memory order in which numpy builds them from the
        stored channel rows W(u|y), so every sum runs in numpy's order.
        The log-weight is -inf wherever the weight is not positive, and
        the terms are finite everywhere else; an infinite or NaN term (of
        an empty y or u) is set to 0, so the tilted exponent is -inf at
        exactly those entries.
        """
        ny, nu, nx = self.src.ny, self.nu, self.src.nx
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64)).T
        n = pts.shape[1]
        pt_yu = pts[:ny, None] * pts[ny:].reshape(ny, nu, n)
        weight = pt_yu * self.cond_x_given_y[:, :, None, None]
        # P~(y), P~(y|u) and P~(x|u) in one block, then their logs in place
        terms = np.empty((ny + ny * nu + nu * nx, n))
        terms[:ny] = pts[:ny]
        py_given_u = terms[ny : ny + ny * nu].reshape(ny, nu, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(pt_yu, lead_sum(pt_yu, pairwise=nu == 1), out=py_given_u)
            # only the 0/0 entries of an empty u are NaN; they carry no mass
            known = np.where(np.isnan(py_given_u), 0.0, py_given_u)
            x_term = y_contract(known, self.cond_x_given_y, out=terms[ny + ny * nu :].reshape(nu, nx, n))
            np.log2(terms, out=terms)
        log_weight = np.full_like(weight, -math.inf)
        np.log2(weight, out=log_weight, where=weight > 0.0)
        y_term = terms[:ny]
        with np.errstate(invalid="ignore"):
            np.subtract(y_term, self.log_py[:, None], out=y_term)
            np.subtract(py_given_u, self.log_py[:, None, None], out=py_given_u)
        np.negative(x_term, out=x_term)
        np.copyto(terms, 0.0, where=~np.isfinite(terms))
        return y_term, py_given_u, x_term, log_weight

    def _tilted(self, terms: tuple, coefs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-log2 of the tilted sum of each column of ``terms``.

        ``coefs`` holds the weights of :func:`_tilt_coefficients`: one row
        per column of ``terms``, or a single row for all of them.  The
        exponents go to ``out``, an array shaped like the log-weight, so a
        sweep over many tilts can reuse one.
        """
        y_term, u_term, x_term, log_weight = terms
        c_y, c_u, c_x = np.asarray(coefs).T
        yu = (c_y * y_term)[:, None] + c_u * u_term
        out = np.empty_like(log_weight) if out is None else out
        exponents = np.add(yu, (c_x * x_term).transpose(1, 0, 2)[:, None], out=out)
        np.subtract(log_weight, exponents, out=exponents)
        np.exp2(exponents, out=exponents)
        total = lead_sum(exponents.reshape(-1, exponents.shape[-1]), pairwise=True)
        with np.errstate(divide="ignore"):
            return -np.log2(total)

    def _omega_rows(self, pts: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        """The inner objective at each row of ``pts``, under that row's tilt."""
        return self._tilted(self._row_terms(pts), coefs)

    def _omega_evaluate(self, pts: np.ndarray, coefs: np.ndarray):
        """:meth:`_omega_rows` under the batch contract: it has no constraint."""
        return self._omega_rows(pts, coefs), 0.0

    def _lattice_sweep(self, pts: np.ndarray):
        terms = self._row_terms(pts)
        exponents = np.empty_like(terms[-1])
        return lambda coef: self._tilted(terms, coef, exponents)

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
        check_rate(r1, "r1")
        check_rate(r2, "r2")

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
