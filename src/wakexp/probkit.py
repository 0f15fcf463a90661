"""Finite probability mass functions and base-2 information measures.

Everything downstream (the exponent solvers, the special-case reductions,
the security-bound calculator) works with the three value types defined
here: a plain pmf, a joint pmf on a product alphabet, and a rank-3 joint
with an auxiliary coordinate.  All measures are in bits; conventions are
0*log(0) = 0 and 0*log(0/0) = 0, and an absolute-continuity violation in
a divergence returns ``math.inf`` rather than raising, so that optimizers
can reject such points uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12            # construction tolerance on total mass
JSON_SUM_TOL = 1e-9        # looser tolerance accepted by the JSON parser


class DimensionError(ValueError):
    """Operands live on incompatible alphabets."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


def _validated(probs, shape) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite")
    if np.any(arr < 0.0):
        raise ValueError("probabilities must be nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities must sum to 1 within {SUM_TOL}, got {total!r}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function on a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("Pmf needs a nonempty 1-d probability vector")
        object.__setattr__(self, "probs", _validated(arr, arr.shape))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class JointPmf2:
    """Joint pmf on a product alphabet, indexed (x, y).

    Marginals are exact sums of the stored entries; nothing is ever
    renormalized after construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 2 or arr.size < 1:
            raise ValueError("JointPmf2 needs a 2-d probability matrix")
        object.__setattr__(self, "probs", _validated(arr, arr.shape))

    @property
    def nx(self) -> int:
        return int(self.probs.shape[0])

    @property
    def ny(self) -> int:
        return int(self.probs.shape[1])

    def marginal_x(self) -> Pmf:
        return Pmf(self.probs.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self.probs.sum(axis=0))


@dataclass(frozen=True, eq=False)
class AuxJointPmf:
    """Joint pmf with an auxiliary coordinate, indexed (u, x, y)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 3 or arr.size < 1:
            raise ValueError("AuxJointPmf needs a 3-d probability tensor")
        object.__setattr__(self, "probs", _validated(arr, arr.shape))

    @property
    def nu(self) -> int:
        return int(self.probs.shape[0])

    @property
    def nx(self) -> int:
        return int(self.probs.shape[1])

    @property
    def ny(self) -> int:
        return int(self.probs.shape[2])

    def marginal_xy(self) -> JointPmf2:
        return JointPmf2(self.probs.sum(axis=0))


# ---------------------------------------------------------------------------
# scalar / array primitives
# ---------------------------------------------------------------------------

def entropy_bits(p) -> float:
    """Shannon entropy (bits) of a flat nonnegative array, 0*log(0) = 0."""
    p = np.asarray(p, dtype=np.float64).ravel()
    pos = p[p > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def kl_bits(p, q) -> float:
    """sum p*log2(p/q) over matching flat arrays; inf if p charges a q-null atom."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise DimensionError(f"alphabet mismatch: {p.shape} vs {q.shape}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    pm = p[mask]
    return float((pm * (np.log2(pm) - np.log2(q[mask]))).sum())


def entropy_rows(m: np.ndarray) -> np.ndarray:
    """Entropy (bits) of each leading-axis row of ``m``, 0*log(0) = 0.

    A NaN term (a null or invalid entry) counts as 0, as under ``nansum``.
    """
    flat = m.reshape(m.shape[0], -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = flat * np.log2(flat)
    return -np.where(np.isnan(t), 0.0, t).sum(axis=1)


def kl_rows(m: np.ndarray, log_ref: np.ndarray) -> np.ndarray:
    """Row-wise sum m*(log2 m - log_ref); +inf rows charge a null ref atom."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = m * (np.log2(m) - log_ref)
    return np.where(np.isnan(t), 0.0, t).sum(axis=1)


def entropy(p: Pmf) -> float:
    """Entropy H in bits; lies in [0, log2 |alphabet|]."""
    return entropy_bits(p.probs)


def conditional_entropy(j: JointPmf2) -> float:
    """H(X|Y) = H(X,Y) - H(Y) in bits."""
    return entropy_bits(j.probs) - entropy_bits(j.probs.sum(axis=0))


def mutual_information(j: JointPmf2) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) in bits."""
    return (
        entropy_bits(j.probs.sum(axis=1))
        + entropy_bits(j.probs.sum(axis=0))
        - entropy_bits(j.probs)
    )


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p||q) in bits, math.inf when p is not absolutely continuous w.r.t. q."""
    if p.alphabet_size != q.alphabet_size:
        raise DimensionError(
            f"alphabet mismatch: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return kl_bits(p.probs, q.probs)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total variation distance (1/2) sum |p - q|, in [0, 1]."""
    if p.alphabet_size != q.alphabet_size:
        raise DimensionError(
            f"alphabet mismatch: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return float(0.5 * np.abs(p.probs - q.probs).sum())


def binary_entropy(a: float) -> float:
    """h(a) = -a*log2(a) - (1-a)*log2(1-a) for a in [0, 1]."""
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"binary_entropy argument must be in [0, 1], got {a!r}")
    out = 0.0
    if a > 0.0:
        out -= a * math.log2(a)
    if a < 1.0:
        out -= (1.0 - a) * math.log2(1.0 - a)
    return out


def binary_kl(q: float, p: float) -> float:
    """Binary divergence D(q||p) = q*log2(q/p) + (1-q)*log2((1-q)/(1-p))."""
    if not 0.0 <= q <= 1.0 or not 0.0 <= p <= 1.0:
        raise DomainError("binary_kl arguments must be probabilities")
    out = 0.0
    if q > 0.0:
        if p == 0.0:
            return math.inf
        out += q * math.log2(q / p)
    if q < 1.0:
        if p == 1.0:
            return math.inf
        out += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return out


def binary_entropy_inverse(target: float) -> float:
    """Left inverse of h: the unique a in [0, 1/2] with h(a) = target."""
    if not 0.0 <= target <= 1.0:
        raise DomainError(f"binary entropy value must be in [0, 1], got {target!r}")
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _entropy_matched_tilts(probs: np.ndarray, r1: float) -> list:
    """Tilted laws q ~ p^c on each top-m support with H(q) = r1.

    The minimizer of D(q||p) + max(H(q) - r1, 0) lies in this family: on
    the branch H >= r1 the objective is linear in q and touches the
    entropy boundary, on the other branch it is the divergence projection;
    both pick a power tilt of p restricted to the largest atoms.
    """
    order = np.argsort(-probs, kind="stable")
    order = [i for i in order if probs[i] > 0.0]
    out = []

    def tilt(support, c):
        # log-space so that deep tilts saturate to a point mass, never 0/0
        logs = np.log(probs[support])
        q = np.zeros_like(probs)
        q[support] = np.exp(c * (logs - logs.max()))
        return q / q[support].sum()

    for m in range(1, len(order) + 1):
        support = np.array(order[:m])
        if r1 > math.log2(m) + 1e-12 and m > 1:
            continue
        if m == 1:
            out.append(tilt(support, 1.0))
            continue
        lo, hi = 0.0, 1.0
        while entropy_bits(tilt(support, hi)) > r1 and hi < 1e7:
            hi *= 2.0
        if entropy_bits(tilt(support, hi)) > r1:
            # tied top atoms: the entropy floor of this support sits above r1
            out.append(tilt(support, hi))
            continue
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if entropy_bits(tilt(support, mid)) > r1:
                lo = mid
            else:
                hi = mid
        out.append(tilt(support, 0.5 * (lo + hi)))
    return out


# ---------------------------------------------------------------------------
# auxiliary-joint measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxMeasures:
    """The quantities of a rank-3 joint that the exponent objective consumes."""

    h_x_given_u: float       # H(X|U)
    i_u_y: float             # I(U;Y)
    i_u_x_given_y: float     # I(U;X|Y)
    marginal_xy: JointPmf2


def aux_measures(a: AuxJointPmf) -> AuxMeasures:
    """Compute H(X|U), I(U;Y), I(U;X|Y) and the (x, y) marginal of ``a``.

    All quantities come from exact marginalizations of the stored tensor,
    so they are nonnegative up to float rounding.
    """
    t = a.probs
    h_uxy = entropy_bits(t)
    h_u = entropy_bits(t.sum(axis=(1, 2)))
    h_ux = entropy_bits(t.sum(axis=2))
    h_uy = entropy_bits(t.sum(axis=1))
    txy = t.sum(axis=0)
    h_xy = entropy_bits(txy)
    h_y = entropy_bits(txy.sum(axis=0))
    return AuxMeasures(
        h_x_given_u=h_ux - h_u,
        i_u_y=h_u + h_y - h_uy,
        i_u_x_given_y=(h_xy - h_y) - (h_uxy - h_uy),
        marginal_xy=JointPmf2(txy),
    )


# ---------------------------------------------------------------------------
# JSON wire format for joint sources
# ---------------------------------------------------------------------------

def joint_to_dict(j: JointPmf2) -> dict:
    """Row-major wire form {"nx", "ny", "probs"} of a joint source."""
    return {"nx": j.nx, "ny": j.ny, "probs": [float(v) for v in j.probs.ravel()]}


def joint_from_dict(d: dict) -> JointPmf2:
    """Parse the row-major wire form, rejecting non-finite or negative
    entries and bad totals.

    The accepted total-mass tolerance is 1e-9; inputs that pass it but
    drift beyond the construction tolerance 1e-12 are rescaled exactly
    once so the resulting value type keeps its tighter invariant.
    """
    try:
        nx, ny = int(d["nx"]), int(d["ny"])
        flat = np.asarray(d["probs"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed joint pmf object: {exc}") from exc
    if nx < 1 or ny < 1 or flat.ndim != 1 or flat.size != nx * ny:
        raise ValueError("joint pmf needs nx*ny probabilities in row-major order")
    if not np.all(np.isfinite(flat)):
        raise ValueError("joint pmf entries must be finite")
    if np.any(flat < 0.0):
        raise ValueError("joint pmf entries must be nonnegative")
    total = float(flat.sum())
    if abs(total - 1.0) > JSON_SUM_TOL:
        raise ValueError(f"joint pmf must sum to 1 within {JSON_SUM_TOL}, got {total!r}")
    if abs(total - 1.0) > SUM_TOL:
        flat = flat / total
    return JointPmf2(flat.reshape(nx, ny))
