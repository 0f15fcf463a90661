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


def check_rate(value: float, name: str) -> None:
    """Raise :class:`DomainError` unless the rate ``value`` is finite and >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and nonnegative")


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


def lead_sum(a: np.ndarray, out: np.ndarray | None = None, pairwise: bool = False) -> np.ndarray:
    """Sum over the leading axis of ``a``, in the order in which numpy sums
    one axis of a row-major array, bit for bit up to the sign of a zero sum.

    numpy adds along an axis in index order, except along the contiguous
    one (``pairwise``), which it sums pairwise from 8 entries on: 8
    running sums over every 8th entry, combined as a balanced tree, then
    the remainder in order, and halves first above 128 entries.  ``a`` is
    a feature-major stack, one entry per leading index, so every add runs
    over whole contiguous rows.
    """
    n = len(a)
    if pairwise and n > 128:
        half = n // 2 - n // 2 % 8
        return np.add(lead_sum(a[:half], pairwise=True), lead_sum(a[half:], pairwise=True), out=out)
    if pairwise and n >= 8:
        acc = a[:8]
        for i in range(8, n - n % 8, 8):
            acc = acc + a[i : i + 8]
        pairs = acc[0::2] + acc[1::2]
        out = np.add(pairs[0] + pairs[1], pairs[2] + pairs[3], out=out)
        start = n - n % 8
    elif n == 1:
        if out is None:
            return a[0].copy()
        out[...] = a[0]
        return out
    else:
        out = np.add(a[0], a[1], out=out)
        start = 2
    for i in range(start, n):
        np.add(out, a[i], out=out)
    return out


def y_contract(w: np.ndarray, table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum over y of w[y, u, :] * table[x, y], a feature-major (u, x,
    point) array, written to ``out``.

    Bit for bit what ``np.einsum("byu,xy->bux")`` gives on the row-major
    (point, y, u) array of ``w``.  With more than one u, y is a strided
    axis there, and einsum adds its terms in index order, as done here
    with whole rows.  With one u, y is contiguous and einsum's vector loop
    adds them in another order, so that case stays an einsum.
    """
    ny, nu, n = w.shape
    if out is None:
        out = np.empty((nu, len(table), n))
    if nu == 1:
        out[...] = np.einsum("byu,xy->bux", np.ascontiguousarray(w.transpose(2, 0, 1)), table).transpose(1, 2, 0)
        return out
    np.multiply(w[0][:, None, :], table[:, 0, None], out=out)
    for y in range(1, ny):
        out += w[y][:, None, :] * table[:, y, None]
    return out


class Layout:
    """Feature-major layout of a block of vectors: one row per entry, one
    column per point.

    Each vector takes the rows ``rows[i]``, right after a zero row at
    ``pads[i]``.  numpy starts a sum from 0, and ``np.add.reduceat`` starts
    from the first row of its run, so one ``reduceat`` at the zero rows
    sums every vector of every point, each bit for bit as numpy sums that
    vector alone.

    The blocks live in a workspace that the layout keeps for later calls,
    so a large batch faults in no fresh pages; a kernel on one layout must
    therefore not run in two threads at once.  :meth:`entropies` returns
    no view of it.  The workspace grows to the largest batch; the search
    drivers of :mod:`simplex_optim` hand a kernel at most ``_CALL_ROWS``
    points per call, which bounds it.
    """

    def __init__(self, widths):
        pads, at = [], 0
        for w in widths:
            pads.append(at)
            at += 1 + w
        self.pads = np.array(pads, dtype=np.intp)
        self.rows = tuple(slice(p + 1, p + 1 + w) for p, w in zip(pads, widths))
        self.height = at
        self._space = np.empty(0)
        self._nan = np.empty(0, dtype=bool)

    def block(self, n: int) -> np.ndarray:
        """A (height, n) block with zero pad rows; the caller fills every
        vector's rows."""
        size = self.height * n
        if self._space.size < 2 * size:
            self._space = np.empty(2 * size)
            self._nan = np.empty(size, dtype=bool)
        m = self._space[:size].reshape(self.height, n)
        m[self.pads] = 0.0
        return m

    def entropies(self, m: np.ndarray, log_ref=None) -> np.ndarray:
        """Entropy (bits) of every vector of each point of ``m``, the block
        :meth:`block` returned, one result row per vector.

        With ``log_ref`` the last vector m gives sum m*(log2 m - log_ref)
        instead, a divergence.  Each result equals :func:`entropy_rows`
        (:func:`kl_rows`) of its vector bit for bit, from one log2, one
        product and one NaN pass over the whole block and one ``reduceat``.
        """
        size = m.size
        terms = self._space[size : 2 * size].reshape(m.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log2(m, out=terms)
            if log_ref is not None:
                last = terms[self.rows[-1]]
                np.subtract(last, log_ref[:, None], out=last)
            np.multiply(m, terms, out=terms)
        np.copyto(terms, 0.0, where=np.isnan(terms, out=self._nan[:size].reshape(m.shape)))
        sums = np.add.reduceat(terms, self.pads, axis=0)
        k = len(sums) - (log_ref is not None)
        np.negative(sums[:k], out=sums[:k])
        return sums


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


def arimoto_dual(table: np.ndarray, r1: float) -> tuple:
    """(value, lam, q) for min over tables q of D(q||S) + max(H_q(X|Y) - r1, 0).

    The tilt Q_lam ~ S V^lam, whose conditional is V(.|y) ~
    S(., y)^(1/(1-lam)), attains the concave dual -log2 sum_y (sum_x
    S^(1/(1-lam)))^(1-lam) - lam*r1, Arimoto's conditional Renyi entropy
    times lam, where H_{Q_lam}(X|Y) = r1.  value is the primal objective
    at q, and :func:`arimoto_floor` the dual at lam; when r1 >= H(X|Y),
    lam = 0 and q is ``table`` itself.
    """
    if conditional_entropy(JointPmf2(table)) <= r1:
        return 0.0, 0.0, table
    cols, top, shift = _column_shift(table)

    def tilt(lam):
        w = _tilted(shift, lam)
        q = np.zeros(table.shape)
        q[:, cols] = w * (top * w.sum(axis=0) ** -lam)
        return q / q.sum()

    # H_{Q_lam}(X|Y) falls as lam grows: keep the end where it is at most
    # r1, or lam = 1 if none is below it, where primal and dual meet (a tilt
    # that underflows to Q_1 before lam = 1 must not stop the bisection short)
    lo, lam, q = 0.0, 1.0, tilt(1.0)
    mid = 0.5 if conditional_entropy(JointPmf2(q)) < r1 else lam
    while lo < mid < lam:
        q_mid = tilt(mid)
        if conditional_entropy(JointPmf2(q_mid)) <= r1:
            lam, q = mid, q_mid
        else:
            lo = mid
        mid = 0.5 * (lo + lam)
    # D >= 0, so a negative divergence is rounding
    return float(max(kl_bits(q, table), 0.0) + max(conditional_entropy(JointPmf2(q)) - r1, 0.0)), lam, q


def arimoto_floor(table: np.ndarray, r1: float, lam: float) -> float:
    """The dual objective -log2 sum_y (sum_x S^(1/(1-lam)))^(1-lam) - lam*r1
    of :func:`arimoto_dual` at one tilt lam in [0, 1].

    By weak duality every lam gives a lower bound on min over tables q of
    D(q||S) + max(H_q(X|Y) - r1, 0); the one :func:`arimoto_dual` returns
    gives the largest, to rounding.  Each column's sum is taken around its
    largest atom, so no tilt overflows, and lam = 1 gives the limit
    -log2 sum_y max_x S - r1.
    """
    if lam == 0.0:
        return 0.0
    _, top, shift = _column_shift(table)
    return float(-np.log2((top * _tilted(shift, lam).sum(axis=0) ** (1.0 - lam)).sum()) - lam * r1)


def _column_shift(table: np.ndarray) -> tuple:
    """(mask, top, shift) of the columns of ``table`` with mass: each one's
    largest atom, and log S - log top, 0 on its largest atoms and -inf on
    its null ones."""
    cols = table.sum(axis=0) > 0.0
    top = table[:, cols].max(axis=0)
    with np.errstate(divide="ignore"):
        return cols, top, np.log(table[:, cols]) - np.log(top)


def _tilted(shift: np.ndarray, lam: float) -> np.ndarray:
    """(S/top)^(1/(1-lam)) from :func:`_column_shift`'s shift; at lam = 1
    the largest atoms read 1 and the rest 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(np.where(shift == 0.0, 0.0, shift / (1.0 - lam)))


def _entropy_matched_tilt(probs: np.ndarray, r1: float) -> np.ndarray:
    """The power tilt q ~ p^c, c >= 1, with H(q) = r1, or the uniform law
    on the largest atoms where r1 is below its entropy: the minimizer of
    D(q||p) + max(H(q) - r1, 0), found apart from :func:`arimoto_dual`."""
    support = np.array([i for i in np.argsort(-probs, kind="stable") if probs[i] > 0.0])
    logs = np.log(probs[support])

    def tilt(c):
        # log-space so that deep tilts saturate to the largest atoms, never 0/0
        q = np.zeros_like(probs)
        q[support] = np.exp(c * (logs - logs.max()))
        return q / q[support].sum()

    lo, hi = 0.0, 1.0
    while entropy_bits(tilt(hi)) > r1 and hi < 1e7:
        hi *= 2.0
    # with tied top atoms whose entropy exceeds r1, lo climbs to hi
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if entropy_bits(tilt(mid)) > r1:
            lo = mid
        else:
            hi = mid
    return tilt(0.5 * (lo + hi))


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
