"""Security bound for privacy amplification against a bounded-storage observer.

The total-variation security of a hashed key of rate r1, against an observer
who stores a rate-r2 encoding of the correlated sequence, is bounded by a
tail term 2^(-n F(r1 + delta, r2)) plus a hash term (1/2) 2^(-n delta / 2),
where F is the exponent computed by :mod:`wakexp.wak_exponent` and delta > 0
is the rate slack spent on the hash.  Terms are carried in log2 space so
blocklengths up to 1e6 stay representable; the linear fields underflow to
zero where any float would.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._parallel import parallel_map
from .dsbs import _fmt
from .probkit import DomainError, JointPmf2, check_rate
from .simplex_optim import DEFAULT_CONFIG, SolverConfig
from .wak_exponent import RatePair, wak_exponent

CSV_HEADER = "r2,max_r1,total_bound"


@dataclass(frozen=True)
class PaBoundReport:
    """The two-term security bound at one operating point.

    ``total`` is exactly ``tail_term + hash_term``; the log2 fields are the
    authoritative values for large n, where the linear ones underflow.  A
    ``vacuous`` report (total >= 1) is still well defined and is flagged
    rather than clamped.
    """

    n: int
    r1: float
    r2: float
    delta: float
    exponent: float
    tail_term: float
    hash_term: float
    total: float
    log2_tail_term: float
    log2_hash_term: float
    log2_total: float
    vacuous: bool

    def __post_init__(self):
        if self.total != self.tail_term + self.hash_term:
            raise ValueError("total must be the exact sum of the two terms")

    def to_dict(self) -> dict:
        return asdict(self)


def pa_generic_bound(tail_probability: float, tau: float, n: int, r1: float) -> float:
    """Tail-plus-hash bound: tail + (1/2) 2^((n r1 - tau) / 2)."""
    if not 0.0 <= tail_probability <= 1.0:
        raise DomainError("tail probability must be in [0, 1]")
    if not (tau >= 0.0 and n >= 0):
        raise DomainError("tau and n must be nonnegative")
    check_rate(r1, "r1")
    return float(tail_probability + 0.5 * np.exp2((n * r1 - tau) / 2.0))


def pa_bound_from_exponent(exponent: float, *, r1: float, r2: float, delta: float, n: int) -> PaBoundReport:
    """Assemble the report from an already-known exponent value."""
    check_rate(r1, "r1")
    check_rate(r2, "r2")
    if not delta > 0.0:
        raise DomainError("the rate slack delta must be positive")
    check_rate(delta, "delta")
    if not n >= 1:
        raise DomainError("blocklength must be at least 1")
    if math.isnan(exponent):
        raise DomainError("the exponent must be a number")
    log2_tail = -n * exponent
    log2_hash = -1.0 - n * delta / 2.0
    tail = float(np.exp2(log2_tail))
    hsh = float(np.exp2(log2_hash))
    total = tail + hsh
    return PaBoundReport(
        n=int(n),
        r1=float(r1),
        r2=float(r2),
        delta=float(delta),
        exponent=float(exponent),
        tail_term=tail,
        hash_term=hsh,
        total=total,
        log2_tail_term=float(log2_tail),
        log2_hash_term=float(log2_hash),
        log2_total=float(np.logaddexp2(log2_tail, log2_hash)),
        vacuous=bool(total >= 1.0),
    )


def pa_security_bound(
    src: JointPmf2,
    r1: float,
    r2: float,
    delta: float,
    n: int,
    config: SolverConfig | None = None,
    nu: int | None = None,
) -> PaBoundReport:
    """Security bound with the exponent evaluated at (r1 + delta, r2).

    The exponent is computed once and copied bit-for-bit into the report;
    the total strictly decreases with n whenever the exponent is positive.
    """
    if not delta > 0.0:
        raise DomainError("the rate slack delta must be positive")
    check_rate(delta, "delta")
    check_rate(r1, "r1")
    check_rate(r2, "r2")
    if not n >= 1:
        raise DomainError("blocklength must be at least 1")
    config = DEFAULT_CONFIG if config is None else config
    breakdown = wak_exponent(src, RatePair(r1 + delta, r2), config, nu=nu)
    return pa_bound_from_exponent(breakdown.value, r1=r1, r2=r2, delta=delta, n=n)


def _tradeoff_column(args):
    src_probs, target, n, delta, r2, r1_grid, config, nu = args
    src = JointPmf2(src_probs)
    config = DEFAULT_CONFIG if config is None else config
    warm = []
    for r1 in sorted(r1_grid, reverse=True):
        breakdown = wak_exponent(src, RatePair(r1 + delta, r2), config, nu=nu, warm_candidates=warm)
        warm = [breakdown.argmin]
        report = pa_bound_from_exponent(breakdown.value, r1=r1, r2=r2, delta=delta, n=n)
        if report.total <= target:
            return (r2, r1, report.total)
    return None


def pa_rate_tradeoff(
    src: JointPmf2,
    target_delta_bound: float,
    n: int,
    delta: float,
    r2_grid,
    r1_grid,
    config: SolverConfig | None = None,
    nu: int | None = None,
    workers: int = 1,
) -> list[tuple[float, float, float]]:
    """Largest grid r1 meeting the security target, per storage rate r2.

    Scans each r2 column from the top of the r1 grid down and stops at the
    first rate whose bound meets the target, so the reported r1 is the
    largest grid point that passes.  Columns where even the smallest r1
    misses the target are omitted.  No monotonicity across r2 is claimed:
    the exponent depends jointly on both rates.
    """
    if not delta > 0.0:
        raise DomainError("the rate slack delta must be positive")
    check_rate(delta, "delta")
    if not n >= 1:
        raise DomainError("blocklength must be at least 1")
    r1s = [float(v) for v in r1_grid]
    r2s = [float(v) for v in r2_grid]
    if not r1s:
        raise DomainError("the r1 grid must be nonempty")
    for r in r1s:
        check_rate(r, "r1")
    for r in r2s:
        check_rate(r, "r2")
    tasks = [
        (src.probs, float(target_delta_bound), int(n), float(delta), r2, r1s, config, nu)
        for r2 in r2s
    ]
    columns = parallel_map(_tradeoff_column, tasks, workers=workers)
    return [c for c in columns if c is not None]


def tradeoff_csv_rows(columns) -> list[str]:
    """Fixed-header CSV rows, six decimal places."""
    rows = [CSV_HEADER]
    for r2, max_r1, total in columns:
        rows.append(f"{_fmt(r2)},{_fmt(max_r1)},{_fmt(total)}")
    return rows
