"""Derivative-free minimization over products of probability simplices and intervals.

Every search takes one evaluation contract: ``batch_evaluate(points) ->
(values, violations)``, one row per point, where a point is feasible when
its violation is at most ``_FEAS_TOL``.  An unconstrained objective returns
``(values, 0.0)`` and the scalar broadcasts.

``grid_search`` enumerates every lattice point with a common denominator and
is the ground-truth oracle for small problems; ``grid_search_batch`` does so
for many objectives that differ by a parameter row, in one pass.
``compass_batch`` runs independent compass (coordinate mass-transfer)
descents from many starts in lockstep, with batched evaluations of bounded
size per iteration; the best of them over seeded ``random_starts`` is the
multistart that handles the larger parametrizations.  Hard constraints are
handled by exact rejection of infeasible incumbents plus a linear penalty on
constraint violation while probing, so kinky objectives (positive parts,
entropy caps) do not stall the search.  ``maximize_1d`` and ``_golden_max``
are the one-dimensional golden-section maximizers.

All searches are deterministic functions of their inputs and the seed:
evaluation and reduction happen in index order, so a parallel driver that
preserves that order reproduces the sequential result bit for bit.
Objectives must be pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_FEAS_TOL = 1e-12          # violation below this counts as feasible
_DRIFT_TOL = 2.5e-13       # simplex sum drift that triggers exact rescaling
_CALL_ROWS = 1 << 11       # rows per objective call of compass_batch


@dataclass(frozen=True)
class Simplex:
    """A probability vector block of the given dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("simplex dimension must be >= 1")


@dataclass(frozen=True)
class Box:
    """A scalar block constrained to [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError("box needs lower <= upper")


@dataclass(frozen=True)
class SearchDomain:
    """Ordered product of simplex and box blocks."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(blocks))
        for b in self.blocks:
            if not isinstance(b, (Simplex, Box)):
                raise TypeError(f"unsupported block type: {type(b).__name__}")

    @property
    def n_params(self) -> int:
        return sum(b.dim if isinstance(b, Simplex) else 1 for b in self.blocks)

    def slices(self):
        """Per-block slices into the flat parameter vector."""
        out, at = [], 0
        for b in self.blocks:
            w = b.dim if isinstance(b, Simplex) else 1
            out.append(slice(at, at + w))
            at += w
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform point: Dirichlet(1) per simplex, uniform per box."""
        parts = []
        for b in self.blocks:
            if isinstance(b, Simplex):
                e = rng.exponential(size=b.dim)
                parts.append(e / e.sum())
            else:
                parts.append(np.array([b.lower + (b.upper - b.lower) * rng.random()]))
        return np.concatenate(parts)

    def grid_arrays(self, resolution: int):
        """Per-block lattice points with denominator ``resolution``, lex ordered."""
        if resolution < 2:
            raise ValueError("grid resolution must be >= 2")
        out = []
        for b in self.blocks:
            if isinstance(b, Simplex):
                out.append(simplex_grid(b.dim, resolution))
            else:
                frac = np.arange(resolution + 1, dtype=np.float64) / resolution
                out.append((b.lower + (b.upper - b.lower) * frac)[:, None])
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Every under-specified numeric choice of the solvers lives here."""

    grid_resolution: int = 12
    starts: int = 200
    max_iterations: int = 5000
    step_tolerance: float = 1e-6
    seed: int = 0
    penalty_weight: float = 64.0

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.starts < 1 or self.max_iterations < 1:
            raise ValueError("starts and max_iterations must be positive")
        if not 0.0 < self.step_tolerance < math.inf:
            raise ValueError("step_tolerance must be positive and finite")
        if not 0.0 < self.penalty_weight < math.inf:
            raise ValueError("penalty_weight must be positive and finite")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search; ``argmin is None`` marks an infeasible problem."""

    argmin: np.ndarray | None
    value: float
    evaluations: int
    converged: bool

    @property
    def infeasible(self) -> bool:
        return self.argmin is None


# ---------------------------------------------------------------------------
# lattice generation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``parts`` summing to ``total``,
    in ascending lexicographic order."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    level = {m: np.array([[m]], dtype=np.int64) for m in range(total + 1)}
    for width in range(2, parts + 1):
        nxt = {}
        for m in range(total + 1):
            rows = []
            for first in range(m + 1):
                sub = level[m - first]
                rows.append(
                    np.hstack([np.full((sub.shape[0], 1), first, dtype=np.int64), sub])
                )
            nxt[m] = np.vstack(rows)
        if width == parts:
            return nxt[total]
        level = nxt


def simplex_grid(dim: int, resolution: int) -> np.ndarray:
    """Lattice of the (dim-1)-simplex with denominator ``resolution``.

    Rows are in ascending lexicographic order and each sums to 1 within a
    few ulps.
    """
    counts = _compositions(int(resolution), int(dim))
    return counts.astype(np.float64) / float(resolution)


def _cartesian_rows(arrays):
    rows = arrays[0]
    for a in arrays[1:]:
        rows = np.hstack(
            [np.repeat(rows, len(a), axis=0), np.tile(a, (len(rows), 1))]
        )
    return rows


def _grid_chunks(block_arrays, target=1 << 18):
    """Yield the lex-ordered cartesian product of row blocks in bounded chunks."""
    sizes = [len(a) for a in block_arrays]
    k = len(block_arrays)
    split, suffix = k, 1
    while split > 0 and suffix * sizes[split - 1] <= target:
        suffix *= sizes[split - 1]
        split -= 1
    if split == k:
        split = k - 1
    trailing = _cartesian_rows(block_arrays[split:])
    lead_width = sum(a.shape[1] for a in block_arrays[:split])
    if split == 0:
        yield trailing
        return
    buf = np.empty((len(trailing), lead_width + trailing.shape[1]))
    buf[:, lead_width:] = trailing
    for combo in itertools.product(*(range(s) for s in sizes[:split])):
        at = 0
        for i, idx in enumerate(combo):
            w = block_arrays[i].shape[1]
            buf[:, at : at + w] = block_arrays[i][idx]
            at += w
        yield buf


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def lattice_rows(domain: SearchDomain, resolution: int) -> int:
    """Number of points in the lattice of ``domain`` with denominator
    ``resolution``: C(resolution + d - 1, d - 1) per d-simplex block and
    resolution + 1 per box block, multiplied."""
    return math.prod(
        math.comb(resolution + b.dim - 1, b.dim - 1) if isinstance(b, Simplex) else resolution + 1
        for b in domain.blocks
    )


def _capped_resolution(domain: SearchDomain, resolution: int, cap: int) -> int:
    """Highest resolution, at most ``resolution`` and at least 2, whose
    lattice over ``domain`` has at most ``cap`` rows."""
    res = resolution
    while res > 2 and lattice_rows(domain, res) > cap:
        res -= 1
    return res


def grid_search(domain: SearchDomain, resolution: int, batch_evaluate) -> SearchResult:
    """Exact minimum over every lattice point with the given denominator.

    Infeasible points and +inf objective values are skipped, and only
    feasible points count as evaluations.  Ties break to the
    lexicographically smallest point because enumeration is lex ordered
    and only strict improvements replace the incumbent.  Returns the
    infeasible marker result when no lattice point is feasible.
    """
    minima = _LatticeMinima(1, domain.n_params)
    for chunk in _grid_chunks(domain.grid_arrays(resolution)):
        vals, violations = batch_evaluate(chunk)
        feasible = np.broadcast_to(np.asarray(violations) <= _FEAS_TOL, len(chunk))
        minima.fold(0, chunk, np.where(feasible, vals, math.inf), np.count_nonzero(feasible))
    return minima.results()[0]


def grid_search_batch(
    domain: SearchDomain, resolution: int, params, batch_sweep
) -> list[SearchResult]:
    """:func:`grid_search` of many objectives that differ only by a parameter row.

    ``batch_sweep(points)`` returns a callable that maps one row of
    ``params`` to the values of its objective at every point, so the
    objective can compute its parameter-free terms once per lattice chunk.
    ``results[k]`` is what ``grid_search`` returns for the objective of
    ``params[k]``, ties and NaN included.
    """
    params = np.asarray(params)
    minima = _LatticeMinima(len(params), domain.n_params)
    for chunk in _grid_chunks(domain.grid_arrays(resolution)):
        sweep = batch_sweep(chunk)
        for k in range(len(params)):
            minima.fold(k, chunk, np.asarray(sweep(params[k]), dtype=np.float64), len(chunk))
    return minima.results()


class _LatticeMinima:
    """Running lattice minima of several objectives, under one rule.

    NaN counts as +inf, the first minimum of a chunk wins, and only a strict
    improvement replaces an incumbent, so with lex-ordered chunks the
    lexicographically smallest minimizer is kept.  A minimum that stays
    non-finite marks the objective infeasible.
    """

    def __init__(self, n: int, dim: int):
        self.value = np.full(n, math.inf)
        self.point = np.zeros((n, dim))
        self.evaluations = np.zeros(n, dtype=np.int64)

    def fold(self, k, pts, vals, evaluations):
        """Fold ``vals[j]``, objective ``k``'s value at ``pts[j]``, into the
        minima, counting ``evaluations`` of them."""
        self.evaluations[k] += evaluations
        vals = np.where(np.isnan(vals), math.inf, vals)
        i = np.argmin(vals)
        if vals[i] < self.value[k]:
            self.value[k] = vals[i]
            self.point[k] = pts[i]

    def results(self) -> list[SearchResult]:
        return [
            SearchResult(self.point[k].copy(), float(v), int(e), True)
            if math.isfinite(v)
            else SearchResult(None, math.inf, int(e), False)
            for k, (v, e) in enumerate(zip(self.value, self.evaluations))
        ]


# ---------------------------------------------------------------------------
# compass descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _ProbePlan:
    """Every candidate move of one compass iteration, in probe order.

    A simplex candidate moves ``min(step, x[take])`` of mass from ``take``
    to ``give`` (source coordinate outer, target inner).  The candidates at
    ``box_cols`` instead step the box scalar ``x[take]`` (``give == take``)
    by ``step * box_width`` (plus before minus) and clip it to the bounds.
    """

    take: np.ndarray
    give: np.ndarray
    box_cols: np.ndarray
    box_width: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    simplex_slices: tuple


@lru_cache(maxsize=64)
def _probe_plan(domain: SearchDomain) -> _ProbePlan:
    take, give, box_cols, box_width, box_lower, box_upper = [], [], [], [], [], []
    simplex_slices = []
    for block, sl in zip(domain.blocks, domain.slices()):
        if isinstance(block, Simplex):
            simplex_slices.append(sl)
            for j in range(block.dim):
                for i in range(block.dim):
                    if i != j:
                        take.append(sl.start + j)
                        give.append(sl.start + i)
        else:
            width = block.upper - block.lower
            if width <= 0.0:
                continue
            for signed in (width, -width):
                box_cols.append(len(take))
                take.append(sl.start)
                give.append(sl.start)
                box_width.append(signed)
                box_lower.append(block.lower)
                box_upper.append(block.upper)
    return _ProbePlan(
        take=np.array(take, dtype=np.intp),
        give=np.array(give, dtype=np.intp),
        box_cols=np.array(box_cols, dtype=np.intp),
        box_width=np.array(box_width, dtype=np.float64),
        box_lower=np.array(box_lower, dtype=np.float64),
        box_upper=np.array(box_upper, dtype=np.float64),
        simplex_slices=tuple(simplex_slices),
    )


def _candidate_moves(plan: _ProbePlan, x: np.ndarray, step: np.ndarray):
    """Validity and the values written at ``take`` and ``give`` of every
    candidate, per row of ``x``.

    A simplex move out of an empty coordinate and a box step that the
    clipping cancels are invalid: they are never built nor evaluated.
    """
    cur = x[:, plan.take]
    if len(plan.box_cols) == cur.shape[1]:
        return _box_moves(plan, cur, step)
    delta = np.minimum(step[:, None], cur)
    valid, taken, given = cur > 0.0, cur - delta, x[:, plan.give] + delta
    if len(plan.box_cols):
        cols = plan.box_cols
        valid[:, cols], taken[:, cols], given[:, cols] = _box_moves(plan, cur[:, cols], step)
    return valid, taken, given


def _box_moves(plan: _ProbePlan, v: np.ndarray, step: np.ndarray):
    moved = v + step[:, None] * plan.box_width
    # min(max(moved, lower), upper), keeping Python's tie order
    moved = np.where(plan.box_lower > moved, plan.box_lower, moved)
    moved = np.where(plan.box_upper < moved, plan.box_upper, moved)
    return moved != v, moved, moved


def _segment_argmin(values, counts):
    """First index of the minimum within each of the consecutive runs of
    ``counts[d]`` entries of ``values``.

    The same index ``np.argmin`` gives on each run alone; ``values`` holds
    no NaN.
    """
    if len(counts) == 1:
        return np.argmin(values, keepdims=True)
    starts = np.cumsum(counts) - counts
    mins = np.minimum.reduceat(values, starts)
    hits = np.flatnonzero(values == np.repeat(mins, counts))
    return hits[np.searchsorted(hits, starts)]


def _renormalize_simplexes(plan, x, rows):
    """Rescale each simplex block of ``x[rows]`` whose sum drifted from 1."""
    picked = x[rows] if plan.simplex_slices else None
    for sl in plan.simplex_slices:
        s = picked[:, sl].sum(axis=1)
        fix = (np.abs(s - 1.0) > _DRIFT_TOL) & (s > 0.0)
        if fix.any():
            x[rows[fix], sl] /= s[fix, None]


def compass_batch(
    domain: SearchDomain,
    starts,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    batch_evaluate,
    params=None,
) -> list[SearchResult]:
    """Independent compass descents from every start, advanced in lockstep.

    Probes transfer mass between simplex coordinates (or step box scalars,
    clipped to the bounds), so every evaluated point stays inside the
    domain exactly.  Probe ranking adds ``penalty_weight`` per unit of
    constraint violation; only feasible points can become a descent's
    incumbent.  Each iteration evaluates the probes of all still-running
    descents in batched calls of at most ``_CALL_ROWS`` rows, one call per
    block of as many descents as fill it.  Each descent keeps its own
    point, step, score and incumbent, so ``results[k]`` is the descent from ``starts[k]`` run
    alone, provided the objective evaluates each row independently of the
    rest of its batch.

    With ``params``, one row per start, each descent has its own
    objective: ``batch_evaluate`` is handed ``(points, rows)``, where
    ``rows[i]`` is the ``params`` row of the descent that owns
    ``points[i]``.  A start with a non-finite coordinate yields the
    infeasible marker after zero evaluations.
    """
    starts = [np.asarray(s, dtype=np.float64) for s in starts]
    if params is not None:
        params = np.asarray(params)
        if len(params) != len(starts):
            raise ValueError("compass_batch needs one params row per start")
    results = [SearchResult(None, math.inf, 0, False)] * len(starts)
    ids = np.array([k for k, s in enumerate(starts) if np.all(np.isfinite(s))], dtype=np.intp)
    if not ids.size:
        return results

    def score_of(pts, owners):
        """Values, violations and penalized scores of ``pts``, from objective
        calls of at most ``_CALL_ROWS`` rows each."""
        vals, violations = np.empty(len(pts)), np.zeros(len(pts))
        for lo in range(0, len(pts), _CALL_ROWS):
            rows = slice(lo, lo + _CALL_ROWS)
            args = (pts[rows],) if params is None else (pts[rows], params[owners[rows]])
            vals[rows], raw_viol = batch_evaluate(*args)
            violations[rows] = np.maximum(np.asarray(raw_viol, dtype=np.float64), 0.0)
        vals = np.where(np.isnan(vals), math.inf, vals)
        with np.errstate(invalid="ignore"):
            scores = vals + config.penalty_weight * violations
        scores = np.where(np.isnan(scores), math.inf, scores)
        return vals, violations, scores

    plan = _probe_plan(domain)
    x = np.stack([starts[k] for k in ids])
    vals, violations, cur_score = score_of(x, ids)
    evaluations = np.zeros(len(starts), dtype=np.int64)
    evaluations[ids] = 1
    converged = np.zeros(len(starts), dtype=bool)
    best_val = np.full(len(starts), math.inf)
    best_pt = np.zeros((len(starts), x.shape[1]))
    first = (violations <= _FEAS_TOL) & (vals < math.inf)
    best_val[ids[first]] = vals[first]
    best_pt[ids[first]] = x[first]
    step = np.full(len(ids), 0.25)

    def advance(x, step, cur_score, own):
        """One iteration of the descents ``own``; returns the state of
        those still running."""
        valid, taken, given = _candidate_moves(plan, x, step)
        counts = np.count_nonzero(valid, axis=1)
        done = (step < config.step_tolerance) | (counts == 0)
        if done.any():
            converged[own[done]] = True
            keep = ~done
            own, x, step, cur_score = own[keep], x[keep], step[keep], cur_score[keep]
            if not len(own):
                return x, step, cur_score, own
            valid, taken, given, counts = valid[keep], taken[keep], given[keep], counts[keep]
        evaluations[own] += counts
        cols = np.nonzero(valid)[1]
        probes = np.repeat(x, counts, axis=0)
        at = np.arange(len(cols))
        probes[at, plan.take[cols]] = taken[valid]
        if given is not taken:                  # box-only moves write one coordinate
            probes[at, plan.give[cols]] = given[valid]
        owners = None if params is None else np.repeat(own, counts)
        vals, violations, scores = score_of(probes, owners)

        feasible_vals = np.where(violations <= _FEAS_TOL, vals, math.inf)
        j = _segment_argmin(feasible_vals, counts)
        better = feasible_vals[j] < best_val[own]
        if better.any():
            best_val[own[better]] = feasible_vals[j[better]]
            best_pt[own[better]] = probes[j[better]]

        k = _segment_argmin(scores, counts)
        accept = scores[k] < cur_score - 1e-15
        if accept.any():
            moved = np.flatnonzero(accept)
            x[moved] = probes[k[moved]]
            cur_score[moved] = scores[k[moved]]
            _renormalize_simplexes(plan, x, moved)
        return x, np.where(accept, step, 0.5 * step), cur_score, own

    # the descents advance in blocks whose probes fill at most one
    # objective call, which bounds the probe arrays too; a block shrinks as
    # its descents stop, and the blocks are repacked once that frees one
    per_block = max(1, _CALL_ROWS // max(1, len(plan.take)))

    def blocks_of(state):
        return [tuple(a[lo : lo + per_block] for a in state) for lo in range(0, len(state[3]), per_block)]

    blocks = blocks_of((x, step, cur_score, ids))
    for _ in range(config.max_iterations):
        if not len(plan.take):
            converged[ids] = True
            break
        blocks = [state for state in (advance(*s) for s in blocks) if len(state[3])]
        running = sum(len(state[3]) for state in blocks)
        if not running:
            break
        if len(blocks) > -(-running // per_block):
            blocks = blocks_of([np.concatenate(a) for a in zip(*blocks)])

    for k in range(len(starts)):
        if not evaluations[k]:
            continue
        found = best_val[k] < math.inf
        results[k] = SearchResult(
            best_pt[k].copy() if found else None,
            float(best_val[k]),
            int(evaluations[k]),
            bool(converged[k]),
        )
    return results


def random_starts(domain: SearchDomain, config: SolverConfig) -> list:
    """The ``config.starts`` multistart points, drawn up front from ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    return [domain.sample(rng) for _ in range(config.starts)]


def best_of(results) -> SearchResult:
    """First strictly lowest feasible result, carrying the total evaluations.

    Returns the infeasible marker when no result is feasible.
    """
    best = None
    evaluations = 0
    for res in results:
        evaluations += res.evaluations
        if not res.infeasible and (best is None or res.value < best.value):
            best = res
    if best is None:
        return SearchResult(None, math.inf, evaluations, False)
    return SearchResult(best.argmin, best.value, evaluations, best.converged)


# ---------------------------------------------------------------------------
# one-dimensional maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_LOOKAHEAD = 4      # golden-section shrinks whose probes are prefetched as one batch


def _golden_shrink(a: float, b: float, c: float, d: float, left: bool) -> tuple:
    """One golden-section shrink of ``a < c < d < b``: keep ``[a, d]`` if
    ``left``, else ``[c, b]``.  Returns the new ``(a, b, c, d)`` and the one
    new interior point, which is the next probe."""
    if left:
        b, d = d, c
        c = b - _INVPHI * (b - a)
        return a, b, c, d, c
    a, c = c, d
    d = a + _INVPHI * (b - a)
    return a, b, c, d, d


def _golden_probes(a: float, b: float, c: float, d: float, left: bool, depth: int) -> list:
    """Every probe of the next ``depth`` shrinks, the first going ``left``
    and each later one either way: 1 + 2 + ... + 2**(depth - 1) abscissae."""
    a, b, c, d, x = _golden_shrink(a, b, c, d, left)
    if depth == 1:
        return [x]
    return [x] + [p for side in (True, False) for p in _golden_probes(a, b, c, d, side, depth - 1)]


def _golden_max(f, a: float, b: float, iters: int, prefetch=None):
    """Golden-section maximization of ``f`` on ``[a, b]``.

    ``f`` is called at ``a`` and ``b``, at the two interior points, then at
    the one new probe of each of at most ``iters`` shrinks; the loop stops
    early once the bracket is below 1e-12 relative.  Returns ``(x, f(x))``
    for the first strictly best of ``a``, ``b`` and the probes.

    Each shrink keeps one side, chosen by comparing two known values, so
    once shrink ``t`` has its direction, the probes that shrinks ``t`` to
    ``t + L - 1`` can make are known (``L = _GOLDEN_LOOKAHEAD``; at most
    ``2**L - 1`` points).  An optional ``prefetch(xs)`` receives every such
    set, and first the initial ``[a, b, c, d]``, before ``f`` is called at
    any of them, so a caller with an expensive ``f`` can evaluate each set
    as one batch and let ``f`` read the results.  The ``f`` calls and the
    result do not depend on ``prefetch``.
    """
    if not a < b:
        if prefetch is not None:
            prefetch([a])
        return a, f(a)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    if prefetch is not None:
        prefetch([a, b, c, d])
    best_x, best_v = a, f(a)
    fb = f(b)
    if fb > best_v:
        best_x, best_v = b, fb
    fc, fd = f(c), f(d)
    for t in range(iters):
        left = fc >= fd
        if prefetch is not None and t % _GOLDEN_LOOKAHEAD == 0:
            prefetch(_golden_probes(a, b, c, d, left, min(_GOLDEN_LOOKAHEAD, iters - t)))
        a, b, c, d, x = _golden_shrink(a, b, c, d, left)
        v = f(x)
        fc, fd = (v, fc) if left else (fd, v)
        if v > best_v:
            best_x, best_v = x, v
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
    return float(best_x), float(best_v)


def maximize_1d(f, grid):
    """Exact maximum over a monotone grid, then golden-section refinement.

    The grid winner (leftmost on ties, in ascending orientation) brackets
    the refinement interval; the grid point is kept unless a probe is
    strictly better.  Returns ``(argmax, value)``.
    """
    xs = np.asarray(list(grid), dtype=np.float64)
    if xs.size == 0:
        raise ValueError("maximize_1d needs a nonempty grid")
    if xs.size > 1:
        diffs = np.diff(xs)
        if np.all(diffs < 0):
            xs = xs[::-1]
        elif not np.all(diffs > 0):
            raise ValueError("grid must be strictly monotone")
    vals = np.array([f(x) for x in xs], dtype=np.float64)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[i - 1]) if i > 0 else best_x
    b = float(xs[i + 1]) if i + 1 < xs.size else best_x
    x, v = _golden_max(f, a, b, 80)
    return (x, v) if v > best_v else (best_x, best_v)
