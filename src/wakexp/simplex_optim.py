"""Derivative-free minimization over products of probability simplices and intervals.

Two tiers are provided.  ``grid_search`` enumerates every lattice point with
a common denominator and is the ground-truth oracle for small problems;
``grid_search_batch`` does so for many objectives that differ by a
parameter row, in one pass.  ``compass_batch`` runs independent compass
(coordinate mass-transfer) descents from many starts in lockstep, with
batched evaluations of bounded size per iteration, and
``multistart_search`` is the best of them over seeded random starts; these
handle the larger parametrizations.  Hard
constraints are handled by exact rejection of infeasible incumbents plus a
linear penalty on constraint violation while probing, so kinky objectives
(positive parts, entropy caps) do not stall the search.

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
        if not self.step_tolerance > 0.0:
            raise ValueError("step_tolerance must be positive")
        if self.penalty_weight <= 0.0:
            raise ValueError("penalty_weight must be positive")


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
        top = total if width < parts else total
        nxt = {}
        for m in range(top + 1):
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
    return level[total]


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
# evaluation adapters
# ---------------------------------------------------------------------------

def _as_batch(point_fn, batch_fn):
    if batch_fn is not None:
        return batch_fn
    if point_fn is None:
        return None

    def batched(points):
        return np.array([point_fn(p) for p in points], dtype=np.float64)

    return batched


def _as_batch_mask(point_fn, batch_fn):
    if batch_fn is not None:
        return batch_fn
    if point_fn is None:
        return None

    def batched(points):
        return np.array([bool(point_fn(p)) for p in points])

    return batched


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def grid_search(
    domain: SearchDomain,
    objective=None,
    feasible=None,
    resolution: int | None = None,
    *,
    batch_objective=None,
    batch_feasible=None,
    batch_evaluate=None,
) -> SearchResult:
    """Exact minimum over every lattice point with the given denominator.

    Infeasible points and +inf objective values are skipped.  Ties break to
    the lexicographically smallest point because enumeration is lex ordered
    and only strict improvements replace the incumbent.  Returns the
    infeasible marker result when no lattice point is feasible.

    ``batch_evaluate(points) -> (values, violations)`` computes both maps in
    one pass and takes precedence over the separate callables; a point is
    feasible when its violation is at most the feasibility tolerance, and
    only feasible points count as evaluations.
    """
    if resolution is None:
        raise ValueError("grid_search needs an explicit resolution")
    obj = _as_batch(objective, batch_objective)
    if obj is None and batch_evaluate is None:
        raise ValueError("grid_search needs an objective")
    feas = _as_batch_mask(feasible, batch_feasible)

    minima = _LatticeMinima(1, domain.n_params)
    for chunk in _grid_chunks(domain.grid_arrays(resolution)):
        if batch_evaluate is not None:
            vals, violations = batch_evaluate(chunk)
            mask = np.asarray(violations, dtype=np.float64) <= _FEAS_TOL
            if not mask.any():
                continue
            pts, vals = chunk[mask], np.asarray(vals, dtype=np.float64)[mask]
        elif feas is not None:
            mask = np.asarray(feas(chunk), dtype=bool)
            if not mask.any():
                continue
            pts = chunk[mask]
            vals = np.asarray(obj(pts), dtype=np.float64)
        else:
            pts = chunk
            vals = np.asarray(obj(pts), dtype=np.float64)
        minima.fold(0, pts, vals)
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
            minima.fold(k, chunk, np.asarray(sweep(params[k]), dtype=np.float64))
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

    def fold(self, k, pts, vals):
        """Fold ``vals[j]``, objective ``k``'s value at ``pts[j]``, into the minima."""
        self.evaluations[k] += len(vals)
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
    batch_objective=None,
    batch_evaluate=None,
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

    ``batch_evaluate(points) -> (values, violations)`` takes precedence
    over ``batch_objective(points) -> values`` (no constraint).  With
    ``params``, one row per start, each descent has its own objective:
    the callable is handed ``(points, rows)``, where ``rows[i]`` is the
    ``params`` row of the descent that owns ``points[i]``.  A start with a
    non-finite coordinate yields the infeasible marker after zero
    evaluations.
    """
    if batch_objective is None and batch_evaluate is None:
        raise ValueError("compass_batch needs an objective")
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
            if batch_evaluate is not None:
                raw_vals, raw_viol = batch_evaluate(*args)
                vals[rows] = raw_vals
                violations[rows] = np.maximum(np.asarray(raw_viol, dtype=np.float64), 0.0)
            else:
                vals[rows] = batch_objective(*args)
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


def _batch_forms(objective, feasible, violation, batch_objective, batch_violation, batch_evaluate):
    """The keyword arguments of :func:`compass_batch` for the point-wise and
    separate-callable forms; an infeasible point under ``feasible`` counts
    as infinitely violated."""
    if batch_evaluate is not None:
        return {"batch_evaluate": batch_evaluate}
    obj = _as_batch(objective, batch_objective)
    if obj is None:
        raise ValueError("compass descent needs an objective")
    viol = _as_batch(violation, batch_violation)
    feas = _as_batch_mask(feasible, None)
    if viol is None and feas is None:
        return {"batch_objective": obj}

    def evaluate(pts):
        if viol is not None:
            return obj(pts), viol(pts)
        return obj(pts), np.where(np.asarray(feas(pts), bool), 0.0, math.inf)

    return {"batch_evaluate": evaluate}


def compass_refine(
    domain: SearchDomain,
    objective=None,
    start=None,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    feasible=None,
    violation=None,
    batch_objective=None,
    batch_violation=None,
    batch_evaluate=None,
) -> SearchResult:
    """Local compass descent from one start point; see :func:`compass_batch`.

    ``batch_evaluate(points) -> (values, violations)`` computes both maps
    in one pass and takes precedence over the separate callables.
    """
    if start is None:
        raise ValueError("compass_refine needs an objective and a start point")
    forms = _batch_forms(
        objective, feasible, violation, batch_objective, batch_violation, batch_evaluate
    )
    return compass_batch(domain, [start], config, **forms)[0]


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


def multistart_search(
    domain: SearchDomain,
    objective=None,
    feasible=None,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    violation=None,
    batch_objective=None,
    batch_violation=None,
    batch_evaluate=None,
) -> SearchResult:
    """Best of ``config.starts`` seeded compass descents.

    Start points are drawn up front from ``config.seed`` (Dirichlet(1) per
    simplex block, uniform per box), so the result is a deterministic
    function of the inputs.  The returned value never exceeds the best
    value seen from any single start.  Returns the infeasible marker when
    no start produces a feasible point.
    """
    forms = _batch_forms(
        objective, feasible, violation, batch_objective, batch_violation, batch_evaluate
    )
    return best_of(compass_batch(domain, random_starts(domain, config), config, **forms))


# ---------------------------------------------------------------------------
# one-dimensional maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_1d(f, grid):
    """Exact maximum over a monotone grid, then golden-section refinement.

    The grid winner (leftmost on ties, in ascending orientation) brackets
    the refinement interval; the grid point is kept unless an interior
    probe is strictly better.  Returns ``(argmax, value)``.
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
    if a < b:
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
                probe_x, probe_v = c, fc
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
                probe_x, probe_v = d, fd
            if probe_v > best_v:
                best_x, best_v = float(probe_x), float(probe_v)
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                break
    return best_x, best_v
