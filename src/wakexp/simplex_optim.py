"""Derivative-free minimization over products of probability simplices.

Every search takes one evaluation contract: ``batch_evaluate(points) ->
(values, violations)``, one row per point, where a point is feasible when
its violation is at most ``_FEAS_TOL``.  An unconstrained objective returns
``(values, 0.0)`` and the scalar broadcasts.

``grid_search`` enumerates every lattice point with a common denominator, in
chunks of bounded size, and is the ground-truth oracle for small problems;
``grid_search_batch`` does so for many objectives that differ by a parameter
row, in one pass.
``compass_batch`` runs independent compass (coordinate mass-transfer)
descents from many starts in lockstep; the best of them over seeded
``random_starts`` is the multistart that handles the larger
parametrizations.  ``grid_search`` and ``compass_batch`` hand
``batch_evaluate`` at most ``_CALL_ROWS`` rows per call, so the kernels
behind them need not split a batch.  ``minimize`` is the one driver that
chains them: the lattice, then one ``compass_batch`` from its argmin and
the caller's starts, then ``best_of``.  ``bisect_multiplier`` is the one
multiplier bisection: ``minimize`` solves of a scalarized objective, of
which ``best_of`` picks the best feasible one.  Hard constraints are
handled by exact rejection of infeasible incumbents plus a linear penalty
on constraint violation while probing, so kinky objectives (positive
parts, entropy caps) do not stall the search.  ``_golden_max`` is the one
1-d maximizer: a golden-section search on a bracket, with both ends
evaluated.

All searches are deterministic functions of their inputs and the seed:
evaluation and reduction happen in index order, so a parallel driver that
preserves that order reproduces the sequential result bit for bit.
Objectives must be pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_FEAS_TOL = 1e-12          # violation below this counts as feasible
_DRIFT_TOL = 2.5e-13       # simplex sum drift that triggers exact rescaling
_CALL_ROWS = 1 << 11       # rows per objective call of grid_search and compass_batch
_PENALTY_WEIGHT = 64.0     # probe-ranking penalty per unit of constraint violation


@dataclass(frozen=True)
class Simplex:
    """A probability vector block of the given dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("simplex dimension must be >= 1")


@dataclass(frozen=True)
class SearchDomain:
    """Ordered product of simplex blocks."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", tuple(blocks))
        for b in self.blocks:
            if not isinstance(b, Simplex):
                raise TypeError(f"unsupported block type: {type(b).__name__}")

    @property
    def n_params(self) -> int:
        return sum(b.dim for b in self.blocks)

    def slices(self):
        """Per-block slices into the flat parameter vector."""
        out, at = [], 0
        for b in self.blocks:
            out.append(slice(at, at + b.dim))
            at += b.dim
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform point: Dirichlet(1) per simplex."""
        parts = []
        for b in self.blocks:
            e = rng.exponential(size=b.dim)
            parts.append(e / e.sum())
        return np.concatenate(parts)


@dataclass(frozen=True)
class SolverConfig:
    """Every under-specified numeric choice of the solvers lives here."""

    grid_resolution: int = 12
    starts: int = 200
    max_iterations: int = 5000
    step_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        if self.starts < 1 or self.max_iterations < 1:
            raise ValueError("starts and max_iterations must be positive")
        if not 0.0 < self.step_tolerance < math.inf:
            raise ValueError("step_tolerance must be positive and finite")


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
# lattice enumeration
# ---------------------------------------------------------------------------

_LATTICE_CHUNK = 1 << 16   # rows per lattice chunk of the exhaustive oracle


def lattice_rows(domain: SearchDomain, resolution: int) -> int:
    """Number of points in the lattice of ``domain`` with denominator
    ``resolution``: C(resolution + d - 1, d - 1) per d-simplex block,
    multiplied."""
    return math.prod(math.comb(resolution + b.dim - 1, b.dim - 1) for b in domain.blocks)


def lattice_chunks(domain: SearchDomain, resolution: int):
    """Yield the lattice of ``domain`` with denominator ``resolution`` in
    ascending lexicographic order, in chunks of at most ``_LATTICE_CHUNK``
    rows.

    Every coordinate is ``count / float(resolution)``.  Every chunk is a
    view of one buffer, which the next chunk overwrites.

    The most trailing coordinates whose lattice fits one chunk form a
    table, built once per call from the last coordinate back.  When they
    begin inside a simplex block, the table holds one run of rows for each
    count the block's leading coordinates can leave.  The leading
    coordinates are walked lazily in lex order, and each prefix is
    broadcast over its run of the table.
    """
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    blocks = domain.blocks
    coords = [(i, q) for i, b in enumerate(blocks) for q in range(b.dim)]
    counts = np.arange(resolution + 1, dtype=np.float64) / float(resolution)

    def steps(j, left):
        """Each value of coordinate ``j`` in lex order, with the count its
        simplex block has left after it, when ``left`` are left before it."""
        i, q = coords[j]
        if q == blocks[i].dim - 1:
            return [(counts[left], resolution)]
        return [(counts[c], left - c) for c in range(left + 1)]

    # runs[m]: the lattice of the coordinates from ``split`` on, when their
    # simplex block has m counts left (all of them at a block boundary)
    runs, split = {resolution: np.empty((1, 0))}, len(coords)
    while split:
        lefts = range(resolution + 1) if coords[split - 1][1] else [resolution]
        level = {m: steps(split - 1, m) for m in lefts}
        if sum(len(runs[after]) for st in level.values() for _, after in st) > _LATTICE_CHUNK:
            break
        split -= 1
        built = {}
        for m, st in level.items():
            tails = [runs[after] for _, after in st]
            heads = np.repeat([v for v, _ in st], [len(t) for t in tails])[:, None]
            built[m] = np.concatenate([heads, np.concatenate(tails)], axis=1)
        runs = built
    prefix = np.empty(split)

    def walk(j, left):
        """Write each value of coordinate ``j`` into ``prefix`` in turn and
        walk the later ones; yield the count left at the split."""
        if j == split:
            yield left
            return
        for v, after in steps(j, left):
            prefix[j] = v
            yield from walk(j + 1, after)

    buf = np.empty((min(_LATTICE_CHUNK, lattice_rows(domain, resolution)), len(coords)))
    filled = 0
    for left in walk(0, resolution):
        part = runs[left]
        while len(part):
            take = min(len(part), len(buf) - filled)
            buf[filled : filled + take, :split] = prefix
            buf[filled : filled + take, split:] = part[:take]
            part, filled = part[take:], filled + take
            if filled == len(buf):
                yield buf
                filled = 0
    if filled:
        yield buf[:filled]


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

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
    and only strict improvements replace the incumbent.  Each call of
    ``batch_evaluate`` gets at most ``_CALL_ROWS`` rows of a lattice chunk.
    Returns the infeasible marker result when no lattice point is feasible.
    """
    minima = _LatticeMinima(1, domain.n_params)
    for chunk in lattice_chunks(domain, resolution):
        for lo in range(0, len(chunk), _CALL_ROWS):
            rows = chunk[lo : lo + _CALL_ROWS]
            vals, violations = batch_evaluate(rows)
            feasible = np.broadcast_to(np.asarray(violations) <= _FEAS_TOL, len(rows))
            minima.fold(0, rows, np.where(feasible, vals, math.inf), np.count_nonzero(feasible))
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
    for chunk in lattice_chunks(domain, resolution):
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

    A candidate moves ``min(step, x[take])`` of mass from ``take`` to
    ``give`` within one block (source coordinate outer, target inner).
    ``simplex_runs`` holds ``(start, blocks, dim)`` for each maximal run of
    adjacent blocks of one dimension.
    """

    take: np.ndarray
    give: np.ndarray
    simplex_runs: tuple


@lru_cache(maxsize=64)
def _probe_plan(domain: SearchDomain) -> _ProbePlan:
    take, give, runs = [], [], []
    for block, sl in zip(domain.blocks, domain.slices()):
        start, count, dim = runs[-1] if runs else (0, 0, 0)
        if dim == block.dim and start + count * dim == sl.start:
            runs[-1] = (start, count + 1, dim)
        else:
            runs.append((sl.start, 1, block.dim))
        for j in range(block.dim):
            for i in range(block.dim):
                if i != j:
                    take.append(sl.start + j)
                    give.append(sl.start + i)
    return _ProbePlan(
        take=np.array(take, dtype=np.intp),
        give=np.array(give, dtype=np.intp),
        simplex_runs=tuple(runs),
    )


def _candidate_moves(plan: _ProbePlan, x: np.ndarray, step: np.ndarray):
    """Validity and the values written at ``take`` and ``give`` of every
    candidate, per row of ``x``.

    A move out of an empty coordinate is invalid: it is never built nor
    evaluated.
    """
    cur = x[:, plan.take]
    delta = np.minimum(step[:, None], cur)
    return cur > 0.0, cur - delta, x[:, plan.give] + delta


def _segment_argmin(rankings, counts):
    """First index of the minimum within each of the consecutive runs of
    ``counts[d] > 0`` entries, for each of the equal-length ``rankings``.

    Entry ``r`` of the result holds the index ``np.argmin`` gives on each
    run of ``rankings[r]`` alone; no ranking holds NaN.  The rankings are
    concatenated, so they share one ``reduceat``, one comparison and one
    ``searchsorted``.
    """
    if len(counts) == 1:
        return [v.argmin(keepdims=True) for v in rankings]
    width, runs = len(rankings[0]), len(counts)
    starts = counts.cumsum() - counts
    if len(rankings) > 1:
        values = np.concatenate(rankings)
        starts = np.concatenate([starts + r * width for r in range(len(rankings))])
        counts = np.concatenate([counts] * len(rankings))
    else:
        values = rankings[0]
    hits = (values == np.minimum.reduceat(values, starts).repeat(counts)).nonzero()[0]
    first = hits[hits.searchsorted(starts)]
    return [first[r * runs : (r + 1) * runs] - r * width for r in range(len(rankings))]


def _renormalize_simplexes(plan, pts):
    """Rescale, in place, each simplex block of ``pts`` whose sum drifted
    from 1.

    Each run of equal simplex blocks is summed as one (points, blocks,
    dim) array, whose contiguous last axis sums every block as its own
    1-d sum would.
    """
    for start, count, dim in plan.simplex_runs:
        blocks = pts[:, start : start + count * dim].reshape(len(pts), count, dim)
        s = blocks.sum(axis=2)
        fix = np.abs(s - 1.0) > _DRIFT_TOL
        if fix.any():
            fix &= s > 0.0
            blocks[fix] /= s[fix][:, None]


def compass_batch(
    domain: SearchDomain,
    starts,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    batch_evaluate,
    params=None,
) -> list[SearchResult]:
    """Independent compass descents from every start, advanced in lockstep.

    Probes transfer mass between the coordinates of one simplex block, so
    every evaluated point stays inside the domain exactly.  Probe ranking
    adds ``_PENALTY_WEIGHT`` per unit of constraint violation; only
    feasible points can become a descent's incumbent.  Each iteration evaluates the probes of all still-running
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
        """Values (NaN as inf), violations and penalized scores of ``pts``,
        from objective calls of at most ``_CALL_ROWS`` rows each; an
        unconstrained objective's scores are its values."""
        calls = []
        for lo in range(0, len(pts), _CALL_ROWS):
            rows = slice(lo, lo + _CALL_ROWS)
            args = (pts[rows],) if params is None else (pts[rows], params[owners[rows]])
            calls.append(batch_evaluate(*args))
        if len(calls) == 1:
            vals, violations = calls[0]
        else:
            vals = np.concatenate([v for v, _ in calls])
            violations = np.concatenate([np.broadcast_to(c, np.shape(v)) for v, c in calls])
        vals = np.fmin(vals, math.inf)
        violations = np.maximum(violations, 0.0)
        if not np.ndim(violations) and violations == 0.0:
            return vals, violations, vals
        with np.errstate(invalid="ignore"):
            return vals, violations, np.fmin(vals + _PENALTY_WEIGHT * violations, math.inf)

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
        counts = valid.sum(axis=1)
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
        probes[at, plan.give[cols]] = given[valid]
        vals, violations, scores = score_of(probes, None if params is None else np.repeat(own, counts))

        if scores is vals:                      # unconstrained: one ranking serves both
            feasible_vals = vals
            j = k = _segment_argmin([vals], counts)[0]
        else:
            feasible_vals = np.where(violations <= _FEAS_TOL, vals, math.inf)
            j, k = _segment_argmin([feasible_vals, scores], counts)
        best = feasible_vals[j]
        better = best < best_val[own]
        if better.any():
            best_val[own[better]] = best[better]
            best_pt[own[better]] = probes[j[better]]

        accept = scores[k] < cur_score - 1e-15
        if accept.any():
            moved = np.flatnonzero(accept)
            picked = k[moved]
            cur_score[moved] = scores[picked]
            new = probes[picked]
            _renormalize_simplexes(plan, new)
            x[moved] = new
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


def minimize(domain: SearchDomain, batch_evaluate, config: SolverConfig, starts, resolution=None) -> SearchResult:
    """The one lattice-then-descend driver.

    Runs the lattice oracle at ``resolution`` when one is given, then one
    ``compass_batch`` from the lattice argmin first and then ``starts``, and
    returns :func:`best_of` over the lattice and every descent.  A caller
    that wants the seeded multistart puts ``random_starts(domain, config)``
    in ``starts``.
    """
    runs, starts = [], list(starts)
    if resolution is not None:
        runs.append(grid_search(domain, resolution, batch_evaluate))
        if not runs[0].infeasible:
            starts.insert(0, runs[0].argmin)
    return best_of(runs + compass_batch(domain, starts, config, batch_evaluate=batch_evaluate))


def bisect_multiplier(
    domain: SearchDomain, batch_evaluate, scalarized, starts, config: SolverConfig, doublings: int, halvings: int
) -> SearchResult:
    """Bisect the multiplier of a scalarized solve onto an active constraint.

    Each solve is one :func:`minimize` of the unconstrained
    ``scalarized(lam)``, objective + lam * constraint, from ``starts`` and
    the previous solve's argmin.  Its argmin is judged under
    ``batch_evaluate``: feasible when the violation is at most
    ``_FEAS_TOL``.  After the unpenalized solve, the multiplier doubles
    from 1 until a solve is feasible, then ``halvings`` bisection steps
    follow.  Returns :func:`best_of` over the feasible solves, each with its
    value under ``batch_evaluate``, so ties go to the earlier solve, and
    with the evaluations of every solve summed.
    """
    solves, starts = [], list(starts)

    def solve(lam, warm):
        """Record the solve at ``lam``; return its verdict and its argmin as the next warm start."""
        res = minimize(domain, scalarized(lam), config, starts + warm)
        vals, violations = batch_evaluate(res.argmin[None, :])
        ok = bool(np.max(violations) <= _FEAS_TOL)
        point = res.argmin if ok and vals[0] < math.inf else None
        solves.append(SearchResult(point, float(vals[0]), res.evaluations, res.converged))
        return ok, [res.argmin]

    ok, warm = solve(0.0, [])
    if ok:
        return best_of(solves)
    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(doublings):
        ok, warm = solve(lam_hi, warm)
        if ok:
            break
        lam_lo = lam_hi
        lam_hi *= 2.0
    for _ in range(halvings):
        lam = 0.5 * (lam_lo + lam_hi)
        ok, warm = solve(lam, warm)
        lam_lo, lam_hi = (lam_lo, lam) if ok else (lam, lam_hi)
    return best_of(solves)


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

