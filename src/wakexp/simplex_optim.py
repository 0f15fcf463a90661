"""Derivative-free minimization over products of probability simplices.

Every search takes one evaluation contract: ``batch_evaluate(points) ->
(values, violations)``, one row per point, where a point is feasible when
its violation is at most ``_FEAS_TOL``.  An unconstrained objective returns
``(values, 0.0)`` and the scalar broadcasts.

``grid_search`` enumerates every lattice point with a common denominator, in
chunks of bounded size, and is the ground-truth oracle for small problems;
``grid_search_batch`` does so for many objectives that differ by a parameter
row, in one pass.
``Lockstep`` is the one descent driver: independent compass (coordinate
mass-transfer) descents advanced in lockstep, as a set that can grow, be
stepped and be read between iterations.  ``compass_batch`` runs one to the
end from many starts; the best of them over seeded ``random_starts`` is
the multistart that handles the larger parametrizations.
``grid_search`` and ``Lockstep`` hand ``batch_evaluate`` at most
``_CALL_ROWS`` rows per call, so the kernels behind them need not split a
batch.  ``minimize`` is the one lattice-then-descend driver: the lattice,
then one ``compass_batch`` from its argmin and the caller's starts, then
``best_of``.  ``bisect_multiplier`` is the one
multiplier bisection: ``minimize`` solves of a scalarized objective, of
which ``best_of`` picks the best feasible one.  Hard constraints are
handled by exact rejection of infeasible incumbents plus a linear penalty
on constraint violation while probing, so kinky objectives (positive
parts, entropy caps) do not stall the search.  ``_zoom_max`` is the one
1-d maximizer: a grid on a bracket, both ends included, zoomed around its
best point, so each level is one batch call.

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
_CALL_ROWS = 1 << 11       # rows per objective call of grid_search and Lockstep
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


class Lockstep:
    """Independent compass descents advanced in lockstep, as one set that
    can grow between iterations.

    ``add`` joins one descent from each of its starts, ``step`` advances
    every running descent by one iteration, and ``run`` steps until every
    descent has stopped.  Between iterations, ``best[k]`` is descent ``k``'s
    incumbent value (+inf until it has a feasible one) and ``running[k]``
    whether it still runs; ``drop`` stops descents whose results are no
    longer wanted, and ``result`` reads a descent's outcome.

    Probes transfer mass between the coordinates of one simplex block, so
    every evaluated point stays inside the domain exactly.  Probe ranking
    adds ``_PENALTY_WEIGHT`` per unit of constraint violation; only
    feasible points can become a descent's incumbent.  The running
    descents are the rows of flat arrays, and each iteration advances them
    in slices of as many descents as fill one objective call of at most
    ``_CALL_ROWS`` rows.  Each descent keeps its own point, step, score,
    incumbent and iteration count.  It converges once its step falls below
    ``config.step_tolerance`` or it has no move left, and it stops
    unconverged after ``config.max_iterations`` iterations counted from
    when it joined.  So a descent's result depends neither on the other
    descents nor on when it joined, provided the objective evaluates each
    row independently of the rest of its batch.

    When the first ``add`` passes ``params``, each descent has its own
    objective: every ``add`` must pass one ``params`` row per start, and
    ``batch_evaluate`` is handed ``(points, rows)``, where ``rows[i]`` is
    the row of the descent that owns ``points[i]``.
    """

    def __init__(self, domain: SearchDomain, config: SolverConfig = DEFAULT_CONFIG, *, batch_evaluate):
        self.config = config
        self.batch_evaluate = batch_evaluate
        self.params = None
        self.plan = _probe_plan(domain)
        # a slice's probes fill at most one objective call, which bounds the probe arrays too
        self.per_slice = max(1, _CALL_ROWS // max(1, len(self.plan.take)))
        # (x, step, score, ids, iterations), one row per running descent
        empty = np.zeros(0, dtype=np.int64)
        self.rows = (np.zeros((0, domain.n_params)), np.zeros(0), np.zeros(0), empty, empty)
        self.evaluations = np.zeros(0, dtype=np.int64)
        self.converged = np.zeros(0, dtype=bool)
        self.running = np.zeros(0, dtype=bool)
        self.best = np.zeros(0)
        self.best_pt = np.zeros((0, domain.n_params))

    def add(self, starts, params=None) -> np.ndarray:
        """Join one descent from each start; returns their ids, which number
        the descents in the order they joined.

        A start with a non-finite coordinate joins stopped, as the
        infeasible marker after zero evaluations.
        """
        starts = [np.asarray(s, dtype=np.float64) for s in starts]
        if params is not None:
            params = np.asarray(params)
            if len(params) != len(starts):
                raise ValueError("compass descents need one params row per start")
        if (self.params is not None or len(self.best)) and (params is None) != (self.params is None):
            raise ValueError("every add passes params rows, or none does")
        if params is not None:
            self.params = params if self.params is None else np.concatenate([self.params, params])
        first, n = len(self.best), len(starts)
        self.evaluations = np.concatenate([self.evaluations, np.zeros(n, dtype=np.int64)])
        self.converged = np.concatenate([self.converged, np.zeros(n, dtype=bool)])
        self.running = np.concatenate([self.running, np.zeros(n, dtype=bool)])
        self.best = np.concatenate([self.best, np.full(n, math.inf)])
        self.best_pt = np.concatenate([self.best_pt, np.zeros((n, self.best_pt.shape[1]))])
        ids = np.arange(first, first + n)
        live = ids[[bool(np.all(np.isfinite(s))) for s in starts]]
        if len(live):
            x = np.stack([starts[k - first] for k in live])
            vals, violations, score = self._score(x, live)
            self.evaluations[live] = 1
            self.running[live] = True
            found = (violations <= _FEAS_TOL) & (vals < math.inf)
            self.best[live[found]] = vals[found]
            self.best_pt[live[found]] = x[found]
            joined = (x, np.full(len(live), 0.25), score, live, np.zeros(len(live), dtype=np.int64))
            self.rows = tuple(np.concatenate(pair) for pair in zip(self.rows, joined))
        return ids

    def step(self) -> np.ndarray:
        """Advance every running descent by one iteration; returns the ids
        of the descents that stopped in it."""
        stopped = np.zeros(len(self.rows[3]), dtype=bool)
        for lo in range(0, len(stopped), self.per_slice):
            part = slice(lo, lo + self.per_slice)
            stopped[part] = self._advance(*(a[part] for a in self.rows))
        ids = self.rows[3][stopped]
        if len(ids):
            self.running[ids] = False
            self.rows = tuple(a[~stopped] for a in self.rows)
        return ids

    def run(self) -> None:
        """Step until every descent has stopped."""
        while len(self.rows[3]):
            self.step()

    def drop(self, ids) -> None:
        """Stop the descents ``ids`` where they are, unconverged."""
        gone = np.zeros(len(self.best), dtype=bool)
        gone[ids] = True
        self.running[ids] = False
        keep = ~gone[self.rows[3]]
        self.rows = tuple(a[keep] for a in self.rows)

    def result(self, k) -> SearchResult:
        """Descent ``k``'s incumbent, evaluations and convergence so far."""
        found = self.best[k] < math.inf
        return SearchResult(
            self.best_pt[k].copy() if found else None,
            float(self.best[k]),
            int(self.evaluations[k]),
            bool(self.converged[k]),
        )

    def _score(self, pts, owners):
        """Values (NaN as inf), violations and penalized scores of ``pts``,
        from objective calls of at most ``_CALL_ROWS`` rows each; an
        unconstrained objective's scores are its values."""
        calls = []
        for lo in range(0, len(pts), _CALL_ROWS):
            rows = slice(lo, lo + _CALL_ROWS)
            args = (pts[rows],) if self.params is None else (pts[rows], self.params[owners[rows]])
            calls.append(self.batch_evaluate(*args))
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

    def _advance(self, x, step, cur_score, own, iterations) -> np.ndarray:
        """One iteration of the descents ``own``, whose rows of state are
        updated in place; returns which of them stopped in it."""
        plan = self.plan
        valid, taken, given = _candidate_moves(plan, x, step)
        counts = valid.sum(axis=1)
        stopped = (step < self.config.step_tolerance) | (counts == 0)
        rows = slice(None)                      # the rows that probe: a view until one stops
        if stopped.any():
            self.converged[own[stopped]] = True
            rows = np.flatnonzero(~stopped)
            if not len(rows):
                return stopped
            valid, taken, given, counts = valid[rows], taken[rows], given[rows], counts[rows]
        live = own[rows]
        self.evaluations[live] += counts
        cols = np.nonzero(valid)[1]
        probes = np.repeat(x[rows], counts, axis=0)
        at = np.arange(len(cols))
        probes[at, plan.take[cols]] = taken[valid]
        probes[at, plan.give[cols]] = given[valid]
        vals, violations, scores = self._score(probes, None if self.params is None else np.repeat(live, counts))

        if scores is vals:                      # unconstrained: one ranking serves both
            feasible_vals = vals
            j = k = _segment_argmin([vals], counts)[0]
        else:
            feasible_vals = np.where(violations <= _FEAS_TOL, vals, math.inf)
            j, k = _segment_argmin([feasible_vals, scores], counts)
        best = feasible_vals[j]
        better = best < self.best[live]
        if better.any():
            self.best[live[better]] = best[better]
            self.best_pt[live[better]] = probes[j[better]]

        accept = scores[k] < cur_score[rows] - 1e-15
        if accept.any():
            moved = np.flatnonzero(accept)
            picked = k[moved]
            new = probes[picked]
            _renormalize_simplexes(plan, new)
            if not isinstance(rows, slice):
                moved = rows[moved]
            cur_score[moved] = scores[picked]
            x[moved] = new
        step[rows] = np.where(accept, step[rows], 0.5 * step[rows])
        iterations[rows] += 1
        return stopped | (iterations >= self.config.max_iterations)


def compass_batch(
    domain: SearchDomain,
    starts,
    config: SolverConfig = DEFAULT_CONFIG,
    *,
    batch_evaluate,
    params=None,
) -> list[SearchResult]:
    """Independent compass descents from every start, run to the end as one
    :class:`Lockstep`.

    ``results[k]`` is the descent from ``starts[k]`` run alone, provided the
    objective evaluates each row independently of the rest of its batch.
    With ``params``, one row per start, each descent has its own objective:
    ``batch_evaluate`` is handed ``(points, rows)``, where ``rows[i]`` is
    the ``params`` row of the descent that owns ``points[i]``.  A start
    with a non-finite coordinate yields the infeasible marker after zero
    evaluations.
    """
    lockstep = Lockstep(domain, config, batch_evaluate=batch_evaluate)
    ids = lockstep.add(starts, params)
    lockstep.run()
    return [lockstep.result(k) for k in ids]


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
    with the evaluations of every solve, its argmin check included, summed.
    """
    solves, starts = [], list(starts)

    def solve(lam, warm):
        """Record the solve at ``lam``; return its verdict and its argmin as the next warm start."""
        res = minimize(domain, scalarized(lam), config, starts + warm)
        vals, violations = batch_evaluate(res.argmin[None, :])
        ok = bool(np.max(violations) <= _FEAS_TOL)
        point = res.argmin if ok and vals[0] < math.inf else None
        solves.append(SearchResult(point, float(vals[0]), res.evaluations + 1, res.converged))
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

def _zoom_max(f, a: float, b: float, points: int, levels: int):
    """Maximize ``f`` on ``[a, b]`` by a zooming grid.

    ``f`` maps a 1-d array of abscissae to their values in one call.  Each
    level evaluates ``points`` evenly spaced abscissae, both ends included,
    and keeps the two cells around the first strictly best one.  ``f`` may
    return an upper bound on the value of any point except the first
    maximum of what it returns, which must be exact: every other point's
    value is then below it before it or at most it after it, so exact
    values would pick the same point and zoom the same way.  The loop
    stops after ``levels`` levels, or once the bracket is below 1e-12
    relative: a bracket of a few ulps at an end point would let a neighbour
    win by rounding.  Returns ``(x, f(x))`` for the first strictly best
    point seen.
    """
    best_x, best_v = a, -math.inf
    for _ in range(levels):
        xs = np.linspace(a, b, points)
        vs = f(xs)
        k = int(np.argmax(vs))
        if vs[k] > best_v:
            best_x, best_v = xs[k], vs[k]
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, points - 1)]
        if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
            break
    return float(best_x), float(best_v)
