"""Unit tests for the lattice oracle, the compass multistart solver and the
golden-section maximizers."""

import math

import numpy as np
import pytest

from wakexp import simplex_optim
from wakexp.dsbs import dsbs_source
from wakexp.probkit import JointPmf2
from wakexp.reductions import OohamaEvaluator, _tilt_coefficients
from wakexp.simplex_optim import (
    Box,
    SearchDomain,
    Simplex,
    SolverConfig,
    _cartesian_rows,
    best_of,
    compass_batch,
    grid_search,
    grid_search_batch,
    maximize_1d,
    random_starts,
    simplex_grid,
)
from wakexp.wak_exponent import _ExponentSearch, _RegionSearch


def _pointwise(f, violation=None):
    """``batch_evaluate`` of a point objective and an optional point violation."""

    def batch_evaluate(points):
        vals = np.array([f(p) for p in points], dtype=np.float64)
        if violation is None:
            return vals, 0.0
        return vals, np.array([violation(p) for p in points], dtype=np.float64)

    return batch_evaluate


def _unconstrained(f):
    """``batch_evaluate`` of a batch objective with no constraint."""
    return lambda *args: (f(*args), 0.0)


def _multistart(domain, config, batch_evaluate):
    """Best of the ``config.starts`` seeded compass descents."""
    return best_of(compass_batch(domain, random_starts(domain, config), config, batch_evaluate=batch_evaluate))


class TestSimplexGrid:
    def test_counts_and_sums(self):
        g = simplex_grid(3, 4)
        assert g.shape == (math.comb(6, 2), 3)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-14)

    def test_lexicographic_order(self):
        g = simplex_grid(3, 3)
        as_tuples = [tuple(row) for row in g]
        assert as_tuples == sorted(as_tuples)

    def test_dimension_one(self):
        g = simplex_grid(1, 7)
        np.testing.assert_array_equal(g, [[1.0]])

    @pytest.mark.parametrize(
        "blocks",
        [[Simplex(3)], [Simplex(1), Simplex(4)], [Box(0.0, 1.0)] * 3, [Simplex(3), Box(-1.0, 2.0)]],
        ids=["simplex", "two-simplexes", "boxes", "mixed"],
    )
    def test_lattice_rows_counts_the_lattice(self, blocks):
        domain = SearchDomain(blocks)
        for res in (2, 5):
            assert simplex_optim.lattice_rows(domain, res) == len(_cartesian_rows(domain.grid_arrays(res)))


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["penalty_weight", "step_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_positive_and_non_finite(self, field, value):
        with pytest.raises(ValueError):
            SolverConfig(**{field: value})


class TestGridSearch:
    def test_linear_objective_picks_cheapest_vertex(self):
        c = np.array([0.7, 0.2, 0.9])
        res = grid_search(SearchDomain([Simplex(3)]), 6, _pointwise(lambda p: float(c @ p)))
        np.testing.assert_array_equal(res.argmin, [0.0, 1.0, 0.0])
        assert res.value == pytest.approx(0.2)
        assert res.converged

    def test_interior_target_found_exactly(self):
        target = np.array([0.25, 0.5])
        res = grid_search(
            SearchDomain([Box(0.0, 1.0), Box(0.0, 1.0)]), 4, _pointwise(lambda p: float(((p - target) ** 2).sum()))
        )
        np.testing.assert_array_equal(res.argmin, target)
        assert res.value == 0.0

    def test_tie_breaks_to_lexicographically_smallest(self):
        res = grid_search(SearchDomain([Simplex(2)]), 4, _pointwise(lambda p: 1.0))
        np.testing.assert_array_equal(res.argmin, [0.0, 1.0])

    def test_infeasible_marker(self):
        res = grid_search(SearchDomain([Simplex(2)]), 4, _pointwise(lambda p: 1.0, lambda p: math.inf))
        assert res.infeasible
        assert res.value == math.inf

    def test_batch_evaluate_counts_only_feasible_rows(self):
        dom = SearchDomain([Simplex(3)])

        def evaluate(pts):
            return pts[:, 0] + 2.0 * pts[:, 2], np.maximum(0.4 - pts[:, 1], 0.0)

        fused = grid_search(dom, resolution=10, batch_evaluate=evaluate)
        lattice = simplex_grid(3, 10)
        vals, violations = evaluate(lattice)
        feasible = np.flatnonzero(violations <= 1e-12)
        best = feasible[np.argmin(vals[feasible])]
        assert fused.argmin.tobytes() == lattice[best].tobytes()
        assert fused.value == vals[best]
        assert fused.evaluations == len(feasible) == sum(range(1, 8))    # lattice points with p1 >= 0.4
        none = grid_search(dom, resolution=4, batch_evaluate=lambda p: (p[:, 0], np.ones(len(p))))
        assert none.infeasible and none.evaluations == 0

    def test_scalar_violation_broadcasts(self):
        dom = SearchDomain([Simplex(3)])
        free = grid_search(dom, 10, lambda p: (p[:, 0] - p[:, 2], 0.0))
        np.testing.assert_array_equal(free.argmin, [0.0, 0.0, 1.0])
        assert free.evaluations == math.comb(12, 2)
        blocked = grid_search(dom, 10, lambda p: (p[:, 0], 1.0))
        assert blocked.infeasible and blocked.evaluations == 0

    def test_value_matches_objective_at_argmin(self):
        def f(p):
            return float((p[0] - 0.21) ** 2 + p[1])

        res = grid_search(SearchDomain([Box(0.0, 1.0), Box(0.0, 1.0)]), 10, _pointwise(f))
        assert res.value == f(res.argmin)


class TestMultistart:
    def test_convex_quadratic_over_box(self):
        cfg = SolverConfig(starts=5, seed=3, step_tolerance=1e-7)
        target = np.array([0.37, 0.81])
        res = _multistart(
            SearchDomain([Box(0.0, 1.0), Box(0.0, 1.0)]), cfg, _pointwise(lambda p: float(((p - target) ** 2).sum()))
        )
        np.testing.assert_allclose(res.argmin, target, atol=1e-5)
        assert res.converged

    def test_seed_changes_do_not_change_convex_solution(self):
        target = np.array([0.4, 0.1, 0.5])
        dom = SearchDomain([Simplex(3)])

        def f(p):
            return float(((p - target) ** 2).sum())

        v1 = _multistart(dom, SolverConfig(starts=6, seed=1), _pointwise(f)).value
        v2 = _multistart(dom, SolverConfig(starts=6, seed=99), _pointwise(f)).value
        assert abs(v1 - v2) <= 1e-9

    def test_bit_identical_determinism(self):
        rng_free = SearchDomain([Simplex(3), Box(-1.0, 2.0)])

        def f(p):
            return float(np.cos(3 * p[0]) + (p[3] - 0.3) ** 2 + p[1] * p[2])

        cfg = SolverConfig(starts=8, seed=42)
        a = _multistart(rng_free, cfg, _pointwise(f))
        b = _multistart(rng_free, cfg, _pointwise(f))
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.argmin, b.argmin)

    def test_oracle_dominance_on_random_problems(self):
        rng = np.random.default_rng(5)
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        for trial in range(5):
            q = rng.normal(size=(4, 4))
            q = q @ q.T + 0.5 * np.eye(4)
            center = np.concatenate([rng.dirichlet(np.ones(3)), rng.random(1)])

            def f(p):
                d = p - center
                return float(d @ q @ d)

            oracle = grid_search(dom, 12, _pointwise(f))
            ms = _multistart(dom, SolverConfig(starts=10, seed=trial), _pointwise(f))
            assert ms.value <= oracle.value + 1e-9

    def test_all_starts_infeasible(self):
        res = _multistart(
            SearchDomain([Simplex(2)]),
            SolverConfig(starts=3, seed=0, max_iterations=50),
            _pointwise(lambda p: 1.0, lambda p: math.inf),
        )
        assert res.infeasible

    def test_constrained_minimum_on_boundary(self):
        # minimize p0 subject to p0 >= 0.6 on a 2-simplex
        res = _multistart(
            SearchDomain([Simplex(2)]),
            SolverConfig(starts=6, seed=2),
            _pointwise(lambda p: float(p[0]), lambda p: max(0.6 - p[0], 0.0)),
        )
        assert res.value == pytest.approx(0.6, abs=1e-5)


class TestDomainDiscipline:
    def test_every_evaluated_point_stays_inside(self):
        seen = []

        def f(p):
            seen.append(p.copy())
            return float((p[0] - 0.3) ** 2 + (p[3] - 0.9) ** 2)

        dom = SearchDomain([Simplex(3), Box(0.25, 0.75)])
        _multistart(dom, SolverConfig(starts=6, seed=7, max_iterations=300), _pointwise(f))
        assert seen
        for p in seen:
            assert abs(p[:3].sum() - 1.0) <= 1e-12
            assert np.all(p[:3] >= 0.0)
            assert 0.25 <= p[3] <= 0.75


class TestMaximize1d:
    def test_parabola(self):
        x, v = maximize_1d(lambda t: -((t - 0.3) ** 2), np.linspace(0, 1, 21))
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_constant_ties_break_to_first_point(self):
        x, v = maximize_1d(lambda t: 5.0, [0.0, 0.5, 1.0])
        assert x == 0.0
        assert v == 5.0

    def test_rational_boundary_maximum(self):
        # theta * (r1 - 1) / (2 - theta) with r1 = 0.5 decreases in theta
        f = lambda t: t * (0.5 - 1.0) / (2.0 - t)
        x, v = maximize_1d(f, np.linspace(-1.0, 0.0, 41))
        assert x == -1.0
        assert v == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_descending_grid_accepted(self):
        x, _ = maximize_1d(lambda t: -(t - 0.25) ** 2, np.linspace(1, 0, 21))
        assert x == pytest.approx(0.25, abs=1e-6)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda t: t, [0.0, 1.0, 0.5])

    CASES = {
        "parabola": (lambda t: -((t - 0.3) ** 2), np.linspace(0, 1, 21)),
        "multimodal": (lambda t: math.sin(17.0 * t) + 0.3 * math.cos(41.0 * t), np.linspace(0, 1, 11)),
        "constant": (lambda t: 5.0, [0.0, 0.5, 1.0]),
        "left-edge": (lambda t: -t, np.linspace(-1.0, 0.0, 41)),
        "right-edge": (lambda t: t * (0.5 - 1.0) / (2.0 - t), np.linspace(0.0, -1.0, 41)),
        "kink": (lambda t: -abs(t - 0.6180339), np.linspace(0.0, 3.0, 7)),
        "plateau": (lambda t: min(t, 0.5), np.linspace(0.0, 1.0, 5)),    # a probe ties the grid point
        "wide": (lambda t: -((t - 1234.5) ** 2), np.linspace(1000.0, 2000.0, 9)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_separate_loop(self, case):
        # the shared golden-section loop also calls f at the bracket ends
        f, grid = self.CASES[case]
        ref_calls, calls = [], []
        want = _reference_maximize_1d(lambda t: ref_calls.append(t) or f(t), grid)
        got = maximize_1d(lambda t: calls.append(t) or f(t), grid)
        assert got == want
        n = len(grid)
        assert calls[:n] == ref_calls[:n]
        assert calls[n + 2 :] == ref_calls[n:]
        assert len(ref_calls) > n + 2


def _reference_maximize_1d(f, grid):
    """The grid scan and golden-section loop of ``maximize_1d`` before the
    loop was shared with the other golden-section searches."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    xs = np.asarray(list(grid), dtype=np.float64)
    if xs.size > 1 and np.all(np.diff(xs) < 0):
        xs = xs[::-1]
    vals = np.array([f(x) for x in xs], dtype=np.float64)
    i = int(np.argmax(vals))
    best_x, best_v = float(xs[i]), float(vals[i])
    a = float(xs[i - 1]) if i > 0 else best_x
    b = float(xs[i + 1]) if i + 1 < xs.size else best_x
    if a < b:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(80):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = f(c)
                probe_x, probe_v = c, fc
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = f(d)
                probe_x, probe_v = d, fd
            if probe_v > best_v:
                best_x, best_v = float(probe_x), float(probe_v)
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                break
    return best_x, best_v


# ---------------------------------------------------------------------------
# lockstep descent against the one-start-at-a-time loop
# ---------------------------------------------------------------------------

def _reference_probe_points(domain, slices, x, step):
    probes = []
    for block, sl in zip(domain.blocks, slices):
        if isinstance(block, Simplex):
            seg = x[sl]
            d = block.dim
            for j in range(d):
                avail = seg[j]
                if avail <= 0.0:
                    continue
                delta = min(step, avail)
                for i in range(d):
                    if i == j:
                        continue
                    y = x.copy()
                    y[sl.start + j] -= delta
                    y[sl.start + i] += delta
                    probes.append(y)
        else:
            width = block.upper - block.lower
            if width <= 0.0:
                continue
            v = x[sl.start]
            for delta in (step * width, -step * width):
                nv = min(max(v + delta, block.lower), block.upper)
                if nv != v:
                    y = x.copy()
                    y[sl.start] = nv
                    probes.append(y)
    return probes


def _reference_compass(domain, start, config, batch_evaluate):
    """The per-start descent loop that ``compass_batch`` must reproduce."""
    slices = domain.slices()

    def score_of(points):
        pts = np.asarray(points, dtype=np.float64)
        raw_vals, raw_viol = batch_evaluate(pts)
        vals = np.asarray(raw_vals, dtype=np.float64)
        violations = np.broadcast_to(np.maximum(np.asarray(raw_viol, dtype=np.float64), 0.0), vals.shape)
        vals = np.where(np.isnan(vals), math.inf, vals)
        with np.errstate(invalid="ignore"):
            scores = vals + config.penalty_weight * violations
        scores = np.where(np.isnan(scores), math.inf, scores)
        return vals, violations, scores

    x = np.array(start, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return None, math.inf, 0, False
    vals, violations, scores = score_of(x[None, :])
    evaluations = 1
    cur_score = scores[0]
    best_pt, best_val = None, math.inf
    if violations[0] <= 1e-12 and vals[0] < best_val:
        best_pt, best_val = x.copy(), float(vals[0])
    step = 0.25
    converged = False
    for _ in range(config.max_iterations):
        if step < config.step_tolerance:
            converged = True
            break
        probes = _reference_probe_points(domain, slices, x, step)
        if not probes:
            converged = True
            break
        pts = np.asarray(probes)
        vals, violations, scores = score_of(pts)
        evaluations += len(pts)
        feasible_here = violations <= 1e-12
        if feasible_here.any():
            vf = np.where(feasible_here, vals, math.inf)
            j = int(np.argmin(vf))
            if vf[j] < best_val:
                best_pt, best_val = pts[j].copy(), float(vf[j])
        k = int(np.argmin(scores))
        if scores[k] < cur_score - 1e-15:
            x = pts[k].copy()
            for block, sl in zip(domain.blocks, slices):
                if isinstance(block, Simplex):
                    s = x[sl].sum()
                    if abs(s - 1.0) > 2.5e-13 and s > 0.0:
                        x[sl] /= s
            cur_score = scores[k]
        else:
            step *= 0.5
    if best_pt is None:
        return None, math.inf, evaluations, converged
    return best_pt, best_val, evaluations, converged


def _assert_same_result(a, b):
    assert (a.argmin is None) == (b.argmin is None)
    if a.argmin is not None:
        assert a.argmin.tobytes() == b.argmin.tobytes()
    assert (a.value, a.evaluations, a.converged) == (b.value, b.evaluations, b.converged)


def _assert_same_descents(domain, starts, config, batch_evaluate):
    batch = compass_batch(domain, starts, config, batch_evaluate=batch_evaluate)
    assert len(batch) == len(starts)
    for s, got in zip(starts, batch):
        arg, val, evals, conv = _reference_compass(domain, s, config, batch_evaluate)
        assert (got.argmin is None) == (arg is None)
        if arg is not None:
            assert got.argmin.tobytes() == arg.tobytes()
        assert got.value == val or (math.isnan(got.value) and math.isnan(val))
        assert got.evaluations == evals
        assert got.converged == conv
    _assert_same_result(compass_batch(domain, starts[:1], config, batch_evaluate=batch_evaluate)[0], batch[0])


class TestCompassBatchMatchesReference:
    CFG = SolverConfig(max_iterations=400, step_tolerance=1e-7, penalty_weight=8.0)

    def test_mixed_blocks_box_first(self):
        dom = SearchDomain([Box(-1.0, 2.0), Simplex(3), Box(0.0, 0.5), Simplex(2)])
        rng = np.random.default_rng(3)
        starts = [dom.sample(rng) for _ in range(6)]
        starts.append(np.array([2.0, 1.0, 0.0, 0.0, 0.5, 0.0, 1.0]))   # on the bounds

        def f(pts):
            return np.cos(3 * pts[:, 0]) + pts[:, 1] * pts[:, 2] + (pts[:, 4] - 0.3) ** 2 - pts[:, 6] * pts[:, 3]

        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))

    def test_zero_mass_coordinates_and_zero_width_box(self):
        dom = SearchDomain([Simplex(4), Box(0.5, 0.5), Simplex(3)])
        starts = [
            np.array([1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 1.0]),
            np.array([0.0, 0.5, 0.5, 0.0, 0.5, 0.2, 0.0, 0.8]),
            np.array([0.25, 0.25, 0.25, 0.25, 0.5, 1 / 3, 1 / 3, 1 / 3]),
        ]
        target = np.array([0.1, 0.2, 0.0, 0.7, 0.5, 0.0, 0.6, 0.4])

        def f(pts):
            return ((pts - target) ** 2).sum(axis=1)

        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))

    def test_nan_objective_and_penalty_ranked_infeasible_probes(self):
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        rng = np.random.default_rng(11)
        starts = [dom.sample(rng) for _ in range(8)]
        starts.append(np.array([0.05, 0.05, 0.9, 0.9]))                  # infeasible start

        def evaluate(pts):
            vals = (pts[:, 0] - 0.6) ** 2 + pts[:, 3] * pts[:, 1]
            vals = np.where(pts[:, 2] > 0.8, np.nan, vals)                 # a NaN region
            return vals, np.maximum(0.3 - pts[:, 0], 0.0) + np.maximum(pts[:, 3] - 0.7, 0.0)

        _assert_same_descents(dom, starts, self.CFG, evaluate)

    def test_non_finite_start_and_iteration_cap(self):
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        starts = [
            np.array([0.2, 0.3, 0.5, 0.4]),
            np.array([np.nan, 0.5, 0.5, 0.1]),
            np.array([0.2, 0.3, 0.5, np.inf]),
            np.array([0.6, 0.2, 0.2, 0.9]),
        ]

        def f(pts):
            return np.sin(5 * pts[:, 0]) + pts[:, 3] ** 2

        capped = SolverConfig(max_iterations=7)
        _assert_same_descents(dom, starts, capped, _unconstrained(f))
        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))
        res = compass_batch(dom, starts, capped, batch_evaluate=_unconstrained(f))
        assert res[1].infeasible and res[1].evaluations == 0 and not res[1].converged
        assert not res[0].converged

    def test_drifted_start_renormalizes_like_the_loop(self):
        # dimensions of 8 and more sum pairwise in numpy; the row sums of the
        # batch must still equal the 1-d sums bit for bit
        dom = SearchDomain([Simplex(9), Simplex(1), Simplex(2)])
        rng = np.random.default_rng(5)
        starts = []
        for drift in (1e-9, -3e-10, 1e-13):
            s = dom.sample(rng)
            s[:9] *= 1.0 + drift
            starts.append(s)
        w = rng.normal(size=12)

        def f(pts):
            return (pts * w).sum(axis=1) + 0.5 * (pts[:, :9] ** 2).sum(axis=1)

        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))

    def test_batch_is_order_independent(self):
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        rng = np.random.default_rng(2)
        starts = [dom.sample(rng) for _ in range(5)]

        def f(pts):
            return np.cos(4 * pts[:, 0] + pts[:, 3]) + pts[:, 1] ** 2

        forward = compass_batch(dom, starts, self.CFG, batch_evaluate=_unconstrained(f))
        backward = compass_batch(dom, starts[::-1], self.CFG, batch_evaluate=_unconstrained(f))[::-1]
        for a, b in zip(forward, backward):
            assert a.argmin.tobytes() == b.argmin.tobytes()
            assert (a.value, a.evaluations, a.converged) == (b.value, b.evaluations, b.converged)

    def test_needs_an_objective(self):
        # batch_evaluate is a required keyword
        with pytest.raises(TypeError):
            compass_batch(SearchDomain([Simplex(2)]), [np.array([0.5, 0.5])])

    def test_row_bound_splits_calls_without_changing_results(self, monkeypatch):
        # a small row bound splits the starts and each iteration's probes
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        rng = np.random.default_rng(4)
        starts = [dom.sample(rng) for _ in range(11)]

        def f(pts):
            return np.sin(3 * pts[:, 0]) * pts[:, 3] + (pts[:, 1] - 0.4) ** 2

        whole = compass_batch(dom, starts, self.CFG, batch_evaluate=_unconstrained(f))
        for rows in (3, 20):
            monkeypatch.setattr(simplex_optim, "_CALL_ROWS", rows)
            calls = []

            def counted(pts):
                calls.append(len(pts))
                return f(pts), 0.0

            split = compass_batch(dom, starts, self.CFG, batch_evaluate=counted)
            assert max(calls) <= rows
            for a, b in zip(whole, split):
                _assert_same_result(a, b)


# ---------------------------------------------------------------------------
# objectives that differ by a parameter row
# ---------------------------------------------------------------------------

def _tilted_quadratic(pts, rows):
    """A parameter row (target, weight) per point; NaN where x[3] > 0.9."""
    vals = ((pts[:, :3] - rows[:, :3]) ** 2).sum(axis=1) + np.cos(3 * rows[:, 3] * pts[:, 3])
    return np.where(pts[:, 3] > 0.9, np.nan, vals)


class TestPerStartParams:
    DOM = SearchDomain([Simplex(3), Box(0.0, 1.0)])
    CFG = SolverConfig(max_iterations=400, step_tolerance=1e-7, penalty_weight=8.0)

    def _params(self, n, seed):
        rng = np.random.default_rng(seed)
        return [self.DOM.sample(rng) for _ in range(n)], rng.random((n, 4))

    def test_batch_equals_separate_runs(self):
        starts, params = self._params(9, 8)
        evaluate = _unconstrained(_tilted_quadratic)
        batch = compass_batch(self.DOM, starts, self.CFG, batch_evaluate=evaluate, params=params)
        for s, p, got in zip(starts, params, batch):
            _assert_same_result(got, compass_batch(self.DOM, [s], self.CFG, batch_evaluate=evaluate, params=[p])[0])

            def fixed(pts, p=p):
                return _tilted_quadratic(pts, np.broadcast_to(p, (len(pts), 4)))

            arg, val, evals, conv = _reference_compass(self.DOM, s, self.CFG, _unconstrained(fixed))
            assert got.argmin.tobytes() == arg.tobytes()
            assert (got.value, got.evaluations, got.converged) == (val, evals, conv)

    def test_params_reach_batch_evaluate_in_blocks(self, monkeypatch):
        starts, params = self._params(7, 9)

        def evaluate(pts, rows):
            return _tilted_quadratic(pts, rows), np.maximum(pts[:, 0] - rows[:, 0], 0.0)

        whole = compass_batch(self.DOM, starts, self.CFG, batch_evaluate=evaluate, params=params)
        monkeypatch.setattr(simplex_optim, "_CALL_ROWS", 10)
        split = compass_batch(self.DOM, starts, self.CFG, batch_evaluate=evaluate, params=params)
        for k, (a, b) in enumerate(zip(whole, split)):
            _assert_same_result(a, b)
            one = params[k : k + 1]
            _assert_same_result(a, compass_batch(self.DOM, [starts[k]], self.CFG, batch_evaluate=evaluate, params=one)[0])

    def test_params_need_one_row_per_start(self):
        starts, params = self._params(3, 1)
        with pytest.raises(ValueError):
            compass_batch(self.DOM, starts, self.CFG, batch_evaluate=_unconstrained(_tilted_quadratic), params=params[:2])


class TestGridSearchBatch:
    @staticmethod
    def _check(domain, resolution, params, f):
        def sweep(pts):
            return lambda r: f(pts, np.broadcast_to(r, (len(pts), len(r))))

        batch = grid_search_batch(domain, resolution, params, sweep)
        assert len(batch) == len(params)
        for p, got in zip(params, batch):
            ref = grid_search(
                domain,
                resolution,
                _unconstrained(lambda pts, p=p: f(pts, np.broadcast_to(p, (len(pts), len(p))))),
            )
            _assert_same_result(got, ref)

    def test_matches_grid_search_per_row(self):
        dom = SearchDomain([Simplex(3), Box(0.0, 1.0)])
        params = np.random.default_rng(3).random((7, 4))
        params[2] = 0.0                           # ties: the first minimum must win
        self._check(dom, 8, params, _tilted_quadratic)

    def test_all_nan_row_is_infeasible(self):
        dom = SearchDomain([Simplex(2)])

        def f(pts, rows):
            return np.where(rows[:, 0] > 0.5, np.nan, pts[:, 0] * rows[:, 0])

        batch = grid_search_batch(
            dom, 4, np.array([[0.2], [0.9]]), lambda pts: lambda r: f(pts, np.broadcast_to(r, (len(pts), 1)))
        )
        assert not batch[0].infeasible and batch[1].infeasible
        self._check(dom, 4, np.array([[0.2], [0.9]]), f)

    def test_strict_improvement_across_chunks(self):
        # 65^3 rows are more than one lattice chunk; level sets tie across chunks
        dom = SearchDomain([Box(0.0, 1.0)] * 3)

        def f(pts, rows):
            return np.floor(4.0 * np.abs(pts[:, 2] - rows[:, 0])) + np.floor(2.0 * np.abs(pts[:, 0] - rows[:, 1]))

        self._check(dom, 64, np.array([[0.5, 0.3], [0.0, 1.0], [0.9, 0.55]]), f)


# ---------------------------------------------------------------------------
# row independence of the batched objectives
# ---------------------------------------------------------------------------

def _sparse_samples(domain, rng, n):
    pts = []
    for i in range(n):
        p = domain.sample(rng)
        if i % 3 == 0:
            p[rng.integers(len(p))] = 0.0       # null coordinates hit the log2(0) paths
        pts.append(p)
    return np.array(pts)


def _assert_rows_independent(fn, pts, *per_row):
    """``fn(pts, *per_row)`` gives each row the same bytes alone, together
    and reordered; ``per_row`` arrays follow their rows."""
    together = fn(pts, *per_row)
    together = together if isinstance(together, tuple) else (together,)
    for i in range(len(pts)):
        alone = fn(pts[i : i + 1], *(a[i : i + 1] for a in per_row))
        alone = alone if isinstance(alone, tuple) else (alone,)
        for a, b in zip(together, alone):
            assert np.asarray(a)[i].tobytes() == np.asarray(b)[0].tobytes()
    # and inside a batch of another composition
    mixed = fn(pts[::-1], *(a[::-1] for a in per_row))
    mixed = mixed if isinstance(mixed, tuple) else (mixed,)
    for a, b in zip(together, mixed):
        assert np.asarray(a)[::-1].tobytes() == np.asarray(b).tobytes()


class TestBatchComposition:
    SOURCES = [
        dsbs_source(0.1),
        JointPmf2([[0.1, 0.2, 0.05], [0.3, 0.15, 0.2]]),
        JointPmf2([[0.2, 0.1], [0.0, 0.3], [0.25, 0.15]]),
    ]

    @pytest.mark.parametrize("src", SOURCES)
    @pytest.mark.parametrize("nu", [2, 4, 8])
    def test_exponent_rows(self, src, nu):
        prob = _ExponentSearch(src, 0.4, 0.3, nu)
        pts = _sparse_samples(prob.domain, np.random.default_rng(nu), 40)
        _assert_rows_independent(prob.evaluate, pts)

    @pytest.mark.parametrize("src", SOURCES)
    def test_region_rows(self, src):
        prob = _RegionSearch(src, 0.3, src.ny + 1)
        pts = _sparse_samples(prob.domain, np.random.default_rng(1), 40)
        _assert_rows_independent(prob.stats, pts)

    TILTS = [(0.0, 0.0), (0.3, 0.7), (1.0, 1.0), (0.0, 1.0), (1.0, 0.25), (0.5, 0.0)]

    @pytest.mark.parametrize("src", SOURCES)
    def test_omega_rows(self, src):
        ev = OohamaEvaluator(src)
        pts = _sparse_samples(ev.domain, np.random.default_rng(2), 40)
        mixed = _tilt_coefficients([self.TILTS[i % len(self.TILTS)] for i in range(len(pts))])
        _assert_rows_independent(ev._omega_rows, pts, mixed)
        for tilt in self.TILTS:
            one = np.repeat(_tilt_coefficients([tilt]), len(pts), axis=0)
            _assert_rows_independent(ev._omega_rows, pts, one)

    @pytest.mark.parametrize("src", SOURCES)
    def test_lattice_sweep_matches_rows(self, src):
        ev = OohamaEvaluator(src)
        pts = _sparse_samples(ev.domain, np.random.default_rng(3), 40)
        coefs = _tilt_coefficients(self.TILTS)
        sweep = ev._lattice_sweep(pts)
        for t in range(len(coefs)):
            rows = ev._omega_rows(pts, np.repeat(coefs[t : t + 1], len(pts), axis=0))
            assert sweep(coefs[t]).tobytes() == rows.tobytes()
