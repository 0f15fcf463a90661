"""Unit tests for the lattice oracle and the compass multistart solver; the
golden-section maximizer's reference test is in ``test_reductions``."""

import math
import tracemalloc

import numpy as np
import pytest

from wakexp import simplex_optim
from wakexp.dsbs import dsbs_source
from wakexp.probkit import JointPmf2, Pmf
from wakexp.reductions import OohamaEvaluator, _tilt_coefficients, exponent_single_direct
from wakexp.simplex_optim import (
    _FEAS_TOL,
    _PENALTY_WEIGHT,
    SearchDomain,
    Simplex,
    SolverConfig,
    best_of,
    bisect_multiplier,
    compass_batch,
    grid_search,
    grid_search_batch,
    lattice_chunks,
    random_starts,
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


# ---------------------------------------------------------------------------
# the lattice: the whole-lattice builders the stream replaced, kept as the
# reference it must reproduce byte for byte
# ---------------------------------------------------------------------------

def _reference_compositions(total, parts):
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
                rows.append(np.hstack([np.full((sub.shape[0], 1), first, dtype=np.int64), sub]))
            nxt[m] = np.vstack(rows)
        if width == parts:
            return nxt[total]
        level = nxt


def _reference_simplex_grid(dim, resolution):
    return _reference_compositions(int(resolution), int(dim)).astype(np.float64) / float(resolution)


def _reference_grid_arrays(domain, resolution):
    """Per-block lattice points with denominator ``resolution``, lex ordered."""
    if resolution < 2:
        raise ValueError("grid resolution must be >= 2")
    return [_reference_simplex_grid(b.dim, resolution) for b in domain.blocks]


def _reference_cartesian_rows(arrays):
    rows = arrays[0]
    for a in arrays[1:]:
        rows = np.hstack([np.repeat(rows, len(a), axis=0), np.tile(a, (len(rows), 1))])
    return rows


def _reference_lattice(domain, resolution):
    return _reference_cartesian_rows(_reference_grid_arrays(domain, resolution))


def _streamed(domain, resolution):
    """The chunks of ``lattice_chunks``, copied before the next overwrites them."""
    return [chunk.copy() for chunk in lattice_chunks(domain, resolution)]


class TestSimplexGrid:
    def test_counts_and_sums(self):
        g = _reference_simplex_grid(3, 4)
        assert g.shape == (math.comb(6, 2), 3)
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-14)

    def test_lexicographic_order(self):
        g = _reference_simplex_grid(3, 3)
        as_tuples = [tuple(row) for row in g]
        assert as_tuples == sorted(as_tuples)

    def test_domain_takes_simplex_blocks_only(self):
        with pytest.raises(TypeError):
            SearchDomain([Simplex(2), (0.0, 1.0)])

    def test_dimension_one(self):
        g = _reference_simplex_grid(1, 7)
        np.testing.assert_array_equal(g, [[1.0]])

    @pytest.mark.parametrize(
        "blocks",
        [[Simplex(3)], [Simplex(1), Simplex(4)], [Simplex(2)] * 3, [Simplex(3), Simplex(2)]],
        ids=["simplex", "two-simplexes", "pairs", "mixed"],
    )
    def test_lattice_rows_counts_the_lattice(self, blocks):
        domain = SearchDomain(blocks)
        for res in (2, 5):
            assert simplex_optim.lattice_rows(domain, res) == len(_reference_lattice(domain, res))


PRODUCTS = {
    "two-simplexes": [Simplex(3), Simplex(4)],
    "simplex-pair": [Simplex(4), Simplex(2)],
    "pair-simplex-pair": [Simplex(2), Simplex(3), Simplex(2)],
    "pairs": [Simplex(2)] * 3,                  # the binary symmetric family's domain
    "one-point-block": [Simplex(2), Simplex(1), Simplex(3)],
    "omega-3x2": [Simplex(3), Simplex(2), Simplex(2), Simplex(2)],
}


class TestLatticeChunks:
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_simplex_matches_the_reference(self, dim):
        for res in (2, 3, 12, 26, 40):
            if math.comb(res + dim - 1, dim - 1) > 400_000:
                continue
            chunks = _streamed(SearchDomain([Simplex(dim)]), res)
            assert all(len(c) <= simplex_optim._LATTICE_CHUNK for c in chunks)
            assert np.vstack(chunks).tobytes() == _reference_lattice(SearchDomain([Simplex(dim)]), res).tobytes()

    @pytest.mark.parametrize("blocks", PRODUCTS.values(), ids=PRODUCTS.keys())
    def test_products_match_the_reference(self, blocks):
        domain = SearchDomain(blocks)
        for res in (2, 3, 7, 12):
            chunks = _streamed(domain, res)
            assert all(len(c) <= simplex_optim._LATTICE_CHUNK for c in chunks)
            assert np.vstack(chunks).tobytes() == _reference_lattice(domain, res).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize(
        "blocks",
        [[Simplex(1)], [Simplex(2)], [Simplex(4)], [Simplex(6)], *PRODUCTS.values()],
        ids=["simplex1", "simplex2", "simplex4", "simplex6", *PRODUCTS.keys()],
    )
    def test_small_chunks_split_the_trailing_table(self, monkeypatch, chunk, blocks):
        # chunk boundaries fall inside the runs of the trailing table,
        # and with one row per chunk the walk reaches every coordinate
        monkeypatch.setattr(simplex_optim, "_LATTICE_CHUNK", chunk)
        domain = SearchDomain(blocks)
        for res in (2, 5):
            chunks = _streamed(domain, res)
            assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
            assert 0 < len(chunks[-1]) <= chunk
            assert np.vstack(chunks).tobytes() == _reference_lattice(domain, res).tobytes()

    def test_resolution_below_two_raises(self):
        dom = SearchDomain([Simplex(3), Simplex(2)])
        for res in (1, 0, -3):
            with pytest.raises(ValueError):
                next(lattice_chunks(dom, res))
            with pytest.raises(ValueError):
                grid_search(dom, res, lambda p: (p[:, 0], 0.0))
            with pytest.raises(ValueError):
                grid_search_batch(dom, res, np.zeros((1, 1)), lambda p: lambda r: p[:, 0])

    @staticmethod
    def _searches(domain, res, evaluate, params, sweep):
        return [grid_search(domain, res, evaluate)] + grid_search_batch(domain, res, params, sweep)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_searches_do_not_depend_on_the_chunks(self, monkeypatch, chunk):
        dom = SearchDomain([Simplex(3), Simplex(2)])
        params = np.random.default_rng(4).random((3, 4))
        params[1] = 0.0

        def evaluate(pts):
            return pts[:, 0] + 2.0 * pts[:, 2] - pts[:, 3], np.maximum(0.4 - pts[:, 1], 0.0)

        def sweep(pts):
            return lambda r: _tilted_quadratic(pts, np.broadcast_to(r, (len(pts), len(r))))

        want = self._searches(dom, 9, evaluate, params, sweep)
        monkeypatch.setattr(simplex_optim, "_LATTICE_CHUNK", chunk)
        for a, b in zip(self._searches(dom, 9, evaluate, params, sweep), want):
            _assert_same_result(a, b)

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_tie_breaks_lexicographically_across_chunks(self, monkeypatch, chunk):
        # every point with p0 >= 1/4 ties at 0; the first of them, row 235
        # of 455, is inside a chunk, and its ties run on through later ones
        monkeypatch.setattr(simplex_optim, "_LATTICE_CHUNK", chunk)
        dom = SearchDomain([Simplex(4)])
        lattice = _reference_lattice(dom, 12)
        first = np.flatnonzero(lattice[:, 0] >= 0.25)[0]
        assert first == 235 and first % chunk and first // chunk < (len(lattice) - 1) // chunk
        res = grid_search(dom, 12, lambda p: (np.where(p[:, 0] >= 0.25, 0.0, 1.0 - p[:, 0]), 0.0))
        assert res.argmin.tobytes() == lattice[first].tobytes() and res.value == 0.0
        (batch,) = grid_search_batch(
            dom, 12, np.zeros((1, 1)), lambda p: lambda r: np.where(p[:, 0] >= 0.25, r[0], 1.0)
        )
        assert batch.argmin.tobytes() == lattice[first].tobytes() and batch.evaluations == len(lattice)


class TestLatticeMemory:
    """Lattice oracles stream bounded chunks and keep nothing after they return."""

    @staticmethod
    def _traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak, held

    def test_grid_search_peak_and_residue(self):
        # 169,911 rows of 6 floats: 8.2 MB as one array
        dom = SearchDomain([Simplex(6)])
        res, peak, held = self._traced(lambda: grid_search(dom, 26, lambda p: (p[:, 0] - p[:, 5], 0.0)))
        assert res.evaluations == simplex_optim.lattice_rows(dom, 26) == 169_911
        assert peak < 8e6 and held < 1e6, (peak, held)

    def test_single_user_exponent_peak(self):
        # the 293,930-row Simplex(10) lattice at resolution 12: 23.5 MB as one array
        pmf = Pmf(np.arange(1.0, 11.0) / 55.0)
        config = SolverConfig(starts=4, max_iterations=200, seed=1)
        value, peak, _ = self._traced(lambda: exponent_single_direct(pmf, 2.0, config))
        assert math.isfinite(value)
        assert peak < 32e6, peak


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["step_tolerance"])
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
            SearchDomain([Simplex(2), Simplex(2)]), 4, _pointwise(lambda p: float(((p[0::2] - target) ** 2).sum()))
        )
        np.testing.assert_array_equal(res.argmin, [0.25, 0.75, 0.5, 0.5])
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
        lattice = _reference_simplex_grid(3, 10)
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
            return float((p[0] - 0.21) ** 2 + p[2])

        res = grid_search(SearchDomain([Simplex(2), Simplex(2)]), 10, _pointwise(f))
        assert res.value == f(res.argmin)

    def test_row_bound_splits_calls_without_changing_results(self, monkeypatch):
        # 5,915 lattice rows, one chunk: no call may hold more than _CALL_ROWS
        dom = SearchDomain([Simplex(4), Simplex(2)])
        calls = []

        def counted(pts):
            calls.append(len(pts))
            vals = np.sin(3 * pts[:, 0]) * pts[:, 4] + (pts[:, 1] - 0.4) ** 2
            return vals, np.maximum(pts[:, 2] - 0.5, 0.0)

        whole = grid_search(dom, 12, counted)
        assert sum(calls) == simplex_optim.lattice_rows(dom, 12) > simplex_optim._CALL_ROWS
        assert max(calls) <= simplex_optim._CALL_ROWS
        for rows in (7, 100):
            monkeypatch.setattr(simplex_optim, "_CALL_ROWS", rows)
            calls.clear()
            _assert_same_result(grid_search(dom, 12, counted), whole)
            assert max(calls) <= rows


class TestMultistart:
    def test_convex_quadratic_over_pairs(self):
        cfg = SolverConfig(starts=5, seed=3, step_tolerance=1e-7)
        target = np.array([0.37, 0.81])
        res = _multistart(
            SearchDomain([Simplex(2), Simplex(2)]), cfg, _pointwise(lambda p: float(((p[0::2] - target) ** 2).sum()))
        )
        np.testing.assert_allclose(res.argmin[0::2], target, atol=1e-5)
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
        rng_free = SearchDomain([Simplex(3), Simplex(2)])

        def f(p):
            return float(np.cos(3 * p[0]) + (-1.0 + 3.0 * p[3] - 0.3) ** 2 + p[1] * p[2])

        cfg = SolverConfig(starts=8, seed=42)
        a = _multistart(rng_free, cfg, _pointwise(f))
        b = _multistart(rng_free, cfg, _pointwise(f))
        assert a.value == b.value
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.argmin, b.argmin)

    def test_oracle_dominance_on_random_problems(self):
        rng = np.random.default_rng(5)
        dom = SearchDomain([Simplex(3), Simplex(2)])
        for trial in range(5):
            q = rng.normal(size=(4, 4))
            q = q @ q.T + 0.5 * np.eye(4)
            center = np.concatenate([rng.dirichlet(np.ones(3)), rng.random(1)])

            def f(p):
                d = p[:4] - center
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


def _off_lattice_gap(pts):
    """Distance of the first coordinate from 1/3 beyond 0.01: 0 on a band
    that holds no point of any PRODUCTS lattice at resolution 4."""
    return np.maximum(np.abs(pts[:, 0] - 1.0 / 3.0) - 0.01, 0.0)


MINIMIZE_OBJECTIVES = {
    # a smooth objective whose constraint some lattice points meet
    "feasible-lattice": lambda w: lambda pts: (
        np.cos(pts @ w) + ((pts - 0.3) ** 2).sum(axis=1),
        np.maximum(pts[:, 0] - 0.6, 0.0),
    ),
    # feasible only on the band, so every lattice point is infeasible
    "infeasible-lattice": lambda w: lambda pts: (pts @ w, _off_lattice_gap(pts)),
    # 0 on the whole band: descents tie there at different points
    "ties": lambda w: lambda pts: (_off_lattice_gap(pts), 0.0),
}


class TestMinimize:
    """``minimize`` against a hand-built lattice, one descent and ``best_of``."""

    CFG = SolverConfig(starts=5, seed=6, max_iterations=300, step_tolerance=1e-7)

    @staticmethod
    def _by_hand(domain, evaluate, config, starts, resolution, lattice_first=True):
        runs = [] if resolution is None else [grid_search(domain, resolution, evaluate)]
        lattice = [r.argmin for r in runs if not r.infeasible]
        starts = lattice + starts if lattice_first else starts + lattice
        return best_of(runs + compass_batch(domain, starts, config, batch_evaluate=evaluate))

    @pytest.mark.parametrize("resolution", [None, 4])
    @pytest.mark.parametrize("objective", MINIMIZE_OBJECTIVES)
    @pytest.mark.parametrize("blocks", PRODUCTS.values(), ids=PRODUCTS.keys())
    def test_matches_the_hand_built_driver(self, monkeypatch, blocks, objective, resolution):
        domain = SearchDomain(blocks)
        evaluate = MINIMIZE_OBJECTIVES[objective](np.random.default_rng(8).normal(size=domain.n_params))
        starts = random_starts(domain, self.CFG)
        want = self._by_hand(domain, evaluate, self.CFG, starts, resolution)
        batches = []

        def recording(domain, starts, config, **kwargs):
            batches.append([s.tobytes() for s in starts])
            return compass_batch(domain, starts, config, **kwargs)

        monkeypatch.setattr(simplex_optim, "compass_batch", recording)
        got = simplex_optim.minimize(domain, evaluate, self.CFG, starts, resolution)
        _assert_same_result(got, want)
        assert len(batches) == 1
        lattice = [] if resolution is None else [grid_search(domain, resolution, evaluate)]
        if objective == "infeasible-lattice":
            assert lattice == [] or lattice[0].infeasible
        first = [r.argmin.tobytes() for r in lattice if not r.infeasible]
        assert batches[0] == first + [s.tobytes() for s in starts]
        if objective == "ties" and resolution is not None:
            # the descent from the lattice argmin and later ones all reach 0,
            # so the order decides: with that start last, another one wins
            last = self._by_hand(domain, evaluate, self.CFG, starts, resolution, lattice_first=False)
            assert got.value == last.value == 0.0
            assert got.argmin.tobytes() != last.argmin.tobytes()


class TestBisectMultiplier:
    """A point (t, 1 - t) stands for x = 4t in [0, 4].  Each solve of
    ``scalarized(lam)`` ends exactly at x = lam, so a solve's argmin names
    its multiplier, and ``batch_evaluate`` reads a scripted (value,
    violation) verdict for it."""

    CFG = SolverConfig(max_iterations=300, step_tolerance=1e-9)
    DOM = SearchDomain([Simplex(2)])

    def _run(self, monkeypatch, verdicts, doublings=30, halvings=3):
        lams, spent = [], []
        solve = simplex_optim.minimize

        def tallied(*args, **kwargs):
            out = solve(*args, **kwargs)
            spent.append(out.evaluations)
            return out

        def scalarized(lam):
            lams.append(lam)
            return lambda pts: ((4.0 * pts[:, 0] - lam) ** 2, 0.0)

        def evaluate(pts):
            value, violation = verdicts[float(4.0 * pts[0, 0])]
            return np.array([value]), np.array([violation])

        monkeypatch.setattr(simplex_optim, "minimize", tallied)
        res = bisect_multiplier(self.DOM, evaluate, scalarized, [np.array([0.0, 1.0])], self.CFG, doublings, halvings)
        assert res.evaluations == sum(spent)
        return res, lams

    @staticmethod
    def _x(res):
        return [4.0 * res.argmin[0]]

    def test_records_points_within_the_feasibility_tolerance(self, monkeypatch):
        # a violation of _FEAS_TOL / 2 or exactly _FEAS_TOL is feasible, and
        # one of 2 * _FEAS_TOL is not, however low its value
        verdicts = {
            0.0: (0.25, 2.0 * _FEAS_TOL),
            1.0: (0.5, 0.5 * _FEAS_TOL),
            0.5: (0.1, 2.0 * _FEAS_TOL),
            0.75: (0.125, _FEAS_TOL),
            0.625: (0.05, 2.0 * _FEAS_TOL),
        }
        res, lams = self._run(monkeypatch, verdicts)
        assert lams == [0.0, 1.0, 0.5, 0.75, 0.625]
        assert (self._x(res), res.value) == ([0.75], 0.125)

    def test_ties_go_to_the_earlier_solve(self, monkeypatch):
        verdicts = {0.0: (1.0, 1.0), 1.0: (0.5, 0.5 * _FEAS_TOL), 0.5: (0.5, 0.0), 0.25: (0.75, 1.0)}
        res, lams = self._run(monkeypatch, verdicts, halvings=2)
        assert lams == [0.0, 1.0, 0.5, 0.25]
        assert (self._x(res), res.value) == ([1.0], 0.5)

    def test_a_feasible_first_solve_ends_the_search(self, monkeypatch):
        res, lams = self._run(monkeypatch, {0.0: (0.3, 0.0)})
        assert lams == [0.0]
        assert (self._x(res), res.value) == ([0.0], 0.3)

    def test_no_feasible_solve_gives_the_infeasible_marker(self, monkeypatch):
        # the solve at lam = 6 stops at the bound x = 4
        verdicts = {x: (0.1, 1.0) for x in (0.0, 1.0, 2.0, 4.0)}
        res, lams = self._run(monkeypatch, verdicts, doublings=3, halvings=1)
        assert lams == [0.0, 1.0, 2.0, 4.0, 6.0]
        assert res.infeasible and res.evaluations > 0


class TestDomainDiscipline:
    def test_every_evaluated_point_stays_inside(self):
        seen = []

        def f(p):
            seen.append(p.copy())
            return float((p[0] - 0.3) ** 2 + (0.25 + 0.5 * p[3] - 0.9) ** 2)

        dom = SearchDomain([Simplex(3), Simplex(2)])
        _multistart(dom, SolverConfig(starts=6, seed=7, max_iterations=300), _pointwise(f))
        assert seen
        for p in seen:
            for sl in dom.slices():
                assert abs(p[sl].sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0)


# ---------------------------------------------------------------------------
# lockstep descent against the one-start-at-a-time loop
# ---------------------------------------------------------------------------

def _reference_probe_points(domain, slices, x, step):
    probes = []
    for block, sl in zip(domain.blocks, slices):
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
            scores = vals + _PENALTY_WEIGHT * violations
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
            for sl in slices:
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
    CFG = SolverConfig(max_iterations=400, step_tolerance=1e-7)

    def test_mixed_blocks_pair_first(self):
        dom = SearchDomain([Simplex(2), Simplex(3), Simplex(2), Simplex(2)])
        rng = np.random.default_rng(3)
        starts = [dom.sample(rng) for _ in range(6)]
        starts.append(np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]))   # on the vertices

        def f(pts):
            # the pairs stand for -1 + 3 t in [-1, 2] and 0.5 t in [0, 0.5]
            return (
                np.cos(3 * (-1.0 + 3.0 * pts[:, 0]))
                + pts[:, 2] * pts[:, 3]
                + (0.5 * pts[:, 5] - 0.3) ** 2
                - pts[:, 8] * pts[:, 4]
            )

        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))

    def test_zero_mass_coordinates_and_a_one_point_block(self):
        dom = SearchDomain([Simplex(4), Simplex(1), Simplex(3)])
        starts = [
            np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
            np.array([0.0, 0.5, 0.5, 0.0, 1.0, 0.2, 0.0, 0.8]),
            np.array([0.25, 0.25, 0.25, 0.25, 1.0, 1 / 3, 1 / 3, 1 / 3]),
        ]
        target = np.array([0.1, 0.2, 0.0, 0.7, 0.5, 0.0, 0.6, 0.4])

        def f(pts):
            return ((pts - target) ** 2).sum(axis=1)

        _assert_same_descents(dom, starts, self.CFG, _unconstrained(f))

    def test_nan_objective_and_penalty_ranked_infeasible_probes(self):
        dom = SearchDomain([Simplex(3), Simplex(2)])
        rng = np.random.default_rng(11)
        starts = [dom.sample(rng) for _ in range(8)]
        starts.append(np.array([0.05, 0.05, 0.9, 0.9, 0.1]))             # infeasible start

        def evaluate(pts):
            vals = (pts[:, 0] - 0.6) ** 2 + pts[:, 3] * pts[:, 1]
            vals = np.where(pts[:, 2] > 0.8, np.nan, vals)                 # a NaN region
            return vals, np.maximum(0.3 - pts[:, 0], 0.0) + np.maximum(pts[:, 3] - 0.7, 0.0)

        _assert_same_descents(dom, starts, self.CFG, evaluate)

    def test_non_finite_start_and_iteration_cap(self):
        dom = SearchDomain([Simplex(3), Simplex(2)])
        starts = [
            np.array([0.2, 0.3, 0.5, 0.4, 0.6]),
            np.array([np.nan, 0.5, 0.5, 0.1, 0.9]),
            np.array([0.2, 0.3, 0.5, np.inf, 0.5]),
            np.array([0.6, 0.2, 0.2, 0.9, 0.1]),
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

    def test_runs_of_wide_blocks_with_pairs_and_zero_mass(self):
        # runs of equal simplex blocks of 9 and 10 (pairwise sums) are
        # renormalized as one array each, a block of another size ends a
        # run, and empty coordinates give every descent its own number of
        # probes; the constraint ranks by penalty
        dom = SearchDomain([Simplex(9), Simplex(9), Simplex(2), Simplex(10), Simplex(10),
                            Simplex(3), Simplex(1), Simplex(9), Simplex(2)])
        rng = np.random.default_rng(13)
        starts = []
        for i in range(7):
            s = dom.sample(rng)
            s[rng.random(len(s)) < 0.3] = 0.0
            for sl in dom.slices():
                if sl.stop - sl.start > 1 and s[sl].sum() > 0.0:
                    s[sl] /= s[sl].sum()
            s[:9] *= 1.0 + (1e-9, -3e-10, 1e-13)[i % 3]
            s[20:30] *= 1.0 - 4e-10 * (i % 2)
            starts.append(s)
        w = rng.normal(size=dom.n_params)

        def evaluate(pts):
            vals = (pts * w).sum(axis=1) + 0.5 * (pts[:, 9:18] ** 2).sum(axis=1)
            return vals, np.maximum(pts[:, 0] + pts[:, 20] - 0.6, 0.0)

        _assert_same_descents(dom, starts, self.CFG, evaluate)
        _assert_same_descents(dom, starts, self.CFG, lambda pts: (evaluate(pts)[0], 0.0))

    def test_batch_is_order_independent(self):
        dom = SearchDomain([Simplex(3), Simplex(2)])
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
        dom = SearchDomain([Simplex(3), Simplex(2)])
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
    DOM = SearchDomain([Simplex(3), Simplex(2)])
    CFG = SolverConfig(max_iterations=400, step_tolerance=1e-7)

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
        dom = SearchDomain([Simplex(3), Simplex(2)])
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
        dom = SearchDomain([Simplex(2)] * 3)

        def f(pts, rows):
            return np.floor(4.0 * np.abs(pts[:, 4] - rows[:, 0])) + np.floor(2.0 * np.abs(pts[:, 0] - rows[:, 1]))

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
