"""Span tracer wrapped around wakexp's layers from outside the package.

``install`` rebinds, in every ``wakexp`` module that holds them, the public
functions of the traced modules, the ``simplex_optim`` entry points (whose
objective callables it wraps in turn), the public methods of
``OohamaEvaluator`` and ``parallel_map``.  ``restore`` puts the original
bindings back, so untraced and traced calls run in one process.

A span is (name, start, end, parent, call id, value, tag), kept in flat
arrays until the run ends.  ``value`` holds what the span counted: rows for
an objective callable, ``evaluations`` for a search, items for a map.
``tag`` holds the ``wak_exponent`` phase of a top-level search, the
cold/warm flag of a comparison bound, or the worker count of a map.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import weakref
from array import array

LAYERS = ("simplex_optim", "wak_exponent", "reductions", "dsbs", "pa_bound", "_parallel", "cli")
ENTRY_POINTS = ("grid_search", "compass_refine", "multistart_search", "maximize_1d")
CALLABLE_PARAMS = (
    "objective", "feasible", "violation",
    "batch_objective", "batch_feasible", "batch_violation", "batch_evaluate", "f",
)
KERNELS = (
    "wak_exponent.objective",
    "wak_exponent.region_objective",
    "wak_exponent.copy_objective",
    "reductions.omega_rows",
    "reductions.simplex_objective",
    "dsbs.objective",
)
PHASES = ("structured", "copy_manifolds", "region", "multistart")
UNATTRIBUTED = len(PHASES)
NO_TAG = -1

# The tracer that worker processes forked from a traced process find.
_ACTIVE = None


class Tracer:
    """Flat span store with a parent stack; one per traced process."""

    def __init__(self, call_id: int = 0):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.call_id = call_id
        self.deferred: list = []       # (fn, items, map span) for the 1-worker rerun
        self.sequential_s: dict[int, float] = {}   # map span -> 1-worker rerun time
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.call = array("i")
        self.value = array("d")
        self.tag = array("i")
        self.stack = [-1]
        self.optim_depth = 0           # open simplex_optim entry spans
        self.exponent_depth = 0        # open wak_exponent spans

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, tag: int = NO_TAG) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.call.append(self.call_id)
        self.value.append(0.0)
        self.tag.append(tag)
        self.end.append(math.nan)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def truncate(self, n: int):
        for col in (self.name, self.start, self.end, self.parent, self.call, self.value, self.tag):
            del col[n:]

    def export(self, since: int = 0) -> list:
        """Spans from ``since`` on, parents made relative to ``since``."""
        out = []
        for i in range(since, len(self)):
            p = self.parent[i]
            out.append((
                self.names[self.name[i]], self.start[i], self.end[i],
                p - since if p >= since else -1, self.value[i], self.tag[i],
            ))
        return out

    def merge(self, spans: list, parent: int):
        """Append exported spans, hanging their roots under ``parent``."""
        base = len(self)
        for name, start, end, p, value, tag in spans:
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if p < 0 else base + p)
            self.call.append(self.call_id)
            self.value.append(value)
            self.tag.append(tag)

    def run_deferred(self):
        """Rerun each traced map on one worker, timing it.

        The rerun records spans like the real run did (so both sides pay
        the tracing cost) and then drops them.
        """
        for fn, items, span in self.deferred:
            mark = len(self)
            s = time.perf_counter()
            for x in items:
                fn(x)
            self.sequential_s[span] = time.perf_counter() - s
            self.truncate(mark)
        self.deferred.clear()


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _rows(args) -> float:
    shape = getattr(args[0], "shape", None) if args else None
    return float(shape[0]) if shape is not None and len(shape) == 2 else 1.0


def kernel_name(fn) -> str:
    """Which objective kernel a callable handed to ``simplex_optim`` is."""
    f = getattr(fn, "__func__", fn)
    module = getattr(f, "__module__", "") or ""
    qual = getattr(f, "__qualname__", "") or ""
    if module == "wakexp.wak_exponent":
        if qual.startswith("_ExponentSearch.candidates_copy_manifolds"):
            return "wak_exponent.copy_objective"
        if qual.startswith(("_RegionSearch.", "_region_argmin.")):
            return "wak_exponent.region_objective"
        return "wak_exponent.objective"
    if module == "wakexp.reductions":
        if qual.startswith("OohamaEvaluator."):
            return "reductions.omega_rows"
        if qual.startswith("_parametric_max."):
            return "reductions.theta_objective"
        return "reductions.simplex_objective"
    if module == "wakexp.dsbs":
        return "dsbs.objective"
    return module.rsplit(".", 1)[-1] + ".other_objective"


def is_kernel(name: str) -> bool:
    return name in KERNELS or name.endswith("_objective")


def _phase_of(frame, entry: str) -> int:
    """Phase of a top-level search, by the function that called into it."""
    code = frame.f_code
    qual = getattr(code, "co_qualname", code.co_name)
    if qual.startswith("_region_argmin"):
        return PHASES.index("region")
    if qual.startswith("_ExponentSearch.candidates_copy_manifolds"):
        return PHASES.index("copy_manifolds")
    if qual == "wak_exponent":
        return PHASES.index("multistart" if entry == "multistart_search" else "structured")
    return UNATTRIBUTED


def _wrap_kernel(tracer, fn):
    if getattr(fn, "_perfbench_kernel", False) or not callable(fn):
        return fn
    nid = tracer.name_id(kernel_name(fn))

    def kernel(*args, **kwargs):
        i = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
            tracer.value[i] = _rows(args)

    kernel._perfbench_kernel = True
    return kernel


def _wrap_entry(tracer, fn):
    nid = tracer.name_id("simplex_optim." + fn.__name__)
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        for key in CALLABLE_PARAMS:
            if bound.arguments.get(key) is not None:
                bound.arguments[key] = _wrap_kernel(tracer, bound.arguments[key])
        tag = NO_TAG
        if tracer.optim_depth == 0 and tracer.exponent_depth > 0:
            tag = _phase_of(sys._getframe(1), fn.__name__)
        i = tracer.open(nid, tag)
        tracer.optim_depth += 1
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.optim_depth -= 1
            tracer.close(i)
        tracer.value[i] = float(getattr(result, "evaluations", 0))
        return result

    return entry


def _wrap_public(tracer, fn, name):
    nid = tracer.name_id(name)
    exponent = name == "wak_exponent.wak_exponent"

    @functools.wraps(fn)
    def public(*args, **kwargs):
        i = tracer.open(nid)
        tracer.exponent_depth += exponent
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exponent_depth -= exponent
            tracer.close(i)
        tracer.value[i] = float(getattr(result, "evaluations", 0))
        return result

    return public


def _wrap_bound(tracer, fn):
    """``OohamaEvaluator.bound``, tagged 1 on an evaluator's first call."""
    nid = tracer.name_id("reductions.OohamaEvaluator.bound")
    seen = weakref.WeakSet()

    @functools.wraps(fn)
    def bound(self, *args, **kwargs):
        cold = self not in seen
        seen.add(self)
        i = tracer.open(nid, int(cold))
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(i)

    return bound


class ShippedItem:
    """Mapped callable that returns its spans along with its result.

    In a worker forked from a traced process it records the item as a span,
    exports what the item recorded and drops it from the worker's store; the
    map wrapper merges the spans under the map's span.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        tracer = _ACTIVE
        if tracer is None:
            return self.fn(x), None
        remote = tracer.pid != os.getpid()
        if remote:
            tracer.reset()
        mark = len(tracer)
        name = self.fn.__module__.rsplit(".", 1)[-1] + "." + self.fn.__name__
        i = tracer.open(tracer.name_id(name))
        try:
            result = self.fn(x)
        finally:
            tracer.close(i)
        if not remote:
            return result, None
        spans = tracer.export(mark)
        tracer.truncate(mark)
        return result, spans


def _wrap_parallel_map(tracer, fn):
    nid = tracer.name_id("_parallel.parallel_map")

    @functools.wraps(fn)
    def parallel_map(mapped, items, workers=1):
        items = list(items)
        i = tracer.open(nid, int(workers))
        try:
            pairs = fn(ShippedItem(mapped), items, workers=workers)
        finally:
            tracer.close(i)
        tracer.value[i] = float(len(items))
        results = []
        for result, spans in pairs:
            if spans:
                tracer.merge(spans, i)
            results.append(result)
        tracer.deferred.append((mapped, items, i))
        return results

    return parallel_map


def install(tracer: Tracer):
    """Wrap every traced binding; returns a function that restores them."""
    global _ACTIVE
    modules = {name: importlib.import_module("wakexp." + name) for name in LAYERS}
    replace = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if short == "simplex_optim" and name in ENTRY_POINTS:
                replace[id(obj)] = (obj, _wrap_entry(tracer, obj))
            elif short == "_parallel" and name == "parallel_map":
                replace[id(obj)] = (obj, _wrap_parallel_map(tracer, obj))
            elif not name.startswith("_"):
                replace[id(obj)] = (obj, _wrap_public(tracer, obj, f"{short}.{name}"))
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wakexp" or mod_name.startswith("wakexp.")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                undo.append((mod, name, obj))
    evaluator = modules["reductions"].OohamaEvaluator
    omega, bound = evaluator.__dict__["omega"], evaluator.__dict__["bound"]
    evaluator.omega = _wrap_public(tracer, omega, "reductions.OohamaEvaluator.omega")
    evaluator.bound = _wrap_bound(tracer, bound)
    undo += [(evaluator, "omega", omega), (evaluator, "bound", bound)]
    _ACTIVE = tracer

    def restore():
        global _ACTIVE
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)
        _ACTIVE = None

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(tracer) -> list:
    """Duration minus the union of the child spans' intervals."""
    n = len(tracer)
    children: dict[int, list] = {}
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children.setdefault(p, []).append((tracer.start[i], tracer.end[i]))
    out = [tracer.end[i] - tracer.start[i] for i in range(n)]
    for p, iv in children.items():
        iv.sort()
        covered, lo, hi = 0.0, iv[0][0], iv[0][1]
        for a, b in iv[1:]:
            if a > hi:
                covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += hi - lo
        out[p] -= covered
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(xs) -> float:
    xs = sorted(xs)
    if not xs:
        return 0.0
    m = len(xs) // 2
    return xs[m] if len(xs) % 2 else 0.5 * (xs[m - 1] + xs[m])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the spans of a traced run (values only)."""
    n = len(tracer)
    names = [tracer.names[tracer.name[i]] for i in range(n)]
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    self_s = _self_times(tracer)
    by_name: dict[str, list] = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur[i] for i in spans(name))

    m: dict[str, float] = {}
    compass = spans("simplex_optim.compass_refine")
    kernel_children: dict[int, int] = {}
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0 and is_kernel(names[i]):
            kernel_children[p] = kernel_children.get(p, 0) + 1
    iters = sum(kernel_children.get(i, 0) for i in compass)
    compass_self = sum(self_s[i] for i in compass)
    m["simplex_optim.compass.calls"] = len(compass)
    m["simplex_optim.compass.iters"] = iters
    m["simplex_optim.compass.self_s"] = compass_self
    m["simplex_optim.compass.self_us_per_iter"] = _ratio(compass_self, iters) * 1e6
    grid = spans("simplex_optim.grid_search")
    m["simplex_optim.grid.calls"] = len(grid)
    m["simplex_optim.grid.rows"] = sum(tracer.value[i] for i in grid)
    m["simplex_optim.grid.self_s"] = sum(self_s[i] for i in grid)
    m["simplex_optim.multistart.s"] = total("simplex_optim.multistart_search")
    m["simplex_optim.maximize_1d.calls"] = len(spans("simplex_optim.maximize_1d"))
    m["simplex_optim.maximize_1d.s"] = total("simplex_optim.maximize_1d")

    for k in KERNELS:
        idx = spans(k)
        rows = sum(tracer.value[i] for i in idx)
        s = sum(dur[i] for i in idx)
        m[f"{k}.calls"] = len(idx)
        m[f"{k}.rows"] = rows
        m[f"{k}.rows_per_call"] = _ratio(rows, len(idx))
        m[f"{k}.ns_per_row"] = _ratio(s, rows) * 1e9
        m[f"{k}.s"] = s

    # top-level searches: entry points not called from another entry point
    entries = {"simplex_optim." + e for e in ENTRY_POINTS}
    top = [i for i, name in enumerate(names)
           if name in entries and (tracer.parent[i] < 0 or names[tracer.parent[i]] not in entries)]
    phased = [i for i in top if tracer.tag[i] >= 0]
    for ph, label in enumerate(PHASES):
        idx = [i for i in phased if tracer.tag[i] == ph]
        m[f"wak_exponent.phase.{label}.s"] = sum(dur[i] for i in idx)
        m[f"wak_exponent.phase.{label}.evals"] = sum(tracer.value[i] for i in idx)
    m["wak_exponent.calls"] = len(spans("wak_exponent.wak_exponent"))
    m["wak_exponent.evals"] = sum(tracer.value[i] for i in phased)

    omega = spans("reductions.OohamaEvaluator.omega")
    has_children = set(tracer.parent[i] for i in range(n) if tracer.parent[i] >= 0)
    solves = [i for i in omega if i in has_children]
    m["reductions.omega.calls"] = len(omega)
    m["reductions.omega.solves"] = len(solves)
    m["reductions.omega.hit_ratio"] = _ratio(len(omega) - len(solves), len(omega))
    m["reductions.omega.ms_per_solve"] = _ratio(sum(dur[i] for i in solves), len(solves)) * 1e3
    bounds = spans("reductions.OohamaEvaluator.bound")
    m["reductions.bound.cold_s"] = _median(dur[i] for i in bounds if tracer.tag[i] == 1)
    m["reductions.bound.warm_s"] = _median(dur[i] for i in bounds if tracer.tag[i] == 0)

    dsbs_calls = spans("dsbs.dsbs_exponent")
    m["dsbs.exponent.calls"] = len(dsbs_calls)
    m["dsbs.exponent.ms_per_call"] = _ratio(sum(dur[i] for i in dsbs_calls), len(dsbs_calls)) * 1e3
    columns = spans("pa_bound._tradeoff_column")
    col_set = set(columns)
    in_column = 0
    for i in spans("wak_exponent.wak_exponent"):
        p = tracer.parent[i]
        while p >= 0 and p not in col_set:
            p = tracer.parent[p]
        in_column += p >= 0
    m["pa_bound.exponent_calls_per_column"] = _ratio(in_column, len(columns))
    m["pa_bound.column_s"] = _ratio(sum(dur[i] for i in columns), len(columns))
    maps = spans("_parallel.parallel_map")
    m["parallel.items"] = sum(tracer.value[i] for i in maps)
    m["parallel.map_s"] = sum(dur[i] for i in maps)
    fanned = [i for i in maps if tracer.tag[i] > 1 and tracer.value[i] > 1 and i in tracer.sequential_s]
    m["parallel.speedup"] = _ratio(sum(tracer.sequential_s[i] for i in fanned),
                                   sum(dur[i] for i in fanned))

    for layer in LAYERS:
        m[f"{layer.lstrip('_')}.self_s"] = sum(
            self_s[i] for i, name in enumerate(names) if name.split(".", 1)[0] == layer)
    m["count.evaluations"] = sum(tracer.value[i] for i in top)
    m["count.objective_rows"] = sum(
        tracer.value[i] for i, name in enumerate(names) if is_kernel(name))
    m["count.inner_solves"] = len(top)
    m["trace.spans"] = n
    return m


_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
            ("call", "i"), ("value", "d"), ("tag", "i"))


def dump(tracer: Tracer, path: str, extra: dict | None = None):
    """Write every span to an ``.npz`` file: one array per column, plus
    the span names and ``extra`` as JSON."""
    import json

    import numpy as np

    meta = {"names": tracer.names,
            "sequential_s": {str(k): v for k, v in tracer.sequential_s.items()},
            "extra": extra or {}}
    columns = {col: np.frombuffer(getattr(tracer, col), dtype=np.int32 if code == "i" else np.float64)
               for col, code in _COLUMNS}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **columns)


def load(path: str) -> tuple[Tracer, dict]:
    """Read a dump back into a tracer; returns it with the extra fields."""
    import json

    import numpy as np

    with np.load(path) as doc:
        meta = json.loads(str(doc["meta"]))
        t = Tracer()
        for name in meta["names"]:
            t.name_id(name)
        for col, code in _COLUMNS:
            getattr(t, col).frombytes(doc[col].tobytes())
    t.sequential_s.update({int(k): v for k, v in meta["sequential_s"].items()})
    return t, meta["extra"]
