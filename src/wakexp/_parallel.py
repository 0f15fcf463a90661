"""Order-preserving map with optional process workers.

Results are collected in input order, so a parallel run is bit-identical
to the sequential one; the mapped function must be a picklable top-level
callable with pure behavior.  Falls back to sequential execution when the
platform refuses to spawn workers.
"""

from __future__ import annotations


def parallel_map(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: most runs are sequential and never pay for it
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(fn, items))
    except (OSError, PermissionError, NotImplementedError):
        return [fn(x) for x in items]
