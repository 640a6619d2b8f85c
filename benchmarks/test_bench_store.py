"""Benchmark: the persistent store's warm path on the design-space sweeps.

This is the acceptance benchmark of the store subsystem: a cold engine
computes the d695 design-space sweep plus the smoke synthetic sweep and
fills the store; a warm engine pointed at the same directory must
reproduce the sweep **bit-identically** from disk at least twice as fast
(it replaces optimisation with JSON decoding; the synthetic scenarios
keep the cold leg compute-dominated now that the batch evaluation kernel
makes the d695 grid alone nearly as cheap as decoding it).
"""

from __future__ import annotations

import gc
import time

from repro.api.engine import Engine
from repro.bench.runner import (
    bench_sweep_grid,
    clear_computation_caches,
    results_digest,
    synthetic_sweep_grid,
)
from repro.store.packed import PackedResultStore

from conftest import run_once


def _timed_sweep(store: PackedResultStore):
    grid = bench_sweep_grid() + synthetic_sweep_grid(smoke=True)
    engine = Engine(store=store)
    # Start from a collected heap, so the leg pays only for the collections
    # its own allocations trigger, not for a full collection that garbage
    # left by earlier tests in the session makes due.
    gc.collect()
    started = time.perf_counter()
    results = engine.run_batch(grid)
    return time.perf_counter() - started, results, engine.cache_info()


def test_warm_store_sweep_at_least_2x_faster(benchmark, tmp_path):
    store_dir = tmp_path / "store"
    # Earlier benchmarks in the session warm the process-wide computation
    # caches; drop them so the cold leg actually computes.
    clear_computation_caches()
    cold_seconds, cold_results, cold_info = _timed_sweep(PackedResultStore(store_dir))
    assert cold_info.store_hits == 0

    warm_seconds, warm_results, warm_info = run_once(
        benchmark, _timed_sweep, PackedResultStore(store_dir)
    )

    assert warm_info.store_hits == len(cold_results)
    assert warm_info.misses == 0
    # Bit-identical replay: same digest over the exact result values.
    assert results_digest(warm_results) == results_digest(cold_results)
    assert [r.result for r in warm_results] == [r.result for r in cold_results]
    # The acceptance threshold; the observed ratio is far larger.
    assert warm_seconds * 2 <= cold_seconds, (
        f"warm store sweep not >=2x faster: cold {cold_seconds:.3f}s, "
        f"warm {warm_seconds:.3f}s"
    )
    benchmark.extra_info["cold_seconds"] = round(cold_seconds, 4)
    benchmark.extra_info["warm_seconds"] = round(warm_seconds, 4)
    benchmark.extra_info["speedup"] = round(cold_seconds / max(warm_seconds, 1e-9), 1)
    print(
        f"\n store sweep ({len(cold_results)} scenarios): cold {cold_seconds:.3f}s, "
        f"warm {warm_seconds:.3f}s ({cold_seconds / max(warm_seconds, 1e-9):.1f}x)"
    )
