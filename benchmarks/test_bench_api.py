"""Micro-benchmark for the scenario engine: parallel batch vs serial.

Runs a 24-scenario sweep (24 distinct synthetic SOCs, one operating point
each) serially through ``Engine.run`` and through
``Engine.run_batch(workers=4)``, and checks that

* the batch returns bit-identical results, and
* four workers beat serial execution on wall-clock time.

Every timed round starts cold: a fresh engine, and the process-wide
computation caches (kernel memo, wrapper test-time curves, certificates)
cleared, so forked workers cannot inherit curves an earlier round built.
The comparison therefore measures execution, not memoisation.  The SOCs
are distinct and built before timing, so no scenario reuses another's
work in either leg, and each result is small next to its computation (a
d695 result costs more to pickle back from a worker than to compute).
The legs are timed in :data:`ROUNDS` back-to-back pairs and compared on
the median pair, which keeps load bursts of a shared host out of the
comparison.  A final timed pass measures the cache-hit path.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from repro.api import Engine, Scenario, reference_test_cell
from repro.bench.runner import clear_computation_caches
from repro.soc.catalog import resolve_catalog_soc, synthetic_family


def _parallelism_expected() -> bool:
    """True when the host advertises >1 CPU and a process pool can run.

    ``Engine.run_batch`` falls back to serial execution on platforms where
    multiprocessing is blocked, and a single-core host cannot beat serial;
    in either case the speed-up assertion would measure the environment,
    not the feature, so it is skipped (correctness and cache assertions
    always run, and the measured times are still reported).  Note that some
    sandboxes under-report the CPU count while still scheduling workers on
    several physical cores -- the guard is deliberately conservative.
    """
    if (os.cpu_count() or 1) < 2:
        return False
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            return list(pool.map(abs, [-1, -2])) == [1, 2]
    except Exception:
        return False

#: 24 distinct 100-module synthetic SOCs, one operating point each, sized
#: so a cold serial leg takes about a second.
SWEEP_SOCS = synthetic_family(5000, count=24, modules=100)

#: Paired timed rounds; the comparison uses the round with the median
#: batch/serial ratio.
ROUNDS = 5


def _build_socs() -> None:
    for name in SWEEP_SOCS:
        resolve_catalog_soc(name)


def _sweep() -> list[Scenario]:
    cell = reference_test_cell(channels=512, depth_m=4)
    _build_socs()
    return [Scenario(soc=name, test_cell=cell) for name in SWEEP_SOCS]


def _cold_seconds(leg) -> tuple[float, object]:
    """Wall time of ``leg()`` from cold process caches, and its result.

    Clearing the caches drops the built SOCs too; they are rebuilt before
    the timer starts, so both legs time execution, not SOC construction.
    """
    clear_computation_caches()
    _build_socs()
    start = time.perf_counter()
    result = leg()
    return time.perf_counter() - start, result


def _median_round(serial_leg, batch_leg):
    """Time both legs back to back for :data:`ROUNDS` rounds.

    Returns the serial and batch seconds of the round with the median
    batch/serial ratio, then the last round's serial and batch results.
    Timing the legs of one round back to back gives both the same host
    load; the median keeps a load burst that hits one leg out of the result.
    """
    rounds = []
    for _ in range(ROUNDS):
        serial_seconds, serial = _cold_seconds(serial_leg)
        batch_seconds, batch = _cold_seconds(batch_leg)
        rounds.append((batch_seconds / serial_seconds, serial_seconds, batch_seconds))
    _, serial_seconds, batch_seconds = sorted(rounds)[len(rounds) // 2]
    return serial_seconds, batch_seconds, serial, batch


def test_batch_api_benchmark(benchmark):
    scenarios = _sweep()
    assert len(scenarios) == len(SWEEP_SOCS)

    def serial_leg():
        engine = Engine()
        return [engine.run(scenario) for scenario in scenarios]

    def batch_leg():
        engine = Engine()
        return engine, engine.run_batch(scenarios, workers=4)

    serial_seconds, batch_seconds, serial, (batch_engine, batch) = benchmark.pedantic(
        _median_round, args=(serial_leg, batch_leg), rounds=1, iterations=1
    )

    assert len(batch) == len(scenarios)
    for serial_item, batch_item in zip(serial, batch):
        assert serial_item.scenario == batch_item.scenario
        assert serial_item.result == batch_item.result

    # A second batch over the same grid must be pure cache hits.
    start = time.perf_counter()
    batch_engine.run_batch(scenarios, workers=4)
    cached_seconds = time.perf_counter() - start
    info = batch_engine.cache_info()
    assert info.misses == len(scenarios) and info.hits == len(scenarios)
    assert cached_seconds < serial_seconds / 10

    parallel = _parallelism_expected()

    speedup = serial_seconds / batch_seconds if batch_seconds > 0 else float("inf")
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["batch_seconds"] = round(batch_seconds, 3)
    benchmark.extra_info["cached_seconds"] = round(cached_seconds, 4)
    benchmark.extra_info["speedup_4_workers"] = round(speedup, 2)
    benchmark.extra_info["parallelism_expected"] = parallel

    print()
    print(
        f"{len(scenarios)}-scenario synthetic sweep, median of {ROUNDS} rounds: "
        f"serial {serial_seconds:.2f} s, "
        f"4 workers {batch_seconds:.2f} s (speedup x{speedup:.2f}), "
        f"cached re-run {cached_seconds * 1000:.1f} ms"
        + (
            ""
            if parallel
            else f"  [speed-up assert skipped: host reports "
            f"{os.cpu_count() or 1} CPU(s)]"
        )
    )
    # "Measurably faster": require a real margin, well below the ~4x ideal
    # so CI jitter and pool start-up cannot flake the benchmark.
    if parallel:
        assert batch_seconds < serial_seconds * 0.8
