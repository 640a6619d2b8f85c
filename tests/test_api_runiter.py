"""Tests for the streaming engine path: run_iter, resumability, fallbacks.

Covers the campaign contract -- results stream out (and hit the store) as
they complete, an interrupted sweep resumes without recomputing finished
scenarios -- plus the ``_map_chunks`` degradation paths: pool
construction failure, a pool broken mid-batch, and task exceptions
propagating unchanged.
"""

import concurrent.futures
from concurrent.futures import BrokenExecutor

import pytest

import repro.api.engine as engine_module
from repro.api import Engine, Scenario, SweepGrid, TestCell
from repro.ate.spec import AteSpec
from repro.bench.runner import sweep_digest
from repro.core.exceptions import ConfigurationError
from repro.core.units import kilo_vectors
from repro.soc.builder import SocBuilder


@pytest.fixture(scope="module")
def tiny_soc():
    return (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .add_module("gamma", inputs=5, outputs=7, bidirs=0,
                    scan_lengths=[], patterns=30)
        .build()
    )


@pytest.fixture(scope="module")
def tiny_cell():
    return TestCell(
        ate=AteSpec(channels=64, depth=kilo_vectors(32), frequency_hz=10e6, name="ate-small")
    )


@pytest.fixture
def grid(tiny_soc, tiny_cell) -> SweepGrid:
    return SweepGrid(tiny_soc, tiny_cell, channels=[32, 40, 48, 64])


class TestRunIter:
    def test_matches_run_batch(self, grid):
        streamed = {r.scenario.key: r.result for r in Engine().run_iter(grid)}
        batch = Engine().run_batch(list(grid))
        assert streamed == {r.scenario.key: r.result for r in batch}

    def test_is_a_generator(self, grid):
        stream = Engine().run_iter(grid)
        first = next(stream)
        assert first.scenario == grid[0]
        stream.close()

    def test_cache_hits_yield_without_compute(self, grid):
        engine = Engine()
        list(engine.run_iter(grid))
        again = list(engine.run_iter(grid))
        info = engine.cache_info()
        assert len(again) == len(grid)
        assert info.misses == len(grid)
        assert info.hits == len(grid)

    def test_duplicates_collapse_onto_one_computation(self, tiny_soc, tiny_cell):
        scenario = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        other = scenario.with_channels(32)
        engine = Engine()
        results = list(engine.run_iter([scenario, other, scenario]))
        assert len(results) == 3
        assert engine.cache_info().misses == 2
        assert len({record.scenario.key for record in results}) == 2

    def test_duplicate_of_warm_hit_redelivered_without_extra_count(
        self, tiny_soc, tiny_cell
    ):
        scenario = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        engine = Engine()
        engine.run(scenario)  # miss -> cached
        results = list(engine.run_iter([scenario, scenario]))
        info = engine.cache_info()
        assert len(results) == 2
        assert results[0].result is results[1].result
        # One lookup for the pair: batch semantics, no double-counted hit.
        assert info.misses == 1 and info.hits == 1

    def test_duplicate_after_mid_stream_eviction_refetched_from_store(
        self, tmp_path, tiny_soc, tiny_cell
    ):
        # A bounded engine does not retain results for the yielded set:
        # when a duplicate arrives after its record was evicted, it is
        # re-fetched from the store, not recomputed.
        first = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        second = first.with_channels(32)
        Engine(store=tmp_path).run_batch([first, second])  # seed the store
        engine = Engine(store=tmp_path, max_entries=1)
        results = list(engine.run_iter([first, second, first]))
        info = engine.cache_info()
        assert len(results) == 3
        assert info.misses == 0  # nothing recomputed
        assert info.store_hits == 2
        assert results[0].result == results[2].result

    def test_invalid_worker_count_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            list(Engine().run_iter(grid, workers=0))

    def test_empty_input(self):
        assert list(Engine().run_iter([])) == []


class TestResume:
    def test_interrupted_sweep_resumes_from_store(self, tmp_path, grid):
        # Consume only half the stream, like a killed process: every
        # yielded result is already persisted at that point.
        interrupted = Engine(store=tmp_path)
        consumed = []
        for record in interrupted.run_iter(grid):
            consumed.append(record)
            if len(consumed) == 2:
                break
        assert len(interrupted.store) == 2

        # The rerun serves the finished half from the store and computes
        # only the rest.
        resumed_engine = Engine(store=tmp_path)
        resumed = list(resumed_engine.run_iter(grid))
        info = resumed_engine.cache_info()
        assert len(resumed) == len(grid)
        assert info.store_hits == 2
        assert info.misses == len(grid) - 2

        # And the resumed sweep is bit-identical to an uninterrupted one.
        reference = list(Engine().run_iter(grid))
        assert sweep_digest(resumed) == sweep_digest(reference)

    def test_results_persist_at_completion_time_not_batch_end(self, tmp_path, grid):
        engine = Engine(store=tmp_path)
        on_disk = []
        for record in engine.run_iter(grid):
            on_disk.append(len(engine.store))
        assert on_disk == [1, 2, 3, 4]

    def test_store_hits_yield_before_any_compute(self, tmp_path, grid):
        # Seed only the *last* grid scenario into the store: the fresh
        # stream must yield it first (warm tiers drain before the fan-out
        # computes anything).
        last = grid[len(grid) - 1]
        seeded = Engine(store=tmp_path).run(last)
        fresh = Engine(store=tmp_path)
        stream = fresh.run_iter(grid)
        first = next(stream)
        stream.close()
        assert first.scenario == last
        assert first.result == seeded.result
        info = fresh.cache_info()
        assert info.store_hits == 1 and info.misses == 0


class TestMapParallelFallbacks:
    def test_pool_construction_failure_falls_back_to_serial(self, monkeypatch, grid):
        def broken_pool(*args, **kwargs):
            raise OSError("no multiprocessing primitives on this platform")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", broken_pool)
        engine = Engine()
        results = engine.run_batch(list(grid), workers=4)
        assert len(results) == len(grid)
        assert engine.cache_info().misses == len(grid)

    def test_broken_pool_mid_batch_recomputes_remainder(self, monkeypatch, grid):
        reference = Engine().run_batch(list(grid))

        class HalfBrokenPool:
            """Completes the first submissions, then breaks the pool."""

            def __init__(self, max_workers):
                self.submissions = 0

            def submit(self, function, scenario):
                future = concurrent.futures.Future()
                if self.submissions < 2:
                    future.set_result(function(scenario))
                else:
                    future.set_exception(BrokenExecutor("workers died"))
                self.submissions += 1
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", HalfBrokenPool)
        engine = Engine()
        results = engine.run_batch(list(grid), workers=4)
        assert engine.cache_info().misses == len(grid)
        assert [r.result for r in results] == [r.result for r in reference]

    def test_task_exceptions_propagate_serial(self, tiny_soc, tiny_cell):
        bad = Scenario(soc=tiny_soc, test_cell=tiny_cell, solver="no-such-solver")
        with pytest.raises(ConfigurationError, match="unknown solver"):
            list(Engine().run_iter([bad]))

    def test_task_exceptions_propagate_through_pool(self, tiny_soc, tiny_cell):
        bad = Scenario(soc=tiny_soc, test_cell=tiny_cell, solver="no-such-solver")
        good = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        with pytest.raises(ConfigurationError, match="unknown solver"):
            list(Engine().run_iter([bad, good], workers=2))

    def test_task_exception_type_preserved_by_broken_pool_fallback(
        self, monkeypatch, tiny_soc, tiny_cell
    ):
        # The serial fallback must not swallow task errors either.
        def broken_pool(*args, **kwargs):
            raise OSError("sandbox")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", broken_pool)
        bad = Scenario(soc=tiny_soc, test_cell=tiny_cell, solver="no-such-solver")
        good = Scenario(soc=tiny_soc, test_cell=tiny_cell)
        with pytest.raises(ConfigurationError, match="unknown solver"):
            Engine().run_batch([good, bad], workers=2)
