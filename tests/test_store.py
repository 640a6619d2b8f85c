"""Tests for the persistent (packed) result store and its Engine integration."""

import json
import os
import sqlite3
import threading

import pytest

from repro.api import Engine, Scenario, TestCell
from repro.ate.spec import AteSpec
from repro.core.exceptions import ConfigurationError
from repro.core.units import kilo_vectors
from repro.experiments.registry import get_experiment, render_experiment
from repro.store import STORE_FORMAT, PackedResultStore, encode_result, make_record


@pytest.fixture(scope="module")
def tiny_soc():
    from repro.soc.builder import SocBuilder

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
def scenario(tiny_soc, tiny_cell) -> Scenario:
    return Scenario(soc=tiny_soc, test_cell=tiny_cell)


def _segment_path(store):
    (name,) = store._segment_names()
    return store._segment_path(name)


def _index_line(store, raw: bytes, key: str) -> None:
    """Append ``raw`` as a segment line and point ``key``'s index row at it.

    Stands in for on-disk damage the store's own writer never produces:
    a garbled line, or a record sitting under another record's key.
    """
    segment = _segment_path(store)
    with open(segment, "ab") as handle:
        offset = handle.seek(0, os.SEEK_END)
        handle.write(raw + b"\n")
    with sqlite3.connect(store.root / "index.sqlite") as connection:
        connection.execute(
            "INSERT OR REPLACE INTO records (key, segment, offset, length) VALUES (?,?,?,?)",
            (key, segment.name, offset, len(raw)),
        )


class TestResultStoreBasics:
    def test_round_trip(self, tmp_path, scenario):
        store = PackedResultStore(tmp_path)
        computed = Engine().run(scenario).result
        path = store.put(scenario, computed)
        assert path == _segment_path(store)
        assert scenario in store
        assert store.get(scenario) == computed

    def test_get_on_empty_store_is_miss(self, tmp_path, scenario):
        store = PackedResultStore(tmp_path)
        assert store.get(scenario) is None
        info = store.info()
        assert (info.hits, info.misses, info.corrupt) == (0, 1, 0)

    def test_record_carries_format_and_version(self, tmp_path, scenario):
        from repro import __version__

        store = PackedResultStore(tmp_path)
        path = store.put(scenario, Engine().run(scenario).result)
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert record["format"] == STORE_FORMAT
        assert record["package_version"] == __version__
        assert record["key"] == scenario.digest
        assert record["scenario"]["soc"] == "tiny"
        assert record["scenario"]["solver"] == "goel05"

    def test_store_root_created_and_validated(self, tmp_path):
        root = tmp_path / "deep" / "store"
        assert PackedResultStore(root).root == root
        assert root.is_dir()
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(ConfigurationError):
            PackedResultStore(not_a_dir)

    def test_uncreatable_root_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            PackedResultStore("/proc/no-such-dir/store")

    def test_evict_never_leaves_the_store_directory(self, tmp_path, scenario):
        victim = tmp_path / "victim.json"
        victim.write_text("{}")
        store = PackedResultStore(tmp_path / "store")
        store.put(scenario, Engine().run(scenario).result)
        assert store.evict(["../victim", "a/b", ".."]) == 0
        assert victim.exists()
        assert len(store) == 1

    def test_scan_and_evict(self, tmp_path, scenario):
        store = PackedResultStore(tmp_path)
        result = Engine().run(scenario).result
        store.put(scenario, result)
        store.put(scenario.with_solver("restart"),
                  Engine().run(scenario.with_solver("restart")).result)
        entries = store.scan()
        assert len(entries) == len(store) == 2
        assert {entry.solver for entry in entries} == {"goel05", "restart"}
        assert all(entry.size_bytes > 0 for entry in entries)
        # Evict one specific key, then everything.
        assert store.evict([scenario.digest]) == 1
        assert store.get(scenario) is None
        assert store.evict() == 1
        assert len(store) == 0
        assert store.evict(["no-such-key"]) == 0


class TestCorruptionTolerance:
    """A damaged segment line reads as a corrupt-record miss, never an error."""

    def _seed(self, tmp_path, scenario):
        store = PackedResultStore(tmp_path)
        record = make_record(scenario, Engine().run(scenario).result)
        store.put_record(record)
        return store, json.loads(json.dumps(record))

    def _assert_corrupt_miss(self, store, scenario):
        assert store.get(scenario) is None
        info = store.info()
        assert (info.hits, info.misses, info.corrupt) == (0, 1, 1)

    def _index_record(self, store, record, key):
        _index_line(store, json.dumps(record, separators=(",", ":")).encode(), key)

    def test_truncated_record_is_miss(self, tmp_path, scenario):
        store, _ = self._seed(tmp_path, scenario)
        segment = _segment_path(store)
        raw = segment.read_bytes()
        segment.write_bytes(raw[: len(raw) // 2])
        self._assert_corrupt_miss(store, scenario)

    def test_non_json_record_is_miss(self, tmp_path, scenario):
        store, _ = self._seed(tmp_path, scenario)
        _index_line(store, b"not json at all", scenario.digest)
        self._assert_corrupt_miss(store, scenario)

    def test_key_mismatch_is_miss(self, tmp_path, scenario):
        """A record indexed under another scenario's digest must not hit."""
        store, record = self._seed(tmp_path, scenario)
        other = scenario.with_solver("restart")
        self._index_record(store, record, other.digest)
        self._assert_corrupt_miss(store, other)

    def test_tampered_key_field_is_miss(self, tmp_path, scenario):
        store, record = self._seed(tmp_path, scenario)
        record["key"] = "0" * 64
        self._index_record(store, record, scenario.digest)
        self._assert_corrupt_miss(store, scenario)

    def test_future_format_is_miss(self, tmp_path, scenario):
        store, record = self._seed(tmp_path, scenario)
        record["format"] = STORE_FORMAT + 1
        self._index_record(store, record, scenario.digest)
        self._assert_corrupt_miss(store, scenario)

    def test_tampered_payload_is_miss(self, tmp_path, scenario):
        store, record = self._seed(tmp_path, scenario)
        record["result"]["fields"]["points"] = {"__tuple__": [{"__ref__": 999}]}
        self._index_record(store, record, scenario.digest)
        self._assert_corrupt_miss(store, scenario)

    def test_wrong_payload_type_is_miss(self, tmp_path, scenario):
        """A record whose payload is not a TwoStepResult must not hit."""
        store, record = self._seed(tmp_path, scenario)
        record["result"] = encode_result(scenario.test_cell.ate)
        self._index_record(store, record, scenario.digest)
        self._assert_corrupt_miss(store, scenario)

    def test_scan_skips_corrupt_files(self, tmp_path, scenario):
        store, _ = self._seed(tmp_path, scenario)
        _index_line(store, b"{broken", "garbage")
        entries = store.scan()
        assert len(entries) == 1
        assert store.info().corrupt == 1


class TestEngineStoreTier:
    def test_second_engine_hits_store(self, tmp_path, scenario):
        first = Engine(store=PackedResultStore(tmp_path))
        outcome = first.run(scenario)
        assert first.cache_info().misses == 1
        assert first.cache_info().store_hits == 0

        second = Engine(store=PackedResultStore(tmp_path))
        replayed = second.run(scenario)
        info = second.cache_info()
        assert (info.hits, info.misses, info.store_hits) == (0, 0, 1)
        assert replayed.result == outcome.result
        # The store hit populated the in-memory tier.
        third = second.run(scenario)
        assert second.cache_info().hits == 1
        assert third.result == outcome.result

    def test_run_is_the_one_scenario_batch(self, tmp_path, scenario):
        """``run(s)`` and ``run_batch([s])`` leave equal statistics and stores.

        Covered for a cold run (computed, written back), a cache hit (the
        same engine again) and a warm store hit (a fresh engine).
        """
        legs = {
            "run": lambda engine: engine.run(scenario),
            "run_batch": lambda engine: engine.run_batch([scenario])[0],
        }
        seen = {}
        for name, leg in legs.items():
            root = tmp_path / name
            engine = Engine(store=root)
            cold = leg(engine)
            cold_info = engine.cache_info()
            hit = leg(engine)
            warm_engine = Engine(store=root)
            warm = leg(warm_engine)
            contents = {entry.key: result for entry, result in engine.store.records()}
            seen[name] = (
                cold_info,
                engine.cache_info(),
                warm_engine.cache_info(),
                engine.store.info(),
                warm_engine.store.info(),
                contents,
            )
            assert hit is cold
            assert warm.result == cold.result
        assert seen["run"] == seen["run_batch"]
        cold_info, hit_info, warm_info, *_ = seen["run"]
        assert (cold_info.misses, cold_info.hits, cold_info.store_hits) == (1, 0, 0)
        assert (hit_info.misses, hit_info.hits, hit_info.store_hits) == (1, 1, 0)
        assert (warm_info.misses, warm_info.hits, warm_info.store_hits) == (0, 0, 1)

    def test_warm_store_sweep_computes_nothing(self, tmp_path, tiny_soc, tiny_cell):
        """A warm store replays a sweep as all store hits and zero kernel points."""
        from repro.solvers import evaluate

        grid = Scenario.sweep(tiny_soc, tiny_cell, channels=[32, 48, 64])
        cold = Engine(store=PackedResultStore(tmp_path)).run_batch(grid, workers=1)
        before = evaluate.cache_info()
        warm_engine = Engine(store=PackedResultStore(tmp_path))
        warm = warm_engine.run_batch(grid, workers=1)
        info = warm_engine.cache_info()
        assert (info.store_hits, info.misses, info.hits) == (len(grid), 0, 0)
        assert evaluate.cache_info() == before
        assert [r.result for r in warm] == [r.result for r in cold]

    def test_engine_accepts_path_as_store(self, tmp_path, scenario):
        engine = Engine(store=tmp_path / "store")
        engine.run(scenario)
        assert engine.store is not None
        assert len(engine.store) == 1

    def test_memory_only_engine_unchanged(self, scenario):
        engine = Engine()
        engine.run(scenario)
        engine.run(scenario)
        info = engine.cache_info()
        assert engine.store is None
        assert (info.hits, info.misses, info.store_hits) == (1, 1, 0)

    def test_store_serves_across_solver_axis(self, tmp_path, scenario):
        engine = Engine(store=PackedResultStore(tmp_path))
        engine.run(scenario)
        engine.run(scenario.with_solver("restart"))
        # Two solver-distinct records, no false sharing.
        assert len(engine.store) == 2
        warm = Engine(store=PackedResultStore(tmp_path))
        a = warm.run(scenario)
        b = warm.run(scenario.with_solver("restart"))
        assert warm.cache_info().store_hits == 2
        assert a.scenario.solver == "goel05" and b.scenario.solver == "restart"

    def test_run_batch_uses_and_fills_store(self, tmp_path, scenario, tiny_cell, tiny_soc):
        grid = Scenario.sweep(tiny_soc, tiny_cell, channels=[32, 48, 64])
        cold = Engine(store=PackedResultStore(tmp_path))
        cold_results = cold.run_batch(grid, workers=2)
        assert len(cold.store) == len(grid)
        assert cold.cache_info().store_hits == 0

        warm = Engine(store=PackedResultStore(tmp_path))
        warm_results = warm.run_batch(grid, workers=2)
        info = warm.cache_info()
        assert info.store_hits == len(grid)
        assert info.misses == 0
        assert [a.result for a in cold_results] == [b.result for b in warm_results]

    def test_batch_results_identical_with_and_without_store(self, tmp_path, tiny_soc, tiny_cell):
        grid = Scenario.sweep(tiny_soc, tiny_cell, channels=[32, 64])
        plain = Engine().run_batch(grid)
        stored = Engine(store=PackedResultStore(tmp_path)).run_batch(grid)
        rewarmed = Engine(store=PackedResultStore(tmp_path)).run_batch(grid)
        assert [r.result for r in plain] == [r.result for r in stored]
        assert [r.result for r in plain] == [r.result for r in rewarmed]

    def test_failing_store_write_does_not_lose_the_result(self, tmp_path, scenario, monkeypatch):
        """A dying disk mid-run degrades to memory-only caching, not a crash."""
        store = PackedResultStore(tmp_path)
        monkeypatch.setattr(
            store, "put_records", lambda *a, **k: (_ for _ in ()).throw(OSError("disk full"))
        )
        engine = Engine(store=store)
        outcome = engine.run(scenario)
        assert outcome.result.optimal_sites >= 1
        assert engine.cache_info().misses == 1
        assert engine.run(scenario).result == outcome.result  # memory tier still works
        assert len(store) == 0

    @pytest.mark.parametrize("path", ["run", "run_iter"])
    def test_failing_index_write_degrades_to_memory(
        self, tmp_path, tiny_soc, tiny_cell, monkeypatch, path
    ):
        """An SQLite failure on the index write is a StoreError the engine absorbs."""
        from repro.bench.runner import sweep_digest
        from repro.core.exceptions import StoreError

        class FullIndex:
            """The store's real connection, except that inserts fail."""

            def __init__(self, real):
                self._real = real

            def executemany(self, *args, **kwargs):
                raise sqlite3.OperationalError("database or disk is full")

            def __getattr__(self, name):
                return getattr(self._real, name)

        grid = Scenario.sweep(tiny_soc, tiny_cell, channels=[32, 48, 64])
        store = PackedResultStore(tmp_path)
        real_connect = store._connect
        monkeypatch.setattr(store, "_connect", lambda: FullIndex(real_connect()))
        with pytest.raises(StoreError, match="database or disk is full"):
            store.put(grid[0], Engine().run(grid[0]).result)

        engine = Engine(store=store)
        if path == "run":
            results = [engine.run(scenario) for scenario in grid]
        else:
            results = list(engine.run_iter(grid, workers=1))
        assert sweep_digest(results) == sweep_digest(Engine().run_batch(grid))
        assert engine.cache_info().misses == len(grid)
        assert len(store) == 0
        monkeypatch.undo()
        store.put(grid[0], results[0].result)  # no transaction was left open
        assert len(store) == 1

    def test_cli_reports_bad_store_path_as_error(self, capsys):
        from repro.cli import main

        code = main(["economics", "--store", "/proc/no-such-dir/store"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_clear_cache_keeps_store_records(self, tmp_path, scenario):
        engine = Engine(store=PackedResultStore(tmp_path))
        engine.run(scenario)
        engine.clear_cache()
        assert engine.cache_info() == type(engine.cache_info())(
            hits=0, misses=0, size=0, evictions=0, max_entries=None, store_hits=0
        )
        assert len(engine.store) == 1
        engine.run(scenario)
        assert engine.cache_info().store_hits == 1


class TestConcurrentWrites:
    def test_parallel_puts_of_same_record_stay_readable(self, tmp_path, scenario):
        """Concurrent writers must never expose a torn record to readers."""
        result = Engine().run(scenario).result
        store = PackedResultStore(tmp_path)
        errors: list[Exception] = []

        def hammer() -> None:
            try:
                for _ in range(20):
                    store.put(scenario, result)
                    assert store.get(scenario) == result
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.get(scenario) == result
        assert len(store) == 1

    def test_concurrent_batches_share_one_directory(self, tmp_path, tiny_soc, tiny_cell):
        grid = Scenario.sweep(tiny_soc, tiny_cell, channels=[32, 48, 64])
        engines = [Engine(store=PackedResultStore(tmp_path)) for _ in range(4)]
        outcomes: dict[int, tuple] = {}

        def run(index: int) -> None:
            outcomes[index] = engines[index].run_batch(grid, workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(engines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = [r.result for r in outcomes[0]]
        for index in range(1, len(engines)):
            assert [r.result for r in outcomes[index]] == reference
        assert len(PackedResultStore(tmp_path)) == len(grid)


class TestReportByteIdentity:
    """The store must never change what an experiment renders."""

    def test_economics_output_identical_with_store(self, tmp_path):
        experiment = get_experiment("economics")
        baseline = render_experiment("economics", experiment.run(Engine()))

        store = PackedResultStore(tmp_path / "store")
        cold = render_experiment("economics", experiment.run(Engine(store=store)))
        warm_engine = Engine(store=store)
        warm = render_experiment("economics", experiment.run(warm_engine))

        assert cold == baseline
        assert warm == baseline
        assert warm_engine.cache_info().store_hits > 0
