"""Tests for the packed store backend, migration, and the store factory."""

import json
import time

import pytest

from repro.api import Engine, Scenario, TestCell
from repro.ate.spec import AteSpec
from repro.cli import main
from repro.core.exceptions import ConfigurationError, StoreError
from repro.core.units import kilo_vectors
from repro.service.server import start_server
from repro.store import (
    PACKED_MANIFEST,
    PackedResultStore,
    is_packed,
    make_record,
    migrate_store,
    open_store,
)
from repro.store.serialize import encode_result


@pytest.fixture(scope="module")
def solved():
    """Two solved scenarios over the tiny SOC (computed once per module)."""
    from repro.soc.builder import SocBuilder

    soc = (
        SocBuilder("tiny", functional_pins=64)
        .add_module("alpha", inputs=8, outputs=8, bidirs=0,
                    scan_lengths=[100, 100, 90], patterns=50)
        .add_module("beta", inputs=16, outputs=4, bidirs=2,
                    scan_lengths=[200, 150], patterns=120)
        .build()
    )
    engine = Engine()
    outcomes = []
    for channels in (48, 64):
        cell = TestCell(
            ate=AteSpec(channels=channels, depth=kilo_vectors(32), frequency_hz=10e6)
        )
        scenario = Scenario(soc=soc, test_cell=cell)
        outcomes.append((scenario, engine.run(scenario).result))
    return outcomes


@pytest.fixture(scope="module")
def solved_records(solved):
    """The ``make_record`` dicts of :func:`solved`."""
    return [make_record(scenario, result) for scenario, result in solved]


def _snapshot(root):
    """Every path under ``root`` with its bytes (``None`` for directories)."""
    return {
        path.relative_to(root): (path.read_bytes() if path.is_file() else None)
        for path in sorted(root.rglob("*"))
    }


class TestPackedRoundTrip:
    def test_put_get_round_trip(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put_records([make_record(scenario, result)])
        for scenario, result in solved:
            assert scenario in store
            assert store.get(scenario) == result
        assert len(store) == len(solved)
        assert (tmp_path / "packed" / PACKED_MANIFEST).is_file()

    def test_miss_on_empty_store(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, _ = solved[0]
        assert store.get(scenario) is None
        info = store.info()
        assert (info.hits, info.misses, info.corrupt) == (0, 1, 0)
        assert info.backend == "packed"

    def test_put_same_key_supersedes(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        store.put_records([make_record(scenario, result)])
        store.put_records([make_record(scenario, result)])
        assert len(store) == 1
        assert store.get(scenario) == result
        # The superseded line is dead bytes, visible in segment stats.
        (stat,) = store.segment_stats()
        assert stat.records == 1
        assert stat.dead_bytes > 0

    def test_records_and_scan_sorted_by_key(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put_records([make_record(scenario, result)])
        keys = [entry.key for entry in store.scan()]
        assert keys == sorted(keys)
        assert [entry.key for entry, _ in store.records()] == keys

    def test_rejects_legacy_directory(self, tmp_path, solved_records, write_legacy):
        root = tmp_path / "legacy"
        write_legacy(root, solved_records)
        before = _snapshot(root)
        with pytest.raises(ConfigurationError, match="store migrate"):
            PackedResultStore(root)
        # Rejected before anything was created: no stray segments/ or index.
        assert _snapshot(root) == before

    def test_rejects_path_escaping_record_key(self, tmp_path):
        store = PackedResultStore(tmp_path / "packed")
        with pytest.raises(StoreError, match="plain token"):
            store.put_records([{"format": 1, "key": "../evil", "result": {}}])

    def test_evict_then_compact_reclaims(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        for scenario, result in solved:
            store.put_records([make_record(scenario, result)])
        (evicted_scenario, _), (kept_scenario, kept_result) = solved
        assert store.evict([evicted_scenario.digest]) == 1
        assert len(store) == 1
        stats = store.compact()
        assert stats.records == 1
        assert stats.bytes_reclaimed > 0
        assert store.get(evicted_scenario) is None
        assert store.get(kept_scenario) == kept_result

    def test_orphans_detected_and_reindex_recovers(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        path = store.put_records([make_record(scenario, result)])
        store.close()
        # Truncate the segment under the index: the row becomes an orphan.
        path.write_bytes(path.read_bytes()[:10])
        reopened = PackedResultStore(tmp_path / "packed")
        assert reopened.orphans() == (scenario.digest,)
        assert reopened.get(scenario) is None  # corrupt-record miss
        assert reopened.info().corrupt == 1
        # Reindex from the (truncated) segments drops the unreadable line.
        assert reopened.reindex() == 0
        assert reopened.orphans() == ()


class TestMigration:
    @pytest.fixture
    def fill_legacy(self, solved_records, write_legacy):
        return lambda root: write_legacy(root, solved_records)

    def test_in_place_migration_preserves_everything(
        self, tmp_path, solved, solved_records, fill_legacy
    ):
        root = tmp_path / "store"
        fill_legacy(root)
        (root / "analysis.cols").write_text("{}\n")  # obsolete legacy snapshot
        before = {s.digest: r for s, r in solved}
        report = migrate_store(root)
        assert report.in_place
        assert report.migrated == len(solved)
        assert report.corrupt == 0
        assert is_packed(root)
        assert not list(root.glob("*.json"))  # legacy files gone
        assert not (root / "analysis.cols").exists()
        packed = open_store(root)
        assert isinstance(packed, PackedResultStore)
        for scenario, result in solved:
            assert packed.get(scenario) == result
        assert {e.key for e in packed.scan()} == set(before)
        # Records are carried over verbatim, not re-encoded.
        migrated = [packed._read_row(*row) for row in packed._index_rows()]
        assert migrated == sorted(solved_records, key=lambda record: record["key"])

    def test_migration_to_destination_keeps_source(self, tmp_path, solved, fill_legacy):
        source = tmp_path / "legacy"
        fill_legacy(source)
        destination = tmp_path / "packed"
        report = migrate_store(source, destination=destination)
        assert not report.in_place
        assert len(list(source.glob("*.json"))) == len(solved)
        assert is_packed(destination)
        assert len(open_store(destination)) == len(solved)

    def test_migration_refuses_a_legacy_destination(
        self, tmp_path, solved_records, write_legacy, fill_legacy
    ):
        source = tmp_path / "legacy"
        fill_legacy(source)
        destination = tmp_path / "other"
        write_legacy(destination, solved_records[:1])
        before = _snapshot(destination)
        with pytest.raises(ConfigurationError, match="holds legacy records"):
            migrate_store(source, destination=destination)
        assert _snapshot(destination) == before
        # --dest equal to the source is the same mistake: migrate in place.
        source_before = _snapshot(source)
        with pytest.raises(ConfigurationError, match="in place"):
            migrate_store(source, destination=source)
        assert _snapshot(source) == source_before

    def test_migration_skips_corrupt_records(self, tmp_path, solved, fill_legacy):
        root = tmp_path / "store"
        fill_legacy(root)
        (root / ("0" * 64 + ".json")).write_text("{not json")
        report = migrate_store(root)
        assert report.migrated == len(solved)
        assert report.corrupt == 1
        # The corrupt file is left behind for inspection, not deleted.
        assert (root / ("0" * 64 + ".json")).exists()

    def test_migrating_a_packed_store_is_rejected(self, tmp_path, fill_legacy):
        root = tmp_path / "store"
        fill_legacy(root)
        migrate_store(root)
        with pytest.raises(ConfigurationError, match="already"):
            migrate_store(root)

    def test_analyze_is_byte_identical_across_migration(
        self, tmp_path, solved_records, fill_legacy, capsys
    ):
        """A migrated store analyses exactly like one written packed directly."""
        direct = tmp_path / "direct"
        PackedResultStore(direct).put_records(solved_records)
        assert main(["analyze", "--store", str(direct)]) == 0
        expected = capsys.readouterr().out
        root = tmp_path / "store"
        fill_legacy(root)
        migrate_store(root)
        assert main(["analyze", "--store", str(root)]) == 0
        assert capsys.readouterr().out == expected

    def test_engine_store_hits_after_migration(self, tmp_path, solved, fill_legacy):
        root = tmp_path / "store"
        fill_legacy(root)
        migrate_store(root)
        engine = Engine(store=str(root))
        for scenario, result in solved:
            assert engine.run(scenario).result == result
        info = engine.cache_info()
        assert info.store_hits == len(solved)
        assert info.misses == 0


class TestOpenStore:
    def test_detects_backends(self, tmp_path, solved, solved_records, write_legacy):
        """Fresh and packed directories open packed; legacy ones ask to migrate."""
        fresh = tmp_path / "fresh"
        assert isinstance(open_store(fresh), PackedResultStore)
        assert is_packed(fresh)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert isinstance(open_store(empty), PackedResultStore)
        assert is_packed(empty)
        scenario, result = solved[0]
        packed_root = tmp_path / "packed"
        PackedResultStore(packed_root).put_records([make_record(scenario, result)])
        assert open_store(packed_root).get(scenario) == result
        legacy_root = tmp_path / "legacy"
        write_legacy(legacy_root, solved_records)
        before = _snapshot(legacy_root)
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            open_store(legacy_root)
        assert _snapshot(legacy_root) == before

    def test_passes_instances_through(self, tmp_path):
        packed = PackedResultStore(tmp_path / "packed")
        assert open_store(packed) is packed
        with pytest.raises(ConfigurationError, match="directory path"):
            open_store(42)

    def test_missing_keys_parity_between_backends(
        self, tmp_path, solved, solved_records, write_legacy
    ):
        """A store written packed and one migrated from the legacy layout agree."""
        scenario, result = solved[0]
        absent = "f" * 64
        direct = tmp_path / "packed"
        PackedResultStore(direct).put_records([make_record(scenario, result)])
        migrated = tmp_path / "legacy"
        write_legacy(migrated, solved_records[:1])
        migrate_store(migrated)
        for root in (direct, migrated):
            store = open_store(root)
            assert store.contains_key(scenario.digest)
            assert not store.contains_key(absent)
            assert store.missing_keys([scenario.digest, absent, absent]) == (absent,)

    def test_engine_and_server_reject_a_legacy_directory(
        self, tmp_path, solved_records, write_legacy
    ):
        root = tmp_path / "legacy"
        write_legacy(root, solved_records)
        before = _snapshot(root)
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            Engine(store=root)
        with pytest.raises(ConfigurationError, match="repro store migrate"):
            start_server(root)
        assert _snapshot(root) == before

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["store", "info"], ["serve", "--port", "0", "--quiet"],
         ["sweep", "synthetic:7:4", "--channels", "48", "--depth-m", "1"]],
        ids=["analyze", "store-info", "serve", "sweep"],
    )
    def test_cli_rejects_a_legacy_directory(
        self, tmp_path, solved_records, write_legacy, capsys, command
    ):
        root = tmp_path / "legacy"
        write_legacy(root, solved_records)
        before = _snapshot(root)
        assert main([*command, "--store", str(root)]) == 1
        assert "repro store migrate" in capsys.readouterr().err
        assert _snapshot(root) == before

    def test_store_info_initialises_a_fresh_directory(self, tmp_path, capsys):
        root = tmp_path / "fresh"
        assert main(["store", "info", "--store", str(root)]) == 0
        assert "records: 0" in capsys.readouterr().out
        assert is_packed(root)


class TestPackedScale:
    """The packed store at campaign scale: 100k+ records, flat latency."""

    RECORDS = 100_000

    def test_100k_records_sub_second_info_and_flat_lookup(self, tmp_path, solved):
        store = PackedResultStore(tmp_path / "packed")
        scenario, result = solved[0]
        payload = encode_result(result)
        # One real record among a flood of synthetic ones.  The synthetic
        # records share one small payload: this test exercises the *index*,
        # whose cost must not depend on what the segment lines contain.
        store.put_records([make_record(scenario, result)])
        batch: list[dict] = []
        for index in range(self.RECORDS):
            batch.append(
                {
                    "format": 1,
                    "key": f"{index:064x}",
                    "scenario": {"soc": f"soc{index % 7}", "solver": "goel05",
                                 "objective": "throughput"},
                    "result": payload if index == 0 else {"synthetic": index},
                }
            )
            if len(batch) == 10_000:
                store.put_records(batch)
                batch.clear()
        if batch:
            store.put_records(batch)
        assert len(store) == self.RECORDS + 1

        started = time.perf_counter()
        info = store.info()
        stats = store.segment_stats()
        breakdown = store.breakdown("soc")
        info_seconds = time.perf_counter() - started
        assert info.size == self.RECORDS + 1
        assert sum(stat.records for stat in stats) == self.RECORDS + 1
        assert sum(breakdown.values()) == self.RECORDS + 1
        assert info_seconds < 1.0, f"store info took {info_seconds:.3f}s"

        started = time.perf_counter()
        assert store.get(scenario) == result
        get_seconds = time.perf_counter() - started
        assert get_seconds < 0.25, f"indexed get took {get_seconds:.3f}s"

        probe = [f"{index:064x}" for index in range(0, self.RECORDS, self.RECORDS // 500)]
        started = time.perf_counter()
        assert store.missing_keys(probe) == ()
        query_seconds = time.perf_counter() - started
        assert query_seconds < 0.5, f"batch presence query took {query_seconds:.3f}s"


class TestStoreCli:
    def test_store_info_on_packed_store(self, tmp_path, solved, capsys):
        root = tmp_path / "store"
        store = PackedResultStore(root)
        for scenario, result in solved:
            store.put_records([make_record(scenario, result)])
        assert main(["store", "info", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "backend: packed" in out
        assert "segments: 1" in out
        assert "by SOC: tiny=2" in out
        assert "orphaned" not in out

    def test_store_info_flags_orphans(self, tmp_path, solved, capsys):
        root = tmp_path / "store"
        store = PackedResultStore(root)
        scenario, result = solved[0]
        path = store.put_records([make_record(scenario, result)])
        store.close()
        path.write_bytes(b"")
        assert main(["store", "info", "--store", str(root)]) == 0
        assert "orphaned: 1" in capsys.readouterr().out

    def test_store_migrate_and_compact_cli(
        self, tmp_path, solved, solved_records, write_legacy, capsys
    ):
        root = tmp_path / "store"
        write_legacy(root, solved_records)
        assert main(["store", "migrate", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"migrated {root} in place: {len(solved)} record(s)" in out
        assert main(["store", "compact", "--store", str(root)]) == 0
        assert "compacted:" in capsys.readouterr().out

    def test_store_compact_rejects_legacy_store(
        self, tmp_path, solved_records, write_legacy, capsys
    ):
        root = tmp_path / "store"
        write_legacy(root, solved_records)
        assert main(["store", "compact", "--store", str(root)]) == 1
        assert "not a packed store" in capsys.readouterr().err

    def test_sweep_works_over_packed_store(self, tmp_path, capsys):
        root = tmp_path / "store"
        args = ["sweep", "synthetic:7:4", "--channels", "48", "64",
                "--depth-m", "1", "--store", str(root), "--output",
                str(tmp_path / "out.jsonl")]
        assert main(["store", "migrate", "--store", str(root)]) == 1  # nothing to migrate yet
        capsys.readouterr()
        assert main(args) == 0  # a fresh directory becomes a packed store
        assert is_packed(root)
        first = capsys.readouterr().out
        assert "2 computed, 0 from store" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed, 2 from store" in second
