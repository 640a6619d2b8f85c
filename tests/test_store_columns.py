"""Tests for the columnar analysis sidecars (``repro.store.columns``).

The invariant under test everywhere: the sidecar fast path is an
**optimisation, never a semantic**.  Whatever the sidecar's state --
fresh, missing, stale, truncated, garbage, rebuilt, compacted away --
``records_from_store`` returns bit-identical :class:`AnalysisRecord`
tuples (and therefore byte-identical rendered tables) to the full-record
decode path, and parallel segment scans merge to exactly the serial
order.
"""

import json

import pytest

from repro.analysis.analyze import records_table
from repro.analysis.records import records_from_store
from repro.api.engine import Engine
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.exceptions import ConfigurationError
from repro.store import columns
from repro.store.factory import migrate_store, open_store
from repro.store.packed import PackedResultStore
from repro.solvers.bounds import result_lower_bound, scenario_lower_bound
from repro.store.result_store import decode_record, make_record, record_lower_bound


@pytest.fixture(scope="module")
def solved():
    """The pinned d695 workload: 2 channel counts x 2 objectives."""
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    scenarios = Scenario.sweep(
        "d695", cell, channels=[128, 256], objectives=["throughput", "test_time"]
    )
    return Engine().run_batch(scenarios)


@pytest.fixture(scope="module")
def records(solved):
    return [make_record(r.scenario, r.result) for r in solved]


def _packed(tmp_path, records):
    store = PackedResultStore(tmp_path / "packed")
    store.put_records(records)
    return store


def _sidecars(store):
    return sorted(store.root.rglob(f"*{columns.SIDECAR_SUFFIX}"))


def _assert_paths_identical(store):
    """The core parity check: sidecar scan == full decode, bit for bit."""
    fast = records_from_store(store)
    slow = records_from_store(store, columns=False)
    assert fast == slow
    assert records_table(fast).render() == records_table(slow).render()
    return fast


class TestWritePath:
    def test_put_records_writes_sidecar(self, tmp_path, records):
        store = _packed(tmp_path, records)
        (sidecar,) = _sidecars(store)
        lines = sidecar.read_bytes().decode("utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["format"] == columns.COLUMNS_FORMAT
        assert header["columns"] == list(columns.ANALYSIS_COLUMNS)
        # One full row per record, tiling the segment byte range.
        rows = [json.loads(line) for line in lines[1:]]
        assert len(rows) == len(records)
        assert all(len(row) == 2 + len(columns.ANALYSIS_COLUMNS) for row in rows)
        assert rows[0][0] == 0

    def test_sidecar_scan_matches_full_decode(self, tmp_path, records):
        store = _packed(tmp_path, records)
        loaded = _assert_paths_identical(store)
        assert len(loaded) == len(records)
        # And the scan really did use the sidecar, not the fallback.
        (name,) = store._segment_names()
        scan = columns.scan_segment(
            store._segment_path(name), store.record_locations()[name]
        )
        assert scan.used_sidecar
        assert scan.corrupt == 0

    def test_sidecar_scan_decodes_no_payload(self, tmp_path, records, monkeypatch):
        """Exact counter: full sidecar rows answer the scan without decoding.

        Only a short row (a record written without its analysis block)
        costs a payload decode, exactly one.
        """
        from repro.store import result_store

        decoded = []
        real_decode = result_store.decode_result

        def counting_decode(payload):
            decoded.append(payload)
            return real_decode(payload)

        monkeypatch.setattr(result_store, "decode_result", counting_decode)
        store = _packed(tmp_path / "fresh", records)
        assert len(records_from_store(store)) == len(records)
        assert decoded == []

        legacy = dict(records[0])
        legacy.pop("analysis")
        mixed = _packed(tmp_path / "mixed", [legacy] + records[1:])
        assert len(records_from_store(mixed)) == len(records)
        assert len(decoded) == 1

    def test_record_without_analysis_block_gets_short_row(self, tmp_path, records):
        legacy = dict(records[0])
        legacy.pop("analysis")
        store = _packed(tmp_path, [legacy] + records[1:])
        (sidecar,) = _sidecars(store)
        rows = [json.loads(line) for line in
                sidecar.read_bytes().decode("utf-8").splitlines()[1:]]
        assert sorted(len(row) for row in rows)[0] == 2  # the short row
        # The short row decodes at read time; output is unchanged.
        _assert_paths_identical(store)

    def test_supersede_and_evict_resolve_identically(self, tmp_path, records):
        store = _packed(tmp_path, records)
        store.put_records([records[0]])  # supersedes: same key, new segment line
        evicted_key = records[1]["key"]
        assert store.evict([evicted_key]) == 1
        loaded = _assert_paths_identical(store)
        assert len(loaded) == len(records) - 1
        assert evicted_key[:16] not in {r.key for r in loaded}


class TestFallback:
    @pytest.mark.parametrize(
        "corruption",
        ["missing", "truncated", "garbage", "stale_header", "appended"],
    )
    def test_damaged_sidecar_falls_back_bit_identically(
        self, tmp_path, records, corruption
    ):
        store = _packed(tmp_path, records)
        reference = records_from_store(store, columns=False)
        (sidecar,) = _sidecars(store)
        raw = sidecar.read_bytes()
        if corruption == "missing":
            sidecar.unlink()
        elif corruption == "truncated":
            sidecar.write_bytes(raw[: len(raw) // 2])
        elif corruption == "garbage":
            sidecar.write_bytes(b"not json at all\n" + raw)
        elif corruption == "stale_header":
            sidecar.write_bytes(raw.replace(b'"format":1', b'"format":99', 1))
        else:  # rows no longer tile the segment: extra trailing row
            sidecar.write_bytes(raw + b"[999999,10]\n")
        assert records_from_store(store) == reference
        (name,) = store._segment_names()
        scan = columns.scan_segment(
            store._segment_path(name), store.record_locations()[name]
        )
        assert not scan.used_sidecar

    def test_segment_grown_past_sidecar_is_stale(self, tmp_path, records):
        """Sidecar rows must cover the segment bytes exactly (contiguity rule)."""
        store = _packed(tmp_path, records[:2])
        (name,) = store._segment_names()
        segment = store._segment_path(name)
        assert columns.read_segment_sidecar(segment) is not None
        with open(segment, "ab") as handle:
            handle.write(b'{"not": "indexed"}\n')
        assert columns.read_segment_sidecar(segment) is None
        # The index never points into the appended junk, so output holds.
        _assert_paths_identical(store)

    def test_tampered_row_values_are_ignored(self, tmp_path, records):
        """A well-formed but wrong-typed row decays to decode, not bad data."""
        store = _packed(tmp_path, records)
        reference = records_from_store(store, columns=False)
        (sidecar,) = _sidecars(store)
        lines = sidecar.read_bytes().decode("utf-8").splitlines()
        row = json.loads(lines[1])
        row[2 + columns.ANALYSIS_COLUMNS.index("channels")] = "128"  # str, not int
        lines[1] = json.dumps(row, separators=(",", ":"))
        sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert records_from_store(store) == reference


class TestReindexAndCompact:
    def test_reindex_columns_rebuilds_deleted_sidecars(self, tmp_path, records):
        store = _packed(tmp_path, records)
        reference = records_from_store(store)
        for sidecar in _sidecars(store):
            sidecar.unlink()
        assert store.reindex_columns() == len(records)
        assert _sidecars(store)
        (name,) = store._segment_names()
        scan = columns.scan_segment(
            store._segment_path(name), store.record_locations()[name]
        )
        assert scan.used_sidecar
        assert records_from_store(store) == reference

    def test_reindex_columns_upgrades_short_rows(self, tmp_path, records):
        legacy = dict(records[0])
        legacy.pop("analysis")
        store = _packed(tmp_path, [legacy])
        (sidecar,) = _sidecars(store)
        (short,) = [json.loads(line) for line in
                    sidecar.read_bytes().decode("utf-8").splitlines()[1:]]
        assert len(short) == 2
        store.reindex_columns()
        (full,) = [json.loads(line) for line in
                   sidecar.read_bytes().decode("utf-8").splitlines()[1:]]
        assert len(full) == 2 + len(columns.ANALYSIS_COLUMNS)
        _assert_paths_identical(store)

    def test_compact_drops_old_sidecars_and_stays_identical(self, tmp_path, records):
        store = _packed(tmp_path, records)
        store.put_records([records[0]])  # dead bytes to reclaim
        store.evict([records[1]["key"]])
        reference = records_from_store(store)
        old_sidecars = set(_sidecars(store))
        stats = store.compact()
        assert stats.bytes_reclaimed > 0
        assert not (old_sidecars & set(_sidecars(store)))
        assert _sidecars(store)  # the compacted segment got a fresh sidecar
        assert records_from_store(store) == reference
        _assert_paths_identical(store)

    def test_migrated_store_has_sidecars_and_parity(self, tmp_path, records, write_legacy):
        reference = records_from_store(_packed(tmp_path, records), columns=False)
        legacy_dir = tmp_path / "legacy"
        write_legacy(legacy_dir, records)
        report = migrate_store(legacy_dir)
        assert report.migrated == len(records)
        packed = open_store(legacy_dir)
        assert isinstance(packed, PackedResultStore)
        assert _sidecars(packed)
        assert records_from_store(packed) == reference
        _assert_paths_identical(packed)


class TestParallelScan:
    def _two_segment_store(self, tmp_path, records):
        root = tmp_path / "packed"
        first = PackedResultStore(root)
        first.put_records(records[:2])
        first.close()
        second = PackedResultStore(root)  # fresh writer: new segment file
        second.put_records(records[2:])
        return second

    def test_parallel_equals_serial_equals_decode(self, tmp_path, records):
        store = self._two_segment_store(tmp_path, records)
        assert len(store._segment_names()) == 2
        serial = records_from_store(store)
        parallel = records_from_store(store, workers=2)
        decoded = records_from_store(store, columns=False)
        assert parallel == serial == decoded
        assert records_table(parallel).render() == records_table(decoded).render()

    def test_progress_lines_name_each_segment(self, tmp_path, records):
        store = self._two_segment_store(tmp_path, records)
        lines = []
        records_from_store(store, progress=lines.append)
        assert len(lines) == 2
        assert all("[columns]" in line for line in lines)
        assert {line.split()[1].rstrip(":") for line in lines} == {
            name for name in store._segment_names()
        }


class TestAnalysisRow:
    """One mapping from a result to its columns, one check of a column row."""

    def test_write_row_equals_decoded_row_equals_result_row(self, solved, records):
        for outcome, record in zip(solved, records):
            scenario = outcome.scenario
            expected = columns.analysis_row(
                scenario.digest, scenario.soc_name, scenario.solver,
                scenario.objective, outcome.result, outcome.lower_bound,
            )
            assert len(expected) == len(columns.ANALYSIS_COLUMNS)
            assert expected[0] == scenario.digest[:16]
            assert columns.row_from_record(record) == expected
            assert columns.row_from_decoded(record, decode_record(record)) == expected

    def test_result_bound_equals_scenario_bound(self, solved):
        for outcome in solved:
            bound = result_lower_bound(outcome.result, outcome.scenario.objective)
            assert bound == scenario_lower_bound(outcome.scenario)
            assert bound == outcome.lower_bound

    @pytest.mark.parametrize(
        "column, value",
        [("channels", True), ("optimal_sites", 2.0), ("broadcast", 1),
         ("value", "1.0"), ("value", False), ("lower_bound", True)],
    )
    def test_ill_typed_block_gives_a_short_row(self, records, column, value):
        record = dict(records[0])
        record["analysis"] = dict(record["analysis"], **{column: value})
        assert columns.row_from_record(record) is None
        assert columns.normalize_row(columns.row_from_record(records[0])) is not None


class TestLowerBoundPersistence:
    def test_make_record_embeds_analysis_block(self, solved, records):
        block = records[0]["analysis"]
        assert set(block) == {
            "channels", "depth", "broadcast", "optimal_sites",
            "channels_per_site", "test_time_cycles", "value", "lower_bound",
        }
        has_bound, bound = record_lower_bound(records[0])
        assert has_bound
        assert bound == solved[0].lower_bound

    def test_store_scan_never_recomputes_certificate(
        self, tmp_path, records, monkeypatch
    ):
        store = _packed(tmp_path, records)
        import repro.solvers.bounds as bounds

        def _fail(*args, **kwargs):  # pragma: no cover - failure is the assert
            raise AssertionError("certificate recomputed during store scan")

        monkeypatch.setattr(bounds, "certificate", _fail)
        fast = records_from_store(store)
        slow = records_from_store(store, columns=False)
        assert fast == slow
        assert all(r.lower_bound is not None for r in fast)


class TestCli:
    def test_store_reindex_columns_packed_only(self, tmp_path, records, write_legacy, capsys):
        from repro.cli import main

        packed = _packed(tmp_path, records)
        assert main(["store", "reindex", "--store", str(packed.root), "--columns"]) == 0
        assert f"rebuilt columnar sidecars: {len(records)} row(s)" in capsys.readouterr().out
        legacy = tmp_path / "legacy"
        write_legacy(legacy, records)
        before = sorted(legacy.iterdir())
        assert main(["store", "reindex", "--store", str(legacy), "--columns"]) != 0
        assert "repro store migrate" in capsys.readouterr().err
        assert sorted(legacy.iterdir()) == before

    def test_store_reindex_without_columns_needs_packed(
        self, tmp_path, records, write_legacy, capsys
    ):
        from repro.cli import main

        legacy = tmp_path / "legacy"
        write_legacy(legacy, records)
        assert main(["store", "reindex", "--store", str(legacy)]) != 0
        assert "packed" in capsys.readouterr().err
        packed = _packed(tmp_path, records)
        assert main(["store", "reindex", "--store", str(packed.root)]) == 0
        assert f"reindexed: {len(records)} record(s)" in capsys.readouterr().out

    def test_analyze_progress_goes_to_stderr(self, tmp_path, records, capsys):
        from repro.cli import main

        store = _packed(tmp_path, records)
        assert main(["analyze", "--store", str(store.root), "--progress"]) == 0
        captured = capsys.readouterr()
        assert "[columns]" in captured.err
        assert "[columns]" not in captured.out

    def test_analyze_is_quiet_by_default(self, tmp_path, records, capsys):
        from repro.cli import main

        store = _packed(tmp_path, records)
        assert main(["analyze", "--store", str(store.root)]) == 0
        assert capsys.readouterr().err == ""
