"""Concurrency stress tests: multiple processes writing one store.

The packed store claims to be safe under concurrent multi-process writers
through one-segment-per-writer plus SQLite's own locking.  These tests put
that claim under real process concurrency:

* **different digests**: two processes bulk-write disjoint key ranges;
  afterwards every record must be present and readable (no lost updates);
* **same digests**: two processes race over the *same* keys; afterwards
  every key must hold one complete, valid record (no torn or interleaved
  writes), whichever writer won;
* **write/read race**: one process writes while the other continuously
  reads; readers must only ever see misses or complete records, never an
  error or a partial payload.

The writers run as real subprocesses (separate interpreters, separate
store instances), not threads, so file-system and SQLite cross-process
behaviour is actually exercised.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.store import PackedResultStore

#: Records each writer process writes in the stress runs.
RECORDS_PER_WRITER = 300

_WRITER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.store import PackedResultStore

    root, start, count, salt = sys.argv[1:5]
    store = PackedResultStore(root)
    for index in range(int(start), int(start) + int(count)):
        record = {
            "format": 1,
            "key": f"{index:064x}",
            "scenario": {"soc": f"soc{index % 5}", "solver": "goel05",
                         "objective": "throughput"},
            "result": {"writer": salt, "index": index, "pad": "x" * 256},
        }
        store.put_records([record])
    print("done")
    """
)

_READER_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.store import PackedResultStore

    root, top, rounds = sys.argv[1:4]
    store = PackedResultStore(root)
    seen = 0
    for _ in range(int(rounds)):
        for index in range(int(top)):
            if store.contains_key(f"{index:064x}"):
                seen += 1
    print(seen)
    """
)


def _spawn(script: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _run_all(processes: list[subprocess.Popen]) -> None:
    for process in processes:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, f"writer failed:\n{err}"


class TestConcurrentWriters:
    def test_disjoint_keys_no_lost_updates(self, tmp_path):
        root = tmp_path / "store"
        PackedResultStore(root).put_records([
            {"format": 1, "key": "f" * 64, "result": {"seed": True}}
        ])  # initialise the layout before the writers race
        writers = [
            _spawn(_WRITER_SCRIPT, str(root),
                   str(index * RECORDS_PER_WRITER), str(RECORDS_PER_WRITER),
                   f"writer{index}")
            for index in range(2)
        ]
        _run_all(writers)
        store = PackedResultStore(root)
        expected = {f"{index:064x}" for index in range(2 * RECORDS_PER_WRITER)}
        assert store.missing_keys(sorted(expected)) == ()
        # Every record is complete and parseable, not just present.
        entries = store.scan()
        assert expected <= {entry.key for entry in entries}

    def test_same_keys_one_complete_winner(self, tmp_path):
        root = tmp_path / "store"
        PackedResultStore(root).put_records([
            {"format": 1, "key": "f" * 64, "result": {"seed": True}}
        ])
        writers = [
            _spawn(_WRITER_SCRIPT, str(root), "0",
                   str(RECORDS_PER_WRITER), f"writer{index}")
            for index in range(2)
        ]
        _run_all(writers)
        store = PackedResultStore(root)
        expected = {f"{index:064x}" for index in range(RECORDS_PER_WRITER)}
        assert store.missing_keys(sorted(expected)) == ()
        # Each indexed line must be one complete record written by exactly
        # one of the racing writers -- torn writes would fail to parse or
        # mix the two salts.
        seen = 0
        for key, segment, offset, length in store._index_rows():
            if key == "f" * 64:
                continue
            record = store._read_row(key, segment, offset, length)
            assert record["result"]["writer"] in ("writer0", "writer1")
            assert record["result"]["index"] == int(key, 16)
            seen += 1
        assert seen == RECORDS_PER_WRITER

    def test_writer_reader_race_never_errors(self, tmp_path):
        root = tmp_path / "store"
        PackedResultStore(root).put_records([
            {"format": 1, "key": "f" * 64, "result": {"seed": True}}
        ])
        writer = _spawn(_WRITER_SCRIPT, str(root), "0",
                        str(RECORDS_PER_WRITER), "writer0")
        reader = _spawn(_READER_SCRIPT, str(root),
                        str(RECORDS_PER_WRITER), "10")
        _run_all([writer, reader])
        store = PackedResultStore(root)
        assert store.missing_keys(
            [f"{index:064x}" for index in range(RECORDS_PER_WRITER)]
        ) == ()


class TestCrossProcessEngineSharing:
    """Two engine processes sharing one store: second run is all store hits."""

    _ENGINE_SCRIPT = textwrap.dedent(
        """
        import sys
        from repro.api import Engine
        from repro.api.grid import SweepGrid
        from repro.api.testcell import reference_test_cell
        from repro.core.units import mega_vectors

        grid = SweepGrid(
            ["synthetic:7:4"], reference_test_cell(),
            channels=[48, 64], depths=[mega_vectors(1)],
        )
        engine = Engine(store=sys.argv[1])
        engine.run_batch(list(grid))
        info = engine.cache_info()
        print(f"{info.misses},{info.store_hits}")
        """
    )

    def test_second_process_reads_first_processes_results(self, tmp_path):
        root = tmp_path / "store"
        first = _spawn(self._ENGINE_SCRIPT, str(root))
        out, err = first.communicate(timeout=120)
        assert first.returncode == 0, err
        assert out.strip() == "2,0"
        second = _spawn(self._ENGINE_SCRIPT, str(root))
        out, err = second.communicate(timeout=120)
        assert second.returncode == 0, err
        assert out.strip() == "0,2"
