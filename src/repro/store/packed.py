"""Packed result store: append-only segments + a SQLite index.

:class:`PackedResultStore` is the persistent result store.  It keeps
:func:`~repro.store.result_store.make_record` dicts packed into a small
number of **append-only segment files** (one JSON record per line) and
finds them again through a **SQLite index** keyed by the scenario's
canonical digest -- lookups are one indexed query plus one ranged read,
independent of how many records the store holds, and ``store info`` never
opens a record.  A directory in the legacy one-file-per-record layout is
refused; ``repro store migrate`` converts it.

Layout of a packed store directory::

    root/
      packed.manifest      # {"backend": "packed", "format": 1, ...}
      index.sqlite         # records(key PRIMARY KEY, segment, offset, ...)
      segments/
        seg-<pid>-<n>.jsonl
        seg-<pid>-<n>.cols  # columnar analysis sidecar (derived, optional)

Invariants the format maintains:

* **Segments are the source of truth.**  The index is a derived
  accelerator: it can always be rebuilt by re-reading the segment lines
  (:meth:`PackedResultStore.reindex`), so index durability is relaxed for
  speed (WAL journaling, no fsync per record).
* **One writer per segment file.**  Every store instance appends to its
  own segment (named after its pid plus an instance counter), so
  concurrent processes never interleave bytes within a file; the index
  row for a record is inserted only after its segment line is flushed,
  so the index never points at bytes that were not written.
* **Reads are corruption-tolerant.**  A record whose segment line is
  missing, truncated or fails validation counts as a miss (and as
  ``corrupt`` in :meth:`info`), never as an error.  Such rows are
  *orphans*; :meth:`orphans` finds them and :meth:`compact` drops them.
* **Eviction is logical.**  :meth:`evict` deletes index rows; dead segment
  bytes are reclaimed by :meth:`compact`, which rewrites all live records
  into one fresh segment.
* **Sidecars are derived.**  Each segment may carry a ``.cols`` columnar
  sidecar (:mod:`repro.store.columns`) appended in the same
  ``put_records`` flush, before the index transaction commits.  Readers
  validate it against the segment's byte range and silently fall back to
  decoding the segment when it is missing or stale;
  :meth:`reindex_columns` rebuilds sidecars from the segments.

The engine, the analysis layer, the bench runner and the campaign service
all open stores through :func:`repro.store.factory.open_store`, which
passes an open store through and opens a path as this class.
"""

from __future__ import annotations

import itertools
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.exceptions import ConfigurationError, ReproError, StoreError
from repro.store import columns as columns_module
from repro.store.result_store import (
    RECORD_SUFFIX,
    STORE_FORMAT,
    StoreEntry,
    StoreInfo,
    decode_record,
    entry_from_record,
    make_record,
    record_key,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.optimize.result import TwoStepResult

#: Manifest file marking a directory as a packed store.  Deliberately not
#: ``*.json`` so it is never mistaken for a legacy record file.
PACKED_MANIFEST = "packed.manifest"

#: SQLite index file name.
INDEX_FILE = "index.sqlite"

#: Directory the segment files live in.
SEGMENT_DIR = "segments"

#: Suffix of segment files (JSON records, one per line).
SEGMENT_SUFFIX = ".jsonl"

#: Per-process counter so several store instances in one process append to
#: distinct segment files.
_SEGMENT_IDS = itertools.count()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    segment TEXT NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    soc TEXT NOT NULL DEFAULT '',
    solver TEXT NOT NULL DEFAULT '',
    objective TEXT NOT NULL DEFAULT '',
    package_version TEXT NOT NULL DEFAULT '',
    created_at REAL NOT NULL DEFAULT 0.0
)
"""


def holds_legacy_records(root: Path) -> bool:
    """True when ``root`` holds legacy one-file-per-record ``*.json`` files."""
    return any(root.glob(f"*{RECORD_SUFFIX}"))


@dataclass(frozen=True)
class SegmentStat:
    """Per-segment statistics reported by ``repro store info``.

    ``file_bytes`` is the size of the segment file on disk, ``live_bytes``
    the portion still referenced by index rows; the difference is dead
    space (evicted or superseded records) that :meth:`PackedResultStore.
    compact` reclaims.  ``missing`` marks an index row's segment file that
    no longer exists on disk -- every record in it is an orphan.
    """

    name: str
    records: int
    file_bytes: int
    live_bytes: int
    missing: bool = False

    @property
    def dead_bytes(self) -> int:
        """Bytes in the file no index row references (0 for missing files)."""
        return max(0, self.file_bytes - self.live_bytes)


@dataclass(frozen=True)
class CompactStats:
    """Outcome of one :meth:`PackedResultStore.compact` run."""

    records: int
    orphans_dropped: int
    segments_before: int
    segments_after: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


class PackedResultStore:
    """Content-addressed result store packed into segments + SQLite index.

    Parameters
    ----------
    root:
        The packed store directory.  An empty or missing directory is
        initialised as a new packed store; a directory holding legacy
        one-file-per-record data is rejected before anything is written
        into it (run ``repro store migrate`` first), as is anything that
        is not a directory.
    manifest:
        When ``False``, neither check for nor write the ``packed.manifest``
        marker.  Only the migration tool uses this: it builds the packed
        layout first and commits the marker last, so a crashed in-place
        migration leaves the directory still holding its legacy records.
    """

    def __init__(self, root: str | Path, *, manifest: bool = True) -> None:
        self._root = Path(root).expanduser()
        if self._root.exists() and not self._root.is_dir():
            raise ConfigurationError(f"store path {self._root} exists and is not a directory")
        needs_manifest = manifest and not (self._root / PACKED_MANIFEST).exists()
        if needs_manifest and holds_legacy_records(self._root):
            raise ConfigurationError(
                f"{self._root} holds legacy one-file-per-record data; "
                "run 'repro store migrate' to convert it to the packed format"
            )
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            (self._root / SEGMENT_DIR).mkdir(exist_ok=True)
        except OSError as error:
            raise ConfigurationError(f"cannot create store directory {self._root}: {error}") from error
        if needs_manifest:
            self.write_manifest()
        self._lock = threading.Lock()
        self._connection: sqlite3.Connection | None = None
        self._segment_name: str | None = None
        self._segment_handle = None
        self._sidecar_handle = None
        self._sidecar_disabled = False
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt = 0

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The store directory."""
        return self._root

    def write_manifest(self) -> Path:
        """Write the ``packed.manifest`` marker that makes this store packed."""
        manifest = self._root / PACKED_MANIFEST
        manifest.write_text(
            json.dumps(
                {"backend": "packed", "format": STORE_FORMAT, "created_at": time.time()},
                separators=(",", ":"),
            )
            + "\n",
            encoding="utf-8",
        )
        return manifest

    def _connect(self) -> sqlite3.Connection:
        """The store's SQLite connection (lazy; guarded by ``self._lock``)."""
        if self._connection is None:
            connection = sqlite3.connect(
                self._root / INDEX_FILE,
                timeout=30.0,
                check_same_thread=False,
            )
            try:
                # WAL keeps readers and writers from blocking each other and
                # makes commits cheap; NORMAL is safe because the index is
                # rebuildable from the segments.  Both pragmas can fail on
                # exotic filesystems -- the store works (slower) without them.
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
            except sqlite3.Error:
                pass
            connection.execute(_SCHEMA)
            connection.commit()
            self._connection = connection
        return self._connection

    def _segment(self):
        """This instance's append handle (lazy; guarded by ``self._lock``)."""
        if self._segment_handle is None:
            name = f"seg-{os.getpid()}-{next(_SEGMENT_IDS)}{SEGMENT_SUFFIX}"
            self._segment_name = name
            self._segment_handle = open(
                self._root / SEGMENT_DIR / name, "ab", buffering=0
            )
        return self._segment_handle

    def _sidecar(self):
        """The segment's ``.cols`` append handle (lazy; guarded by ``self._lock``).

        Returns ``None`` once sidecar writing failed for this instance:
        the sidecar then simply stops covering the segment, which the
        staleness check turns into a full-decode fallback -- record writes
        never fail because their derived index could not be written.
        """
        if self._sidecar_handle is None and not self._sidecar_disabled:
            path = columns_module.sidecar_path(self._segment_path(self._segment_name))
            try:
                handle = open(path, "ab", buffering=0)
                if handle.seek(0, os.SEEK_END) == 0:
                    handle.write(columns_module.sidecar_header(segment=self._segment_name))
                self._sidecar_handle = handle
            except OSError:
                self._sidecar_disabled = True
        return self._sidecar_handle

    def _close_sidecar(self) -> None:
        if self._sidecar_handle is not None:
            try:
                self._sidecar_handle.close()
            except OSError:
                pass
            self._sidecar_handle = None

    def close(self) -> None:
        """Release the index connection and segment handle (idempotent)."""
        with self._lock:
            if self._segment_handle is not None:
                try:
                    self._segment_handle.close()
                except OSError:
                    pass
                self._segment_handle = None
            self._close_sidecar()
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "PackedResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _segment_path(self, name: str) -> Path:
        return self._root / SEGMENT_DIR / name

    def _read_row(self, key: str, segment: str, offset: int, length: int) -> dict:
        """Read and parse one indexed record line; raises StoreError when bad."""
        path = self._segment_path(segment)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                raw = handle.read(length)
        except OSError as error:
            raise StoreError(f"cannot read segment {segment}: {error}") from error
        if len(raw) != length:
            raise StoreError(f"segment {segment} is shorter than the index claims")
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StoreError(f"segment line for {key} is not JSON: {error}") from error
        return record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def info(self) -> StoreInfo:
        """Hit/miss/put/corruption statistics plus the packed shape.

        O(1)-ish in the record count: the size is one indexed ``COUNT(*)``
        and the segment count one directory listing -- no record bytes
        are read.
        """
        with self._lock:
            connection = self._connect()
            size = connection.execute("SELECT COUNT(*) FROM records").fetchone()[0]
            segments = len(self._segment_names())
            return StoreInfo(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                corrupt=self._corrupt,
                size=size,
                backend="packed",
                format=STORE_FORMAT,
                segments=segments,
            )

    def _segment_names(self) -> list[str]:
        try:
            return sorted(
                path.name
                for path in (self._root / SEGMENT_DIR).glob(f"*{SEGMENT_SUFFIX}")
            )
        except OSError:
            return []

    def __len__(self) -> int:
        with self._lock:
            return self._connect().execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def __contains__(self, scenario: "Scenario") -> bool:
        return self.contains_key(scenario.digest)

    def contains_key(self, key: str) -> bool:
        """Indexed presence test by digest (no record bytes are read)."""
        with self._lock:
            row = self._connect().execute(
                "SELECT 1 FROM records WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def missing_keys(self, keys: Iterable[str]) -> tuple[str, ...]:
        """The subset of ``keys`` the store does not hold, in input order.

        The batch presence test the campaign service answers worker
        dedup queries with; duplicates in the input are preserved-once.
        """
        seen: dict[str, None] = {}
        for key in keys:
            if key not in seen:
                seen[key] = None
        with self._lock:
            connection = self._connect()
            present = set()
            candidates = list(seen)
            for start in range(0, len(candidates), 500):
                chunk = candidates[start : start + 500]
                marks = ",".join("?" for _ in chunk)
                present.update(
                    row[0]
                    for row in connection.execute(
                        f"SELECT key FROM records WHERE key IN ({marks})", chunk
                    )
                )
        return tuple(key for key in seen if key not in present)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, scenario: "Scenario") -> "TwoStepResult | None":
        """Return the stored result for ``scenario``, or ``None`` on a miss.

        One indexed lookup plus one ranged segment read -- latency is
        independent of the store's record count.  Validation is
        :func:`~repro.store.result_store.decode_record`'s: wrong format,
        key mismatch or a payload that fails to decode is a corrupt-record
        miss, never an error.
        """
        key = scenario.digest
        with self._lock:
            row = self._connect().execute(
                "SELECT segment, offset, length FROM records WHERE key = ?", (key,)
            ).fetchone()
        if row is None:
            self._count(misses=1)
            return None
        try:
            record = self._read_row(key, *row)
            result = decode_record(record, expected_key=key)
        except (ReproError, KeyError, TypeError, ValueError):
            self._count(misses=1, corrupt=1)
            return None
        self._count(hits=1)
        return result

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, scenario: "Scenario", result: "TwoStepResult") -> Path:
        """Persist ``result`` under ``scenario``'s digest; returns the segment path."""
        return self.put_record(make_record(scenario, result))

    def put_record(self, record: dict) -> Path:
        """Append one record dict to this instance's segment and index it."""
        return self.put_records([record])

    def put_records(self, records: Iterable[dict]) -> Path:
        """Append many record dicts in one batch (one index transaction).

        The bulk-ingestion path migration and the campaign service use:
        segment lines are flushed before the index transaction commits, so
        a reader that sees the index row can always read the bytes.  A
        record whose key is already present is superseded (the index row
        moves to the new copy; the old line becomes dead bytes for
        :meth:`compact`).

        The same flush appends one line per record to the segment's
        ``.cols`` sidecar -- full analysis columns when the record carries
        a :func:`~repro.store.result_store.make_record` ``analysis`` block,
        a short decode-me row otherwise (raw ingestion of legacy records
        pays no decode here).  The ordering is segment bytes, then sidecar
        bytes, then index commit, so the sidecar a reader accepts as
        covering the segment never references unwritten bytes.

        Raises
        ------
        StoreError
            When the index cannot take the batch (database locked past its
            timeout, disk full inside SQLite); callers see no SQLite type.
        OSError
            When the segment bytes cannot be written.
        """
        rows = []
        sidecar_entries: list[tuple[int, int, "list | None"]] = []
        with self._lock:
            handle = self._segment()
            segment = self._segment_name
            offset = handle.seek(0, os.SEEK_END)
            payload = bytearray()
            for record in records:
                key = record_key(record)
                line = json.dumps(record, separators=(",", ":")).encode("utf-8")
                scenario = record.get("scenario") or {}
                rows.append(
                    (
                        key,
                        segment,
                        offset + len(payload),
                        len(line),
                        str(scenario.get("soc", "")),
                        str(scenario.get("solver", "")),
                        str(scenario.get("objective", "")),
                        str(record.get("package_version", "")),
                        float(record.get("created_at", 0.0) or 0.0),
                    )
                )
                sidecar_entries.append(
                    (offset + len(payload), len(line), columns_module.row_from_record(record))
                )
                payload += line + b"\n"
            if not rows:
                return self._segment_path(segment)
            handle.write(bytes(payload))
            sidecar = self._sidecar()
            if sidecar is not None:
                try:
                    sidecar.write(columns_module.encode_segment_entries(sidecar_entries))
                except OSError:
                    self._close_sidecar()
                    self._sidecar_disabled = True
            try:
                connection = self._connect()
                connection.executemany(
                    "INSERT OR REPLACE INTO records "
                    "(key, segment, offset, length, soc, solver, objective, "
                    " package_version, created_at) VALUES (?,?,?,?,?,?,?,?,?)",
                    rows,
                )
                connection.commit()
            except sqlite3.Error as error:
                # The appended lines stay unindexed (dead bytes for
                # `compact`); a half-open transaction must not swallow the
                # next batch.
                if self._connection is not None:
                    try:
                        self._connection.rollback()
                    except sqlite3.Error:
                        pass
                raise StoreError(f"cannot index records in {self._root}: {error}") from error
            self._puts += len(rows)
        return self._segment_path(segment)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _index_rows(self) -> list[tuple]:
        with self._lock:
            return self._connect().execute(
                "SELECT key, segment, offset, length FROM records ORDER BY key"
            ).fetchall()

    def scan(self) -> tuple[StoreEntry, ...]:
        """List every readable record, sorted by key.

        Entries point at the record's segment file; ``size_bytes`` is the
        record line's length.  Unreadable rows are skipped and counted as
        ``corrupt``.
        """
        entries: list[StoreEntry] = []
        for key, segment, offset, length in self._index_rows():
            try:
                record = self._read_row(key, segment, offset, length)
                entries.append(
                    entry_from_record(record, self._segment_path(segment), length)
                )
            except (ReproError, KeyError, TypeError, ValueError):
                self._count(corrupt=1)
        return tuple(sorted(entries, key=lambda entry: entry.key))

    def records(self) -> "Iterator[tuple[StoreEntry, TwoStepResult]]":
        """Yield every readable ``(entry, result)`` pair, sorted by key.

        The bulk read of the analysis reference scan: each segment line
        is parsed once and yields both the :class:`StoreEntry` metadata and
        the decoded result.  Unreadable rows are skipped and counted as
        ``corrupt``, exactly like :meth:`scan`; the record's digest is not
        re-verified against a scenario here (none is being rebuilt).
        """
        for key, segment, offset, length in self._index_rows():
            try:
                record = self._read_row(key, segment, offset, length)
                entry = entry_from_record(record, self._segment_path(segment), length)
                result = decode_record(record)
            except (ReproError, KeyError, TypeError, ValueError):
                self._count(corrupt=1)
                continue
            yield entry, result

    def evict(self, keys: "Iterable[str] | None" = None) -> int:
        """Delete index rows; returns how many records were evicted.

        ``keys=None`` empties the store.  Record bytes stay in their
        segments as dead space until :meth:`compact` runs; a following
        :meth:`get` of an evicted key is a plain miss.
        """
        with self._lock:
            connection = self._connect()
            if keys is None:
                removed = connection.execute("SELECT COUNT(*) FROM records").fetchone()[0]
                connection.execute("DELETE FROM records")
            else:
                removed = 0
                for key in keys:
                    cursor = connection.execute(
                        "DELETE FROM records WHERE key = ?", (key,)
                    )
                    removed += cursor.rowcount
            connection.commit()
        return removed

    def total_bytes(self) -> int:
        """Live record bytes (sum of indexed line lengths; one SQL aggregate)."""
        with self._lock:
            total = self._connect().execute("SELECT SUM(length) FROM records").fetchone()[0]
        return int(total or 0)

    def breakdown(self, column: str) -> dict[str, int]:
        """Record counts grouped by an identity column, from the index alone.

        ``column`` is one of ``soc``/``solver``/``objective``.  This is what
        keeps ``repro store info`` sub-second on million-record stores: the
        grouping runs in SQLite without opening any record bytes.
        """
        if column not in ("soc", "solver", "objective"):
            raise ConfigurationError(f"no such breakdown column: {column!r}")
        with self._lock:
            rows = self._connect().execute(
                f"SELECT {column}, COUNT(*) FROM records GROUP BY {column}"
            ).fetchall()
        return {str(name): count for name, count in rows}

    def segment_stats(self) -> tuple[SegmentStat, ...]:
        """Per-segment statistics: live records/bytes vs file size.

        Includes segments no index row references any more (0 records,
        pure dead space) and flags index rows whose segment file is gone
        (``missing=True`` -- their records are orphans).
        """
        with self._lock:
            rows = self._connect().execute(
                "SELECT segment, COUNT(*), SUM(length) FROM records GROUP BY segment"
            ).fetchall()
        live = {segment: (count, int(total or 0)) for segment, count, total in rows}
        stats = []
        names = set(self._segment_names()) | set(live)
        for name in sorted(names):
            count, live_bytes = live.get(name, (0, 0))
            path = self._segment_path(name)
            try:
                file_bytes = path.stat().st_size
                missing = False
            except OSError:
                file_bytes = 0
                missing = True
            stats.append(
                SegmentStat(
                    name=name,
                    records=count,
                    file_bytes=file_bytes,
                    live_bytes=live_bytes,
                    missing=missing,
                )
            )
        return tuple(stats)

    def orphans(self) -> tuple[str, ...]:
        """Keys of index rows whose record bytes are gone or out of range.

        An orphan is an index entry left behind after its record was
        evicted from the segment layer -- the file was deleted or
        truncated underneath the index (e.g. a crashed compact, manual
        cleanup).  Reading an orphan is a corrupt-record miss; ``repro
        store info`` flags them and :meth:`compact` drops them.
        """
        sizes: dict[str, int] = {}
        orphaned = []
        for key, segment, offset, length in self._index_rows():
            if segment not in sizes:
                try:
                    sizes[segment] = self._segment_path(segment).stat().st_size
                except OSError:
                    sizes[segment] = -1
            size = sizes[segment]
            if size < 0 or offset + length > size:
                orphaned.append(key)
        return tuple(orphaned)

    def compact(self) -> CompactStats:
        """Rewrite all live records into one fresh segment; drop the rest.

        Reclaims dead bytes (evicted or superseded records), drops
        orphaned and unreadable index rows, and deletes the old segment
        files.  Safe against concurrent *readers* (the new segment is
        fully written and indexed before old files go away); concurrent
        writers should be stopped first -- records they append to an old
        segment during the rewrite window would be dropped with it.
        """
        rows = self._index_rows()
        segments_before = self._segment_names()
        bytes_before = 0
        for name in segments_before:
            try:
                bytes_before += self._segment_path(name).stat().st_size
            except OSError:
                pass
        keep: list[dict] = []
        orphans_dropped = 0
        for key, segment, offset, length in rows:
            try:
                record = self._read_row(key, segment, offset, length)
                if record_key(record) != key:
                    raise StoreError("segment line key does not match its index row")
            except (ReproError, KeyError, TypeError, ValueError):
                orphans_dropped += 1
                continue
            keep.append(record)
        with self._lock:
            # Retire this instance's current append segment so the rewrite
            # goes to a fresh file that survives the old-file sweep.
            if self._segment_handle is not None:
                try:
                    self._segment_handle.close()
                except OSError:
                    pass
                self._segment_handle = None
                self._segment_name = None
            self._close_sidecar()
            self._sidecar_disabled = False
            connection = self._connect()
            connection.execute("DELETE FROM records")
            connection.commit()
        path = self.put_records(keep) if keep else None
        with self._lock:
            survivor = self._segment_name
            for name in segments_before:
                if name == survivor:
                    continue
                try:
                    self._segment_path(name).unlink()
                except OSError:
                    pass
                try:
                    columns_module.sidecar_path(self._segment_path(name)).unlink()
                except OSError:
                    pass
        bytes_after = 0
        if path is not None:
            try:
                bytes_after = path.stat().st_size
            except OSError:
                pass
        return CompactStats(
            records=len(keep),
            orphans_dropped=orphans_dropped,
            segments_before=len(segments_before),
            segments_after=len(self._segment_names()),
            bytes_before=bytes_before,
            bytes_after=bytes_after,
        )

    def reindex(self) -> int:
        """Rebuild the index from the segment files; returns the row count.

        The recovery path for a lost or corrupted ``index.sqlite``: every
        parseable segment line is re-indexed (later lines supersede
        earlier ones for the same key, matching append order within a
        segment; across segments the lexically-last segment wins, which is
        only ambiguous for records duplicated across processes -- and
        those are identical by construction, being content-addressed).
        """
        rows: list[tuple] = []
        for name in self._segment_names():
            offset = 0
            try:
                raw = self._segment_path(name).read_bytes()
            except OSError:
                continue
            for line in raw.split(b"\n"):
                length = len(line)
                if line:
                    try:
                        record = json.loads(line.decode("utf-8"))
                        key = record_key(record)
                        scenario = record.get("scenario") or {}
                        rows.append(
                            (
                                key,
                                name,
                                offset,
                                length,
                                str(scenario.get("soc", "")),
                                str(scenario.get("solver", "")),
                                str(scenario.get("objective", "")),
                                str(record.get("package_version", "")),
                                float(record.get("created_at", 0.0) or 0.0),
                            )
                        )
                    except (ReproError, ValueError, UnicodeDecodeError):
                        self._count(corrupt=1)
                offset += length + 1
        with self._lock:
            connection = self._connect()
            connection.execute("DELETE FROM records")
            connection.executemany(
                "INSERT OR REPLACE INTO records "
                "(key, segment, offset, length, soc, solver, objective, "
                " package_version, created_at) VALUES (?,?,?,?,?,?,?,?,?)",
                rows,
            )
            connection.commit()
            return connection.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def record_locations(self) -> dict[str, list[tuple[int, int]]]:
        """Live ``(offset, length)`` pairs per segment, from the index alone.

        The work list of the sidecar analysis scan
        (:func:`repro.analysis.records.records_from_store`): scanning
        exactly these byte ranges -- whichever of the sidecar or the
        segment answers them -- reads the same record copies the
        full-decode path does, superseded and evicted lines excluded.
        """
        with self._lock:
            rows = self._connect().execute(
                "SELECT segment, offset, length FROM records"
            ).fetchall()
        locations: dict[str, list[tuple[int, int]]] = {}
        for segment, offset, length in rows:
            locations.setdefault(str(segment), []).append((int(offset), int(length)))
        for pairs in locations.values():
            pairs.sort()
        return locations

    def reindex_columns(self) -> int:
        """Rebuild every segment's ``.cols`` sidecar; returns rows written.

        The sidecar analogue of :meth:`reindex`: each segment is decoded
        once and a full-column sidecar written beside it (legacy records
        get their certificates computed here instead of on every future
        scan).  This instance's own append handles are retired first so
        later puts continue the rebuilt sidecars coherently.
        """
        with self._lock:
            self._close_sidecar()
            self._sidecar_disabled = False
        total = 0
        for name in self._segment_names():
            try:
                total += columns_module.rebuild_segment_sidecar(self._segment_path(name))
            except OSError:
                continue
        return total

    def _count(self, hits: int = 0, misses: int = 0, puts: int = 0, corrupt: int = 0) -> None:
        with self._lock:
            self._hits += hits
            self._misses += misses
            self._puts += puts
            self._corrupt += corrupt
