"""Columnar analysis sidecars: the derived metrics index of the store layer.

``repro analyze`` needs ~12 scalar columns per record (the
:class:`~repro.analysis.records.AnalysisRecord` fields), but a store
record's payload is the full encoded ``TwoStepResult`` graph -- ~27 KB of
JSON whose decode cost dwarfs the aggregation it feeds.  This module
defines a **columnar sidecar** holding exactly those columns, written by
``put_records`` while the producer still holds the live objects (so
nothing is ever decoded to build it) and scanned at analysis time instead
of the record payloads.

Each packed-store segment file carries one ``seg-<...>.cols`` sidecar,
appended in the same ``put_records`` flush as the segment lines (before
the index transaction commits, extending the flush-before-index
ordering).  Each line is a JSON array ``[offset, length, *columns]``
mirroring one segment line; a **short row** ``[offset, length]`` means
"no columns were available at write time -- decode this line instead"
(raw ingestion of legacy records takes this path).

Sidecars are **derived data with a fail-open contract**: a sidecar that is
missing, unparseable or *stale* (its rows do not cover the segment byte
range contiguously) is ignored and the reader falls back to full-record
decode.  The segments remain the source of truth; ``reindex --columns``
rebuilds sidecars from them, and in-place byte edits that keep sizes
unchanged are the one corruption this staleness rule cannot see (the
full-decode path, compact and reindex all notice).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.exceptions import ReproError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.store.result_store import STORE_FORMAT, decode_record, record_lower_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimize.result import TwoStepResult

#: Version of the sidecar layout.  A sidecar written under another format
#: version is treated as stale (full-decode fallback), never as an error.
COLUMNS_FORMAT = 1

#: File-name suffix of per-segment sidecars (``seg-<...>.cols``).
SIDECAR_SUFFIX = ".cols"

#: The metric columns, in order: exactly the keys of the ``analysis``
#: block :func:`~repro.store.result_store.make_record` embeds.
METRIC_COLUMNS = (
    "channels",
    "depth",
    "broadcast",
    "optimal_sites",
    "channels_per_site",
    "test_time_cycles",
    "value",
    "lower_bound",
)

#: The column order of every full sidecar row -- exactly the
#: :class:`~repro.analysis.records.AnalysisRecord` constructor order: the
#: scenario's identity columns, then :data:`METRIC_COLUMNS`.
ANALYSIS_COLUMNS = ("key", "soc", "solver", "objective") + METRIC_COLUMNS


def sidecar_path(segment_path: Path) -> Path:
    """The ``.cols`` sidecar path of a segment file."""
    return segment_path.with_suffix(SIDECAR_SUFFIX)


def sidecar_header(**extra: object) -> bytes:
    """The self-describing first line of every sidecar file."""
    header = {"format": COLUMNS_FORMAT, "columns": list(ANALYSIS_COLUMNS)}
    header.update(extra)
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"


# ----------------------------------------------------------------------
# Row construction
# ----------------------------------------------------------------------
def analysis_row(
    key: str,
    soc: str,
    solver: str,
    objective: str,
    result: "TwoStepResult",
    bound: float | None,
) -> tuple:
    """The :data:`ANALYSIS_COLUMNS` values of one solved result and its bound.

    The one mapping from a result to its analysis columns: the record's
    write-time ``analysis`` block, the sidecar rebuild and fallback
    decode, the full-decode reference scan and in-memory engine results
    all derive their rows here.  ``key`` may be the full digest; the row
    carries its short (16 hex chars) form.
    """
    step1 = result.step1
    best = result.best
    return (
        key[:16],
        soc,
        solver,
        objective,
        step1.ate.channels,
        step1.ate.depth,
        step1.config.broadcast,
        result.optimal_sites,
        best.channels_per_site,
        best.test_time_cycles,
        result.optimal_throughput,
        bound,
    )


def row_from_record(record: object) -> tuple | None:
    """Sidecar columns of a record dict, from its write-time analysis block.

    Returns ``None`` (meaning: write a short row, decode at read time)
    unless the record carries a complete, well-typed ``analysis`` block --
    the block :func:`~repro.store.result_store.make_record` embeds.  No
    payload decode ever happens here; raw ingestion of records produced by
    older writers stays exactly as cheap as before the sidecar existed.
    """
    if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
        return None
    key = record.get("key")
    block = record.get("analysis")
    scenario = record.get("scenario") or {}
    if (
        not isinstance(key, str)
        or not key
        or not isinstance(block, dict)
        or not isinstance(scenario, dict)
    ):
        return None
    try:
        metrics = [block[name] for name in METRIC_COLUMNS]
    except KeyError:
        return None
    return normalize_row([
        key[:16],
        str(scenario.get("soc", "")),
        str(scenario.get("solver", "")),
        str(scenario.get("objective", DEFAULT_OBJECTIVE)),
        *metrics,
    ])


def row_from_decoded(record: dict, result: "TwoStepResult") -> tuple:
    """Sidecar columns computed from a decoded result (rebuild/fallback path).

    Bit-identical to what the analysis full-decode scan produces for the
    same record: the lower bound comes from the record's persisted
    ``analysis`` block when present and is recomputed through the (cached)
    certificate otherwise.
    """
    from repro.solvers.bounds import result_lower_bound

    scenario = record.get("scenario") or {}
    if not isinstance(scenario, dict):
        scenario = {}
    objective = str(scenario.get("objective", DEFAULT_OBJECTIVE))
    has_bound, bound = record_lower_bound(record)
    if not has_bound:
        bound = result_lower_bound(result, objective)
    return analysis_row(
        str(record.get("key", "")),
        str(scenario.get("soc", "")),
        str(scenario.get("solver", "")),
        objective,
        result,
        bound,
    )


def normalize_row(row: object) -> tuple | None:
    """Validate a column row into the column tuple: the one row check.

    Both write-time rows (:func:`row_from_record`) and sidecar rows read
    back from disk pass here.  Returns ``None`` when the row is not a
    well-typed full column row -- the writer then leaves a short row and
    the reader decodes the underlying record instead, so a tampered
    sidecar can degrade performance but never analysis output.
    """
    if not isinstance(row, (list, tuple)) or len(row) != len(ANALYSIS_COLUMNS):
        return None
    key, soc, solver, objective, channels, depth, broadcast, sites, per_site, cycles, value, bound = row
    for label in (key, soc, solver, objective):
        if not isinstance(label, str):
            return None
    for count in (channels, depth, sites, per_site, cycles):
        if not isinstance(count, int) or isinstance(count, bool):
            return None
    if not isinstance(broadcast, bool):
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    if bound is not None and (not isinstance(bound, (int, float)) or isinstance(bound, bool)):
        return None
    return (
        key, soc, solver, objective, channels, depth, broadcast,
        sites, per_site, cycles, float(value),
        None if bound is None else float(bound),
    )


def encode_segment_entries(entries: Iterable[tuple[int, int, "Sequence | None"]]) -> bytes:
    """Encode ``(offset, length, columns-or-None)`` entries as sidecar lines."""
    payload = bytearray()
    for offset, length, row in entries:
        item: list = [offset, length]
        if row is not None:
            item += row
        payload += json.dumps(item, separators=(",", ":")).encode("utf-8") + b"\n"
    return bytes(payload)


# ----------------------------------------------------------------------
# Read path
# ----------------------------------------------------------------------
def read_segment_sidecar(segment_path: Path) -> "list[tuple[int, int, list | None]] | None":
    """Parse and validate one segment's sidecar; ``None`` means fall back.

    Staleness rule: the rows must tile the segment's byte range exactly --
    the first row starts at offset 0, each row starts where the previous
    line (plus its newline) ended, and the last row ends at the segment's
    current size.  Any gap, overlap or size mismatch (e.g. segment lines
    appended after the sidecar stopped growing) invalidates the whole
    sidecar, and the caller decodes the segment instead.
    """
    path = sidecar_path(segment_path)
    try:
        raw = path.read_bytes()
        segment_size = segment_path.stat().st_size
    except OSError:
        return None
    lines = raw.split(b"\n")
    if not lines or not lines[0]:
        return None
    try:
        header = json.loads(lines[0])
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(header, dict)
        or header.get("format") != COLUMNS_FORMAT
        or header.get("columns") != list(ANALYSIS_COLUMNS)
    ):
        return None
    entries: list[tuple[int, int, list | None]] = []
    expected = 0
    for line in lines[1:]:
        if not line:
            continue
        try:
            item = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(item, list)
            or len(item) not in (2, 2 + len(ANALYSIS_COLUMNS))
            or not isinstance(item[0], int)
            or not isinstance(item[1], int)
            or isinstance(item[0], bool)
            or isinstance(item[1], bool)
        ):
            return None
        offset, length = item[0], item[1]
        if offset != expected or length < 0:
            return None
        entries.append((offset, length, item[2:] if len(item) > 2 else None))
        expected = offset + length + 1
    if expected != segment_size:
        return None
    return entries


@dataclass
class SegmentScan:
    """Outcome of scanning one segment for analysis columns."""

    segment: str
    rows: list = field(default_factory=list)  # (offset, column-tuple) pairs
    corrupt: int = 0
    used_sidecar: bool = False


def scan_segment(
    segment_path: "str | Path",
    locations: Sequence[tuple[int, int]],
    use_sidecar: bool = True,
) -> SegmentScan:
    """Extract analysis columns for the live ``(offset, length)`` pairs of one segment.

    The per-segment unit of work of the parallel analysis scan (top-level,
    so it pickles into a process pool).  Rows the sidecar covers are taken
    from it; everything else -- short rows, stale/missing sidecar, offsets
    the sidecar does not know -- is decoded from the segment bytes with
    exactly the full-decode path's semantics (unreadable rows are skipped
    and counted, never raised).  Output rows therefore never depend on
    whether the sidecar was usable.
    """
    path = Path(segment_path)
    scan = SegmentScan(segment=path.name)
    by_offset: dict[int, tuple[int, "list | None"]] = {}
    if use_sidecar:
        entries = read_segment_sidecar(path)
        if entries is not None:
            scan.used_sidecar = True
            by_offset = {offset: (length, row) for offset, length, row in entries}
    pending: list[tuple[int, int]] = []
    for offset, length in locations:
        hit = by_offset.get(offset)
        if hit is not None and hit[0] == length and hit[1] is not None:
            columns = normalize_row(hit[1])
            if columns is not None:
                scan.rows.append((offset, columns))
                continue
        pending.append((offset, length))
    if pending:
        _decode_locations(path, sorted(pending), scan)
    scan.rows.sort(key=lambda item: item[0])
    return scan


def _decode_locations(path: Path, pending: Sequence[tuple[int, int]], scan: SegmentScan) -> None:
    """Decode segment lines the sidecar could not answer (fallback path)."""
    try:
        handle = open(path, "rb")
    except OSError:
        scan.corrupt += len(pending)
        return
    with handle:
        for offset, length in pending:
            try:
                handle.seek(offset)
                raw = handle.read(length)
                if len(raw) != length:
                    raise ValueError("segment is shorter than the index claims")
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict) or "key" not in record:
                    raise ValueError("segment line is not a record")
                result = decode_record(record)
                scan.rows.append((offset, row_from_decoded(record, result)))
            except (OSError, ReproError, KeyError, TypeError, ValueError):
                scan.corrupt += 1


# ----------------------------------------------------------------------
# Rebuild (``repro store reindex --columns``)
# ----------------------------------------------------------------------
def rebuild_segment_sidecar(segment_path: Path) -> int:
    """Rebuild one segment's sidecar from its bytes; returns rows written.

    Every segment line gets a full column row (decoding legacy records and
    recomputing their certificates once, here, rather than on every future
    scan); unparseable lines keep a short row so the read path re-checks
    them.  The rebuilt file replaces the old one atomically.
    """
    raw = segment_path.read_bytes()
    entries: list[tuple[int, int, tuple | None]] = []
    offset = 0
    for line in raw.split(b"\n"):
        length = len(line)
        if line:
            row: tuple | None = None
            try:
                record = json.loads(line.decode("utf-8"))
                result = decode_record(record)
                row = row_from_decoded(record, result)
            except (ReproError, KeyError, TypeError, ValueError):
                row = None
            entries.append((offset, length, row))
        offset += length + 1
    payload = sidecar_header(segment=segment_path.name) + encode_segment_entries(entries)
    target = sidecar_path(segment_path)
    staging = target.with_name(target.name + f".{os.getpid()}.tmp")
    try:
        staging.write_bytes(payload)
        os.replace(staging, target)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return len(entries)
