"""Store factory and migration: the one way stores are opened.

Everything above the store layer (the engine, the analysis loaders, the
bench runner, the CLI, the campaign service) opens persistent stores
through :func:`open_store`: an open store passes through, and a directory
path opens as a :class:`~repro.store.packed.PackedResultStore` (segment
files + SQLite index).  A fresh or empty directory becomes a new packed
store; a directory holding legacy one-file-per-record ``*.json`` data is
rejected with a :class:`~repro.core.exceptions.ConfigurationError` that
names ``repro store migrate``.

:func:`migrate_store` is the only reader of that legacy layout.  It
converts a legacy directory into the packed format, verifying every
record's digest on the way and preserving the record dicts verbatim --
analysis over a migrated store is byte-identical to analysis over a
packed store written directly from the same records.  Migration writes
through the packed ``put_records`` path, so the new segments get their
columnar ``.cols`` analysis sidecars (:mod:`repro.store.columns`) as they
are built: full column rows for records carrying a write-time
``analysis`` block, short decode-at-read rows for older records (``repro
store reindex --columns`` upgrades those once, by decoding each record a
single time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.exceptions import ConfigurationError, StoreError
from repro.store.packed import PACKED_MANIFEST, PackedResultStore, holds_legacy_records
from repro.store.result_store import RECORD_SUFFIX, record_key

#: The columnar snapshot a legacy directory may carry; nothing reads it,
#: so in-place migration removes it with the record files.
_LEGACY_SNAPSHOT = "analysis.cols"


def is_packed(root: str | Path) -> bool:
    """True when ``root`` is (marked as) a packed store directory."""
    return (Path(root).expanduser() / PACKED_MANIFEST).is_file()


def open_store(store, *, create: bool = True) -> PackedResultStore:
    """Open a persistent result store from a directory path or a store.

    An already-open store is returned unchanged (so call sites can be
    handed either); a path opens as :class:`PackedResultStore`, which
    initialises a fresh directory and rejects a legacy one.  Readers pass
    ``create=False``: a path that is not a packed store then raises a
    :class:`~repro.core.exceptions.ConfigurationError` naming it and
    leaves the file system untouched, so a query on a mistyped path never
    creates an empty store there.
    """
    if isinstance(store, PackedResultStore):
        return store
    if not isinstance(store, (str, Path)):
        raise ConfigurationError(
            f"cannot open a store from a {type(store).__name__}; "
            "pass a directory path or a store object"
        )
    if not create and not is_packed(store) and not holds_legacy_records(Path(store).expanduser()):
        raise ConfigurationError(f"{store} is not a result store (no {PACKED_MANIFEST} there)")
    return PackedResultStore(store)


@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one :func:`migrate_store` run.

    ``migrated`` records were verified and packed; ``corrupt`` legacy
    files failed parsing or digest verification and were left behind
    (in-place migration moves on without them -- exactly the records a
    store reader would have treated as corrupt-record misses anyway).
    """

    source: Path
    destination: Path
    migrated: int
    corrupt: int
    bytes_before: int
    bytes_after: int
    in_place: bool


def migrate_store(
    source: str | Path, destination: str | Path | None = None
) -> MigrationReport:
    """Convert a legacy record directory into a packed store.

    With ``destination=None`` the migration is **in place**: the packed
    layout is built inside ``source`` and the legacy record files (and
    their obsolete ``analysis.cols`` snapshot) are removed only after
    every record has been packed -- a crash mid-way leaves the legacy
    records intact (the half-built packed layout is rebuilt by rerunning
    the migration; ``put_records`` supersedes cleanly).  With a
    destination directory the source is left untouched.

    Every record is **digest-verified** before packing: the file must
    parse, its recorded ``key`` must be a safe token matching the file
    stem, and the record dict is carried over as-is (the result payload is
    never decoded and re-encoded), so reading the packed store yields
    payloads identical to the legacy files'.

    Raises
    ------
    ConfigurationError
        When the source is already packed, the destination is an unmigrated
        directory holding legacy records (this includes a destination equal
        to the source -- migrate that in place), or either path is unusable.
    """
    source = Path(source).expanduser()
    if not source.is_dir():
        raise ConfigurationError(f"store migrate: {source} is not a directory")
    if is_packed(source):
        raise ConfigurationError(f"store migrate: {source} is already a packed store")
    in_place = destination is None
    destination = source if in_place else Path(destination).expanduser()
    if not in_place and not is_packed(destination) and holds_legacy_records(destination):
        raise ConfigurationError(
            f"store migrate: destination {destination} holds legacy records; "
            "migrate it in place instead"
        )

    record_paths = sorted(source.glob(f"*{RECORD_SUFFIX}"))
    records: list[dict] = []
    keep_paths: list[Path] = []
    corrupt = 0
    bytes_before = 0
    for path in record_paths:
        try:
            raw = path.read_text(encoding="utf-8")
            record = json.loads(raw)
            if record_key(record) != path.stem:
                raise StoreError(f"{path.name}: recorded key does not match the file name")
        except (OSError, json.JSONDecodeError, StoreError, ValueError):
            corrupt += 1
            continue
        bytes_before += path.stat().st_size
        records.append(record)
        keep_paths.append(path)

    # Build the packed layout first and commit the manifest marker last:
    # until the marker exists the legacy records stay in place and the
    # directory still asks to be migrated, so a crash mid-migration loses
    # nothing.
    packed = PackedResultStore(destination, manifest=False)
    try:
        if records:
            packed.put_records(records)
        # Verify the packed store can answer for every migrated key before
        # the marker is committed or any legacy file is deleted.
        missing = packed.missing_keys(path.stem for path in keep_paths)
        if missing:
            raise ConfigurationError(
                f"store migrate: {len(missing)} record(s) missing from the packed "
                f"index after migration (first: {missing[0]}); source left untouched"
            )
        packed.write_manifest()
        if in_place:
            for path in [*keep_paths, source / _LEGACY_SNAPSHOT]:
                try:
                    path.unlink()
                except OSError:
                    pass
        bytes_after = sum(stat.file_bytes for stat in packed.segment_stats())
    finally:
        packed.close()

    return MigrationReport(
        source=source,
        destination=destination,
        migrated=len(records),
        corrupt=corrupt,
        bytes_before=bytes_before,
        bytes_after=bytes_after,
        in_place=in_place,
    )
