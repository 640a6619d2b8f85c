"""Persistent result store: the on-disk caching tier.

The scenario :class:`~repro.api.engine.Engine` memoises results in memory,
but every new process starts cold.  This package adds the tier below it:

* :class:`~repro.store.packed.PackedResultStore` -- the content-addressed
  on-disk store: one JSON record per solved scenario (keyed by the
  scenario's solver-aware canonical digest), packed into append-only
  segment files behind a SQLite index (indexed lookups, sub-second
  ``info``, ``compact``/``reindex`` maintenance, corruption-tolerant
  reads);
* :mod:`~repro.store.result_store` -- the record format every reader and
  writer shares (:func:`make_record`, :func:`decode_record`);
* :func:`~repro.store.factory.open_store` /
  :func:`~repro.store.factory.migrate_store` -- the one way a store is
  opened (a path becomes a packed store), and digest-verified migration
  of the legacy one-file-per-record layout, its only reader;
* :mod:`~repro.store.serialize` -- the exact JSON codec for the result
  graph (registered frozen dataclasses only, with sub-object interning).

Attach a store to an engine with ``Engine(store=...)`` (or ``--store DIR``
on the CLI): scenario results computed in any process using the same
directory are reused everywhere, which is what makes repeated design-space
sweeps (Table 1, Figures 5-7) cheap across runs.  See ARCHITECTURE.md for
the full three-tier caching story.
"""

from repro.store.factory import MigrationReport, is_packed, migrate_store, open_store
from repro.store.packed import (
    PACKED_MANIFEST,
    CompactStats,
    PackedResultStore,
    SegmentStat,
)
from repro.store.result_store import (
    RECORD_SUFFIX,
    STORE_FORMAT,
    StoreEntry,
    StoreInfo,
    decode_record,
    make_record,
)
from repro.store.serialize import (
    decode_result,
    encode_result,
    register_storable,
    storable_names,
)

__all__ = [
    "PACKED_MANIFEST",
    "RECORD_SUFFIX",
    "STORE_FORMAT",
    "CompactStats",
    "MigrationReport",
    "PackedResultStore",
    "SegmentStat",
    "StoreEntry",
    "StoreInfo",
    "decode_record",
    "decode_result",
    "encode_result",
    "is_packed",
    "make_record",
    "migrate_store",
    "open_store",
    "register_storable",
    "storable_names",
]
