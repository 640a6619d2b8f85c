"""The store record format: one self-describing JSON dict per solved scenario.

Every persistent result -- appended to a packed store segment
(:class:`~repro.store.packed.PackedResultStore`), shipped over HTTP by the
campaign service, or found in a legacy one-file-per-record directory by
``repro store migrate`` -- is a :func:`make_record` dict keyed by the
scenario's solver-aware canonical digest
(:attr:`repro.api.scenario.Scenario.digest` -- the SHA-256 of the resolved
canonical key, so the same operating point hits the same record no matter
how the SOC was referenced or which process computed it).

The store is the third caching tier of the system, and the only one that
survives the process:

1. a simulated-annealing run memoises the ``(design, sites)`` points it
   revisits (:class:`repro.solvers.evaluate.PointMemo`);
2. the :class:`~repro.api.engine.Engine` memoises whole scenario results
   in memory;
3. the packed store memoises scenario results **on disk**, amortising
   repeated CLI invocations, CI runs and benchmark sessions.

This module holds the format and its validation, shared by every reader
and writer: :func:`make_record` builds a record, :func:`record_key`
vets its key for storage, :func:`decode_record` validates it back into a
result (any violation is a :class:`~repro.core.exceptions.StoreError`,
which readers count as a corrupt-record miss -- never an error or a wrong
result), and :func:`entry_from_record` derives its :class:`StoreEntry`
metadata row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.exceptions import StoreError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.store.serialize import decode_result, encode_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.optimize.result import TwoStepResult

#: Version of the on-disk record layout.  Bump on incompatible changes;
#: records written under another format version are treated as misses.
STORE_FORMAT = 1

#: File-name suffix of the legacy one-file-per-record layout (read only by
#: :func:`~repro.store.factory.migrate_store`).
RECORD_SUFFIX = ".json"


def make_record(scenario: "Scenario", result: "TwoStepResult") -> dict:
    """Build the JSON record dict the store persists for a scenario.

    This is the single wire/disk format of the store layer: the packed
    store appends such dicts as segment lines, and the campaign service
    ships them over HTTP.  The
    record is self-describing (``key`` is the scenario's full digest), so a
    consumer can verify it against the scenario that requested it.

    The ``analysis`` block carries the flat metric columns analysis needs
    (:data:`~repro.store.columns.METRIC_COLUMNS`, including the certified
    lower bound, computed here -- once per problem structure, thanks to
    the certificate cache -- rather than on every future scan), so the
    packed store can fill its columnar sidecar and the analysis layer can
    skip decoding the payload entirely.
    """
    from repro import __version__
    from repro.solvers.bounds import scenario_lower_bound
    from repro.store.columns import METRIC_COLUMNS, analysis_row

    row = analysis_row(
        scenario.digest,
        scenario.soc_name,
        scenario.solver,
        scenario.objective,
        result,
        scenario_lower_bound(scenario),
    )
    return {
        "format": STORE_FORMAT,
        "package_version": __version__,
        "key": scenario.digest,
        "created_at": time.time(),
        "scenario": {
            "soc": scenario.soc_name,
            "solver": scenario.solver,
            "objective": scenario.objective,
            "description": scenario.describe(),
        },
        "result": encode_result(result),
        "analysis": dict(zip(METRIC_COLUMNS, row[-len(METRIC_COLUMNS):])),
    }


def record_lower_bound(record: object) -> tuple[bool, float | None]:
    """The persisted lower bound of a record dict, as ``(present, value)``.

    ``present`` is ``True`` only when the record's ``analysis`` block
    carries a well-typed ``lower_bound`` entry (``None`` counts: it means
    "no certificate exists for this family", which is worth persisting).
    Readers fall back to recomputing the certificate when it is absent --
    the pre-sidecar behaviour.
    """
    if not isinstance(record, dict):
        return False, None
    block = record.get("analysis")
    if not isinstance(block, dict) or "lower_bound" not in block:
        return False, None
    bound = block["lower_bound"]
    if bound is None:
        return True, None
    if isinstance(bound, (int, float)) and not isinstance(bound, bool):
        return True, float(bound)
    return False, None


def decode_record(record: object, expected_key: str | None = None) -> "TwoStepResult":
    """Validate a parsed record dict and rebuild its result payload.

    Shared read-path validation of every store reader: the record must be
    a dict carrying the current :data:`STORE_FORMAT`, its recorded ``key``
    must match ``expected_key`` (when given), and its payload must decode
    into a :class:`~repro.optimize.result.TwoStepResult`.

    Raises
    ------
    StoreError
        On any violation; store readers treat it as a corrupt-record miss.
    """
    from repro.optimize.result import TwoStepResult

    if not isinstance(record, dict):
        raise StoreError("record is not a JSON object")
    if record.get("format") != STORE_FORMAT:
        raise StoreError(f"unsupported store format {record.get('format')!r}")
    if expected_key is not None and record.get("key") != expected_key:
        raise StoreError("record key does not match the scenario digest")
    if "result" not in record:
        raise StoreError("record has no result payload")
    result = decode_result(record["result"])
    if not isinstance(result, TwoStepResult):
        raise StoreError(
            f"record payload is a {type(result).__name__}, not a TwoStepResult"
        )
    return result


def entry_from_record(record: object, path: Path, size_bytes: int) -> StoreEntry:
    """Build the :class:`StoreEntry` metadata row of a parsed record dict.

    Raises :class:`StoreError` when the record is not a current-format
    record dict with a key; metadata fields degrade to empty defaults.
    """
    if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
        raise StoreError("not a current-format record")
    if "key" not in record:
        raise StoreError("record has no key")
    scenario = record.get("scenario") or {}
    has_lower_bound, lower_bound = record_lower_bound(record)
    return StoreEntry(
        key=str(record["key"]),
        path=path,
        soc_name=str(scenario.get("soc", "")),
        solver=str(scenario.get("solver", "")),
        package_version=str(record.get("package_version", "")),
        size_bytes=size_bytes,
        created_at=float(record.get("created_at", 0.0)),
        objective=str(scenario.get("objective", DEFAULT_OBJECTIVE)),
        lower_bound=lower_bound,
        has_lower_bound=has_lower_bound,
    )


def record_key(record: object) -> str:
    """The safe record key of a record dict destined for storage.

    Raises
    ------
    StoreError
        When the record carries no key, or the key could escape the store
        (path separators, dots) -- raw ingestion (the campaign service, the
        migration tool) must never accept a key that could name a file
        outside the store.
    """
    if not isinstance(record, dict):
        raise StoreError("record is not a JSON object")
    key = record.get("key")
    if not isinstance(key, str) or not key:
        raise StoreError("record has no key")
    if not all(ch.isalnum() or ch in "-_" for ch in key):
        raise StoreError(f"record key {key!r} is not a plain token")
    return key


@dataclass(frozen=True)
class StoreEntry:
    """One record found by :meth:`PackedResultStore.scan
    <repro.store.packed.PackedResultStore.scan>`.

    Attributes
    ----------
    key:
        The scenario's full canonical digest.
    path:
        The segment file holding the record.
    soc_name, solver, objective:
        Scenario metadata recorded at write time.
        ``objective`` falls back to the default objective name for records
        written before the objective axis existed.
    package_version:
        ``repro.__version__`` of the writer.
    size_bytes:
        Length of the record's segment line.
    created_at:
        POSIX timestamp recorded at write time.
    lower_bound, has_lower_bound:
        The certified objective bound persisted in the record's
        ``analysis`` block at write time.  ``has_lower_bound`` separates
        "persisted as None" (no certificate exists for the family) from
        "written before bounds were persisted" (readers recompute).
    """

    key: str
    path: Path
    soc_name: str
    solver: str
    package_version: str
    size_bytes: int
    created_at: float
    objective: str = DEFAULT_OBJECTIVE
    lower_bound: float | None = None
    has_lower_bound: bool = False


@dataclass(frozen=True)
class StoreInfo:
    """Session statistics of one result-store instance.

    ``hits``/``misses`` count ``get`` outcomes; ``corrupt`` counts reads
    that found a record but could not use it (bad JSON, format or key
    mismatch, failed validation) -- each such read is also a miss.
    ``puts`` counts written records, ``size`` is the current number of
    records in the store.  ``backend`` names the on-disk layout
    (``"packed"``), ``format`` the record format version, and
    ``segments`` the number of segment files.
    """

    hits: int
    misses: int
    puts: int
    corrupt: int
    size: int
    backend: str
    format: int = STORE_FORMAT
    segments: int = 0
