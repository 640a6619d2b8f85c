"""Flat campaign records: one row per solved scenario, whatever the source.

The campaign layer leaves results behind in two persistent shapes: the
content-addressed :class:`~repro.store.PackedResultStore` directories that
``--store`` runs fill, and the JSONL files ``repro sweep --output`` streams.
Analysis needs one columnar view over both, so this module normalises
either source (plus in-memory :class:`~repro.api.engine.ScenarioResult`
batches) into :class:`AnalysisRecord` rows -- plain frozen values carrying
the scenario's identity axes (SOC, solver, objective, operating point) and
its optimal-point metrics.

Loading is deterministic: records are sorted by their identity axes and
deduplicated by scenario key (first occurrence wins), so the same inputs
always produce the same table no matter the completion or file order they
were written in.

Store scans prefer the **columnar sidecars** the store layer maintains
(:mod:`repro.store.columns`): segments are scanned sidecar-first --
optionally in parallel, one segment per process-pool task -- and only the
rows a sidecar cannot answer fall back to full-record decode, so the
output is identical either way, row for row and bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.exceptions import ConfigurationError
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.optimize.channels import total_channels_used
from repro.store import columns as columns_module
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import ScenarioResult
    from repro.optimize.result import TwoStepResult

#: Callback type of the optional scan progress reporter: called with one
#: human-readable line per unit of progress (segment scanned, decode batch).
ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class AnalysisRecord:
    """One solved scenario, flattened for analysis.

    Attributes
    ----------
    key:
        The scenario's content key, normalised to the short exported form
        (the first 16 hex chars of the canonical digest) whatever the
        source, so the same scenario loaded from a store and from a sweep
        JSONL deduplicates onto one row.
    soc, solver, objective:
        Identity axes of the scenario.
    channels, depth, broadcast:
        The operating point (ATE channels, vector-memory depth, broadcast
        switch).
    optimal_sites, channels_per_site, test_time_cycles:
        The optimal point's multi-site configuration.
    value:
        The objective value at the optimal point (devices/hour for the
        default objective; whatever the registered objective measures
        otherwise).
    lower_bound:
        The certified bound on the achievable objective value
        (:mod:`repro.solvers.bounds`), or ``None`` when the source carries
        no certificate (e.g. a sweep JSONL written before bounds existed).
    """

    key: str
    soc: str
    solver: str
    objective: str
    channels: int
    depth: int
    broadcast: bool
    optimal_sites: int
    channels_per_site: int
    test_time_cycles: int
    value: float
    lower_bound: float | None = None

    @property
    def gap(self) -> float | None:
        """Relative optimality gap against the certificate (0.0 = proven optimal)."""
        from repro.solvers.bounds import relative_gap

        return relative_gap(self.value, self.lower_bound, self.objective)

    @property
    def employed_channels(self) -> int:
        """ATE channels the optimal configuration actually consumes.

        Broadcast-aware: under broadcast the sites share one set of
        stimulus channels, so the count is ``k/2 + sites * k/2`` rather
        than ``sites * k`` -- the same accounting the
        ``cost_per_good_die`` and ``channel_budget`` objectives use.
        """
        return total_channels_used(
            self.channels_per_site, self.optimal_sites, self.broadcast
        )

    def sort_key(self) -> tuple:
        """Deterministic ordering: identity axes first, then the key."""
        return (
            self.soc,
            self.solver,
            self.objective,
            self.channels,
            self.depth,
            self.broadcast,
            self.key,
        )


def _record_from_result(outcome: "ScenarioResult") -> AnalysisRecord:
    scenario = outcome.scenario
    result = outcome.result
    return AnalysisRecord(
        key=scenario.key,
        soc=scenario.soc_name,
        solver=scenario.solver,
        objective=scenario.objective,
        channels=scenario.test_cell.ate.channels,
        depth=scenario.test_cell.ate.depth,
        broadcast=scenario.config.broadcast,
        optimal_sites=result.optimal_sites,
        channels_per_site=result.best.channels_per_site,
        test_time_cycles=result.best.test_time_cycles,
        value=result.optimal_throughput,
        lower_bound=outcome.lower_bound,
    )


def records_from_results(results: Iterable["ScenarioResult"]) -> tuple[AnalysisRecord, ...]:
    """Normalise in-memory engine results into analysis records."""
    return _finalize(_record_from_result(outcome) for outcome in results)


def records_from_store(
    store: "PackedResultStore | str | Path",
    *,
    columns: bool = True,
    workers: int | None = None,
    progress: "ProgressFn | None" = None,
) -> tuple[AnalysisRecord, ...]:
    """Scan a persistent result store into analysis records.

    Accepts a store object or the path of one (see
    :func:`repro.store.open_store`).  Corrupt records are skipped, exactly
    as the store's own readers do.

    With ``columns`` (the default) the scan reads the store's columnar
    sidecars where they are valid and decodes record payloads only where
    they are not, producing bit-identical records either way; ``workers``
    scans segments in a process pool (one task per segment, merged
    deterministically).  ``columns=False`` runs the full-decode reference
    scan instead.  ``progress`` receives one stderr-style line per scanned
    segment / decode batch.
    """
    store = open_store(store)
    if columns:
        return _finalize(_column_rows(store, workers=workers, progress=progress))
    return _finalize(_decoded_rows(store, progress=progress))


def _decoded_rows(
    store: PackedResultStore, progress: "ProgressFn | None" = None
) -> Iterable[AnalysisRecord]:
    """Full-record decode of a store (the reference scan the sidecars must match)."""
    from repro.solvers.bounds import certificate

    rows = []
    for entry, result in store.records():
        step1 = result.step1
        if entry.has_lower_bound:
            bound = entry.lower_bound
        else:
            cert = certificate(
                step1.architecture.soc, step1.ate, step1.probe_station,
                step1.config, entry.objective,
            )
            bound = None if cert is None else cert.value
        rows.append(
            AnalysisRecord(
                key=entry.key[:16],
                soc=entry.soc_name,
                solver=entry.solver,
                objective=entry.objective,
                channels=result.step1.ate.channels,
                depth=result.step1.ate.depth,
                broadcast=result.step1.config.broadcast,
                optimal_sites=result.optimal_sites,
                channels_per_site=result.best.channels_per_site,
                test_time_cycles=result.best.test_time_cycles,
                value=result.optimal_throughput,
                lower_bound=bound,
            )
        )
        if progress is not None and len(rows) % 1000 == 0:
            progress(f"[{len(rows)}] record(s) decoded")
    if progress is not None:
        progress(f"decoded {len(rows)} record(s) from {store.root}")
    return rows


def _column_rows(
    store: PackedResultStore,
    workers: int | None = None,
    progress: "ProgressFn | None" = None,
) -> Iterable[AnalysisRecord]:
    """Sidecar-first scan of a store, one segment at a time.

    The live ``(offset, length)`` work list comes from the store's index,
    so this reads exactly the record copies the full-decode path reads
    (superseded and evicted lines excluded).  Segments are scanned
    serially or across a process pool and always merged in sorted segment
    order, then by offset -- parallel and serial scans are
    indistinguishable byte for byte.
    """
    locations = store.record_locations()
    names = sorted(locations)
    scans: "list[columns_module.SegmentScan] | None" = None
    if workers is not None and workers > 1 and len(names) > 1:
        scans = _scan_parallel(store, names, locations, workers, progress)
    if scans is None:
        scans = []
        for number, name in enumerate(names, start=1):
            scan = columns_module.scan_segment(
                store._segment_path(name), locations[name]
            )
            scans.append(scan)
            if progress is not None:
                progress(_segment_progress(number, len(names), scan))
    rows = []
    for scan in scans:
        for _offset, values in scan.rows:
            rows.append(AnalysisRecord(*values))
    return rows


def _scan_parallel(
    store: PackedResultStore,
    names: "list[str]",
    locations: "dict[str, list[tuple[int, int]]]",
    workers: int,
    progress: "ProgressFn | None",
) -> "list[columns_module.SegmentScan] | None":
    """Fan segment scans out to a process pool; ``None`` falls back to serial.

    Pool construction or task failure (sandboxed platforms without working
    ``fork``/semaphores, broken pools) degrades to the serial scan rather
    than failing the analysis.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(names))) as pool:
            futures = {
                pool.submit(
                    columns_module.scan_segment,
                    str(store._segment_path(name)),
                    locations[name],
                ): name
                for name in names
            }
            done = 0
            pending = set(futures)
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    done += 1
                    if progress is not None:
                        progress(_segment_progress(done, len(names), future.result()))
            by_name = {futures[future]: future.result() for future in futures}
            return [by_name[name] for name in names]
    except (OSError, ImportError, RuntimeError, ValueError):
        return None


def _segment_progress(done: int, total: int, scan: "columns_module.SegmentScan") -> str:
    source = "columns" if scan.used_sidecar else "decoded"
    line = f"[{done}/{total}] {scan.segment}: {len(scan.rows)} row(s) [{source}]"
    if scan.corrupt:
        line += f" ({scan.corrupt} corrupt skipped)"
    return line


def _record_from_sweep_row(row: dict[str, Any]) -> AnalysisRecord:
    optimal = row["optimal"]
    bound = row.get("lower_bound")
    return AnalysisRecord(
        key=str(row["scenario_key"]),
        soc=str(row["soc"]),
        solver=str(row.get("solver", "")),
        objective=str(row.get("objective_name", DEFAULT_OBJECTIVE)),
        channels=int(row["ate_channels"]),
        depth=int(row["ate_depth"]),
        broadcast=bool(row["broadcast"]),
        optimal_sites=int(optimal["sites"]),
        channels_per_site=int(optimal["channels_per_site"]),
        test_time_cycles=int(optimal["test_time_cycles"]),
        value=float(optimal["throughput_per_hour"]),
        lower_bound=None if bound is None else float(bound),
    )


def records_from_jsonl(
    path: str | Path, *, progress: "ProgressFn | None" = None
) -> tuple[AnalysisRecord, ...]:
    """Parse a ``repro sweep --output`` JSONL file into analysis records.

    The file is streamed line by line (never read whole), so a multi-GB
    sweep output analyzes in memory bounded by its record count, not its
    payload size.

    Raises
    ------
    ConfigurationError
        When a line is not valid JSON or lacks the sweep-record fields --
        unlike store corruption, a malformed input *file* is a user error
        worth surfacing.
    """
    path = Path(path)
    rows = []
    try:
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append(_record_from_sweep_row(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                    raise ConfigurationError(
                        f"{path}:{number} is not a sweep record: {error}"
                    ) from error
                if progress is not None and len(rows) % 10000 == 0:
                    progress(f"[{len(rows)}] sweep row(s) read from {path}")
    except OSError as error:
        raise ConfigurationError(f"cannot read sweep JSONL {path}: {error}") from error
    if progress is not None:
        progress(f"read {len(rows)} sweep row(s) from {path}")
    return _finalize(rows)


def load_records(
    store: "PackedResultStore | str | Path | None" = None,
    jsonl_paths: Sequence[str | Path] = (),
    *,
    columns: bool = True,
    workers: int | None = None,
    progress: "ProgressFn | None" = None,
) -> tuple[AnalysisRecord, ...]:
    """Load and merge records from a store and/or sweep JSONL files.

    ``columns``/``workers``/``progress`` thread through to
    :func:`records_from_store` (and ``progress`` to
    :func:`records_from_jsonl`).

    Raises
    ------
    ConfigurationError
        When no source is given, or a JSONL file is malformed.
    """
    if store is None and not jsonl_paths:
        raise ConfigurationError(
            "analysis needs at least one source: a --store directory or sweep JSONL files"
        )
    rows: list[AnalysisRecord] = []
    if store is not None:
        rows.extend(
            records_from_store(store, columns=columns, workers=workers, progress=progress)
        )
    for path in jsonl_paths:
        rows.extend(records_from_jsonl(path, progress=progress))
    return _finalize(rows)


def _finalize(rows: Iterable[AnalysisRecord]) -> tuple[AnalysisRecord, ...]:
    """Dedup by key (first occurrence wins) and sort deterministically."""
    seen: dict[str, AnalysisRecord] = {}
    for row in rows:
        seen.setdefault(row.key, row)
    return tuple(sorted(seen.values(), key=AnalysisRecord.sort_key))
