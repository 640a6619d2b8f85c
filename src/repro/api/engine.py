"""Execution engine for scenarios: serial, cached and parallel-batch runs.

:class:`Engine` is the canonical way to execute
:class:`~repro.api.scenario.Scenario` objects:

* :meth:`Engine.run` executes one scenario (the one-scenario case of
  :meth:`Engine.run_batch`) and memoises the outcome in an in-process
  cache keyed on the scenario's canonical hash, so repeated runs of the
  same scenario (also via different call sites, e.g. two experiments
  sweeping over the same operating point) cost one optimisation;
* :meth:`Engine.run_iter` is the streaming form: it accepts any scenario
  iterable (typically a lazy :class:`~repro.api.grid.SweepGrid`), plans the
  cache misses into structure-sharing chunks (:class:`~repro.api.plan.
  SweepPlan`), fans the chunks out over a ``concurrent.futures`` process
  pool and *yields* results as they complete, flushing them to the
  persistent store in configurable batches (``flush_every``, flushed on
  exit and on exceptions too) -- so a killed campaign is resumable from
  the store;
* :meth:`Engine.run_batch` is the ordered wrapper over :meth:`run_iter`:
  it collects the stream and returns results in input order.  The
  two-step algorithm is deterministic, so batch results are bit-identical
  to serial ones regardless of worker count or completion order.

An engine can additionally be backed by a persistent
:class:`~repro.store.PackedResultStore` (``Engine(store=...)``): scenarios not in
the in-memory cache are looked up on disk before being computed, and every
computed result is written back, so equal scenarios are solved once *across
processes* -- repeated CLI invocations, CI runs and benchmark sessions.
Store hits are reported separately in :class:`CacheInfo`.

Results are returned as :class:`ScenarioResult` records that convert
directly into the flat structures of :mod:`repro.reporting.export` and the
:class:`~repro.reporting.series.Series` curves of the figure experiments.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.api.plan import AUTO_CHUNK, SweepPlan, normalize_chunk_size
from repro.api.scenario import Scenario, cached_digest
from repro.api.testcell import TestCell
from repro.core.exceptions import ConfigurationError, StoreError
from repro.optimize.result import Step1Result, TwoStepResult
from repro.reporting.export import result_to_records
from repro.reporting.series import Series
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.solvers.problem import make_problem
from repro.solvers.registry import DEFAULT_SOLVER, solve
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore
from repro.store.result_store import make_record

#: Default store-flush granularity of :meth:`Engine.run_iter`: every
#: completed record is flushed immediately, preserving the strongest
#: durability (a hard-killed campaign loses only in-flight work).  Raise
#: ``flush_every`` to batch store writes (one ``put_records`` call per
#: batch -- one index transaction on the packed backend); buffered records
#: are always flushed on stream exit and on exceptions, so ordinary
#: interruptions lose nothing either way.
DEFAULT_FLUSH_EVERY = 1


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one executed scenario.

    Wraps the :class:`~repro.optimize.result.TwoStepResult` together with
    the scenario that produced it, so downstream consumers (reports, series,
    exports) never have to re-thread run parameters alongside results.
    """

    scenario: Scenario
    result: TwoStepResult

    @property
    def soc_name(self) -> str:
        """Name of the SOC the scenario ran on."""
        return self.scenario.soc_name

    @property
    def step1(self) -> Step1Result:
        """The Step-1 design of the underlying two-step result."""
        return self.result.step1

    @property
    def optimal_sites(self) -> int:
        """The throughput-optimal site count."""
        return self.result.optimal_sites

    @property
    def optimal_throughput(self) -> float:
        """Throughput (devices/hour) at the optimal site count."""
        return self.result.optimal_throughput

    def to_record(self) -> dict[str, Any]:
        """Flat record for :mod:`repro.reporting.export` (JSON/CSV).

        On top of the result fields the record carries the scenario's
        identity axes -- its short key, the solver backend and the
        registered objective -- so downstream analysis
        (:mod:`repro.analysis`) can group and compare without re-deriving
        scenario metadata.
        """
        record = result_to_records(self.result)
        record["scenario_key"] = self.scenario.key
        record["solver"] = self.scenario.solver
        record["objective_name"] = self.scenario.objective
        bound = self.lower_bound
        if bound is not None:
            record["lower_bound"] = bound
        return record

    @property
    def lower_bound(self) -> float | None:
        """Certified bound on the scenario's optimal objective value.

        Delegates to the certificate layer (:mod:`repro.solvers.bounds`):
        a literal lower bound for minimised objectives, the symmetric
        certified cap for maximised ones.  ``None`` when no certificate
        exists (e.g. an unregistered objective name in a hand-built
        scenario).
        """
        from repro.solvers.bounds import scenario_lower_bound

        return scenario_lower_bound(self.scenario)

    def describe(self) -> str:
        """One-line summary used by reports and logs."""
        return f"{self.scenario.describe()} -> {self.result.describe().splitlines()[0]}"


def _execute(scenario: Scenario) -> TwoStepResult:
    """Run one scenario's optimisation (top-level so process pools can pickle it)."""
    problem = make_problem(
        scenario.resolve(),
        scenario.test_cell.ate,
        scenario.test_cell.probe_station,
        scenario.config,
        scenario.objective,
        scenario.solver_options,
    )
    return solve(scenario.solver, problem).result


def _execute_chunk(
    scenarios: Sequence[Scenario],
) -> "tuple[list[TwoStepResult], Exception | None]":
    """Run one plan chunk in a single pool task (top-level so it pickles).

    One pickle round-trip ships the whole chunk (structure-sharing
    scenarios pickle their common SOC/config objects once) and one ships
    the whole result list back -- the per-scenario IPC amortisation the
    :class:`~repro.api.plan.SweepPlan` exists for.  A failing scenario
    stops the chunk, but the results computed before it are *returned*,
    not lost: the driver persists them, then re-raises the error with its
    original class -- so exceptions propagate exactly as in serial
    execution while interrupted chunks stay resumable at scenario
    granularity.
    """
    results: list[TwoStepResult] = []
    for scenario in scenarios:
        try:
            results.append(_execute(scenario))
        except Exception as error:  # noqa: BLE001 - re-raised driver-side
            return results, error
    return results, None


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of an engine's scenario cache.

    ``hits`` counts in-memory cache hits, ``store_hits`` counts scenarios
    served from the engine's persistent :class:`~repro.store.PackedResultStore`
    tier, and ``misses`` counts scenarios that had to be computed.
    """

    hits: int
    misses: int
    size: int
    evictions: int = 0
    max_entries: int | None = None
    store_hits: int = 0


class Engine:
    """Runs scenarios with in-process memoisation and parallel batches.

    Parameters
    ----------
    cache:
        When ``True`` (default), results are memoised on the scenario's
        canonical hash; re-running an equal scenario is a cache hit.
    workers:
        Default worker count for :meth:`run_batch`.  ``None`` or ``1`` mean
        serial execution; batches can override per call.
    max_entries:
        Upper bound on memoised results.  ``None`` (default) keeps every
        result; with a bound the cache evicts least-recently-used entries,
        so unbounded sweeps cannot grow the engine without limit.  Evictions
        are reported in :meth:`cache_info`.
    store:
        Optional persistent tier: a :class:`~repro.store.PackedResultStore`
        or a directory path one is opened at (see
        :func:`repro.store.open_store`).  Scenarios missing from the
        in-memory cache are looked up here before being computed, and
        computed results are written back, so results are shared across
        processes and sessions.  ``None`` (default) keeps the engine fully
        in-process.
    """

    def __init__(
        self,
        cache: bool = True,
        workers: int | None = None,
        max_entries: int | None = None,
        store: "PackedResultStore | str | Path | None" = None,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ConfigurationError(f"worker count must be positive, got {workers}")
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError(f"max_entries must be positive, got {max_entries}")
        if store is not None:
            store = open_store(store)
        self._cache_enabled = cache
        self._workers = workers
        self._max_entries = max_entries
        self._result_store = store
        self._cache: OrderedDict[tuple, ScenarioResult] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._store_hits = 0

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    @property
    def store(self) -> "PackedResultStore | None":
        """The persistent store tier, or ``None`` for a memory-only engine."""
        return self._result_store

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction statistics of the scenario cache."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                size=len(self._cache),
                evictions=self._evictions,
                max_entries=self._max_entries,
                store_hits=self._store_hits,
            )

    def clear_cache(self) -> None:
        """Drop all in-memory memoised results (statistics are reset too).

        The persistent store tier is *not* touched; evict through
        :meth:`PackedResultStore.evict <repro.store.PackedResultStore.evict>`
        when the on-disk records should go too.
        """
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._store_hits = 0

    def _lookup(self, key: tuple) -> ScenarioResult | None:
        if not self._cache_enabled:
            return None
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(key)
            return cached

    def _lookup_store(self, key: tuple, scenario: Scenario) -> ScenarioResult | None:
        """Second-tier lookup: rebuild a result from the persistent store."""
        if self._result_store is None:
            return None
        result = self._result_store.get(scenario)
        if result is None:
            return None
        record = ScenarioResult(scenario=scenario, result=result)
        with self._lock:
            self._store_hits += 1
            self._remember(key, record)
        return record

    def _remember(self, key: tuple, result: ScenarioResult) -> None:
        """Insert into the in-memory tier (caller holds the lock)."""
        if not self._cache_enabled:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        if self._max_entries is not None:
            while len(self._cache) > self._max_entries:
                self._cache.popitem(last=False)
                self._evictions += 1

    @staticmethod
    def _deliver(scenario: Scenario, cached: ScenarioResult) -> ScenarioResult:
        """Return ``cached`` for ``scenario``, keeping the request's own fields.

        Canonically-equal scenarios may still differ in cosmetic fields (ATE
        or probe-station labels, pricing).  The cached record is returned
        as-is only when the raw fields match; otherwise the shared result is
        rebound to the requested scenario, so callers never see another
        run's labels on ``result.scenario``.
        """
        ours = (
            scenario.soc,
            scenario.test_cell,
            scenario.config,
            scenario.solver,
            scenario.objective,
            scenario.solver_options,
        )
        theirs = (
            cached.scenario.soc,
            cached.scenario.test_cell,
            cached.scenario.config,
            cached.scenario.solver,
            cached.scenario.objective,
            cached.scenario.solver_options,
        )
        if ours == theirs:
            return cached
        return ScenarioResult(scenario=scenario, result=cached.result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> ScenarioResult:
        """Execute one scenario (a repeated run of an equal scenario is a cache hit).

        The one-scenario case of :meth:`run_batch`: lookup order is the
        in-memory cache, then the persistent store tier (when configured),
        then compute -- recording the result in both tiers.
        """
        return self.run_batch((scenario,))[0]

    def run_iter(
        self,
        scenarios: "Iterable[Scenario]",
        workers: int | None = None,
        chunk_size: "int | str" = AUTO_CHUNK,
        flush_every: int | None = None,
    ) -> Iterator[ScenarioResult]:
        """Execute a scenario stream, yielding results as they complete.

        The input may be any scenario iterable -- a list, a lazy
        :class:`~repro.api.grid.SweepGrid` or one of its shards.  The
        stream is processed in two phases:

        1. **Dedup / warm tier scan** -- every scenario is checked against
           the in-memory cache, then against the persistent store with
           *one* bulk ``missing_keys`` presence query for the whole
           campaign; hits are yielded immediately (in input order), equal
           scenarios are collapsed onto one computation.
        2. **Fan-out** -- the remaining misses are planned into
           structure-sharing chunks (:class:`~repro.api.plan.SweepPlan`)
           of ``chunk_size`` scenarios (``"auto"``: sized from the miss
           count and worker count), submitted chunk-per-task to a process
           pool of ``workers`` processes (``None`` = engine default,
           ``1`` = serial in-process) and yielded *in completion order*,
           not submission order.  Chunking only groups -- results are
           bit-identical to unchunked execution.

        Each computed result enters the in-memory tier the moment it
        completes; store writes are flushed in batches of ``flush_every``
        records (default :data:`DEFAULT_FLUSH_EVERY`: every record
        immediately) via ``put_records``, and the buffer is always flushed
        when the stream ends, is abandoned, or raises -- so an interrupted
        campaign loses only in-flight work: a rerun against the same store
        serves every finished scenario from phase 1 and recomputes nothing
        twice.  Exceptions raised by the optimisation tasks propagate
        unchanged, whatever their type; results a failing chunk completed
        before its error are persisted first.
        """
        pairs = ((scenario.canonical_key(), scenario) for scenario in scenarios)
        for _key, record in self._stream(pairs, workers, chunk_size, flush_every):
            yield record

    def _stream(
        self,
        pairs: "Iterable[tuple[tuple, Scenario]]",
        workers: int | None,
        chunk_size: "int | str" = AUTO_CHUNK,
        flush_every: int | None = None,
    ) -> Iterator[tuple[tuple, ScenarioResult]]:
        """Shared streaming core: ``(key, scenario)`` in, ``(key, result)`` out.

        Both :meth:`run_iter` and :meth:`run_batch` run through here with
        their canonical keys computed exactly once per scenario.
        """
        if workers is not None and workers <= 0:
            raise ConfigurationError(f"worker count must be positive, got {workers}")
        effective_workers = workers if workers is not None else (self._workers or 1)
        chunk_size = normalize_chunk_size(chunk_size)
        if flush_every is None:
            flush_every = DEFAULT_FLUSH_EVERY
        if flush_every <= 0:
            raise ConfigurationError(
                f"flush_every must be a positive record count, got {flush_every}"
            )

        items = list(pairs)
        store_present = self._probe_store(items)

        # Phase 1: resolve warm tiers up front, deduplicating the misses.
        # Duplicates of pending keys are tracked aside, and duplicates of
        # already-yielded keys are re-fetched through `_recall`, so neither
        # counts extra cache hits or extra computations.  Only keys are
        # retained for the yielded set -- not results -- so a bounded
        # engine stays bounded through arbitrarily long streams.
        pending: dict[tuple, Scenario] = {}
        duplicates: dict[tuple, list[Scenario]] = {}
        yielded: set[tuple] = set()
        for key, scenario in items:
            if key in pending:
                duplicates.setdefault(key, []).append(scenario)
                continue
            if key in yielded:
                yield key, self._deliver(scenario, self._recall(key, scenario))
                continue
            cached = self._lookup(key)
            if cached is None and cached_digest(scenario, key) in store_present:
                cached = self._lookup_store(key, scenario)
            if cached is not None:
                yielded.add(key)
                yield key, self._deliver(scenario, cached)
            else:
                pending[key] = scenario

        # Phase 2: compute the misses chunk by chunk, buffering store
        # writes; the finally clause makes the flush unconditional --
        # normal exhaustion, abandonment (GeneratorExit) and task
        # exceptions all leave every completed record persisted.
        todo = list(pending.items())
        worker_count = min(effective_workers, len(todo))
        buffer: list[dict] = []
        try:
            if worker_count > 1:
                plan = SweepPlan.build(
                    [scenario for _, scenario in todo],
                    chunk_size=chunk_size,
                    workers=worker_count,
                    keys=[key for key, _ in todo],
                )
                outcomes: Iterator = self._map_chunks(plan, worker_count)
            else:
                # Serial in-process execution: chunking would only change
                # the order, so the input order is simply kept.
                outcomes = (
                    ((index,), [_execute(scenario)], None)
                    for index, (_, scenario) in enumerate(todo)
                )
            for indices, results, error in outcomes:
                for position, outcome in zip(indices, results):
                    key, scenario = todo[position]
                    record = ScenarioResult(scenario=scenario, result=outcome)
                    self._record_completed(key, record, buffer)
                    if len(buffer) >= flush_every:
                        self._flush(buffer)
                    yield key, record
                    for duplicate in duplicates.get(key, ()):
                        yield key, self._deliver(duplicate, record)
                if error is not None:
                    raise error
        finally:
            self._flush(buffer)

    def _probe_store(
        self, items: "Sequence[tuple[tuple, Scenario]]"
    ) -> set[str]:
        """One bulk store presence query for a whole stream's scenarios.

        Returns the digests the store holds, replacing a per-scenario
        ``get`` probe with a single ``missing_keys`` call (a batched SQL
        lookup in the store's index).  The in-memory tier is *peeked*
        (uncounted) here; the counted lookups happen in stream order in
        phase 1, so hit statistics are identical to the per-scenario path.
        """
        if self._result_store is None or not items:
            return set()
        digests: list[str] = []
        seen: set[tuple] = set()
        for key, scenario in items:
            if key in seen:
                continue
            seen.add(key)
            if self._cache_enabled:
                with self._lock:
                    if key in self._cache:
                        continue
            digests.append(cached_digest(scenario, key))
        if not digests:
            return set()
        missing = set(self._result_store.missing_keys(digests))
        return {digest for digest in digests if digest not in missing}

    def _record_completed(
        self, key: tuple, record: ScenarioResult, buffer: list[dict]
    ) -> None:
        """Count a computed miss, memoise it, and queue its store write."""
        with self._lock:
            self._misses += 1
            self._remember(key, record)
        if self._result_store is not None:
            buffer.append(make_record(record.scenario, record.result))

    def _flush(self, buffer: list[dict]) -> None:
        """Write buffered records to the store in one ``put_records`` batch.

        The persistent write is best-effort: the store is a cache, so a
        failing disk (full, permissions revoked mid-run: ``OSError``) or an
        index that cannot commit (``StoreError``) must not destroy computed
        results -- the stream completes on the in-memory tier alone.
        Misconfigured store *paths* still fail fast, at
        :class:`~repro.store.PackedResultStore` construction.
        """
        if not buffer or self._result_store is None:
            return
        records, buffer[:] = list(buffer), []
        try:
            self._result_store.put_records(records)
        except (OSError, StoreError):
            pass

    def _recall(self, key: tuple, scenario: Scenario) -> ScenarioResult:
        """Re-fetch a result already served earlier in the same stream.

        Used for duplicate inputs whose first occurrence was a warm hit.
        Statistics are deliberately not re-counted (batch semantics: equal
        scenarios in one call are one lookup).  The compute fallback only
        triggers when a bounded cache evicted the record mid-stream and no
        store holds it; determinism makes the recomputed result identical.
        """
        if self._cache_enabled:
            with self._lock:
                cached = self._cache.get(key)
            if cached is not None:
                return cached
        if self._result_store is not None:
            result = self._result_store.get(scenario)
            if result is not None:
                return ScenarioResult(scenario=scenario, result=result)
        return ScenarioResult(scenario=scenario, result=_execute(scenario))

    def run_batch(
        self,
        scenarios: Sequence[Scenario],
        workers: int | None = None,
        chunk_size: "int | str" = AUTO_CHUNK,
        flush_every: int | None = None,
    ) -> tuple[ScenarioResult, ...]:
        """Execute many scenarios, returning results in the input order.

        A re-ordering wrapper over the :meth:`run_iter` stream: it drains
        completely, then delivers results in input order.  Cache misses
        are deduplicated (equal scenarios run once), planned into
        structure-sharing chunks of ``chunk_size`` and fanned out over a
        process pool of ``workers`` processes; ``workers=None`` falls back
        to the engine default, and ``1`` runs serially in process.
        Computed results are written back to the store from the driving
        process only (in ``flush_every``-sized batches), so pool workers
        never contend for record files.  Results are bit-identical to
        serial (``workers=1``) execution, with or without a store,
        whatever the chunk size.
        """
        scenarios = list(scenarios)
        keys = [scenario.canonical_key() for scenario in scenarios]
        resolved: dict[tuple, ScenarioResult] = {}
        for key, record in self._stream(
            zip(keys, scenarios), workers, chunk_size, flush_every
        ):
            resolved[key] = record
        return tuple(
            self._deliver(scenario, resolved[key])
            for scenario, key in zip(scenarios, keys)
        )

    @staticmethod
    def _map_chunks(
        plan: SweepPlan,
        workers: int,
    ) -> "Iterator[tuple[tuple[int, ...], list[TwoStepResult], Exception | None]]":
        """Fan a plan's chunks out over a process pool, completion order.

        A generator of ``(indices, results, error)`` triples -- one per
        :class:`~repro.api.plan.PlanChunk`, emitted as the pool finishes
        them, which is what lets :meth:`run_iter` stream.  Falls back to
        serial execution at *chunk* granularity on sandboxed platforms
        where multiprocessing primitives are unavailable (pool
        construction fails) or where the pool dies mid-campaign (workers
        killed by resource limits -- ``BrokenExecutor``); the campaign
        then still completes, just without the speed-up, recomputing only
        the chunks the pool had not finished.  Exceptions raised by the
        optimisation *tasks* themselves -- whatever their type -- travel
        in the ``error`` slot with their original class and are re-raised
        by the stream, exactly as in serial execution.
        """
        chunks = plan.chunks
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, PermissionError, ImportError):
            for chunk in chunks:
                results, error = _execute_chunk(chunk.scenarios)
                yield chunk.indices, results, error
            return
        completed: set[int] = set()
        broken = False
        try:
            try:
                futures = {
                    pool.submit(_execute_chunk, chunk.scenarios): position
                    for position, chunk in enumerate(chunks)
                }
                for future in as_completed(futures):
                    position = futures[future]
                    results, error = future.result()
                    completed.add(position)
                    yield chunks[position].indices, results, error
            except BrokenExecutor:
                broken = True
        finally:
            # On normal exhaustion nothing is pending and this returns
            # immediately; on abandonment (consumer stopped early) or a
            # broken pool it prevents queued tasks from being started.
            pool.shutdown(wait=False, cancel_futures=True)
        if broken:
            for position, chunk in enumerate(chunks):
                if position not in completed:
                    results, error = _execute_chunk(chunk.scenarios)
                    yield chunk.indices, results, error


def optimize_scenario(
    engine: "Engine | None",
    soc,
    ate,
    probe_station,
    config,
    solver: str = DEFAULT_SOLVER,
    objective: str = DEFAULT_OBJECTIVE,
    solver_options: tuple = (),
) -> TwoStepResult:
    """Run one (soc, ate, probe, config) operating point through ``engine``.

    This is the bridge the experiment modules use: with an engine the run is
    memoised (shared operating points across experiments are optimised
    once); without one it degrades to a plain direct call.  ``solver``
    selects the registered backend that executes the point, ``objective``
    the registered objective it optimises, and ``solver_options`` tunes
    backend knobs (non-default options change the scenario's key).
    """
    scenario = Scenario(
        soc=soc,
        test_cell=TestCell(ate=ate, probe_station=probe_station),
        config=config,
        solver=solver,
        objective=objective,
        solver_options=solver_options,
    )
    if engine is None:
        return _execute(scenario)
    return engine.run(scenario).result


def batch_throughput_series(
    results: Sequence[ScenarioResult],
    x_axis: Callable[[ScenarioResult], float],
    name: str,
    x_label: str,
    y_label: str = "devices/hour",
) -> Series:
    """Build a figure :class:`Series` from batch results.

    ``x_axis`` extracts the x coordinate from each result (e.g.
    ``lambda r: r.scenario.test_cell.ate.channels``); the y coordinate is
    the optimal throughput.
    """
    if not results:
        raise ConfigurationError("cannot build a series from an empty batch")
    points = tuple((float(x_axis(result)), result.optimal_throughput) for result in results)
    return Series(name=name, x_label=x_label, y_label=y_label, points=points)
