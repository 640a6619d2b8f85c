"""Benchmark runner: machine-readable timings for the perf trajectory.

:func:`run_bench` times the three workloads that matter for the project's
performance story and returns one JSON-ready report:

* **experiments** -- every registered experiment
  (:mod:`repro.experiments.registry`), each through its own
  :class:`~repro.api.engine.Engine`;
* **solvers** -- every registered solver backend
  (:mod:`repro.solvers.registry`) on the reference d695 operating point
  (256 channels x 64 K vectors); backends that cannot handle the workload
  (e.g. the exhaustive oracle on a 10-module SOC) are recorded as skipped,
  not as failures;
* **sweep** -- the d695 design-space sweep (channels x depths x broadcast),
  the workload the persistent store amortises across runs;
* **fanout** -- the cold synthetic sweep through the process pool twice at
  the same worker count, chunked (the :class:`~repro.api.plan.SweepPlan`
  default) versus unchunked (``chunk_size=1``), in scenarios/second --
  isolating what the execution planner buys in pickle/IPC amortisation
  and worker-side kernel-memo locality, digests checked identical;
* **campaign** -- the streaming multi-SOC campaign
  (:mod:`repro.bench.campaign`): a cold sweep over a synthetic SOC family
  versus the same sweep interrupted partway and resumed from its store,
  recording the resume speedup and digest equality;
* **analysis** -- loading :class:`~repro.analysis.records.AnalysisRecord`
  rows from a generated packed store twice: cold full-record decode
  versus the columnar ``.cols`` sidecar scan
  (:mod:`repro.store.columns`), in rows/second, with the rendered
  ``records_table`` digests checked identical.

Every section records wall-clock seconds plus the engine's
:class:`~repro.api.engine.CacheInfo`, and the sweep section additionally
records the delta of the process-wide evaluation-kernel memo
(:func:`repro.solvers.evaluate.cache_info`) and a SHA-256 digest over the
exact result values -- two runs that report the same digest produced
bit-identical results, which is how a warm-store rerun proves it traded
no correctness for its speedup.

:func:`write_report` emits the report as ``BENCH_<tag>.json``; CI uploads
these files as artifacts, so every PR leaves a perf data point behind.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

from repro.api.engine import Engine, ScenarioResult
from repro.api.plan import AUTO_CHUNK, SweepPlan
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.units import kilo_vectors
from repro.objectives.registry import DEFAULT_OBJECTIVE
from repro.experiments.registry import get_experiment, experiment_names
from repro.solvers import evaluate as evaluate_kernel
from repro.solvers.registry import solver_names
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore

#: Version of the report payload layout.
BENCH_FORMAT = 1

#: Registered experiments timed in ``--smoke`` mode (the fastest one).
SMOKE_EXPERIMENTS = ("economics",)

#: d695 sweep axes (depths in binary K vectors, the repo's convention):
#: full bench and smoke subset.
SWEEP_CHANNELS = (64, 128, 256, 512)
SWEEP_DEPTHS_K = (48, 64, 96, 128)
SMOKE_SWEEP_CHANNELS = (128, 256)
SMOKE_SWEEP_DEPTHS_K = (48, 64)

#: Synthetic cold-sweep axes (the batch kernel's showcase workload): a
#: deterministic synthetic SOC family swept over channels x depths (in
#: binary M vectors) x broadcast.  Full grid: 25 x 5 x 4 x 2 = 1000
#: scenarios; smoke grid: 2 x 2 x 2 x 2 = 16.
SYNTHETIC_SWEEP_SEED = 7000
SYNTHETIC_SWEEP_SOCS = 25
SYNTHETIC_SWEEP_MODULES = 10
SYNTHETIC_SWEEP_CHANNELS = (128, 192, 256, 320, 512)
SYNTHETIC_SWEEP_DEPTHS_M = (1.0, 2.0, 4.0, 8.0)
SMOKE_SYNTHETIC_SWEEP_SOCS = 2
SMOKE_SYNTHETIC_SWEEP_CHANNELS = (128, 256)
SMOKE_SYNTHETIC_SWEEP_DEPTHS_M = (1.0, 2.0)


def default_tag() -> str:
    """Default report tag: the package version (``v<x.y.z>``)."""
    from repro import __version__

    return f"v{__version__}"


def bench_sweep_grid(
    smoke: bool = False, objective: str = DEFAULT_OBJECTIVE
) -> list[Scenario]:
    """The d695 sweep scenarios the bench times (32 full, 4 in smoke mode).

    ``objective`` selects the registered objective the sweep optimises;
    the default keeps the scenarios (and their digests) exactly as before
    the objective axis existed.
    """
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    if smoke:
        return Scenario.sweep(
            "d695",
            cell,
            channels=SMOKE_SWEEP_CHANNELS,
            depths=[kilo_vectors(depth) for depth in SMOKE_SWEEP_DEPTHS_K],
            objectives=objective,
        )
    return Scenario.sweep(
        "d695",
        cell,
        channels=SWEEP_CHANNELS,
        depths=[kilo_vectors(depth) for depth in SWEEP_DEPTHS_K],
        broadcast=[False, True],
        objectives=objective,
    )


def results_digest(results: Sequence[ScenarioResult]) -> str:
    """SHA-256 digest over the exact values of a batch of results.

    Covers every evaluated site point (``repr`` of the float objective, so
    the digest only matches on bit-identical numbers) plus the optimum, in
    scenario order.  Used to prove warm (store-served) runs reproduce cold
    runs exactly.
    """
    digest = hashlib.sha256()
    for outcome in results:
        digest.update(outcome.scenario.key.encode("utf-8"))
        for point in outcome.result.points:
            digest.update(
                f"{point.sites},{point.channels_per_site},{point.throughput!r};".encode("utf-8")
            )
        digest.update(
            f"opt={outcome.optimal_sites},{outcome.optimal_throughput!r}\n".encode("utf-8")
        )
    return digest.hexdigest()


def sweep_digest(results: Sequence[ScenarioResult]) -> str:
    """Order-insensitive digest over a sweep's exact result values.

    Sorts by scenario digest before hashing, so two runs over the same
    grid that finished in different orders (streaming yields in
    completion order; shards interleave) still compare equal exactly when
    their results are bit-identical.  This is the digest `repro sweep`
    prints and the campaign benchmark compares.
    """
    return results_digest(sorted(results, key=lambda record: record.scenario.digest))


def clear_computation_caches() -> None:
    """Drop every process-wide computation cache (kernel, wrapper, bounds).

    Cold-path timings are only meaningful when earlier work in the same
    process cannot leak in through the evaluation kernel's memo, the
    wrapper test-time caches or the lower-bound certificate cache.  The
    bench's cold legs (and the store benchmark tests) call this before
    timing; persistent stores are untouched --
    store warmth is a property of the directory, not the process.
    The kernel's cumulative counters are kept -- dropping only the memo
    means the report's per-section counter deltas never go backwards.
    """
    from repro.solvers import bounds
    from repro.wrapper import combine

    evaluate_kernel.drop_memo()
    combine.module_test_time.cache_clear()
    combine.module_curve.cache_clear()
    bounds._certificate.cache_clear()


def _cache_record(engine: Engine) -> dict[str, Any]:
    return asdict(engine.cache_info())


def _kernel_delta(
    before: "evaluate_kernel.KernelCacheInfo",
    after: "evaluate_kernel.KernelCacheInfo",
) -> dict[str, Any]:
    """Delta of the process-wide evaluation-kernel counters over one section."""
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "batch_calls": after.batch_calls - before.batch_calls,
        "batch_points": after.batch_points - before.batch_points,
        "max_batch": after.max_batch,
    }


def _bench_experiments(
    names: Sequence[str], store: PackedResultStore | None
) -> list[dict[str, Any]]:
    """Time each registered experiment through its own (store-backed) engine."""
    rows: list[dict[str, Any]] = []
    for name in names:
        experiment = get_experiment(name)
        engine = Engine(store=store)
        kernel_before = evaluate_kernel.cache_info()
        started = time.perf_counter()
        experiment.run(engine)
        seconds = time.perf_counter() - started
        rows.append(
            {
                "name": name,
                "title": experiment.title,
                "seconds": seconds,
                "cache": _cache_record(engine),
                "evaluate_kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info()),
            }
        )
    return rows


#: Smoke-sized annealing knobs for the solver-timing row: a short schedule
#: that keeps the bench leg cheap while still exercising the full backend.
SA_BENCH_KNOBS = {"temperature": 0.5, "cooling": 0.7, "moves_per_temp": 10}


def _bench_solvers(store: PackedResultStore | None) -> list[dict[str, Any]]:
    """Time each registered solver backend on the reference d695 point."""
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    rows: list[dict[str, Any]] = []
    for name in solver_names():
        scenario = Scenario(soc="d695", test_cell=cell, solver=name)
        if name == "simulated_annealing":
            scenario = scenario.with_solver_options(**SA_BENCH_KNOBS)
        engine = Engine(store=store)
        kernel_before = evaluate_kernel.cache_info()
        started = time.perf_counter()
        try:
            outcome = engine.run(scenario)
        except ReproError as error:
            rows.append({"name": name, "skipped": str(error)})
            continue
        rows.append(
            {
                "name": name,
                "seconds": time.perf_counter() - started,
                "optimal_sites": outcome.optimal_sites,
                "optimal_throughput": outcome.optimal_throughput,
                "cache": _cache_record(engine),
                "evaluate_kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info()),
            }
        )
    return rows


def _bench_sweep(
    store: PackedResultStore | None,
    smoke: bool,
    workers: int | None,
    objective: str = DEFAULT_OBJECTIVE,
    chunk_size: "int | str" = AUTO_CHUNK,
    flush_every: int | None = None,
) -> dict[str, Any]:
    """Time the d695 design-space sweep (the store's showcase workload)."""
    grid = bench_sweep_grid(smoke, objective)
    kernel_before = evaluate_kernel.cache_info()
    engine = Engine(store=store, workers=workers)
    started = time.perf_counter()
    results = engine.run_batch(
        grid, workers=workers, chunk_size=chunk_size, flush_every=flush_every
    )
    seconds = time.perf_counter() - started
    return {
        "scenarios": len(grid),
        "objective": objective,
        "seconds": seconds,
        "cache": _cache_record(engine),
        "evaluate_kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info()),
        "digest": results_digest(results),
    }


def synthetic_sweep_grid(smoke: bool = False) -> list[Scenario]:
    """The cold synthetic sweep scenarios (1000 full, 16 in smoke mode)."""
    from repro.core.units import mega_vectors
    from repro.soc.catalog import synthetic_family

    cell = reference_test_cell()
    if smoke:
        socs = synthetic_family(
            SYNTHETIC_SWEEP_SEED, count=SMOKE_SYNTHETIC_SWEEP_SOCS,
            modules=SYNTHETIC_SWEEP_MODULES,
        )
        channels = SMOKE_SYNTHETIC_SWEEP_CHANNELS
        depths_m = SMOKE_SYNTHETIC_SWEEP_DEPTHS_M
    else:
        socs = synthetic_family(
            SYNTHETIC_SWEEP_SEED, count=SYNTHETIC_SWEEP_SOCS,
            modules=SYNTHETIC_SWEEP_MODULES,
        )
        channels = SYNTHETIC_SWEEP_CHANNELS
        depths_m = SYNTHETIC_SWEEP_DEPTHS_M
    return Scenario.sweep(
        socs,
        cell,
        channels=channels,
        depths=[mega_vectors(depth) for depth in depths_m],
        broadcast=[False, True],
    )


def _bench_synthetic_sweep(
    smoke: bool,
    workers: int | None,
    chunk_size: "int | str" = AUTO_CHUNK,
) -> dict[str, Any]:
    """Time the synthetic cold sweep (the batch kernel's showcase workload).

    Unlike the d695 sweep this section is always *cold*: the process-wide
    computation caches are dropped first and no store is attached, so the
    number measures raw solver + kernel throughput, run to run.
    """
    grid = synthetic_sweep_grid(smoke)
    clear_computation_caches()
    kernel_before = evaluate_kernel.cache_info()
    engine = Engine(workers=workers)
    started = time.perf_counter()
    results = engine.run_batch(grid, workers=workers, chunk_size=chunk_size)
    seconds = time.perf_counter() - started
    return {
        "scenarios": len(grid),
        "seconds": seconds,
        "cache": _cache_record(engine),
        "evaluate_kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info()),
        "digest": results_digest(results),
    }


#: Pool size of the ``fanout`` section when ``--workers`` is not given:
#: small in smoke mode (CI containers), the tentpole's 4-worker target
#: otherwise.
FANOUT_WORKERS = 4
SMOKE_FANOUT_WORKERS = 2


def _bench_fanout(
    smoke: bool,
    workers: int | None,
    chunk_size: "int | str" = AUTO_CHUNK,
) -> dict[str, Any]:
    """Chunked vs unchunked cold fan-out over the synthetic sweep.

    Runs the cold synthetic grid through the process pool twice at the
    same worker count -- once at ``chunk_size=1`` (the pre-planner
    scenario-per-task protocol) and once at the planned ``chunk_size``
    (default ``"auto"``) -- recording scenarios/second for each leg.  The
    ratio isolates exactly what the execution planner buys: pickle/IPC
    amortisation and per-worker kernel-memo locality, with the digest
    equality check proving the speedup changed no result bits.
    """
    grid = synthetic_sweep_grid(smoke)
    pool_workers = workers if workers is not None else (
        SMOKE_FANOUT_WORKERS if smoke else FANOUT_WORKERS
    )
    runs: list[dict[str, Any]] = []
    digests: list[str] = []
    for chunk in (1, chunk_size):
        plan = SweepPlan.build(grid, chunk_size=chunk, workers=pool_workers)
        clear_computation_caches()
        engine = Engine()
        started = time.perf_counter()
        results = engine.run_batch(grid, workers=pool_workers, chunk_size=chunk)
        seconds = time.perf_counter() - started
        digest = results_digest(results)
        digests.append(digest)
        runs.append(
            {
                "workers": pool_workers,
                "chunk_size": str(chunk),
                "resolved_chunk_size": plan.chunk_size,
                "chunks": len(plan),
                "structure_groups": plan.groups,
                "scenarios": len(grid),
                "seconds": seconds,
                "scenarios_per_second": len(grid) / seconds if seconds > 0 else 0.0,
                "digest": digest,
            }
        )
    return {
        "scenarios": len(grid),
        "runs": runs,
        "digests_identical": len(set(digests)) == 1,
    }


#: Packed-store record counts of the ``analysis`` section (replicated from
#: a handful of genuinely solved scenarios).  The full count satisfies the
#: >= 10k-record shape the sidecar-vs-decode comparison is specified at.
ANALYSIS_BENCH_RECORDS = 12000
SMOKE_ANALYSIS_BENCH_RECORDS = 1500
#: How many smoke synthetic scenarios seed the replicated store.
ANALYSIS_BENCH_BASE_SCENARIOS = 6


def _bench_analysis(smoke: bool) -> dict[str, Any]:
    """Cold full-record decode vs columnar sidecar scan over a packed store.

    Builds a throwaway packed store by solving a few small synthetic
    scenarios and replicating their records under distinct keys (the
    payloads stay real, so the decode leg pays real decode cost), then
    times ``records_from_store`` both ways.  The digest equality check
    proves the fast path changed no output bits: both record tuples and
    the rendered ``records_table`` must match exactly.
    """
    from repro.analysis.analyze import records_table
    from repro.analysis.records import records_from_store
    from repro.store.result_store import make_record

    target = SMOKE_ANALYSIS_BENCH_RECORDS if smoke else ANALYSIS_BENCH_RECORDS
    base_scenarios = synthetic_sweep_grid(smoke=True)[:ANALYSIS_BENCH_BASE_SCENARIOS]
    engine = Engine()
    base_records = [
        make_record(outcome.scenario, outcome.result)
        for outcome in engine.run_batch(base_scenarios)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-analysis-bench-") as work_dir:
        store = PackedResultStore(work_dir)
        batch: list[dict] = []
        for index in range(target):
            record = dict(base_records[index % len(base_records)])
            record["key"] = f"{index:016x}" + "0" * 48
            batch.append(record)
            if len(batch) >= 2000:
                store.put_records(batch)
                batch = []
        if batch:
            store.put_records(batch)
        store.close()

        # Each leg starts from a collected heap, so it pays only for the
        # collections its own allocations trigger, not for a full
        # collection that garbage left by earlier sections makes due.
        reader = PackedResultStore(work_dir)
        gc.collect()
        started = time.perf_counter()
        decoded = records_from_store(reader, columns=False)
        decode_seconds = time.perf_counter() - started
        reader.close()

        reader = PackedResultStore(work_dir)
        gc.collect()
        started = time.perf_counter()
        scanned = records_from_store(reader)
        scan_seconds = time.perf_counter() - started
        reader.close()

    decoded_digest = hashlib.sha256(
        records_table(decoded).render().encode("utf-8")
    ).hexdigest()
    scanned_digest = hashlib.sha256(
        records_table(scanned).render().encode("utf-8")
    ).hexdigest()
    return {
        "records": target,
        "base_scenarios": len(base_scenarios),
        "full_decode": {
            "records": len(decoded),
            "seconds": decode_seconds,
            "rows_per_second": target / decode_seconds if decode_seconds > 0 else 0.0,
        },
        "sidecar_scan": {
            "records": len(scanned),
            "seconds": scan_seconds,
            "rows_per_second": target / scan_seconds if scan_seconds > 0 else 0.0,
        },
        "speedup": decode_seconds / scan_seconds if scan_seconds > 0 else 0.0,
        "records_identical": decoded == scanned,
        "table_digests_identical": decoded_digest == scanned_digest,
        "table_digest": scanned_digest,
    }


def _bench_campaign(smoke: bool, workers: int | None) -> dict[str, Any]:
    """Time the streaming campaign (cold vs interrupted-and-resumed sweep).

    The campaign manages its own throwaway stores -- interruption and
    resume are the thing being measured, so it never shares the session's
    ``--store`` directory.
    """
    from repro.bench.campaign import run_campaign

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as work_dir:
        return run_campaign(work_dir, smoke=smoke, workers=workers)


def run_bench(
    tag: str | None = None,
    store: PackedResultStore | str | Path | None = None,
    smoke: bool = False,
    workers: int | None = None,
    objective: str = DEFAULT_OBJECTIVE,
    chunk_size: "int | str" = AUTO_CHUNK,
    flush_every: int | None = None,
) -> dict[str, Any]:
    """Run the full benchmark suite and return the JSON-ready report.

    Parameters
    ----------
    tag:
        Label baked into the report (and its file name); defaults to
        :func:`default_tag`.
    store:
        Optional persistent result store shared by every timed engine.  On
        a cold (empty) store the bench seeds it; rerunning against the same
        directory times the warm path and must reproduce the same sweep
        ``digest``.
    smoke:
        Restrict to the fast subset (one experiment, a 4-point sweep) --
        the mode CI runs on every push.
    workers:
        Worker processes for the sweep's ``run_batch`` (default serial).
    objective:
        Registered objective the timed sweep optimises (default: the
        paper's throughput, which keeps the sweep digest comparable with
        earlier reports).
    chunk_size:
        Scenarios per pool task in the timed sweeps (``"auto"``: the
        planner's heuristic); also the planned leg of the ``fanout``
        section.  Chunking never changes digests.
    flush_every:
        Records per store write batch in the d695 sweep (default: every
        record immediately).
    """
    from repro import __version__

    if tag is None:
        tag = default_tag()
    if not tag or any(sep in tag for sep in "/\\"):
        raise ConfigurationError(f"bench tag must be a plain label, got {tag!r}")
    if store is not None:
        store = open_store(store)

    experiments = SMOKE_EXPERIMENTS if smoke else experiment_names()
    kernel_before = evaluate_kernel.cache_info()
    started = time.perf_counter()
    report: dict[str, Any] = {
        "format": BENCH_FORMAT,
        "tag": tag,
        "package_version": __version__,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "created_at": time.time(),
        "smoke": smoke,
        "workers": workers,
        "store": {
            "enabled": store is not None,
            "root": str(store.root) if store is not None else None,
        },
        "experiments": _bench_experiments(experiments, store),
        "solvers": _bench_solvers(store),
        "sweep": _bench_sweep(store, smoke, workers, objective, chunk_size, flush_every),
        "synthetic_sweep": _bench_synthetic_sweep(smoke, workers, chunk_size),
        "fanout": _bench_fanout(smoke, workers, chunk_size),
        "campaign": _bench_campaign(smoke, workers),
        "analysis": _bench_analysis(smoke),
    }
    report["store_info"] = asdict(store.info()) if store is not None else None
    report["evaluate_kernel"] = _kernel_delta(kernel_before, evaluate_kernel.cache_info())
    report["wall_seconds"] = time.perf_counter() - started
    return report


def report_filename(report: dict[str, Any]) -> str:
    """File name a report is written under: ``BENCH_<tag>.json``."""
    return f"BENCH_{report['tag']}.json"


def write_report(report: dict[str, Any], output_dir: str | Path = ".") -> Path:
    """Write ``report`` as ``BENCH_<tag>.json`` under ``output_dir``.

    The directory defaults to the current working directory -- the repo
    root when run as ``python -m repro bench`` from a checkout, which is
    where the perf-trajectory files are expected.
    """
    directory = Path(output_dir).expanduser()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / report_filename(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def summarize_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a report (printed by ``repro bench``)."""
    lines = [
        f"bench {report['tag']} (package {report['package_version']}, "
        f"python {report['python_version']}"
        + (", smoke" if report["smoke"] else "")
        + ")",
    ]
    store = report["store"]
    lines.append(
        f"  store: {store['root']}" if store["enabled"] else "  store: disabled"
    )
    lines.append("  experiments:")
    for row in report["experiments"]:
        cache = row["cache"]
        lines.append(
            f"    {row['name']:18s} {row['seconds']:8.3f}s  "
            f"(hits {cache['hits']}, store hits {cache['store_hits']}, "
            f"misses {cache['misses']})"
        )
    lines.append("  solvers (d695 @ 256ch x 64K):")
    for row in report["solvers"]:
        if "skipped" in row:
            lines.append(f"    {row['name']:18s}  skipped: {row['skipped']}")
        else:
            cache = row["cache"]
            lines.append(
                f"    {row['name']:18s} {row['seconds']:8.3f}s  "
                f"(n_opt={row['optimal_sites']}, store hits {cache['store_hits']})"
            )
    sweep = report["sweep"]
    cache = sweep["cache"]
    lines.append(
        f"  d695 sweep: {sweep['scenarios']} scenarios in {sweep['seconds']:.3f}s  "
        f"(store hits {cache['store_hits']}, misses {cache['misses']})"
    )
    lines.append(f"  sweep digest: {sweep['digest']}")
    synthetic = report.get("synthetic_sweep")
    if synthetic:
        kernel = synthetic["evaluate_kernel"]
        lines.append(
            f"  synthetic sweep (cold): {synthetic['scenarios']} scenarios in "
            f"{synthetic['seconds']:.3f}s  (kernel hits {kernel['hits']}, "
            f"misses {kernel['misses']}, max batch {kernel['max_batch']})"
        )
    fanout = report.get("fanout")
    if fanout:
        digests = "identical" if fanout["digests_identical"] else "DIFFER"
        lines.append(f"  fanout ({fanout['scenarios']} scenarios cold, digests {digests}):")
        for run in fanout["runs"]:
            lines.append(
                f"    workers={run['workers']} chunk={run['chunk_size']:>4s} "
                f"({run['chunks']} chunk(s) of <= {run['resolved_chunk_size']}): "
                f"{run['seconds']:8.3f}s  "
                f"({run['scenarios_per_second']:.1f} scenarios/s)"
            )
    kernel_total = report.get("evaluate_kernel")
    if kernel_total:
        lines.append(
            f"  evaluate kernel: {kernel_total['hits']} hits, "
            f"{kernel_total['misses']} misses over "
            f"{kernel_total['batch_calls']} batch calls "
            f"({kernel_total['batch_points']} points, "
            f"max batch {kernel_total['max_batch']})"
        )
    campaign = report["campaign"]
    digests = "identical" if campaign["digests_match"] else "DIFFER"
    lines.append(
        f"  campaign: {campaign['scenarios']} scenarios cold in "
        f"{campaign['cold_seconds']:.3f}s; interrupted after "
        f"{campaign['interrupted_after']}, resumed in "
        f"{campaign['resume_seconds']:.3f}s ({campaign['speedup']:.1f}x, "
        f"{campaign['resume_store_hits']} store hits, digests {digests})"
    )
    analysis = report.get("analysis")
    if analysis:
        digests = "identical" if analysis["table_digests_identical"] else "DIFFER"
        full = analysis["full_decode"]
        scan = analysis["sidecar_scan"]
        lines.append(
            f"  analysis ({analysis['records']} packed records, digests {digests}):"
        )
        lines.append(
            f"    full decode:  {full['seconds']:8.3f}s  "
            f"({full['rows_per_second']:,.0f} rows/s)"
        )
        lines.append(
            f"    sidecar scan: {scan['seconds']:8.3f}s  "
            f"({scan['rows_per_second']:,.0f} rows/s, "
            f"{analysis['speedup']:.1f}x)"
        )
    lines.append(f"  total wall time: {report['wall_seconds']:.3f}s")
    return "\n".join(lines)


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a ``BENCH_<tag>.json`` report written by :func:`write_report`.

    Raises
    ------
    ConfigurationError
        When the file is unreadable, not JSON, or not a bench report.
    """
    try:
        report = json.loads(Path(path).expanduser().read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read bench report {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(report, dict) or "tag" not in report or "sweep" not in report:
        raise ConfigurationError(f"{path} is not a bench report (missing tag/sweep)")
    return report


def _ratio_line(label: str, previous: float, current: float) -> str:
    """One comparison line: previous -> current seconds with the speedup."""
    if current > 0:
        ratio = f"{previous / current:.2f}x"
    else:
        ratio = "inf"
    return f"    {label:18s} {previous:8.3f}s -> {current:8.3f}s  ({ratio})"


def _fanout_runs(report: dict[str, Any]) -> dict[tuple, dict[str, Any]]:
    """Index a report's fanout runs by ``(workers, chunk_size, scenarios)``.

    The matching key for cross-report comparison: a fanout run is only
    compared against a run of the *same* pool shape over the *same* grid
    size, so reruns with different ``--workers``/``--chunk``/``--smoke``
    settings never pair up as false regressions.
    """
    fanout = report.get("fanout") or {}
    return {
        (run["workers"], run["chunk_size"], run["scenarios"]): run
        for run in fanout.get("runs", ())
    }


def compare_reports(current: dict[str, Any], previous: dict[str, Any]) -> str:
    """Regression summary of ``current`` against a ``previous`` report.

    Matches the experiment and solver sections by name, compares the sweep
    and campaign workloads, and -- when both reports timed the same sweep
    (equal scenario counts and objective) -- checks digest equality, the
    signal that a speedup changed nothing.  Ratios above ``1x`` mean the
    current run is faster.  This is what ``repro bench --compare
    PREV.json`` prints, turning the committed ``BENCH_seed.json`` baseline
    into an actionable perf trajectory.
    """
    lines = [
        f"bench compare: {previous['tag']} (package "
        f"{previous.get('package_version', '?')}) -> {current['tag']} "
        f"(package {current.get('package_version', '?')})"
    ]
    previous_experiments = {
        row["name"]: row for row in previous.get("experiments", ()) if "seconds" in row
    }
    current_experiments = {
        row["name"]: row for row in current.get("experiments", ()) if "seconds" in row
    }
    shared = sorted(previous_experiments.keys() & current_experiments.keys())
    if shared:
        lines.append("  experiments:")
        for name in shared:
            lines.append(
                _ratio_line(
                    name,
                    previous_experiments[name]["seconds"],
                    current_experiments[name]["seconds"],
                )
            )
    for label, names in (
        ("new", sorted(current_experiments.keys() - previous_experiments.keys())),
        ("gone", sorted(previous_experiments.keys() - current_experiments.keys())),
    ):
        if names:
            lines.append(f"    {label}: {', '.join(names)}")

    previous_solvers = {
        row["name"]: row for row in previous.get("solvers", ()) if "seconds" in row
    }
    current_solvers = {
        row["name"]: row for row in current.get("solvers", ()) if "seconds" in row
    }
    shared = sorted(previous_solvers.keys() & current_solvers.keys())
    if shared:
        lines.append("  solvers:")
        for name in shared:
            lines.append(
                _ratio_line(
                    name, previous_solvers[name]["seconds"], current_solvers[name]["seconds"]
                )
            )

    previous_sweep, current_sweep = previous["sweep"], current["sweep"]
    lines.append("  sweep:")
    lines.append(
        _ratio_line(
            f"{current_sweep['scenarios']} scenarios",
            previous_sweep["seconds"],
            current_sweep["seconds"],
        )
    )
    comparable = previous_sweep["scenarios"] == current_sweep["scenarios"] and (
        previous_sweep.get("objective", DEFAULT_OBJECTIVE)
        == current_sweep.get("objective", DEFAULT_OBJECTIVE)
    )
    if comparable:
        digests = (
            "identical"
            if previous_sweep.get("digest") == current_sweep.get("digest")
            else "DIFFER"
        )
        lines.append(f"    digests: {digests}")
    else:
        lines.append("    digests: not comparable (different sweep workloads)")

    previous_synthetic = previous.get("synthetic_sweep")
    current_synthetic = current.get("synthetic_sweep")
    if (
        previous_synthetic
        and current_synthetic
        and previous_synthetic["scenarios"] == current_synthetic["scenarios"]
    ):
        lines.append("  synthetic sweep (cold):")
        lines.append(
            _ratio_line(
                f"{current_synthetic['scenarios']} scenarios",
                previous_synthetic["seconds"],
                current_synthetic["seconds"],
            )
        )
        digests = (
            "identical"
            if previous_synthetic.get("digest") == current_synthetic.get("digest")
            else "DIFFER"
        )
        lines.append(f"    digests: {digests}")

    previous_fanout = _fanout_runs(previous)
    current_fanout = _fanout_runs(current)
    shared_fanout = sorted(previous_fanout.keys() & current_fanout.keys())
    if shared_fanout:
        lines.append("  fanout:")
        for key in shared_fanout:
            workers_count, chunk, _ = key
            lines.append(
                _ratio_line(
                    f"w={workers_count} chunk={chunk}",
                    previous_fanout[key]["seconds"],
                    current_fanout[key]["seconds"],
                )
            )

    previous_campaign = previous.get("campaign")
    current_campaign = current.get("campaign")
    if previous_campaign and current_campaign:
        lines.append("  campaign:")
        lines.append(
            _ratio_line(
                "cold sweep", previous_campaign["cold_seconds"], current_campaign["cold_seconds"]
            )
        )
    previous_analysis = previous.get("analysis")
    current_analysis = current.get("analysis")
    if (
        previous_analysis
        and current_analysis
        and previous_analysis["records"] == current_analysis["records"]
    ):
        lines.append("  analysis:")
        lines.append(
            _ratio_line(
                "full decode",
                previous_analysis["full_decode"]["seconds"],
                current_analysis["full_decode"]["seconds"],
            )
        )
        lines.append(
            _ratio_line(
                "sidecar scan",
                previous_analysis["sidecar_scan"]["seconds"],
                current_analysis["sidecar_scan"]["seconds"],
            )
        )
        digests = (
            "identical"
            if previous_analysis.get("table_digest") == current_analysis.get("table_digest")
            else "DIFFER"
        )
        lines.append(f"    digests: {digests}")
    lines.append(
        _ratio_line(
            "total wall", previous.get("wall_seconds", 0.0), current.get("wall_seconds", 0.0)
        ).replace("    ", "  ", 1)
    )
    return "\n".join(lines)


#: Rows printed by the ``--profile`` table.
PROFILE_TOP_FUNCTIONS = 20


def _normalise_profile_path(filename: str) -> str:
    """Shorten a profiled file path to a machine-independent form.

    Repo files are shown relative to the package (``repro/...``); stdlib
    and site-packages files keep their final two components.  Built-ins
    (``~``) pass through.  Keeping paths machine-independent makes profile
    tables from different checkouts comparable line by line.
    """
    if filename.startswith("~") or filename.startswith("<"):
        return filename
    parts = Path(filename).parts
    for anchor in ("repro", "site-packages"):
        if anchor in parts:
            index = parts.index(anchor)
            if anchor == "repro":
                return "/".join(parts[index:])
            return "/".join(parts[index + 1 :])
    return "/".join(parts[-2:]) if len(parts) >= 2 else filename


def format_profile(stats: Any, limit: int = PROFILE_TOP_FUNCTIONS) -> str:
    """Top-``limit`` cumulative-time table of a :class:`pstats.Stats`.

    The table is deterministic given the profile data: rows sort by
    cumulative time descending with (path, line, function) as the tie
    break, and paths are normalised via :func:`_normalise_profile_path`.
    """
    rows = []
    for (filename, lineno, name), (_, ncalls, tottime, cumtime, _) in stats.stats.items():
        rows.append(
            (cumtime, tottime, ncalls, _normalise_profile_path(filename), lineno, name)
        )
    rows.sort(key=lambda row: (-row[0], row[3], row[4], row[5]))
    lines = [
        f"profile: top {min(limit, len(rows))} of {len(rows)} functions by cumulative time",
        f"  {'cumtime':>9s} {'tottime':>9s} {'ncalls':>9s}  function",
    ]
    for cumtime, tottime, ncalls, path, lineno, name in rows[:limit]:
        lines.append(
            f"  {cumtime:9.3f} {tottime:9.3f} {ncalls:9d}  {path}:{lineno}({name})"
        )
    return "\n".join(lines)


#: Workloads faster than this (in both reports) are never called regressions:
#: at sub-50ms scale, timer jitter swamps any real signal.
REGRESSION_FLOOR_SECONDS = 0.05


def find_regressions(
    current: dict[str, Any],
    previous: dict[str, Any],
    threshold_pct: float,
    noise_floor_seconds: float = REGRESSION_FLOOR_SECONDS,
) -> list[str]:
    """Workloads of ``current`` slower than ``previous`` by more than the threshold.

    The CI ratchet behind ``repro bench --compare BENCH_seed.json
    --fail-on-regression PCT``: every workload the two reports share by
    name -- experiments, solver backends, the d695 and synthetic sweeps,
    fanout runs of the same pool shape, the campaign's cold leg, the
    analysis section's decode and sidecar-scan legs -- is
    compared, and a line is returned for each
    one whose current time exceeds the previous time by more than
    ``threshold_pct`` percent.  Workloads below ``noise_floor_seconds``
    (default :data:`REGRESSION_FLOOR_SECONDS`; the ``--noise-floor`` CLI
    flag, in milliseconds) in both reports are ignored (pure timer noise),
    as are workloads only one report has.  An empty list means the ratchet
    passes.

    Raises
    ------
    ConfigurationError
        When ``threshold_pct`` or ``noise_floor_seconds`` is negative.
    """
    if threshold_pct < 0:
        raise ConfigurationError(
            f"regression threshold must be >= 0 percent, got {threshold_pct}"
        )
    if noise_floor_seconds < 0:
        raise ConfigurationError(
            f"noise floor must be >= 0 seconds, got {noise_floor_seconds}"
        )

    pairs: list[tuple[str, float, float]] = []
    for section in ("experiments", "solvers"):
        previous_rows = {
            row["name"]: row for row in previous.get(section, ()) if "seconds" in row
        }
        for row in current.get(section, ()):
            name = row.get("name")
            if "seconds" in row and name in previous_rows:
                pairs.append(
                    (f"{section[:-1]} {name}", previous_rows[name]["seconds"], row["seconds"])
                )
    previous_sweep, current_sweep = previous.get("sweep"), current.get("sweep")
    if (
        previous_sweep
        and current_sweep
        and previous_sweep.get("scenarios") == current_sweep.get("scenarios")
        and previous_sweep.get("objective", DEFAULT_OBJECTIVE)
        == current_sweep.get("objective", DEFAULT_OBJECTIVE)
    ):
        pairs.append(("sweep", previous_sweep["seconds"], current_sweep["seconds"]))
    previous_synthetic = previous.get("synthetic_sweep")
    current_synthetic = current.get("synthetic_sweep")
    if (
        previous_synthetic
        and current_synthetic
        and previous_synthetic.get("scenarios") == current_synthetic.get("scenarios")
    ):
        pairs.append(
            (
                "synthetic sweep",
                previous_synthetic["seconds"],
                current_synthetic["seconds"],
            )
        )
    previous_fanout = _fanout_runs(previous)
    for key, run in _fanout_runs(current).items():
        if key in previous_fanout:
            workers_count, chunk, _ = key
            pairs.append(
                (
                    f"fanout w={workers_count} chunk={chunk}",
                    previous_fanout[key]["seconds"],
                    run["seconds"],
                )
            )
    previous_campaign, current_campaign = previous.get("campaign"), current.get("campaign")
    if previous_campaign and current_campaign:
        pairs.append(
            (
                "campaign cold sweep",
                previous_campaign["cold_seconds"],
                current_campaign["cold_seconds"],
            )
        )
    previous_analysis, current_analysis = previous.get("analysis"), current.get("analysis")
    if (
        previous_analysis
        and current_analysis
        and previous_analysis.get("records") == current_analysis.get("records")
    ):
        pairs.append(
            (
                "analysis full decode",
                previous_analysis["full_decode"]["seconds"],
                current_analysis["full_decode"]["seconds"],
            )
        )
        pairs.append(
            (
                "analysis sidecar scan",
                previous_analysis["sidecar_scan"]["seconds"],
                current_analysis["sidecar_scan"]["seconds"],
            )
        )

    regressions = []
    for label, before, after in pairs:
        if max(before, after) < noise_floor_seconds:
            continue
        if after > before * (1.0 + threshold_pct / 100.0):
            slower = (after / before - 1.0) * 100.0 if before > 0 else float("inf")
            regressions.append(
                f"{label}: {before:.3f}s -> {after:.3f}s (+{slower:.1f}%, "
                f"threshold +{threshold_pct:g}%)"
            )
    return regressions
