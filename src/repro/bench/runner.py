"""Benchmark runner: machine-readable timings for the perf trajectory.

:func:`run_bench` times the workloads that matter for the project's
performance story and returns one JSON-ready report whose ``sections``
list holds one row per timed leg::

    {"name": "sweep d695", "ops": 4, "seconds": 0.012,
     "counters": {"cache": {...}, "kernel": {...}}, "digest": "<sha256>"}

(or ``{"name": ..., "skipped": "<reason>"}`` for a leg that cannot run).
``ops`` is the leg's workload size (scenarios, records, or ``1`` for one
experiment or solver run); ``counters`` holds the engine's
:class:`~repro.api.engine.CacheInfo` (``cache``) and the delta of the
evaluation kernel's counters (``kernel``,
:func:`repro.solvers.evaluate.cache_info`) over the leg; ``digest`` is a
SHA-256 over the leg's exact results, so two rows with equal digests
produced bit-identical values.  The legs:

* ``experiment <name>`` -- each registered experiment
  (:mod:`repro.experiments.registry`) through its own engine;
* ``solver <name>`` -- each registered solver backend on the reference
  d695 operating point (256 channels x 64 K vectors); a backend that
  cannot handle it (the exhaustive oracle on a 10-module SOC) is a
  skipped row, not a failure;
* ``sweep d695`` -- the d695 design-space sweep, the workload a
  persistent ``store`` amortises across runs;
* ``synthetic sweep`` -- a cold synthetic-family sweep (caches cleared,
  no store): raw solver and kernel throughput;
* ``fanout w=<N> chunk=1`` / ``chunk=auto`` -- the same cold sweep through
  the process pool unchunked and as the :class:`~repro.api.plan.SweepPlan`
  cuts it, with the plan shape under ``counters["plan"]``;
* ``campaign cold`` / ``interrupted`` / ``resume`` -- the streaming
  campaign (:mod:`repro.bench.campaign`);
* ``analysis full decode`` / ``sidecar scan`` -- loading analysis rows from
  a generated packed store both ways (:mod:`repro.store.columns`).

Cross-leg equalities (fanout digests, campaign cold == resumed, analysis
records and table) land in one ``checks`` map; ``repro bench`` exits 1
when any of them is false.  :func:`summarize_report`,
:func:`compare_reports` and :func:`find_regressions` each walk the rows in
one loop, pairing two reports' rows by ``(name, ops)``.
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
from typing import Any, Callable, Sequence

from repro.api.engine import Engine, ScenarioResult
from repro.api.plan import AUTO_CHUNK, SweepPlan
from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.units import kilo_vectors
from repro.experiments.registry import get_experiment, experiment_names
from repro.solvers import evaluate as evaluate_kernel
from repro.solvers.registry import solver_names
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore

#: Version of the report payload layout.
BENCH_FORMAT = 2

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


def bench_sweep_grid(smoke: bool = False) -> list[Scenario]:
    """The d695 sweep scenarios the bench times (32 full, 4 in smoke mode)."""
    cell = reference_test_cell(channels=256, depth_m=0.0625)
    if smoke:
        return Scenario.sweep(
            "d695",
            cell,
            channels=SMOKE_SWEEP_CHANNELS,
            depths=[kilo_vectors(depth) for depth in SMOKE_SWEEP_DEPTHS_K],
        )
    return Scenario.sweep(
        "d695",
        cell,
        channels=SWEEP_CHANNELS,
        depths=[kilo_vectors(depth) for depth in SWEEP_DEPTHS_K],
        broadcast=[False, True],
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
    """Drop every process-wide computation cache.

    Cold-path timings are only meaningful when earlier work in the same
    process cannot leak in through the evaluation kernel's memo, the
    wrapper test-time caches, the lower-bound certificate cache or the
    SOC-build caches (synthetic family members, parsed ITC'02 benchmarks,
    the PNX8550 model).  The bench's cold legs (and the store benchmark
    tests) call this before timing; persistent stores are untouched --
    store warmth is a property of the directory, not the process.
    The kernel's cumulative counters are kept -- dropping only the memo
    means the report's per-section counter deltas never go backwards.
    """
    from repro.itc02 import registry
    from repro.soc import catalog, pnx8550
    from repro.solvers import bounds
    from repro.wrapper import combine

    evaluate_kernel.drop_memo()
    for cache in (
        combine.module_test_time,
        combine.module_curve,
        bounds._certificate,
        catalog._make_synthetic,
        registry.load_benchmark,
        pnx8550.make_pnx8550,
    ):
        cache.cache_clear()


def _kernel_delta(
    before: "evaluate_kernel.KernelCacheInfo",
    after: "evaluate_kernel.KernelCacheInfo",
) -> dict[str, Any]:
    """Delta of the process-wide evaluation-kernel counters over one leg."""
    return {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
        "batch_calls": after.batch_calls - before.batch_calls,
        "batch_points": after.batch_points - before.batch_points,
        "max_batch": after.max_batch,
    }


def timed_section(
    name: str, work: Callable[[], Any], engine: Engine | None = None
) -> tuple[dict[str, Any], Any]:
    """Run ``work()`` once, timed; return its section row and its value.

    The row counts one op and carries no digest; callers that know the
    workload size or can hash the value fill ``ops`` and ``digest`` in.
    ``engine``'s cache statistics, read after the run, go under
    ``counters["cache"]``.
    """
    kernel_before = evaluate_kernel.cache_info()
    started = time.perf_counter()
    value = work()
    seconds = time.perf_counter() - started
    counters: dict[str, Any] = {
        "kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info())
    }
    if engine is not None:
        counters["cache"] = asdict(engine.cache_info())
    row = {"name": name, "ops": 1, "seconds": seconds, "counters": counters, "digest": None}
    return row, value


def _batch_section(
    name: str, engine: Engine, grid: Sequence[Scenario], **run_options: Any
) -> dict[str, Any]:
    """Time ``engine.run_batch(grid)`` as one section over ``len(grid)`` ops."""
    row, results = timed_section(name, lambda: engine.run_batch(grid, **run_options), engine)
    row.update(ops=len(grid), digest=results_digest(results))
    return row


def _bench_experiments(
    names: Sequence[str], store: PackedResultStore | None
) -> list[dict[str, Any]]:
    """Time each registered experiment through its own (store-backed) engine."""
    rows = []
    for name in names:
        experiment, engine = get_experiment(name), Engine(store=store)
        row, _ = timed_section(f"experiment {name}", lambda: experiment.run(engine), engine)
        rows.append(row)
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
        try:
            row, outcome = timed_section(f"solver {name}", lambda: engine.run(scenario), engine)
        except ReproError as error:
            rows.append({"name": f"solver {name}", "skipped": str(error)})
            continue
        row["digest"] = results_digest([outcome])
        rows.append(row)
    return rows


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


#: Pool size of the ``fanout`` legs when ``--workers`` is not given:
#: small in smoke mode (CI containers), 4 workers otherwise.
FANOUT_WORKERS = 4
SMOKE_FANOUT_WORKERS = 2


def _bench_fanout(
    smoke: bool, workers: int | None
) -> tuple[list[dict[str, Any]], dict[str, bool]]:
    """Unchunked vs planned cold fan-out over the synthetic sweep.

    Runs the cold synthetic grid through the process pool twice at the
    same worker count -- once at ``chunk_size=1`` (one scenario per task)
    and once as the planner cuts it (``"auto"``).  The time ratio isolates
    what the execution planner buys (pickle/IPC amortisation, per-worker
    memo locality); the ``fanout digests`` check proves it changed no
    result bits.
    """
    grid = synthetic_sweep_grid(smoke)
    pool_workers = workers if workers is not None else (
        SMOKE_FANOUT_WORKERS if smoke else FANOUT_WORKERS
    )
    rows = []
    for chunk in (1, AUTO_CHUNK):
        plan = SweepPlan.build(grid, chunk_size=chunk, workers=pool_workers)
        clear_computation_caches()
        row = _batch_section(
            f"fanout w={pool_workers} chunk={chunk}",
            Engine(),
            grid,
            workers=pool_workers,
            chunk_size=chunk,
        )
        row["counters"]["plan"] = {
            "chunks": len(plan),
            "chunk_size": plan.chunk_size,
            "structure_groups": plan.groups,
        }
        rows.append(row)
    return rows, {"fanout digests": rows[0]["digest"] == rows[1]["digest"]}


#: Packed-store record counts of the ``analysis`` legs (replicated from
#: a handful of genuinely solved scenarios).  The full count satisfies the
#: >= 10k-record shape the sidecar-vs-decode comparison is specified at.
ANALYSIS_BENCH_RECORDS = 12000
SMOKE_ANALYSIS_BENCH_RECORDS = 1500
#: How many smoke synthetic scenarios seed the replicated store.
ANALYSIS_BENCH_BASE_SCENARIOS = 6


def _bench_analysis(smoke: bool) -> tuple[list[dict[str, Any]], dict[str, bool]]:
    """Cold full-record decode vs columnar sidecar scan over a packed store.

    Builds a throwaway packed store by solving a few small synthetic
    scenarios and replicating their records under distinct keys (the
    payloads stay real, so the decode leg pays real decode cost), then
    times ``records_from_store`` both ways.  Each leg's digest hashes its
    rendered ``records_table``; the checks prove the fast path changed no
    output bits (equal record tuples, equal tables).
    """
    from repro.analysis.analyze import records_table
    from repro.analysis.records import records_from_store
    from repro.store.result_store import make_record

    target = SMOKE_ANALYSIS_BENCH_RECORDS if smoke else ANALYSIS_BENCH_RECORDS
    base_scenarios = synthetic_sweep_grid(smoke=True)[:ANALYSIS_BENCH_BASE_SCENARIOS]
    base_records = [
        make_record(outcome.scenario, outcome.result)
        for outcome in Engine().run_batch(base_scenarios)
    ]
    rows, loaded = [], []
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

        for name, columns in (("analysis full decode", False), ("analysis sidecar scan", True)):
            # Each leg starts from a collected heap, so it pays only for the
            # collections its own allocations trigger, not for a full
            # collection that garbage left by earlier sections makes due.
            reader = PackedResultStore(work_dir)
            gc.collect()
            row, records = timed_section(
                name, lambda: records_from_store(reader, columns=columns)
            )
            reader.close()
            table = records_table(records).render().encode("utf-8")
            row.update(ops=len(records), digest=hashlib.sha256(table).hexdigest())
            rows.append(row)
            loaded.append(records)
    checks = {
        "analysis records": loaded[0] == loaded[1],
        "analysis table": rows[0]["digest"] == rows[1]["digest"],
    }
    return rows, checks


def _bench_campaign(
    smoke: bool, workers: int | None
) -> tuple[list[dict[str, Any]], dict[str, bool]]:
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
) -> dict[str, Any]:
    """Run the full benchmark suite and return the JSON-ready report.

    Parameters
    ----------
    tag:
        Label baked into the report (and its file name); defaults to
        :func:`default_tag`.
    store:
        Optional persistent result store shared by the experiment, solver
        and d695 sweep engines.  On a cold (empty) store the bench seeds
        it; rerunning against the same directory times the warm path and
        must reproduce the same ``sweep d695`` digest.
    smoke:
        Restrict to the fast subset (one experiment, a 4-point sweep) --
        the mode CI runs on every push.
    workers:
        Worker processes for the sweeps' ``run_batch`` (default serial)
        and the pool size of the fanout legs.
    """
    from repro import __version__

    if tag is None:
        tag = default_tag()
    if not tag or any(sep in tag for sep in "/\\"):
        raise ConfigurationError(f"bench tag must be a plain label, got {tag!r}")
    if store is not None:
        store = open_store(store)

    kernel_before = evaluate_kernel.cache_info()
    started = time.perf_counter()
    sections = [
        *_bench_experiments(SMOKE_EXPERIMENTS if smoke else experiment_names(), store),
        *_bench_solvers(store),
        _batch_section(
            "sweep d695",
            Engine(store=store, workers=workers),
            bench_sweep_grid(smoke),
            workers=workers,
        ),
    ]
    clear_computation_caches()
    sections.append(
        _batch_section(
            "synthetic sweep", Engine(workers=workers), synthetic_sweep_grid(smoke),
            workers=workers,
        )
    )
    checks: dict[str, bool] = {}
    for rows, leg_checks in (
        _bench_fanout(smoke, workers),
        _bench_campaign(smoke, workers),
        _bench_analysis(smoke),
    ):
        sections.extend(rows)
        checks.update(leg_checks)
    return {
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
        "store_info": asdict(store.info()) if store is not None else None,
        "sections": sections,
        "checks": checks,
        "counters": {"kernel": _kernel_delta(kernel_before, evaluate_kernel.cache_info())},
        "wall_seconds": time.perf_counter() - started,
    }


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


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a ``BENCH_<tag>.json`` report written by :func:`write_report`.

    Raises
    ------
    ConfigurationError
        When the file is unreadable, not JSON, not a bench report, or a
        report of another :data:`BENCH_FORMAT` (rerun ``repro bench`` to
        regenerate it).
    """
    try:
        report = json.loads(Path(path).expanduser().read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read bench report {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(report, dict) or "tag" not in report:
        raise ConfigurationError(f"{path} is not a bench report (missing tag)")
    if report.get("format") != BENCH_FORMAT or not isinstance(report.get("sections"), list):
        raise ConfigurationError(
            f"{path} is a format-{report.get('format')} bench report; this version "
            f"reads format {BENCH_FORMAT} only (rerun 'repro bench' to regenerate it)"
        )
    return report


#: Counters the summary prints per section, when present: (group, field, label).
SUMMARY_COUNTERS = (
    ("cache", "store_hits", "store hits"),
    ("cache", "misses", "computed"),
    ("kernel", "misses", "kernel misses"),
    ("plan", "chunks", "chunks"),
)


def summarize_report(report: dict[str, Any]) -> str:
    """Human-readable summary of a report (printed by ``repro bench``)."""
    lines = [
        f"bench {report['tag']} (package {report['package_version']}, "
        f"python {report['python_version']}"
        + (", smoke" if report["smoke"] else "")
        + ")",
    ]
    store = report["store"]
    lines.append(f"  store: {store['root']}" if store["enabled"] else "  store: disabled")
    for row in report["sections"]:
        if "skipped" in row:
            lines.append(f"  {row['name']:28s} skipped: {row['skipped']}")
            continue
        counters = row["counters"]
        rate = f"{row['ops'] / row['seconds']:,.1f}" if row["seconds"] > 0 else "inf"
        notes = [f"{rate} ops/s"] + [
            f"{label} {counters[group][field]}"
            for group, field, label in SUMMARY_COUNTERS
            if field in counters.get(group, {})
        ]
        digest = f"  digest {row['digest'][:16]}" if row["digest"] else ""
        lines.append(
            f"  {row['name']:28s} {row['ops']:6d} ops {row['seconds']:8.3f}s "
            f"({', '.join(notes)}){digest}"
        )
    for name, passed in report["checks"].items():
        lines.append(f"  check {name}: {'ok' if passed else 'FAILED'}")
    kernel = report["counters"]["kernel"]
    lines.append(
        f"  evaluate kernel: {kernel['hits']} hits, {kernel['misses']} misses over "
        f"{kernel['batch_calls']} batch calls ({kernel['batch_points']} points, "
        f"max batch {kernel['max_batch']})"
    )
    lines.append(f"  total wall time: {report['wall_seconds']:.3f}s")
    return "\n".join(lines)


def _pair_sections(
    current: dict[str, Any], previous: dict[str, Any]
) -> tuple[list[tuple[dict, dict]], list[dict], list[dict]]:
    """Pair two reports' timed rows by ``(name, ops)``.

    Returns ``(pairs, new, gone)``: ``(previous_row, current_row)`` pairs
    in the current report's order, the current rows without a partner and
    the previous rows without one.  Rows of different workload sizes never
    pair, so reports of different modes (``--smoke`` or not, another
    ``--workers``) cannot produce false regressions.  Skipped rows take
    no part.
    """
    def timed(report: dict[str, Any]) -> dict[tuple, dict]:
        return {(row["name"], row["ops"]): row for row in report["sections"] if "seconds" in row}

    before, after = timed(previous), timed(current)
    pairs = [(before[key], row) for key, row in after.items() if key in before]
    new = [row for key, row in after.items() if key not in before]
    gone = [row for key, row in before.items() if key not in after]
    return pairs, new, gone


def _ratio_line(label: str, previous: float, current: float) -> str:
    """One comparison line: previous -> current seconds with the speedup."""
    ratio = f"{previous / current:.2f}x" if current > 0 else "inf"
    return f"  {label:36s} {previous:8.3f}s -> {current:8.3f}s  ({ratio})"


def compare_reports(current: dict[str, Any], previous: dict[str, Any]) -> str:
    """Regression summary of ``current`` against a ``previous`` report.

    One line per ``(name, ops)`` pair with the speedup ratio (above ``1x``
    means the current run is faster) and, where both rows carry a digest,
    whether the digests are identical -- the signal that a speedup changed
    nothing.  Rows only one report has are listed as new or gone.  This is
    what ``repro bench --compare PREV.json`` prints, turning the committed
    ``BENCH_seed.json`` baseline into an actionable perf trajectory.
    """
    lines = [
        f"bench compare: {previous['tag']} (package "
        f"{previous.get('package_version', '?')}) -> {current['tag']} "
        f"(package {current.get('package_version', '?')})"
    ]
    pairs, new, gone = _pair_sections(current, previous)
    for before, after in pairs:
        line = _ratio_line(f"{after['name']} ({after['ops']} ops)", before["seconds"], after["seconds"])
        if before["digest"] and after["digest"]:
            line += "  digests " + ("identical" if before["digest"] == after["digest"] else "DIFFER")
        lines.append(line)
    for label, rows in (("new", new), ("gone", gone)):
        if rows:
            names = ", ".join(f"{row['name']} ({row['ops']} ops)" for row in rows)
            lines.append(f"  {label}: {names}")
    lines.append(
        _ratio_line("total wall", previous.get("wall_seconds", 0.0), current.get("wall_seconds", 0.0))
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
    """Sections of ``current`` slower than ``previous`` by more than the threshold.

    The CI ratchet behind ``repro bench --compare BENCH_seed.json
    --fail-on-regression PCT``: every ``(name, ops)`` pair the two reports
    share is compared, and a line is returned for each one whose current
    time exceeds the previous time by more than ``threshold_pct`` percent.
    Pairs below ``noise_floor_seconds`` (default
    :data:`REGRESSION_FLOOR_SECONDS`; the ``--noise-floor`` CLI flag, in
    milliseconds) in both reports are ignored (pure timer noise), as are
    rows only one report has.  An empty list means the ratchet passes.

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
    regressions = []
    for before_row, after_row in _pair_sections(current, previous)[0]:
        before, after = before_row["seconds"], after_row["seconds"]
        if max(before, after) < noise_floor_seconds:
            continue
        if after > before * (1.0 + threshold_pct / 100.0):
            slower = (after / before - 1.0) * 100.0 if before > 0 else float("inf")
            regressions.append(
                f"{after_row['name']} ({after_row['ops']} ops): {before:.3f}s -> "
                f"{after:.3f}s (+{slower:.1f}%, threshold +{threshold_pct:g}%)"
            )
    return regressions
