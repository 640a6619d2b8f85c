"""One benchmark repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every process-wide
cache of the program (kernel memo, wrapper and certificate lrus, catalog
lrus) starts cold by construction.  The script sets the workload up,
runs its timed phase, and prints one JSON object describing the
repetition as its last stdout line:

    python3 perfbench/rep.py --workload sweep_cold --family-seed 7000 --work .perfbench/w

``--spawned-at`` (the parent's ``time.monotonic()`` just before the
spawn) makes ``setup_s`` include interpreter start-up.  ``--prepare``
builds the per-run input a workload shares across its repetitions (the
pre-filled store template of ``campaign_resume``, the replicated store
``analyze_store`` queries) and exits.  ``--trace 1`` wraps the program's
layer functions with :mod:`tracer` and reports per-layer metrics instead
of latencies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``sweep_cold``: a synthetic family x channels x depths x broadcast.
SWEEP_SOCS, SWEEP_MODULES = 24, 10
SWEEP_CHANNELS = (128, 320)
SWEEP_DEPTHS_M = (1.0, 4.0)

#: ``campaign_resume``: many larger SOCs, few operating points each; every
#: grid position not congruent to 3 mod 4 is pre-filled (a 3/4 share).
RESUME_SOCS, RESUME_MODULES = 20, 20
RESUME_CHANNELS = (256, 512)
RESUME_DEPTHS_M = (2.0, 4.0)
RESUME_PREFILL_MOD = 4
RESUME_FLUSH_EVERY = 16

#: ``service_campaign``: a sharded grid submitted over HTTP.
SERVICE_SOCS, SERVICE_MODULES = 6, 10
SERVICE_CHANNELS = (256, 512)
SERVICE_DEPTHS_M = (1.0, 4.0)
SERVICE_SHARDS = 4

#: ``analyze_store``: solved base records replicated under distinct keys,
#: then a closed loop of query shapes ``(group_by, metric, best_metric,
#: (pareto_x, pareto_y))`` cycled in order.  The site limits keep each
#: record's payload near 15 KB (unlimited, 8-module records reach ~80 KB).
ANALYZE_SOCS, ANALYZE_MODULES = 6, 8
ANALYZE_CHANNELS = (128, 256, 512)
ANALYZE_DEPTHS_M = (1.0, 4.0)
ANALYZE_MAX_SITES = (4, 8)
ANALYZE_RECORDS = 1200
ANALYZE_PUT_BATCH = 400
ANALYZE_QUERIES = (
    ("soc", "throughput", "throughput", ("cost", "throughput")),
    ("channels", "time", "time", ("time", "cost")),
    ("depth", "cost", "cost", ("channels", "throughput")),
    ("broadcast", "sites", "sites", ("sites", "time")),
)
ANALYZE_ROUNDS = 25

#: Workloads that request all their operations at once when the timed
#: phase starts (a whole campaign), rather than one after another.
BATCH_SUBMITTED = ("campaign_resume", "service_campaign")

#: Layer spans of the traced run: ``(target, layer)``.  Functions are
#: ``module:function``; methods ``module:Class.method``.
TRACED_FUNCTIONS = (
    ("repro.soc.catalog:resolve_catalog_soc", "soc.catalog"),
    ("repro.optimize.step1:run_step1", "optimize.step1"),
    ("repro.tam.redistribution:widen_to_channel_budget", "tam.redistribution"),
    ("repro.wrapper.combine:module_test_time", "wrapper.combine"),
    ("repro.wrapper.pareto:pareto_points", "wrapper.pareto"),
    ("repro.solvers.evaluate:evaluate_points", "solvers.evaluate"),
    ("repro.solvers.bounds:certificate", "solvers.bounds"),
    ("repro.store.serialize:encode_result", "store.serialize.encode"),
    ("repro.store.serialize:decode_result", "store.serialize.decode"),
    ("repro.store.result_store:make_record", "store.make_record"),
    ("repro.analysis.records:records_from_store", "analysis.records"),
    ("repro.analysis.analyze:group_summary", "analysis.analyze"),
    ("repro.analysis.analyze:best_per_soc", "analysis.analyze"),
    ("repro.analysis.analyze:pareto_front", "analysis.analyze"),
)
TRACED_METHODS = (
    ("repro.store.packed:PackedResultStore.get", "store.packed.get"),
    ("repro.store.packed:PackedResultStore.missing_keys", "store.packed.missing_keys"),
    ("repro.store.packed:PackedResultStore.put_records", "store.packed.put_records"),
    ("repro.service.server:CampaignServer.ingest", "service.server.ingest"),
    ("repro.service.server:CampaignServer.query_missing", "service.server.query_missing"),
    ("repro.service.server:CampaignServer.lease", "service.server.lease"),
    ("repro.service.server:CampaignServer.heartbeat", "service.server.other"),
    ("repro.service.server:CampaignServer.complete", "service.server.other"),
    ("repro.service.server:CampaignServer.submit_campaign", "service.server.other"),
    ("repro.reporting.tables:Table.render", "reporting.tables"),
)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    import repro.analysis
    import repro.bench.runner
    import repro.service
    import repro.store

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


def sweep_grid(
    socs: int, modules: int, family_seed: int, channels, depths_m, broadcast, max_sites=None
):
    from repro.api.grid import SweepGrid
    from repro.api.testcell import reference_test_cell
    from repro.core.units import mega_vectors
    from repro.soc.catalog import synthetic_family

    return SweepGrid(
        synthetic_family(family_seed, count=socs, modules=modules),
        reference_test_cell(),
        channels=list(channels),
        depths=[mega_vectors(depth) for depth in depths_m],
        broadcast=broadcast,
        max_sites=max_sites,
    )


def segment_bytes(store_dir: Path) -> int:
    segments = store_dir / "segments"
    if not segments.is_dir():
        return 0
    return sum(path.stat().st_size for path in segments.glob("*.jsonl"))


# ----------------------------------------------------------------------
# Workloads: setup(work, family_seed) -> state; timed(state) -> outcome
# ----------------------------------------------------------------------
def setup_sweep_cold(work: Path, family_seed: int) -> dict:
    from repro.api.engine import Engine

    grid = sweep_grid(
        SWEEP_SOCS, SWEEP_MODULES, family_seed, SWEEP_CHANNELS, SWEEP_DEPTHS_M, [False, True]
    )
    return {"grid": grid, "engine": Engine(), "run_kwargs": {"workers": 1}, "pool_workers": 1}


def timed_stream(state: dict) -> dict:
    """Stream the grid through ``Engine.run_iter``, stamping each result."""
    from repro.bench.runner import sweep_digest

    results, marks = [], []
    for outcome in state["engine"].run_iter(state["grid"], **state["run_kwargs"]):
        marks.append(time.perf_counter())
        results.append(outcome)
    return {"ops": len(results), "marks": marks, "digest": sweep_digest(results)}


def resume_grid(family_seed: int):
    return sweep_grid(
        RESUME_SOCS, RESUME_MODULES, family_seed, RESUME_CHANNELS, RESUME_DEPTHS_M, False
    )


def prepare_campaign_resume(work: Path, family_seed: int) -> dict:
    """Solve the pre-filled share of the grid into a template packed store."""
    from repro.api.engine import Engine
    from repro.store.packed import PackedResultStore

    prefill = [
        scenario
        for index, scenario in enumerate(resume_grid(family_seed))
        if index % RESUME_PREFILL_MOD != RESUME_PREFILL_MOD - 1
    ]
    store = PackedResultStore(work / "template")
    for _ in Engine(store=store).run_iter(prefill, workers=pool_workers(), flush_every=64):
        pass
    store.close()
    return {"prefilled": len(prefill)}


def setup_campaign_resume(work: Path, family_seed: int) -> dict:
    from repro.api.engine import Engine
    from repro.store.packed import PackedResultStore

    store_dir = work / "store"
    shutil.copytree(work.parent / "template", store_dir)
    store = PackedResultStore(store_dir)
    grid = resume_grid(family_seed)
    return {
        "grid": grid,
        "store": store,
        "store_dir": store_dir,
        "engine": Engine(store=store),
        "run_kwargs": {"workers": pool_workers(), "flush_every": RESUME_FLUSH_EVERY},
        "pool_workers": pool_workers(),
        "bytes_before": segment_bytes(store_dir),
    }


def teardown_store(state: dict) -> dict:
    state["store"].close()
    return {"bytes_appended": segment_bytes(state["store_dir"]) - state["bytes_before"]}


def setup_service_campaign(work: Path, family_seed: int) -> dict:
    from repro.core.units import mega_vectors
    from repro.service import GridSpec, ServiceClient, start_server
    from repro.service import worker as worker_module
    from repro.soc.catalog import synthetic_family
    from repro.store.packed import PackedResultStore

    store_dir = work / "store"
    store = PackedResultStore(store_dir)
    requests = [0]

    def log(line: str) -> None:
        if line.startswith("http: "):
            requests[0] += 1

    server = start_server(store, log=log)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    spec = GridSpec(
        socs=synthetic_family(family_seed, count=SERVICE_SOCS, modules=SERVICE_MODULES),
        channels=SERVICE_CHANNELS,
        depths=tuple(mega_vectors(depth) for depth in SERVICE_DEPTHS_M),
        broadcast="both",
        shards=SERVICE_SHARDS,
    )
    # One timestamp per scenario result the worker finishes (it builds the
    # record right after solving): the per-operation latency marks.
    marks: list[float] = []
    build_record = worker_module.make_record

    def stamped(scenario, result):
        record = build_record(scenario, result)
        marks.append(time.perf_counter())
        return record

    worker_module.make_record = stamped
    return {
        "server": server,
        "thread": thread,
        "client": ServiceClient(f"http://{host}:{port}"),
        "spec": spec,
        "store": store,
        "store_dir": store_dir,
        "marks": marks,
        "requests": requests,
        "pool_workers": 1,
        "bytes_before": 0,
    }


def timed_service_campaign(state: dict) -> dict:
    from repro.service import run_worker

    client = state["client"]
    campaign = client.submit_campaign(state["spec"])["campaign"]
    stats = run_worker(client, campaign=campaign, worker="bench", until_idle=True)
    state["campaign"] = campaign
    return {
        "ops": stats.computed + stats.failed,
        "marks": state["marks"],
        "worker_failed": stats.failed,
    }


def verify_service_campaign(state: dict, outcome: dict) -> None:
    """The run's output is the server's ``/digest`` of the finished campaign."""
    answer = state["client"].digest(state["campaign"])
    outcome["digest"] = answer["digest"] if answer.get("complete") else "incomplete"


def teardown_service_campaign(state: dict) -> dict:
    app = state["server"].app
    counters = dict(app.counters)
    state["server"].shutdown()
    state["server"].server_close()
    state["thread"].join()
    extra = teardown_store(state)
    extra["http_requests"] = state["requests"][0]
    extra["server_counters"] = counters
    return extra


def prepare_analyze_store(work: Path, family_seed: int) -> dict:
    """Solve the base records and write their replicas to a packed store."""
    from repro.api.engine import Engine
    from repro.store.packed import PackedResultStore
    from repro.store.result_store import make_record

    base = sweep_grid(
        ANALYZE_SOCS, ANALYZE_MODULES, family_seed, ANALYZE_CHANNELS, ANALYZE_DEPTHS_M,
        False, ANALYZE_MAX_SITES,
    )
    records = [
        make_record(outcome.scenario, outcome.result)
        for outcome in Engine().run_batch(list(base), workers=1)
    ]
    store = PackedResultStore(work / "analysis-store")
    batch = []
    for index in range(ANALYZE_RECORDS):
        record = dict(records[index % len(records)])
        record["key"] = hashlib.sha256(f"{family_seed}:{index}".encode()).hexdigest()
        batch.append(record)
        if len(batch) == ANALYZE_PUT_BATCH:
            store.put_records(batch)
            batch = []
    if batch:
        store.put_records(batch)
    store.close()
    return {"records": ANALYZE_RECORDS, "base_records": len(records)}


def setup_analyze_store(work: Path, family_seed: int) -> dict:
    """Open the run's shared store: queries only read it."""
    from repro.store.packed import PackedResultStore

    store_dir = work.parent / "analysis-store"
    return {
        "store": PackedResultStore(store_dir),
        "store_dir": store_dir,
        "pool_workers": 1,
        "bytes_before": segment_bytes(store_dir),
    }


def timed_analyze_store(state: dict) -> dict:
    from repro.analysis import analyze
    from repro.analysis.records import load_records

    digests, marks = [], []
    for _round in range(ANALYZE_ROUNDS):
        for by, metric, best, (x_axis, y_axis) in ANALYZE_QUERIES:
            records = load_records(state["store"])
            tables = (
                analyze.group_summary(records, by, metric),
                analyze.best_table(records, best),
                analyze.pareto_table(records, x_axis, y_axis),
            )
            text = "\n\n".join(table.render() for table in tables)
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            marks.append(time.perf_counter())
    return {
        "ops": len(digests),
        "marks": marks,
        "digests": digests,
        "shapes": len(ANALYZE_QUERIES),
    }


WORKLOADS = {
    "sweep_cold": (setup_sweep_cold, timed_stream, None, None),
    "campaign_resume": (setup_campaign_resume, timed_stream, None, teardown_store),
    "service_campaign": (
        setup_service_campaign, timed_service_campaign,
        verify_service_campaign, teardown_service_campaign,
    ),
    "analyze_store": (setup_analyze_store, timed_analyze_store, None, teardown_store),
}
PREPARE = {
    "campaign_resume": prepare_campaign_resume,
    "analyze_store": prepare_analyze_store,
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def install_tracer():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()

    def count_rows(args, kwargs, scan):
        tracer.count("rows_total", len(scan.rows))

    def count_decoded(args, kwargs, _result):
        tracer.count("rows_decoded", len(args[1]))

    def count_chunks(args, kwargs, plan):
        tracer.count("chunks", len(plan))

    def count_request(args, kwargs, _result):
        payload = args[2] if len(args) > 2 else kwargs.get("payload")
        raw = args[3] if len(args) > 3 else kwargs.get("raw")
        sent = len(raw) if raw is not None else (
            len(json.dumps(payload).encode("utf-8")) if payload is not None else 0
        )
        tracer.count("bytes_sent", sent)

    for target, layer in TRACED_FUNCTIONS:
        tracer.patch_function(target, layer)
    tracer.patch_function("repro.store.columns:scan_segment", "analysis.records", count_rows)
    tracer.patch_function(
        "repro.store.columns:_decode_locations", "analysis.records", count_decoded
    )
    for target, layer in TRACED_METHODS:
        tracer.patch_method(target, layer)
    tracer.patch_method(
        "repro.api.engine:Engine._map_chunks", "api.engine.pool_wait", generator=True
    )
    tracer.patch_method("repro.api.plan:SweepPlan.build", "api.plan", count_chunks)
    tracer.patch_method(
        "repro.service.client:ServiceClient._call", "service.client", count_request
    )
    return tracer


def cache_counters() -> dict:
    """Exact work counters the program keeps itself (no tracing needed)."""
    from repro.solvers import bounds, evaluate
    from repro.wrapper import combine

    kernel = evaluate.cache_info()
    certificate = bounds._certificate.cache_info()
    return {
        "kernel_points": kernel.batch_points,
        "kernel_hits": kernel.hits,
        "kernel_misses": kernel.misses,
        "combine_lru_misses": combine.module_test_time.cache_info().misses,
        "certificate_hits": certificate.hits,
        "certificate_misses": certificate.misses,
    }


def layer_metrics(tracer, table: dict, counters: dict, wall_s: float) -> dict:
    """The BENCHMARK.json ``per_layer`` metrics of one traced repetition."""

    def self_s(layer: str) -> float:
        return table.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return table.get(layer, {}).get("calls", 0)

    certificate_lookups = counters["certificate_hits"] + counters["certificate_misses"]
    pool_wait = self_s("api.engine.pool_wait")
    rows_total = tracer.counters.get("rows_total", 0)
    rows_decoded = tracer.counters.get("rows_decoded", 0)
    return {
        "soc.catalog.s": self_s("soc.catalog"),
        "soc.catalog.calls": calls("soc.catalog"),
        "optimize.step1.s": self_s("optimize.step1"),
        "optimize.step1.calls": calls("optimize.step1"),
        "tam.redistribution.s": self_s("tam.redistribution"),
        "tam.redistribution.calls": calls("tam.redistribution"),
        "wrapper.combine.s": self_s("wrapper.combine"),
        "wrapper.combine.calls": calls("wrapper.combine"),
        "wrapper.combine.lru_misses": counters["combine_lru_misses"],
        "wrapper.pareto.s": self_s("wrapper.pareto"),
        "wrapper.pareto.calls": calls("wrapper.pareto"),
        "solvers.evaluate.s": self_s("solvers.evaluate"),
        "solvers.evaluate.calls": calls("solvers.evaluate"),
        "solvers.evaluate.points": counters["kernel_points"],
        "solvers.evaluate.memo_hits": counters["kernel_hits"],
        "solvers.evaluate.memo_misses": counters["kernel_misses"],
        "solvers.bounds.s": self_s("solvers.bounds"),
        "solvers.bounds.calls": calls("solvers.bounds"),
        "solvers.bounds.misses": counters["certificate_misses"],
        "solvers.bounds.cache_hit_ratio": (
            counters["certificate_hits"] / certificate_lookups if certificate_lookups else 0.0
        ),
        "store.serialize.encode_s": self_s("store.serialize.encode"),
        "store.serialize.encode_calls": calls("store.serialize.encode"),
        "store.serialize.decode_s": self_s("store.serialize.decode"),
        "store.serialize.decode_calls": calls("store.serialize.decode"),
        "store.make_record.s": self_s("store.make_record"),
        "store.make_record.calls": calls("store.make_record"),
        "store.packed.get_s": self_s("store.packed.get"),
        "store.packed.get_calls": calls("store.packed.get"),
        "store.packed.missing_keys_s": self_s("store.packed.missing_keys"),
        "store.packed.put_records_s": self_s("store.packed.put_records"),
        "store.packed.bytes_appended": counters.get("bytes_appended", 0),
        "api.engine.pool_wait_s": pool_wait,
        "api.engine.driver_busy_s": wall_s - pool_wait,
        "api.plan.s": self_s("api.plan"),
        "api.plan.chunks": tracer.counters.get("chunks", 0),
        "service.client.roundtrip_s": table.get("service.client", {}).get("total_s", 0.0),
        "service.client.requests": calls("service.client"),
        "service.client.bytes_sent": tracer.counters.get("bytes_sent", 0),
        "service.server.ingest_s": self_s("service.server.ingest"),
        "service.server.query_missing_s": self_s("service.server.query_missing"),
        "service.server.lease_s": self_s("service.server.lease"),
        "service.server.other_s": self_s("service.server.other"),
        "service.http_overhead_s": self_s("service.client"),
        "analysis.records.scan_s": self_s("analysis.records"),
        "analysis.records.rows_sidecar": rows_total - rows_decoded,
        "analysis.records.rows_decoded": rows_decoded,
        "analysis.analyze.aggregate_s": self_s("analysis.analyze"),
        "reporting.tables.render_s": self_s("reporting.tables"),
        "other.s": self_s("other"),
        "trace.wall_s": wall_s,
        "trace.coverage": 1.0 - self_s("other") / wall_s if wall_s > 0 else 0.0,
    }


def latencies_ms(workload: str, start: float, marks: list) -> list:
    """Each operation's latency in milliseconds, in completion order.

    A serial workload's operation starts when the previous one completes;
    a batch-submitted campaign requests every operation at ``start``.
    """
    if workload in BATCH_SUBMITTED:
        return [(mark - start) * 1000.0 for mark in marks]
    return [(mark - previous) * 1000.0 for previous, mark in zip([start] + marks, marks)]


def reap_pool_children(timeout: float = 30.0) -> None:
    """Wait until every pool child has exited and been reaped."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.005)


def environment(state: dict) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "pool_workers": state.get("pool_workers", 1),
    }


def run_repetition(args) -> dict:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    import_program()
    if args.prepare:
        started = time.monotonic()
        report = PREPARE[args.workload](work, args.family_seed)
        report["prepare_s"] = time.monotonic() - started
        return report

    tracer = install_tracer() if args.trace else None
    setup, timed, verify, teardown = WORKLOADS[args.workload]
    state = setup(work, args.family_seed)
    setup_done = time.monotonic()

    if tracer is not None:
        tracer.reset()  # set-up work is not part of the timed phase's layers
    before = cache_counters()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    error = None
    try:
        outcome = timed(state)
    except Exception:  # noqa: BLE001 - a raised operation is a failed one
        error = traceback.format_exc(limit=8)
        outcome = {"ops": 0, "marks": []}
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False  # verification and teardown are not traced
    reap_pool_children()
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = cache_counters()
    counters = {name: after[name] - before[name] for name in after}

    if verify is not None and error is None:
        verify(state, outcome)
    if teardown is not None:
        counters.update(teardown(state))
    cpu_s = sum(
        getattr(self_after, field) - getattr(self_before, field)
        + getattr(children_after, field) - getattr(children_before, field)
        for field in ("ru_utime", "ru_stime")
    )
    report = {
        "workload": args.workload,
        "family_seed": args.family_seed,
        "trace": args.trace,
        "setup_s": setup_done - args.spawned_at,
        "wall_s": wall_s,
        "ops": outcome["ops"],
        "error": error,
        "digest": outcome.get("digest"),
        "digests": outcome.get("digests"),
        "shapes": outcome.get("shapes"),
        "worker_failed": outcome.get("worker_failed", 0),
        "cpu_s": cpu_s,
        "peak_rss_mb": self_after.ru_maxrss / 1024.0,
        "counters": counters,
        "env": environment(state),
    }
    if tracer is None:
        report["latencies_ms"] = latencies_ms(args.workload, start, outcome["marks"])
    else:
        table = tracer.layer_table(wall_s)
        report["layers"] = layer_metrics(tracer, table, counters, wall_s)
        if args.trace_out:
            tracer.dump(args.trace_out, {
                "workload": args.workload, "family_seed": args.family_seed,
                "origin": start, "wall_s": wall_s, "self_time_table": table,
            })
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--family-seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    if args.spawned_at is None:
        args.spawned_at = time.monotonic()
    report = run_repetition(args)
    sys.stdout.flush()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
