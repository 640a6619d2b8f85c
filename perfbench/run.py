"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload sweep_cold --seed 3 --seconds 25 --trace 0

A run starts ``perfbench/rep.py`` once per repetition, each in a fresh
interpreter, until ``--seconds`` have passed (at least three untraced
repetitions; with ``--trace 1`` untraced and traced repetitions
alternate, at least two of each).  Every repetition's output is checked
against the digest recorded in ``perfbench/expected.json`` for the run's
synthetic family; a mismatch or a raised error fails the repetition's
operations.  The run prints each metric by name and unit, then, as its
last stdout line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics.

``--seed`` picks the synthetic family: family seed
``7000 + 100 * (seed % 16)``, one of the 16 families whose digests
``expected.json`` records.  ``--record-expected`` re-solves every
(workload, family) pair once and rewrites that file.  ``--workload all``
runs every workload in turn and ends with one JSON object of all results.

All work files live under ``.perfbench/`` in the checkout and are removed
when the run ends; traced runs leave their layer table and gzipped spans
in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("sweep_cold", "campaign_resume", "service_campaign", "analyze_store")
#: Workloads whose repetitions share an input built once per run.
PREPARED = ("campaign_resume", "analyze_store")

FAMILY_BASE, FAMILY_STRIDE, FAMILY_POOL = 7000, 100, 16
#: Minimum repetitions per run: untraced ones, and (untraced, traced) ones
#: of a traced run, whose untraced repetitions only give the overhead.
MIN_UNTRACED, MIN_TRACED = 3, (2, 2)
REP_TIMEOUT_S = 150


class RepetitionError(RuntimeError):
    """A repetition process exited abnormally or printed no report."""


def family_seed(seed: int) -> int:
    return FAMILY_BASE + FAMILY_STRIDE * (seed % FAMILY_POOL)


def spawn(workload: str, family: int, work: Path, trace: bool = False,
          prepare: bool = False, trace_out: Path | None = None) -> dict:
    """Run one ``rep.py`` process to completion and return its report."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload,
        "--family-seed", str(family),
        "--work", str(work),
        "--trace", "1" if trace else "0",
    ]
    if prepare:
        command.append("--prepare")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        raise RepetitionError(
            f"{workload} repetition exited {process.returncode}:\n{stderr[-2000:]}"
        )
    lines = stdout.strip().splitlines()
    if not lines:
        raise RepetitionError(f"{workload} repetition printed no report")
    return json.loads(lines[-1])


def failed_ops(report: dict, expected: dict) -> int:
    """Operations of one repetition that raised or produced a wrong output."""
    attempted = expected["ops"]
    if report["error"] is not None:
        return attempted
    if report["workload"] == "analyze_store":
        shapes = expected["digests"]
        produced = report["digests"] or []
        wrong = sum(
            1 for index, digest in enumerate(produced) if digest != shapes[index % len(shapes)]
        )
        return wrong + max(0, attempted - len(produced))
    if report["digest"] != expected["digest"] or report["ops"] != attempted:
        return attempted
    return report["worker_failed"]


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def rep_figures(report: dict) -> dict:
    """One repetition's end-to-end figures (``setup_s`` and memory included)."""
    latencies = report["latencies_ms"]
    return {
        "ops_per_s": report["ops"] / report["wall_s"],
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p90_ms": percentile(latencies, 0.90),
        "cpu_ms_per_op": 1000.0 * report["cpu_s"] / report["ops"],
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": report["setup_s"],
    }


def end_to_end(untraced: list) -> dict:
    """Best repetition for the timings, median for memory.

    Other tenants of a shared machine only ever slow a process down, in
    bursts of a few seconds, so the fastest repetition of a run is its
    steadiest estimate of what the code costs.  Latencies go one step
    further: the k-th latency of every repetition belongs to the same
    operation (serial workloads run a fixed order) or to the k-th
    delivery of the same campaign, so each k takes its fastest value
    over the repetitions, and the percentiles are taken over those.
    """
    completed = [report for report in untraced if report["ops"] > 0]
    if not completed:
        raise RepetitionError("no repetition completed an operation")
    figures = [rep_figures(report) for report in completed]

    def column(name: str) -> list:
        return [figure[name] for figure in figures]

    fastest = [min(times) for times in zip(*(r["latencies_ms"] for r in completed))]
    return {
        "ops_per_s": max(column("ops_per_s")),
        "op_p50_ms": percentile(fastest, 0.50),
        "op_p90_ms": percentile(fastest, 0.90),
        "cpu_ms_per_op": min(column("cpu_ms_per_op")),
        "peak_rss_mb": statistics.median(column("peak_rss_mb")),
        "setup_s": min(column("setup_s")),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """The fastest traced repetition's layer table, so its rows sum to its wall."""
    fastest = max(traced, key=lambda report: report["ops"] / report["wall_s"])
    metrics = dict(fastest["layers"])
    metrics["trace.ops_per_s"] = fastest["ops"] / fastest["wall_s"]
    metrics["trace.overhead_ratio"] = (
        max(report["ops"] / report["wall_s"] for report in untraced)
        / metrics["trace.ops_per_s"]
    )
    return metrics


def run(args) -> dict:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["per_layer" if args.trace else "end_to_end"]
    expected = json.loads(Path(args.expected).read_text())
    family = family_seed(args.seed)
    want = expected["workloads"][args.workload][str(family)]

    run_dir = WORK_ROOT / f"run-{os.getpid()}"
    traces = WORK_ROOT / "traces"
    if args.trace:
        traces.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)
    reports: list[dict] = []
    prepared = None
    try:
        if args.workload in PREPARED:
            prepared = spawn(args.workload, family, run_dir, prepare=True)
        deadline = time.monotonic() + args.seconds
        while True:
            untraced = [r for r in reports if not r["trace"]]
            traced = [r for r in reports if r["trace"]]
            if args.trace:
                enough = len(untraced) >= MIN_TRACED[0] and len(traced) >= MIN_TRACED[1]
            else:
                enough = len(untraced) >= MIN_UNTRACED
            if enough and time.monotonic() >= deadline:
                break
            trace = bool(args.trace) and len(reports) % 2 == 1
            work = run_dir / f"rep-{len(reports)}"
            trace_out = traces / f"{args.workload}-family{family}" if trace else None
            reports.append(spawn(args.workload, family, work, trace=trace, trace_out=trace_out))
            shutil.rmtree(work, ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [r for r in reports if not r["trace"]]
    traced = [r for r in reports if r["trace"]]
    attempted = want["ops"] * len(reports)
    failed = sum(failed_ops(report, want) for report in reports)
    values = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }

    first = reports[0]
    print(f"workload {args.workload}, seed {args.seed} (family {family}), "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    print("environment " + json.dumps(first["env"], sort_keys=True))
    if prepared is not None:
        print("prepared " + json.dumps(prepared, sort_keys=True))
    for report in reports:
        figures = ""
        if not report["trace"] and report["ops"] > 0:
            figures = " ".join(
                f"{name} {value:.4g}" for name, value in rep_figures(report).items()
            ) + ", "
        print(
            f"  rep trace={report['trace']} setup {report['setup_s']:.3f} s, "
            f"{report['ops']} ops in {report['wall_s']:.3f} s, {figures}"
            f"failed {failed_ops(report, want)}, counters "
            + json.dumps(report["counters"], sort_keys=True)
        )
        if report["error"]:
            print("  error: " + report["error"].strip().replace("\n", "\n    "))
    print(f"ops_failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_expected(path: Path) -> None:
    """Solve every (workload, family) once and write their output digests."""
    table: dict = {"family_seeds": [family_seed(seed) for seed in range(FAMILY_POOL)],
                   "workloads": {}}
    for workload in WORKLOADS:
        entries = table["workloads"][workload] = {}
        for family in table["family_seeds"]:
            run_dir = WORK_ROOT / f"record-{os.getpid()}"
            run_dir.mkdir(parents=True)
            try:
                if workload in PREPARED:
                    spawn(workload, family, run_dir, prepare=True)
                report = spawn(workload, family, run_dir / "rep")
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if report["error"]:
                raise RepetitionError(report["error"])
            entry = {"ops": report["ops"]}
            if report["digests"] is not None:
                entry["digests"] = report["digests"][: report["shapes"]]
            else:
                entry["digest"] = report["digest"]
            entries[str(family)] = entry
            print(f"{workload} family {family}: {entry}", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="expected-digest table (default: perfbench/expected.json)")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the repetition in flight is killed
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.record_expected:
        record_expected(Path(args.expected))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        print(json.dumps(run(args), sort_keys=True))
        return 0
    results = {}
    for workload in WORKLOADS:
        args.workload = workload
        results[workload] = run(args)
        print()
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
