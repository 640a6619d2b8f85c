"""Benchmark telemetry: timed runs that seed the perf trajectory.

``python -m repro bench`` (and :func:`~repro.bench.runner.run_bench`) times
the registered experiments, the registered solver backends, the d695
design-space sweep and the streaming campaign (cold vs
interrupted-and-resumed multi-SOC sweep, :mod:`repro.bench.campaign`) --
optionally against a persistent :class:`~repro.store.PackedResultStore`, so one
invocation measures the cold path and a rerun against the same directory
measures the warm (store-hit) path.  The outcome is written as
``BENCH_<tag>.json``, a machine-readable record that CI uploads as an
artifact on every push.  :func:`~repro.bench.runner.compare_reports`
(CLI: ``repro bench --compare PREV.json``) turns two such reports into a
regression summary; the committed ``BENCH_seed.json`` is the baseline the
perf trajectory accumulates against.
"""

from repro.bench.campaign import campaign_grid, run_campaign
from repro.bench.runner import (
    BENCH_FORMAT,
    bench_sweep_grid,
    compare_reports,
    default_tag,
    load_report,
    report_filename,
    results_digest,
    run_bench,
    summarize_report,
    sweep_digest,
    write_report,
)

__all__ = [
    "BENCH_FORMAT",
    "bench_sweep_grid",
    "campaign_grid",
    "compare_reports",
    "default_tag",
    "load_report",
    "report_filename",
    "results_digest",
    "run_bench",
    "run_campaign",
    "summarize_report",
    "sweep_digest",
    "write_report",
]
