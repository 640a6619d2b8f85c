"""Command-line interface.

Installed as ``repro-multisite`` (see ``setup.py``) and runnable as
``python -m repro``.  Sub-commands:

* ``design``     -- run the two-step algorithm for one SOC / ATE and print the
  resulting infrastructure and throughput (``--solver`` picks the backend,
  ``--objective`` what it optimises);
* ``sweep``      -- stream a scenario grid (SOCs x channels x depths x
  broadcast x sites x solvers x objectives) as JSONL, with sharding
  (``--shard I/N``) and store-backed resumability (``--store`` /
  ``--resume``);
* ``analyze``    -- columnar analysis of a result store or sweep JSONL
  (group-by summaries, best-per-SOC, 2-D Pareto fronts);
* ``benchmarks`` -- list the catalog SOCs (ITC'02 benchmarks, ``pnx8550``,
  the synthetic family pattern);
* ``solvers``    -- list the registered solver backends;
* ``objectives`` -- list the registered optimisation objectives;
* ``store``      -- inspect and maintain a persistent result store
  (``store info``, ``store compact``, ``store reindex``, and ``store
  migrate`` to convert a legacy one-file-per-record directory);
* ``serve``      -- run the campaign service daemon: lease sweep shards to
  workers over HTTP/JSON and collect their records into one store;
* ``work``       -- the matching worker loop: lease shards from a
  ``--server URL``, compute locally, upload records;
* ``bench``      -- time experiments/solvers/sweeps/campaign/analysis legs and
  write ``BENCH_<tag>.json`` (exit 1 when a cross-leg check fails;
  ``--compare PREV.json`` prints a regression summary;
  ``--fail-on-regression PCT`` turns it into a CI ratchet);
* ``all``        -- regenerate the full experiment report (slow);
* one sub-command per registered experiment (``table1``, ``figure5``,
  ``figure6``, ``figure7``, ``economics``, ``ablation``,
  ``solver_comparison``, ...).

Result-producing sub-commands accept ``--store DIR``: scenario results are
then read from and written to a persistent
:class:`~repro.store.PackedResultStore` in that directory (a fresh
directory becomes a new packed store; a legacy one-file-per-record
directory is rejected until ``repro store migrate`` converts it), so
repeated invocations skip already-solved operating points.  Without the
flag every run is computed from scratch (and ``python -m repro all``
output stays byte-identical to earlier releases).

The experiment sub-commands are generated from the experiment registry
(:mod:`repro.experiments.registry`), so registering a new experiment adds
its CLI command automatically; ``design``, ``bench`` and ``all`` drive the
scenario :class:`~repro.api.engine.Engine` directly.  The full reference
with examples lives in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Sequence

from repro.analysis import (
    best_table,
    group_summary,
    load_records,
    pareto_table,
    records_table,
)
from repro.analysis.analyze import GROUP_COLUMNS, METRICS
from repro.api.engine import Engine
from repro.api.grid import Grid, SweepGrid
from repro.api.scenario import Scenario
from repro.api.testcell import TestCell, reference_test_cell
from repro.ate.probe_station import ProbeStation
from repro.ate.spec import AteSpec
from repro.bench.runner import (
    REGRESSION_FLOOR_SECONDS,
    compare_reports,
    find_regressions,
    format_profile,
    load_report,
    run_bench,
    summarize_report,
    sweep_digest,
    write_report,
)
from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.units import mega_vectors
from repro.experiments.registry import list_experiments, render_experiment, run_experiment
from repro.experiments.runner import run_all_experiments
from repro.itc02.parser import parse_soc_file
from repro.itc02.registry import list_benchmarks
from repro.objectives.registry import DEFAULT_OBJECTIVE, get_objective, list_objectives
from repro.optimize.config import Objective, OptimizationConfig
from repro.service.client import ServiceClient
from repro.service.protocol import GridSpec
from repro.service.server import DEFAULT_LEASE_TTL, start_server
from repro.service.worker import run_worker
from repro.soc.catalog import SYNTHETIC_PATTERN, list_catalog
from repro.soc.soc import Soc
from repro.solvers.registry import DEFAULT_SOLVER, list_solvers
from repro.store.factory import is_packed, migrate_store, open_store
from repro.store.packed import PackedResultStore
from repro.store.result_store import STORE_FORMAT

#: Sub-commands with bespoke handlers; every other sub-command is generated
#: from (and dispatched through) the experiment registry.
_BUILTIN_COMMANDS = (
    "design",
    "sweep",
    "analyze",
    "benchmarks",
    "solvers",
    "objectives",
    "store",
    "serve",
    "work",
    "bench",
    "all",
)


def experiment_commands() -> tuple[str, ...]:
    """CLI sub-commands generated from the experiment registry.

    A registered experiment whose name collides with a builtin sub-command
    is excluded (the builtin wins), so a bad registration can never break
    argument parsing for the whole CLI.
    """
    return tuple(
        experiment.name
        for experiment in list_experiments()
        if experiment.name not in _BUILTIN_COMMANDS
    )


def _store_options() -> argparse.ArgumentParser:
    """Shared ``--store`` option, attached to result-producing sub-commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persistent result-store directory (created when missing); "
        "already-solved scenarios are read from it instead of recomputed",
    )
    return parent


def _engine_from_args(args: argparse.Namespace) -> Engine:
    """Build the engine a sub-command runs through (store-backed with --store)."""
    store = getattr(args, "store", None)
    return Engine(store=open_store(store) if store else None)


def _resolve_soc_argument(spec: str) -> Soc | str:
    """Resolve an SOC argument: a ``.soc`` file path, or a scenario reference.

    Benchmark names and ``pnx8550`` are passed through as strings -- the
    scenario resolves them, so unknown names fail with the registry's error.
    """
    if spec.endswith(".soc"):
        return parse_soc_file(spec)
    return spec


def _add_design_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "design",
        parents=[store_options],
        help="design the test infrastructure and optimal multi-site for one SOC",
    )
    parser.add_argument("soc", help="benchmark name, 'pnx8550', or path to a .soc file")
    parser.add_argument("--channels", type=int, default=512, help="ATE channels (default 512)")
    parser.add_argument(
        "--depth-m", type=float, default=7.0, help="vector-memory depth in M vectors (default 7)"
    )
    parser.add_argument(
        "--frequency-mhz", type=float, default=5.0, help="test clock in MHz (default 5)"
    )
    parser.add_argument("--index-time", type=float, default=0.5, help="prober index time in s")
    parser.add_argument(
        "--contact-test-time", type=float, default=0.010, help="contact test time in s"
    )
    parser.add_argument("--contact-yield", type=float, default=1.0, help="per-terminal contact yield")
    parser.add_argument("--yield", dest="manufacturing_yield", type=float, default=1.0,
                        help="per-device manufacturing yield")
    parser.add_argument("--broadcast", action="store_true", help="assume stimuli broadcast")
    parser.add_argument("--abort-on-fail", action="store_true", help="use the abort-on-fail test time")
    parser.add_argument(
        "--unique", action="store_true", help="maximise unique throughput (with re-test)"
    )
    parser.add_argument("--max-sites", type=int, default=None, help="equipment limit on sites")
    parser.add_argument(
        "--solver",
        default=DEFAULT_SOLVER,
        help=f"solver backend to use (default {DEFAULT_SOLVER!r}; see 'solvers')",
    )
    parser.add_argument(
        "--objective",
        default=DEFAULT_OBJECTIVE,
        help=f"objective to optimise (default {DEFAULT_OBJECTIVE!r}; see 'objectives')",
    )
    parser.add_argument(
        "--sa-temperature", type=float, default=None, metavar="T",
        help="simulated_annealing: starting temperature (backend default when omitted)",
    )
    parser.add_argument(
        "--sa-cooling", type=float, default=None, metavar="C",
        help="simulated_annealing: geometric cooling factor in (0, 1)",
    )
    parser.add_argument(
        "--sa-moves-per-temp", type=int, default=None, metavar="M",
        help="simulated_annealing: proposed moves per temperature level",
    )
    parser.add_argument(
        "--sa-restarts", type=int, default=None, metavar="R",
        help="simulated_annealing: number of independent annealing chains",
    )
    parser.add_argument("--show-architecture", action="store_true",
                        help="print the full channel-group architecture")


def _design_scenario(args: argparse.Namespace) -> Scenario:
    """Build the scenario the ``design`` sub-command describes."""
    test_cell = TestCell(
        ate=AteSpec(
            channels=args.channels,
            depth=mega_vectors(args.depth_m),
            frequency_hz=args.frequency_mhz * 1e6,
        ),
        probe_station=ProbeStation(
            index_time_s=args.index_time,
            contact_test_time_s=args.contact_test_time,
            contact_yield=args.contact_yield,
        ),
    )
    config = OptimizationConfig(
        broadcast=args.broadcast,
        abort_on_fail=args.abort_on_fail,
        objective=Objective.UNIQUE_THROUGHPUT if args.unique else Objective.THROUGHPUT,
        manufacturing_yield=args.manufacturing_yield,
        max_sites=args.max_sites,
    )
    solver_options = {
        name: value
        for name, value in (
            ("temperature", args.sa_temperature),
            ("cooling", args.sa_cooling),
            ("moves_per_temp", args.sa_moves_per_temp),
            ("restarts", args.sa_restarts),
        )
        if value is not None
    }
    return Scenario(
        soc=_resolve_soc_argument(args.soc),
        test_cell=test_cell,
        config=config,
        solver=args.solver,
        objective=args.objective,
        solver_options=tuple(solver_options.items()),
    )


def _chunk_size(text: str) -> "int | str":
    """Argparse type for ``--chunk``: a positive int or the word ``auto``."""
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer or 'auto', got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for ``--flush-every``: a positive record count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_sweep_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "sweep",
        parents=[store_options],
        help="stream a scenario grid as JSONL (sharding, store-backed resume)",
    )
    parser.add_argument(
        "socs",
        nargs="+",
        metavar="SOC",
        help="catalog SOC names (benchmark, 'pnx8550', 'synthetic:<seed>:<modules>') "
        "or paths to .soc files",
    )
    parser.add_argument(
        "--channels", type=int, nargs="+", default=None, metavar="N",
        help="ATE channel axis (default: the reference 512)",
    )
    parser.add_argument(
        "--depth-m", dest="depths_m", type=float, nargs="+", default=None, metavar="M",
        help="vector-memory depth axis in M vectors (default: the reference 7)",
    )
    parser.add_argument(
        "--frequency-mhz", type=float, default=5.0, help="test clock in MHz (default 5)"
    )
    parser.add_argument(
        "--broadcast", choices=("off", "on", "both"), default="off",
        help="broadcast axis: off (default), on, or both variants",
    )
    parser.add_argument(
        "--max-sites", type=int, nargs="+", default=None, metavar="N",
        help="site-limit axis (default: unlimited)",
    )
    parser.add_argument(
        "--solvers", nargs="+", default=None, metavar="NAME",
        help=f"solver-backend axis (default {DEFAULT_SOLVER!r}; see 'solvers')",
    )
    parser.add_argument(
        "--objective", dest="objectives", nargs="+", default=None, metavar="NAME",
        help=f"objective axis (default {DEFAULT_OBJECTIVE!r}; see 'objectives')",
    )
    parser.add_argument(
        "--shard", metavar="I/N", default=None,
        help="run only slice I (0-based) of a disjoint N-way grid partition",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the miss fan-out (default: serial)",
    )
    parser.add_argument(
        "--chunk", type=_chunk_size, default="auto", metavar="N|auto",
        help="scenarios per pool task in the miss fan-out (default 'auto': "
        "sized from grid and worker count); results are identical either way",
    )
    parser.add_argument(
        "--flush-every", type=_positive_int, default=None, metavar="N",
        help="buffer N completed records per --store write batch "
        "(default 1: flush every record immediately)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep from its --store directory "
        "(finished scenarios are served from disk, only the rest compute)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default="-",
        help="JSONL destination, one result record per line as it completes "
        "(default '-': stdout)",
    )
    parser.add_argument(
        "--server", metavar="URL", default=None,
        help="submit the grid as a campaign to a running 'repro serve' daemon "
        "instead of sweeping locally (SOCs must be catalog names)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="shard count of a submitted campaign (only with --server; default 1)",
    )


def _parse_shard(spec: str) -> tuple[int, int]:
    """Parse a ``--shard I/N`` argument into ``(index, count)``."""
    index_text, _, count_text = spec.partition("/")
    try:
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"malformed shard spec {spec!r}; expected I/N, e.g. 0/4"
        ) from None
    return index, count


def _sweep_grid(args: argparse.Namespace) -> Grid:
    """Build the (possibly sharded) grid the ``sweep`` sub-command runs."""
    cell = reference_test_cell(frequency_mhz=args.frequency_mhz)
    broadcast = {"off": None, "on": True, "both": (False, True)}[args.broadcast]
    grid: Grid = SweepGrid(
        [_resolve_soc_argument(spec) for spec in args.socs],
        cell,
        channels=args.channels,
        depths=(
            [mega_vectors(depth) for depth in args.depths_m]
            if args.depths_m is not None
            else None
        ),
        broadcast=broadcast,
        max_sites=args.max_sites,
        solvers=args.solvers,
        objectives=args.objectives,
    )
    if args.shard is not None:
        grid = grid.shard(*_parse_shard(args.shard))
    return grid


def _sweep_grid_spec(args: argparse.Namespace) -> GridSpec:
    """Build the wire-form grid spec a ``sweep --server`` submission ships.

    The same axes as :func:`_sweep_grid`, but as catalog names and raw
    vector depths -- workers rebuild the grid remotely, so ``.soc`` file
    paths (which only exist locally) are rejected.
    """
    for spec in args.socs:
        if spec.endswith(".soc"):
            raise ConfigurationError(
                f"campaign submission needs catalog SOC names; {spec!r} is a local file"
            )
    if args.shard is not None:
        raise ConfigurationError(
            "--shard slices a local sweep; submitted campaigns use --shards N"
        )
    return GridSpec(
        socs=tuple(args.socs),
        channels=tuple(args.channels) if args.channels is not None else None,
        depths=(
            tuple(mega_vectors(depth) for depth in args.depths_m)
            if args.depths_m is not None
            else None
        ),
        frequency_mhz=args.frequency_mhz,
        broadcast=args.broadcast,
        max_sites=tuple(args.max_sites) if args.max_sites is not None else None,
        solvers=tuple(args.solvers) if args.solvers is not None else None,
        objectives=tuple(args.objectives) if args.objectives is not None else None,
        shards=args.shards,
    )


def _submit_sweep(args: argparse.Namespace) -> int:
    """Submit the sweep grid as a campaign (``sweep --server URL``)."""
    progress = ServiceClient(args.server).submit_campaign(_sweep_grid_spec(args))
    print(
        f"campaign {progress['campaign']} submitted: {progress['total']} scenarios "
        f"in {progress['shards']} shard(s), {progress['solved']} already solved"
    )
    print(f"workers: repro work --server {args.server} --until-idle")
    return 0


@contextlib.contextmanager
def _open_output(spec: str):
    """The sweep's JSONL sink: stdout for ``-``, else the named file."""
    if spec == "-":
        yield sys.stdout, sys.stderr
    else:
        with open(spec, "w", encoding="utf-8") as sink:
            yield sink, sys.stdout


def _run_sweep(args: argparse.Namespace) -> int:
    """Stream the grid: JSONL records as they complete, then a digest line.

    Progress goes to stderr and the summary (counts, digest) to stdout --
    unless the JSONL itself goes to stdout (``--output -``), in which case
    the summary moves to stderr to keep the record stream clean.
    """
    if args.server is not None:
        return _submit_sweep(args)
    if args.shards != 1:
        raise ConfigurationError("--shards shapes a submitted campaign; it needs --server URL")
    if args.resume and not args.store:
        raise ConfigurationError("--resume needs the --store directory to resume from")
    grid = _sweep_grid(args)
    total = len(grid)
    engine = Engine(store=open_store(args.store) if args.store else None)
    results = []
    with _open_output(args.output) as (sink, info_out):
        before = engine.cache_info()
        for record in engine.run_iter(
            grid,
            workers=args.workers,
            chunk_size=args.chunk,
            flush_every=args.flush_every,
        ):
            info = engine.cache_info()
            source = (
                "store"
                if info.store_hits > before.store_hits
                else ("cache" if info.hits > before.hits else "computed")
            )
            before = info
            print(json.dumps(record.to_record(), sort_keys=True), file=sink, flush=True)
            print(
                f"[{len(results) + 1}/{total}] {record.describe()}  [{source}]",
                file=sys.stderr,
                flush=True,
            )
            results.append(record)
        info = engine.cache_info()
        verb = "resumed" if args.resume else "swept"
        print(
            f"{verb} {len(results)} scenarios: {info.misses} computed, "
            f"{info.store_hits} from store, {info.hits} from cache",
            file=info_out,
        )
        print(f"sweep digest: {sweep_digest(results)}", file=info_out)
    return 0


def _add_bench_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "bench",
        parents=[store_options],
        help="time experiments, solvers, sweeps, the campaign and the analysis "
        "scan; write BENCH_<tag>.json",
    )
    parser.add_argument(
        "--tag",
        default=None,
        help="label for the report file BENCH_<tag>.json (default: the package version)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast subset (one experiment, 4-point sweep); what CI runs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sweeps (default: serial)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        default=".",
        help="directory the report is written to (default: current directory)",
    )
    parser.add_argument(
        "--compare",
        metavar="PREV.json",
        default=None,
        help="previous BENCH_<tag>.json to print a regression summary against "
        "(e.g. the committed BENCH_seed.json baseline)",
    )
    parser.add_argument(
        "--fail-on-regression",
        metavar="PCT",
        type=float,
        default=None,
        help="exit non-zero when any shared workload is more than PCT percent "
        "slower than the --compare baseline (the CI perf ratchet)",
    )
    parser.add_argument(
        "--noise-floor",
        metavar="MS",
        type=float,
        default=None,
        help="ignore workloads faster than MS milliseconds in both reports when "
        "ratcheting (default 50 ms; timer jitter swamps anything quicker)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the bench under cProfile and print the top functions by "
        "cumulative time",
    )
    parser.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="also dump the raw cProfile stats to FILE (implies --profile); "
        "inspect with python -m pstats",
    )


def _run_bench(args: argparse.Namespace) -> int:
    if args.fail_on_regression is not None and not args.compare:
        raise ConfigurationError(
            "--fail-on-regression needs --compare PREV.json to ratchet against"
        )
    if args.noise_floor is not None and args.noise_floor < 0:
        raise ConfigurationError(
            f"--noise-floor must be >= 0 milliseconds, got {args.noise_floor}"
        )
    previous = load_report(args.compare) if args.compare else None

    profiler = None
    if args.profile or args.profile_out:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    report = run_bench(tag=args.tag, store=args.store, smoke=args.smoke, workers=args.workers)
    if profiler is not None:
        profiler.disable()

    path = write_report(report, args.output)
    print(summarize_report(report))
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler)
        print()
        print(format_profile(stats))
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"profile stats written to {args.profile_out}")
    if previous is not None:
        print()
        print(compare_reports(report, previous))
    print(f"report written to {path}")
    failed = [name for name, passed in report["checks"].items() if not passed]
    if failed:
        print(f"bench checks FAILED: {', '.join(failed)}", file=sys.stderr)
    if previous is not None and args.fail_on_regression is not None:
        noise_floor = (
            REGRESSION_FLOOR_SECONDS if args.noise_floor is None else args.noise_floor / 1000.0
        )
        regressions = find_regressions(
            report, previous, args.fail_on_regression, noise_floor_seconds=noise_floor
        )
        if regressions:
            print(
                f"perf ratchet FAILED: {len(regressions)} workload(s) regressed "
                f"beyond +{args.fail_on_regression:g}%:",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"perf ratchet passed (threshold +{args.fail_on_regression:g}%)")
    return 1 if failed else 0


def _run_design(args: argparse.Namespace) -> int:
    scenario = _design_scenario(args)
    outcome = _engine_from_args(args).run(scenario)
    result = outcome.result
    print(scenario.resolve().describe())
    print(scenario.test_cell.ate.describe())
    print(scenario.test_cell.probe_station.describe())
    print()
    print(result.describe())
    if scenario.objective != DEFAULT_OBJECTIVE:
        # The result's own describe() lines print raw "/h" objective values;
        # for a non-default objective name the optimised quantity explicitly.
        spec = get_objective(scenario.objective)
        print(
            f"optimized: {spec.name} ({spec.sense}imised) = "
            f"{spec.describe_value(result.optimal_throughput)} at n_opt={result.optimal_sites}"
        )
    print()
    print(result.step1.erpct.describe())
    if args.show_architecture:
        print()
        print(result.best.architecture.describe())
    print()
    print("site-count sweep (Step 2):")
    for point in sorted(result.points, key=lambda point: point.sites):
        marker = "  <-- optimal" if point.sites == result.optimal_sites else ""
        print(f"  {point.describe()}{marker}")
    return 0


def _run_benchmarks(_: argparse.Namespace) -> int:
    benchmark_names = set()
    for info in list_benchmarks():
        benchmark_names.add(info.name)
        origin = "synthetic reconstruction" if info.synthetic else "published data"
        print(f"{info.name:10s} {info.modules:3d} modules  [{origin}]  {info.description}")
    # The rest of the catalog: pnx8550 plus anything user-registered, each
    # with its registry description, and the parametric synthetic family.
    for entry in list_catalog():
        if entry.name not in benchmark_names:
            print(f"{entry.name:10s} [catalog]  {entry.description}")
    print(
        f"{SYNTHETIC_PATTERN}  parametric family of deterministic synthetic "
        "SOCs (any seed, any module count)"
    )
    return 0


def _run_solvers(_: argparse.Namespace) -> int:
    for solver in list_solvers():
        marker = "  [default]" if solver.name == DEFAULT_SOLVER else ""
        description = f" -- {solver.description}" if solver.description else ""
        print(f"{solver.name:12s} {solver.title}{description}{marker}")
    return 0


def _run_objectives(_: argparse.Namespace) -> int:
    for objective in list_objectives():
        marker = "  [default]" if objective.name == DEFAULT_OBJECTIVE else ""
        description = f" -- {objective.description}" if objective.description else ""
        units = f" [{objective.units}]" if objective.units else ""
        print(
            f"{objective.name:18s} {objective.sense} {objective.title}"
            f"{units}{description}{marker}"
        )
    return 0


def _add_store_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "store", help="inspect and maintain a persistent result store"
    )
    store_subparsers = parser.add_subparsers(dest="store_command", required=True)
    store_subparsers.add_parser(
        "info",
        parents=[store_options],
        help="record count, bytes and format of a --store directory, "
        "with per-segment stats and orphan detection",
    )
    migrate = store_subparsers.add_parser(
        "migrate",
        parents=[store_options],
        help="convert a legacy one-file-per-record store to the packed format "
        "(digest-verified; in place unless --dest is given)",
    )
    migrate.add_argument(
        "--dest", metavar="DIR", default=None,
        help="write the packed store here instead of migrating in place",
    )
    store_subparsers.add_parser(
        "compact",
        parents=[store_options],
        help="rewrite a packed store's live records into one fresh segment, "
        "reclaiming dead bytes and dropping orphaned index entries",
    )
    reindex = store_subparsers.add_parser(
        "reindex",
        parents=[store_options],
        help="rebuild a packed store's SQLite index from its segment files, "
        "or (with --columns) its columnar analysis sidecars",
    )
    reindex.add_argument(
        "--columns",
        action="store_true",
        help="rebuild the .cols analysis sidecars instead of the SQLite index",
    )


def _run_store_info(args: argparse.Namespace) -> int:
    store = open_store(args.store)
    print(f"store: {store.root}")
    print("backend: packed")
    print(f"format: {STORE_FORMAT}")
    print(f"records: {len(store)}")
    print(f"bytes: {store.total_bytes()}")
    stats = store.segment_stats()
    print(f"segments: {len(stats)}")
    for stat in stats:
        detail = f"{stat.records} records, {stat.live_bytes}/{stat.file_bytes} bytes live"
        if stat.missing:
            detail += "  [MISSING FILE]"
        elif stat.dead_bytes:
            detail += f" ({stat.dead_bytes} dead)"
        print(f"  {stat.name}: {detail}")
    orphans = store.orphans()
    if orphans:
        print(
            f"orphaned: {len(orphans)} index entr(ies) whose record bytes are gone "
            "(run 'repro store compact' to drop them)"
        )
    for label, column in (("SOC", "soc"), ("solver", "solver"), ("objective", "objective")):
        counts = store.breakdown(column)
        if counts:
            breakdown = ", ".join(
                f"{name or '?'}={counts[name]}" for name in sorted(counts)
            )
            print(f"by {label}: {breakdown}")
    return 0


def _run_store_migrate(args: argparse.Namespace) -> int:
    report = migrate_store(args.store, destination=args.dest)
    where = "in place" if report.in_place else f"to {report.destination}"
    print(f"migrated {report.source} {where}: {report.migrated} record(s)")
    if report.corrupt:
        print(f"skipped: {report.corrupt} corrupt record file(s) left behind")
    print(f"bytes: {report.bytes_before} -> {report.bytes_after}")
    return 0


def _existing_packed_store(args: argparse.Namespace) -> PackedResultStore:
    """The packed store a maintenance command works on (never created here)."""
    if not is_packed(args.store):
        raise ConfigurationError(
            f"{args.store} is not a packed store; 'store {args.store_command}' "
            "only applies after 'repro store migrate'"
        )
    return PackedResultStore(args.store)


def _run_store_compact(args: argparse.Namespace) -> int:
    stats = _existing_packed_store(args).compact()
    print(f"compacted: {stats.records} live record(s), {stats.orphans_dropped} dropped")
    print(f"segments: {stats.segments_before} -> {stats.segments_after}")
    print(
        f"bytes: {stats.bytes_before} -> {stats.bytes_after} "
        f"({stats.bytes_reclaimed} reclaimed)"
    )
    return 0


def _run_store_reindex(args: argparse.Namespace) -> int:
    store = _existing_packed_store(args)
    if args.columns:
        rows = store.reindex_columns()
        print(f"rebuilt columnar sidecars: {rows} row(s)")
        return 0
    rows = store.reindex()
    print(f"reindexed: {rows} record(s)")
    return 0


def _run_store(args: argparse.Namespace) -> int:
    if not args.store:
        raise ConfigurationError(f"store {args.store_command} needs --store DIR")
    if args.store_command == "migrate":
        return _run_store_migrate(args)
    if args.store_command == "compact":
        return _run_store_compact(args)
    if args.store_command == "reindex":
        return _run_store_reindex(args)
    return _run_store_info(args)


def _add_serve_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "serve",
        parents=[store_options],
        help="run the campaign service daemon (lease shards, collect records)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8750,
        help="bind port (default 8750; 0 picks any free port)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=DEFAULT_LEASE_TTL, metavar="SECONDS",
        help="seconds a worker may go between heartbeats before its shard "
        f"lease expires and is re-offered (default {DEFAULT_LEASE_TTL:g})",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )


def _run_serve(args: argparse.Namespace) -> int:
    if not args.store:
        raise ConfigurationError("serve needs --store DIR for the campaign results")
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr, flush=True))
    server = start_server(
        args.store,
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        log=log,
    )
    host, port = server.server_address[:2]
    info = server.app.store.info()
    # The parseable address line comes first (tests and scripts wait for
    # it), then the human context.
    print(f"listening on http://{host}:{port}", flush=True)
    print(
        f"store: {server.app.store.root} ({info.backend}, {info.size} record(s)); "
        f"lease ttl {args.lease_ttl:g}s; Ctrl-C stops",
        file=sys.stderr,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _add_work_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "work",
        help="run a campaign worker: lease shards from a server, compute, upload",
    )
    parser.add_argument(
        "--server", metavar="URL", required=True,
        help="base URL of the campaign server, e.g. http://127.0.0.1:8750",
    )
    parser.add_argument(
        "--worker", default=None, metavar="NAME",
        help="worker name reported with every lease (default worker-<pid>)",
    )
    parser.add_argument(
        "--campaign", default=None, metavar="ID",
        help="only lease shards of this campaign (default: any open campaign)",
    )
    parser.add_argument(
        "--poll", type=float, default=1.0, metavar="SECONDS",
        help="seconds between lease attempts while no work is open (default 1)",
    )
    parser.add_argument(
        "--until-idle", action="store_true",
        help="exit once the server reports no open work (default: poll forever)",
    )
    parser.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="stop after completing N shards (default: unlimited)",
    )
    parser.add_argument(
        "--chunk", type=_chunk_size, default="auto", metavar="N|auto",
        help="scenarios per batched result upload (default 'auto': sized "
        "from the shard's to-compute count); digests are identical either way",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-shard progress lines"
    )


def _run_work(args: argparse.Namespace) -> int:
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr, flush=True))
    stats = run_worker(
        args.server,
        worker=args.worker,
        campaign=args.campaign,
        poll=args.poll,
        until_idle=args.until_idle,
        max_shards=args.max_shards,
        chunk_size=args.chunk,
        log=log,
    )
    print(stats.describe())
    return 0


def _add_analyze_parser(
    subparsers: argparse._SubParsersAction, store_options: argparse.ArgumentParser
) -> None:
    parser = subparsers.add_parser(
        "analyze",
        parents=[store_options],
        help="analyse campaign results from a --store directory and/or sweep JSONL files",
    )
    parser.add_argument(
        "inputs",
        nargs="*",
        metavar="JSONL",
        help="sweep JSONL files (as written by 'sweep --output')",
    )
    parser.add_argument(
        "--group-by",
        choices=sorted(GROUP_COLUMNS),
        default=None,
        help="print a per-group summary of --metric instead of raw records",
    )
    parser.add_argument(
        "--metric",
        choices=sorted(METRICS),
        default="throughput",
        help="metric used by --group-by and --best (default 'throughput')",
    )
    parser.add_argument(
        "--best",
        action="store_true",
        help="print the --metric-best record of every SOC",
    )
    parser.add_argument(
        "--pareto",
        metavar="X,Y",
        default=None,
        help="print the 2-D Pareto front of two metrics, e.g. 'time,cost'",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print scan progress (segments/rows) to stderr while loading",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="scan packed-store segments with N parallel processes "
        "(default: serial)",
    )


def _parse_pareto(spec: str) -> tuple[str, str]:
    """Parse a ``--pareto X,Y`` argument into two metric names."""
    first, separator, second = spec.partition(",")
    if not separator or not first.strip() or not second.strip():
        raise ConfigurationError(
            f"malformed pareto spec {spec!r}; expected two metrics, e.g. time,cost"
        )
    return first.strip(), second.strip()


def _run_analyze(args: argparse.Namespace) -> int:
    progress = None
    if args.progress:
        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)
    records = load_records(
        store=args.store,
        jsonl_paths=args.inputs,
        workers=args.workers,
        progress=progress,
    )
    if not records:
        print("no records found", file=sys.stderr)
        return 1
    sections = []
    if args.group_by:
        sections.append(group_summary(records, args.group_by, args.metric).render())
    if args.best:
        sections.append(best_table(records, args.metric).render())
    if args.pareto:
        sections.append(pareto_table(records, *_parse_pareto(args.pareto)).render())
    if not sections:
        sections.append(records_table(records).render())
    print("\n\n".join(sections))
    print()
    print(f"{len(records)} records analysed")
    return 0


def _run_registered_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.command, _engine_from_args(args))
    print(render_experiment(args.command, result))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    report = run_all_experiments(_engine_from_args(args))
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-multisite",
        description="On-chip test infrastructure design for optimal multi-site testing "
        "(reproduction of Goel & Marinissen, DATE 2005)",
    )
    store_options = _store_options()
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_design_parser(subparsers, store_options)
    _add_sweep_parser(subparsers, store_options)
    _add_analyze_parser(subparsers, store_options)
    subparsers.add_parser("benchmarks", help="list the catalog SOCs (benchmarks + synthetic family)")
    subparsers.add_parser("solvers", help="list the registered solver backends")
    subparsers.add_parser("objectives", help="list the registered optimisation objectives")
    _add_store_parser(subparsers, store_options)
    _add_serve_parser(subparsers, store_options)
    _add_work_parser(subparsers)
    _add_bench_parser(subparsers, store_options)
    experiments = {experiment.name: experiment for experiment in list_experiments()}
    for name in experiment_commands():
        subparsers.add_parser(
            name,
            parents=[store_options],
            help=f"regenerate: {experiments[name].title}",
        )
    subparsers.add_parser(
        "all", parents=[store_options], help="regenerate the full experiment report (slow)"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "design":
            return _run_design(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "benchmarks":
            return _run_benchmarks(args)
        if args.command == "solvers":
            return _run_solvers(args)
        if args.command == "objectives":
            return _run_objectives(args)
        if args.command == "store":
            return _run_store(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "work":
            return _run_work(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "all":
            return _run_all(args)
        return _run_registered_experiment(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
