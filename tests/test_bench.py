"""Tests for the benchmark telemetry runner (repro.bench).

Three full smoke benches run here: the cold/warm pair against one store
(``smoke_reports``) and one CLI run that drives every report-side flag at
once (``cli_run``).  The pairing, noise-floor, digest, new/gone and
failed-check rules are tested on hand-built reports.
"""

import contextlib
import io
import json

import pytest

from repro.bench import (
    BENCH_FORMAT,
    bench_sweep_grid,
    default_tag,
    report_filename,
    results_digest,
    run_bench,
    summarize_report,
    write_report,
)
from repro.bench.runner import (
    SMOKE_ANALYSIS_BENCH_RECORDS,
    compare_reports,
    find_regressions,
    load_report,
)
from repro.cli import main
from repro.core.exceptions import ConfigurationError
from repro.solvers.registry import solver_names
from repro.store import is_packed

KERNEL_FIELDS = {"hits", "misses", "batch_calls", "batch_points", "max_batch"}


def _row(name, ops, seconds, digest=None):
    return {"name": name, "ops": ops, "seconds": seconds, "counters": {}, "digest": digest}


def _report(sections, tag="r", checks=None, wall_seconds=1.0):
    """A minimal format-2 report around hand-built section rows."""
    return {
        "format": BENCH_FORMAT,
        "tag": tag,
        "package_version": "0.0.0",
        "python_version": "3",
        "smoke": True,
        "store": {"enabled": False, "root": None},
        "sections": list(sections),
        "checks": dict(checks or {}),
        "counters": {"kernel": dict.fromkeys(KERNEL_FIELDS, 0)},
        "wall_seconds": wall_seconds,
    }


def _rows(report):
    return {row["name"]: row for row in report["sections"]}


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench") / "store"


@pytest.fixture(scope="module")
def smoke_reports(store_dir):
    """One cold and one warm smoke bench against a shared store."""
    cold = run_bench(tag="cold", store=store_dir, smoke=True)
    warm = run_bench(tag="warm", store=store_dir, smoke=True)
    return cold, warm


@pytest.fixture(scope="module")
def cli_run(smoke_reports, tmp_path_factory):
    """One ``repro bench`` CLI run covering every report-side flag.

    Compares against the cold report with a 0% threshold that only a
    noise floor above every section's time (100 s) can let pass, so a
    passing ratchet proves ``--noise-floor`` reached it.
    """
    work = tmp_path_factory.mktemp("bench-cli")
    baseline = write_report(smoke_reports[0], work / "baseline")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            [
                "bench", "--smoke", "--tag", "cli",
                "--store", str(work / "store"),
                "--output", str(work),
                "--compare", str(baseline),
                "--fail-on-regression", "0",
                "--noise-floor", "100000",
                "--profile", "--profile-out", str(work / "bench.prof"),
            ]
        )
    return code, out.getvalue(), err.getvalue(), work


class TestReportShape:
    def test_top_level_schema(self, smoke_reports):
        cold, _ = smoke_reports
        from repro import __version__

        assert cold["format"] == BENCH_FORMAT == 2
        assert cold["tag"] == "cold"
        assert cold["package_version"] == __version__
        assert cold["smoke"] is True
        assert cold["store"]["enabled"] is True
        assert cold["wall_seconds"] > 0
        assert cold["store_info"]["puts"] > 0
        assert cold["checks"] == {
            "fanout digests": True,
            "campaign digests": True,
            "analysis records": True,
            "analysis table": True,
        }
        for row in cold["sections"]:
            assert set(row) in (
                {"name", "ops", "seconds", "counters", "digest"},
                {"name", "skipped"},
            )

    def test_experiment_rows(self, smoke_reports):
        cold, _ = smoke_reports
        economics = _rows(cold)["experiment economics"]
        assert economics["ops"] == 1
        assert economics["seconds"] > 0
        assert economics["counters"]["cache"]["misses"] > 0

    def test_solver_rows_cover_registry(self, smoke_reports):
        cold, _ = smoke_reports
        rows = {
            name: row for name, row in _rows(cold).items() if name.startswith("solver ")
        }
        assert set(rows) == {f"solver {name}" for name in solver_names()}
        # The exhaustive oracle cannot handle the 10-module d695: it must be
        # recorded as skipped (with the reason), not dropped or crashed.
        assert "8 modules" in rows["solver exhaustive"]["skipped"]
        assert len(rows["solver goel05"]["digest"]) == 64
        assert rows["solver goel05"]["seconds"] > 0

    def test_sweep_row(self, smoke_reports):
        cold, _ = smoke_reports
        sweep = _rows(cold)["sweep d695"]
        assert sweep["ops"] == len(bench_sweep_grid(smoke=True)) == 4
        assert len(sweep["digest"]) == 64
        # The default-objective grid keeps its pre-objective scenario keys.
        assert all(len(s.canonical_key()) == 4 for s in bench_sweep_grid(smoke=True))
        assert sweep["counters"]["kernel"]["misses"] >= 0
        # The store is fresh and no earlier leg writes to it a point of
        # this sweep: the cold sweep computes every scenario.
        assert sweep["counters"]["cache"]["store_hits"] == 0
        assert sweep["counters"]["cache"]["misses"] == sweep["ops"]

    def test_analysis_row(self, smoke_reports):
        cold, _ = smoke_reports
        rows = _rows(cold)
        decode, scan = rows["analysis full decode"], rows["analysis sidecar scan"]
        assert decode["ops"] == scan["ops"] == SMOKE_ANALYSIS_BENCH_RECORDS
        assert decode["digest"] == scan["digest"] and len(scan["digest"]) == 64
        assert cold["checks"]["analysis records"] is True
        assert cold["checks"]["analysis table"] is True
        # The acceptance threshold (>= 10x) is asserted under the benchmark
        # harness; the unit test only requires a genuine speedup.
        assert scan["seconds"] < decode["seconds"]

    def test_campaign_rows(self, smoke_reports):
        cold, _ = smoke_reports
        rows = _rows(cold)
        first, interrupted, resume = (
            rows[f"campaign {leg}"] for leg in ("cold", "interrupted", "resume")
        )
        assert 0 < interrupted["ops"] < first["ops"] == resume["ops"]
        assert resume["counters"]["cache"]["store_hits"] == interrupted["ops"]
        assert first["digest"] == resume["digest"]

    def test_report_is_json_serializable(self, smoke_reports):
        cold, warm = smoke_reports
        for report in (cold, warm):
            json.loads(json.dumps(report))


class TestWarmStore:
    def test_warm_run_reports_store_hits(self, smoke_reports):
        _, warm = smoke_reports
        sweep = _rows(warm)["sweep d695"]
        assert sweep["counters"]["cache"]["store_hits"] == sweep["ops"]
        assert sweep["counters"]["cache"]["misses"] == 0
        assert _rows(warm)["experiment economics"]["counters"]["cache"]["store_hits"] > 0

    def test_warm_run_is_bit_identical(self, smoke_reports):
        cold, warm = smoke_reports
        assert _rows(cold)["sweep d695"]["digest"] == _rows(warm)["sweep d695"]["digest"]

    def test_warm_run_is_not_slower(self, smoke_reports):
        cold, warm = smoke_reports
        # The acceptance threshold (>= 2x) is asserted under the benchmark
        # harness; here we only require the warm path not to regress, which
        # keeps the unit test robust on loaded CI machines.
        assert _rows(warm)["sweep d695"]["seconds"] <= _rows(cold)["sweep d695"]["seconds"]


class TestReportFile:
    def test_write_report_names_file_after_tag(self, smoke_reports, store_dir, tmp_path):
        cold, _ = smoke_reports
        assert is_packed(store_dir)  # a fresh store directory becomes packed
        path = write_report(cold, tmp_path)
        assert path.name == report_filename(cold) == "BENCH_cold.json"
        assert json.loads(path.read_text())["tag"] == "cold"

    def test_default_tag_is_package_version(self):
        from repro import __version__

        assert default_tag() == f"v{__version__}"

    def test_tag_validation(self):
        with pytest.raises(ConfigurationError):
            run_bench(tag="bad/tag", smoke=True)
        with pytest.raises(ConfigurationError):
            run_bench(tag="", smoke=True)

    def test_summary_mentions_all_sections(self, smoke_reports):
        cold, _ = smoke_reports
        text = summarize_report(cold)
        for row in cold["sections"]:
            assert row["name"] in text
        assert "digest" in text
        assert "check campaign digests: ok" in text

    def test_summary_marks_failed_checks(self):
        report = _report([_row("sweep d695", 4, 0.1)], checks={"fanout digests": False})
        assert "check fanout digests: FAILED" in summarize_report(report)


class TestBenchCli:
    def test_bench_subcommand_writes_report(self, cli_run):
        code, out, _, work = cli_run
        assert code == 0
        assert "BENCH_cli.json" in out
        report = json.loads((work / "BENCH_cli.json").read_text())
        assert report["tag"] == "cli"
        assert report["store"]["enabled"] is True
        assert is_packed(work / "store")
        assert "bench compare: cold" in out and "-> cli" in out

    def test_bench_rejects_bad_tag(self, tmp_path, capsys):
        code = main(["bench", "--smoke", "--tag", "a/b", "--output", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_check_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        report = _report(
            [_row("fanout w=2 chunk=1", 16, 0.1, "a"), _row("fanout w=2 chunk=auto", 16, 0.1, "b")],
            tag="broken",
            checks={"fanout digests": False, "campaign digests": True},
        )
        monkeypatch.setattr("repro.cli.run_bench", lambda **options: report)
        code = main(["bench", "--smoke", "--output", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "bench checks FAILED: fanout digests" in captured.err
        assert "campaign digests" not in captured.err
        assert (tmp_path / "BENCH_broken.json").is_file()  # still written


class TestResultsDigest:
    def test_digest_depends_on_values(self, tmp_path):
        from repro.api import Engine

        grid = bench_sweep_grid(smoke=True)
        results = Engine().run_batch(grid[:2])
        assert results_digest(results) != results_digest(results[:1])
        assert results_digest(results) == results_digest(tuple(results))


class TestCompareReports:
    def test_compare_smoke_reports(self, smoke_reports):
        cold, warm = smoke_reports
        text = compare_reports(warm, cold)
        assert "bench compare: cold" in text and "-> warm" in text
        assert "experiment economics" in text
        assert "digests identical" in text
        assert "DIFFER" not in text
        assert "x)" in text  # at least one speedup ratio
        assert "new:" not in text and "gone:" not in text

    def test_regressions_pair_analysis_legs(self):
        previous = _report(
            [_row("analysis full decode", 1500, 3.0), _row("analysis sidecar scan", 1500, 0.2)]
        )
        slow = _report(
            [_row("analysis full decode", 1500, 3.0), _row("analysis sidecar scan", 1500, 100.0)]
        )
        regressions = find_regressions(slow, previous, 10.0)
        assert len(regressions) == 1
        assert regressions[0].startswith("analysis sidecar scan (1500 ops)")
        # Different workload sizes never pair: (name, ops) is the key.
        resized = _report([_row("analysis sidecar scan", 1, 100.0)])
        assert find_regressions(resized, previous, 10.0) == []

    def test_compare_flags_different_workloads(self):
        previous = _report([_row("sweep d695", 4, 0.5), _row("solver goel05", 1, 0.5)])
        current = _report([_row("sweep d695", 99, 0.5), _row("solver goel05", 1, 0.5)])
        text = compare_reports(current, previous)
        assert "solver goel05 (1 ops)" in text
        assert "new: sweep d695 (99 ops)" in text
        assert "gone: sweep d695 (4 ops)" in text

    def test_compare_flags_digest_mismatch(self):
        previous = _report([_row("sweep d695", 4, 0.5, "aaaa"), _row("solver goel05", 1, 0.5)])
        current = _report([_row("sweep d695", 4, 0.5, "deadbeef"), _row("solver goel05", 1, 0.5, "x")])
        lines = compare_reports(current, previous).splitlines()
        assert any("sweep d695" in line and "digests DIFFER" in line for line in lines)
        # A row without a digest on either side makes no digest claim.
        assert not any("solver goel05" in line and "digests" in line for line in lines)

    def test_skipped_rows_never_pair(self):
        previous = _report([{"name": "solver exhaustive", "skipped": "too big"}])
        current = _report([_row("solver exhaustive", 1, 9.0)])
        assert find_regressions(current, previous, 0.0, noise_floor_seconds=0.0) == []
        assert "new: solver exhaustive (1 ops)" in compare_reports(current, previous)

    def test_load_report_roundtrip(self, tmp_path):
        report = _report([_row("sweep d695", 4, 0.5, "aaaa")], tag="round")
        path = write_report(report, tmp_path)
        assert load_report(path) == report

    def test_load_report_rejects_non_reports(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_report(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_report(bad)
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a bench report"):
            load_report(empty)
        old = tmp_path / "BENCH_old.json"
        old.write_text(json.dumps({"format": 1, "tag": "old", "sweep": {}}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="format-1 bench report"):
            load_report(old)

    def test_committed_seed_baseline_loads(self):
        from pathlib import Path

        seed_path = Path(__file__).resolve().parents[1] / "BENCH_seed.json"
        assert seed_path.is_file(), "BENCH_seed.json baseline missing from the repo root"
        seed = load_report(seed_path)
        assert seed["tag"] == "seed"
        # The (name, ops) pairs the CI ratchet compares a smoke run against.
        assert [
            (row["name"], row["ops"]) for row in seed["sections"] if "seconds" in row
        ] == [
            ("experiment economics", 1),
            ("solver goel05", 1),
            ("solver restart", 1),
            ("solver simulated_annealing", 1),
            ("sweep d695", 4),
            ("synthetic sweep", 16),
            ("fanout w=2 chunk=1", 16),
            ("fanout w=2 chunk=auto", 16),
            ("campaign cold", 6),
            ("campaign interrupted", 4),
            ("campaign resume", 6),
            ("analysis full decode", 1500),
            ("analysis sidecar scan", 1500),
        ]
        assert all(seed["checks"].values())

    def test_smoke_run_pairs_every_seed_section(self, smoke_reports):
        from pathlib import Path

        seed = load_report(Path(__file__).resolve().parents[1] / "BENCH_seed.json")
        cold, _ = smoke_reports
        text = compare_reports(cold, seed)
        assert "gone:" not in text
        # Same workloads, same exact results as when the baseline was taken.
        assert "digests identical" in text and "DIFFER" not in text


class TestKernelCounters:
    def test_in_process_sections_record_kernel_counters(self, smoke_reports):
        # The smoke fanout legs run on a 2-worker pool, whose kernel
        # counters never reach this process: those rows carry none.
        cold, _ = smoke_reports
        for row in cold["sections"]:
            if "skipped" in row:
                continue
            if row["name"].startswith("fanout "):
                assert "kernel" not in row["counters"]
            else:
                assert set(row["counters"]["kernel"]) == KERNEL_FIELDS
        assert _rows(cold)["synthetic sweep"]["counters"]["kernel"]["misses"] > 0
        assert cold["counters"]["kernel"]["batch_calls"] > 0

    def test_summary_prints_kernel_totals(self, smoke_reports):
        cold, _ = smoke_reports
        lines = summarize_report(cold).splitlines()
        assert any(line.startswith("  evaluate kernel:") for line in lines)
        sweep = next(line for line in lines if line.startswith("  synthetic sweep"))
        assert "kernel misses" in sweep
        fanout = [line for line in lines if line.startswith("  fanout ")]
        assert len(fanout) == 2
        assert not any("kernel" in line for line in fanout)

    def test_summary_omits_kernel_for_pool_rows(self):
        serial = _row("sweep d695", 4, 0.1)
        serial["counters"] = {"kernel": dict.fromkeys(KERNEL_FIELDS, 3)}
        pooled = _row("fanout w=2 chunk=1", 16, 0.1)
        pooled["counters"] = {"plan": {"chunks": 16}}
        lines = summarize_report(_report([serial, pooled])).splitlines()
        assert "kernel misses 3" in next(line for line in lines if "sweep d695" in line)
        pool_line = next(line for line in lines if "fanout" in line)
        assert "kernel" not in pool_line and "chunks 16" in pool_line

    def test_pool_legs_record_no_kernel_delta(self):
        from repro.bench.runner import timed_section

        serial, _ = timed_section("serial", lambda: None, workers=1)
        pooled, _ = timed_section("pooled", lambda: None, workers=2)
        assert set(serial["counters"]["kernel"]) == KERNEL_FIELDS
        assert pooled["counters"] == {}


class TestClearComputationCaches:
    def test_every_process_cache_is_emptied(self):
        from repro.api.testcell import reference_test_cell
        from repro.bench.runner import clear_computation_caches
        from repro.itc02 import registry
        from repro.optimize.config import OptimizationConfig
        from repro.soc import catalog, pnx8550
        from repro.soc.catalog import resolve_catalog_soc
        from repro.solvers import bounds
        from repro.wrapper import combine, pareto

        soc = resolve_catalog_soc("d695")
        resolve_catalog_soc("synthetic:7:4")
        resolve_catalog_soc("pnx8550")
        cell = reference_test_cell(channels=256, depth_m=0.0625)
        bounds.certificate(
            soc, cell.ate, cell.probe_station, OptimizationConfig(), "throughput"
        )
        combine.module_test_time(soc.modules[0], 4)
        pareto.pareto_points(soc.modules[1], 8)
        caches = (
            bounds._certificate,
            combine.module_test_time,
            combine.module_curve,
            catalog._make_synthetic,
            registry.load_benchmark,
            pnx8550.make_pnx8550,
        )
        assert all(cache.cache_info().currsize > 0 for cache in caches)
        clear_computation_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


class TestSyntheticSweep:
    def test_smoke_grid_size(self):
        from repro.bench.runner import synthetic_sweep_grid

        assert len(synthetic_sweep_grid(smoke=True)) == 16

    def test_full_grid_size(self):
        from repro.bench.runner import synthetic_sweep_grid

        assert len(synthetic_sweep_grid(smoke=False)) == 1000

    def test_section_shape(self, smoke_reports):
        cold, warm = smoke_reports
        section = _rows(cold)["synthetic sweep"]
        assert section["ops"] == 16
        assert section["seconds"] > 0
        assert len(section["digest"]) == 64
        # The synthetic sweep is always cold (caches cleared, no store), so
        # the warm report must reproduce the digest by recomputation.
        assert _rows(warm)["synthetic sweep"]["digest"] == section["digest"]
        assert _rows(warm)["synthetic sweep"]["counters"]["cache"]["store_hits"] == 0


class TestCampaignGrid:
    def test_smoke_campaign_grid_collects(self):
        """The smoke variant stays small (CI budget) but still interruptible."""
        from repro.bench import campaign_grid

        assert 4 <= len(campaign_grid(smoke=True)) <= 8
        assert len(campaign_grid()) > len(campaign_grid(smoke=True))


class TestNoiseFloor:
    @staticmethod
    def _reports(before, after):
        return _report([_row("experiment x", 1, after)]), _report([_row("experiment x", 1, before)])

    def test_default_floor_ignores_sub_50ms_workloads(self):
        current, previous = self._reports(0.010, 0.040)
        assert find_regressions(current, previous, 10.0) == []

    def test_custom_floor_catches_fast_workloads(self):
        current, previous = self._reports(0.010, 0.040)
        regressions = find_regressions(
            current, previous, 10.0, noise_floor_seconds=0.005
        )
        assert len(regressions) == 1
        assert "experiment x" in regressions[0]

    def test_raised_floor_silences_regressions(self):
        current, previous = self._reports(0.2, 0.9)
        assert find_regressions(current, previous, 10.0, noise_floor_seconds=1.0) == []
        assert len(find_regressions(current, previous, 10.0)) == 1

    def test_negative_floor_rejected(self):
        current, previous = self._reports(0.2, 0.9)
        with pytest.raises(ConfigurationError, match="noise floor"):
            find_regressions(current, previous, 10.0, noise_floor_seconds=-0.1)

    def test_cli_noise_floor_flag(self, cli_run):
        code, out, err, _ = cli_run
        assert code == 0, err
        assert "perf ratchet passed (threshold +0%)" in out

    def test_cli_rejects_negative_noise_floor(self, tmp_path, capsys):
        code = main(
            ["bench", "--smoke", "--output", str(tmp_path), "--noise-floor", "-5"]
        )
        assert code == 1
        assert "noise-floor" in capsys.readouterr().err


class TestProfile:
    def test_format_profile_is_deterministic_given_stats(self):
        import cProfile
        import pstats

        from repro.bench.runner import format_profile

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(1000))
        profiler.disable()
        stats = pstats.Stats(profiler)
        first = format_profile(stats)
        second = format_profile(stats)
        assert first == second
        assert first.splitlines()[0].startswith("profile: top")

    def test_normalise_profile_path(self):
        from repro.bench.runner import _normalise_profile_path

        assert _normalise_profile_path(
            "/home/me/checkout/src/repro/bench/runner.py"
        ) == "repro/bench/runner.py"
        assert _normalise_profile_path(
            "/usr/lib/python3.11/site-packages/numpy/core/x.py"
        ) == "numpy/core/x.py"
        assert _normalise_profile_path("~") == "~"

    def test_cli_profile_prints_table_and_writes_stats(self, cli_run):
        import pstats

        code, out, _, work = cli_run
        assert code == 0
        assert "profile: top" in out
        assert "cumtime" in out
        assert (work / "bench.prof").is_file()
        pstats.Stats(str(work / "bench.prof"))  # the dump must be loadable
