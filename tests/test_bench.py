"""Tests for the benchmark telemetry runner (repro.bench)."""

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
from repro.cli import main
from repro.core.exceptions import ConfigurationError
from repro.solvers.registry import solver_names
from repro.store import is_packed


@pytest.fixture(scope="module")
def smoke_reports(tmp_path_factory):
    """One cold and one warm smoke bench against a shared store."""
    store_dir = tmp_path_factory.mktemp("bench-store")
    cold = run_bench(tag="cold", store=store_dir, smoke=True)
    warm = run_bench(tag="warm", store=store_dir, smoke=True)
    return cold, warm


class TestReportShape:
    def test_top_level_schema(self, smoke_reports):
        cold, _ = smoke_reports
        from repro import __version__

        assert cold["format"] == BENCH_FORMAT
        assert cold["tag"] == "cold"
        assert cold["package_version"] == __version__
        assert cold["smoke"] is True
        assert cold["store"]["enabled"] is True
        assert cold["wall_seconds"] > 0
        assert cold["store_info"]["puts"] > 0

    def test_experiment_rows(self, smoke_reports):
        cold, _ = smoke_reports
        rows = {row["name"]: row for row in cold["experiments"]}
        assert "economics" in rows
        assert rows["economics"]["seconds"] > 0
        assert rows["economics"]["cache"]["misses"] > 0

    def test_solver_rows_cover_registry(self, smoke_reports):
        cold, _ = smoke_reports
        rows = {row["name"]: row for row in cold["solvers"]}
        assert set(rows) == set(solver_names())
        # The exhaustive oracle cannot handle the 10-module d695: it must be
        # recorded as skipped (with the reason), not dropped or crashed.
        assert "skipped" in rows["exhaustive"]
        assert "8 modules" in rows["exhaustive"]["skipped"]
        assert rows["goel05"]["optimal_sites"] >= 1
        assert rows["goel05"]["seconds"] > 0

    def test_sweep_row(self, smoke_reports):
        cold, _ = smoke_reports
        sweep = cold["sweep"]
        assert sweep["scenarios"] == len(bench_sweep_grid(smoke=True)) == 4
        assert len(sweep["digest"]) == 64
        assert sweep["evaluate_kernel"]["misses"] >= 0

    def test_analysis_row(self, smoke_reports):
        cold, _ = smoke_reports
        analysis = cold["analysis"]
        assert analysis["records"] == analysis["full_decode"]["records"]
        assert analysis["records"] == analysis["sidecar_scan"]["records"]
        assert analysis["records_identical"] is True
        assert analysis["table_digests_identical"] is True
        assert len(analysis["table_digest"]) == 64
        assert analysis["full_decode"]["rows_per_second"] > 0
        # The acceptance threshold (>= 10x) is asserted under the benchmark
        # harness; the unit test only requires a genuine speedup.
        assert analysis["speedup"] > 1.0

    def test_report_is_json_serializable(self, smoke_reports):
        cold, warm = smoke_reports
        for report in (cold, warm):
            json.loads(json.dumps(report))


class TestWarmStore:
    def test_warm_run_reports_store_hits(self, smoke_reports):
        _, warm = smoke_reports
        assert warm["sweep"]["cache"]["store_hits"] == warm["sweep"]["scenarios"]
        assert warm["sweep"]["cache"]["misses"] == 0
        experiment_hits = sum(
            row["cache"]["store_hits"] for row in warm["experiments"]
        )
        assert experiment_hits > 0

    def test_warm_run_is_bit_identical(self, smoke_reports):
        cold, warm = smoke_reports
        assert cold["sweep"]["digest"] == warm["sweep"]["digest"]

    def test_warm_run_is_not_slower(self, smoke_reports):
        cold, warm = smoke_reports
        # The acceptance threshold (>= 2x) is asserted under the benchmark
        # harness; here we only require the warm path not to regress, which
        # keeps the unit test robust on loaded CI machines.
        assert warm["sweep"]["seconds"] <= cold["sweep"]["seconds"]


class TestReportFile:
    def test_write_report_names_file_after_tag(self, tmp_path):
        report = run_bench(tag="unit", store=tmp_path / "s", smoke=True)
        assert is_packed(tmp_path / "s")  # a fresh store directory becomes packed
        path = write_report(report, tmp_path)
        assert path.name == report_filename(report) == "BENCH_unit.json"
        assert json.loads(path.read_text())["tag"] == "unit"

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
        assert "economics" in text
        assert "goel05" in text
        assert "d695 sweep" in text
        assert "digest" in text
        assert "sidecar scan" in text


class TestBenchCli:
    def test_bench_subcommand_writes_report(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--smoke",
                "--tag",
                "cli",
                "--store",
                str(tmp_path / "store"),
                "--output",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_cli.json" in out
        report = json.loads((tmp_path / "BENCH_cli.json").read_text())
        assert report["tag"] == "cli"
        assert report["store"]["enabled"] is True

    def test_bench_rejects_bad_tag(self, tmp_path, capsys):
        code = main(["bench", "--smoke", "--tag", "a/b", "--output", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestResultsDigest:
    def test_digest_depends_on_values(self, tmp_path):
        from repro.api import Engine

        grid = bench_sweep_grid(smoke=True)
        results = Engine().run_batch(grid[:2])
        assert results_digest(results) != results_digest(results[:1])
        assert results_digest(results) == results_digest(tuple(results))


class TestCompareReports:
    def test_compare_smoke_reports(self, smoke_reports):
        from repro.bench.runner import compare_reports

        cold, warm = smoke_reports
        text = compare_reports(warm, cold)
        assert "bench compare: cold" in text and "-> warm" in text
        assert "economics" in text
        assert "digests: identical" in text
        assert "x)" in text  # at least one speedup ratio

    def test_regressions_pair_analysis_legs(self, smoke_reports):
        from repro.bench.runner import find_regressions

        cold, warm = smoke_reports
        slow = dict(
            warm,
            analysis=dict(
                warm["analysis"],
                sidecar_scan=dict(warm["analysis"]["sidecar_scan"], seconds=100.0),
            ),
        )
        regressions = find_regressions(slow, cold, 10.0)
        assert any("analysis sidecar scan" in line for line in regressions)
        # Different record counts never pair (the name-new-section rule).
        resized = dict(slow, analysis=dict(slow["analysis"], records=1))
        assert not any(
            "analysis" in line for line in find_regressions(resized, cold, 10.0)
        )

    def test_compare_flags_different_workloads(self, smoke_reports):
        from repro.bench.runner import compare_reports

        cold, warm = smoke_reports
        other = dict(warm, sweep=dict(warm["sweep"], scenarios=99))
        assert "not comparable" in compare_reports(other, cold)

    def test_compare_flags_digest_mismatch(self, smoke_reports):
        from repro.bench.runner import compare_reports

        cold, warm = smoke_reports
        other = dict(warm, sweep=dict(warm["sweep"], digest="deadbeef"))
        assert "digests: DIFFER" in compare_reports(other, cold)

    def test_load_report_roundtrip(self, smoke_reports, tmp_path):
        from repro.bench.runner import load_report, write_report

        cold, _ = smoke_reports
        path = write_report(cold, tmp_path)
        assert load_report(path)["tag"] == "cold"

    def test_load_report_rejects_non_reports(self, tmp_path):
        from repro.bench.runner import load_report
        from repro.core.exceptions import ConfigurationError

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

    def test_committed_seed_baseline_loads(self):
        from pathlib import Path

        from repro.bench.runner import load_report

        seed_path = Path(__file__).resolve().parents[1] / "BENCH_seed.json"
        assert seed_path.is_file(), "BENCH_seed.json baseline missing from the repo root"
        seed = load_report(seed_path)
        assert seed["tag"] == "seed"
        assert seed["sweep"]["scenarios"] >= 4

    def test_bench_sweep_grid_objective_axis(self):
        grid = bench_sweep_grid(smoke=True, objective="cost_per_good_die")
        assert all(s.objective == "cost_per_good_die" for s in grid)
        # The default-objective grid keeps its pre-objective digests.
        default = bench_sweep_grid(smoke=True)
        assert all(len(s.canonical_key()) == 4 for s in default)


class TestKernelCounters:
    def test_every_section_records_kernel_counters(self, smoke_reports):
        cold, _ = smoke_reports
        for row in cold["experiments"]:
            assert set(row["evaluate_kernel"]) == {
                "hits", "misses", "batch_calls", "batch_points", "max_batch",
            }
        for row in cold["solvers"]:
            if "skipped" not in row:
                assert "evaluate_kernel" in row
        assert cold["sweep"]["evaluate_kernel"]["misses"] >= 0
        assert cold["synthetic_sweep"]["evaluate_kernel"]["misses"] > 0
        assert cold["evaluate_kernel"]["batch_calls"] > 0

    def test_summary_prints_kernel_totals(self, smoke_reports):
        cold, _ = smoke_reports
        text = summarize_report(cold)
        assert "evaluate kernel:" in text
        assert "synthetic sweep (cold):" in text


class TestClearComputationCaches:
    def test_every_process_cache_is_emptied(self):
        from repro.api.testcell import reference_test_cell
        from repro.bench.runner import clear_computation_caches
        from repro.optimize.config import OptimizationConfig
        from repro.soc.catalog import resolve_catalog_soc
        from repro.solvers import bounds
        from repro.wrapper import combine, pareto

        soc = resolve_catalog_soc("d695")
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
        )
        assert all(cache.cache_info().currsize > 0 for cache in caches)
        clear_computation_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


class TestSyntheticSweep:
    def test_smoke_grid_size(self):
        from repro.bench.runner import synthetic_sweep_grid

        assert len(synthetic_sweep_grid(smoke=True)) == 16

    def test_full_grid_size(self):
        from repro.bench.runner import synthetic_sweep_grid

        assert len(synthetic_sweep_grid(smoke=False)) == 1000

    def test_section_shape(self, smoke_reports):
        cold, warm = smoke_reports
        section = cold["synthetic_sweep"]
        assert section["scenarios"] == 16
        assert section["seconds"] > 0
        assert len(section["digest"]) == 64
        # The synthetic sweep is always cold (caches cleared, no store), so
        # the warm report must reproduce the digest by recomputation.
        assert warm["synthetic_sweep"]["digest"] == section["digest"]
        assert warm["synthetic_sweep"]["cache"]["store_hits"] == 0


class TestNoiseFloor:
    @staticmethod
    def _reports(before, after):
        previous = {"experiments": [{"name": "x", "seconds": before}], "solvers": []}
        current = {"experiments": [{"name": "x", "seconds": after}], "solvers": []}
        return current, previous

    def test_default_floor_ignores_sub_50ms_workloads(self):
        from repro.bench.runner import find_regressions

        current, previous = self._reports(0.010, 0.040)
        assert find_regressions(current, previous, 10.0) == []

    def test_custom_floor_catches_fast_workloads(self):
        from repro.bench.runner import find_regressions

        current, previous = self._reports(0.010, 0.040)
        regressions = find_regressions(
            current, previous, 10.0, noise_floor_seconds=0.005
        )
        assert len(regressions) == 1
        assert "experiment x" in regressions[0]

    def test_raised_floor_silences_regressions(self):
        from repro.bench.runner import find_regressions

        current, previous = self._reports(0.2, 0.9)
        assert find_regressions(current, previous, 10.0, noise_floor_seconds=1.0) == []
        assert len(find_regressions(current, previous, 10.0)) == 1

    def test_negative_floor_rejected(self):
        from repro.bench.runner import find_regressions

        current, previous = self._reports(0.2, 0.9)
        with pytest.raises(ConfigurationError, match="noise floor"):
            find_regressions(current, previous, 10.0, noise_floor_seconds=-0.1)

    def test_cli_noise_floor_flag(self, tmp_path, capsys):
        baseline = run_bench(tag="base", smoke=True)
        write_report(baseline, tmp_path)
        code = main(
            [
                "bench",
                "--smoke",
                "--tag",
                "next",
                "--output",
                str(tmp_path),
                "--compare",
                str(tmp_path / "BENCH_base.json"),
                "--fail-on-regression",
                "1000000",
                "--noise-floor",
                "100",
            ]
        )
        assert code == 0
        assert "perf ratchet passed" in capsys.readouterr().out

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

    def test_cli_profile_prints_table_and_writes_stats(self, tmp_path, capsys):
        out_file = tmp_path / "bench.prof"
        code = main(
            [
                "bench",
                "--smoke",
                "--tag",
                "prof",
                "--output",
                str(tmp_path),
                "--profile",
                "--profile-out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profile: top" in out
        assert "cumtime" in out
        assert out_file.is_file()
        import pstats

        pstats.Stats(str(out_file))  # the dump must be loadable
