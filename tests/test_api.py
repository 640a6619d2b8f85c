"""Unit tests for the scenario-first API (TestCell / Scenario / Engine)."""

import pytest

from repro.api import (
    Engine,
    Scenario,
    TestCell,
    batch_throughput_series,
    reference_test_cell,
    resolve_soc,
)
from repro.api.engine import optimize_scenario
from repro.ate.spec import AteSpec
from repro.cli import build_parser, experiment_commands
from repro.core.exceptions import ConfigurationError
from repro.core.units import kilo_vectors
from repro.experiments.registry import experiment_names, get_experiment
from repro.itc02.registry import load_benchmark
from repro.optimize.config import OptimizationConfig
from repro.optimize.two_step import optimize_multisite


@pytest.fixture(scope="module")
def cell() -> TestCell:
    """A small, fast test cell: 256 channels x 64 K vectors."""
    return reference_test_cell(channels=256, depth_m=0.0625)


class TestTestCell:
    def test_reference_cell_matches_paper(self):
        cell = reference_test_cell()
        assert cell.ate.channels == 512
        assert cell.probe_station.index_time_s == pytest.approx(0.5)
        assert cell.pricing is None

    def test_with_channels_and_depth(self, cell):
        assert cell.with_channels(128).ate.channels == 128
        assert cell.with_depth(1000).ate.depth == 1000
        # The original is unchanged (immutability).
        assert cell.ate.channels == 256

    def test_describe_mentions_both_components(self, cell):
        text = cell.describe()
        assert "channels" in text and "index" in text


class TestScenarioIdentity:
    def test_name_and_object_references_equal(self, cell):
        by_name = Scenario(soc="d695", test_cell=cell)
        by_object = Scenario(soc=load_benchmark("d695"), test_cell=cell)
        assert by_name == by_object
        assert hash(by_name) == hash(by_object)
        assert by_name.key == by_object.key

    def test_cosmetic_ate_label_ignored(self, cell):
        renamed = TestCell(
            ate=AteSpec(
                channels=cell.ate.channels,
                depth=cell.ate.depth,
                frequency_hz=cell.ate.frequency_hz,
                name="some-other-label",
            ),
            probe_station=cell.probe_station,
        )
        assert Scenario(soc="d695", test_cell=cell) == Scenario(soc="d695", test_cell=renamed)

    def test_config_distinguishes_scenarios(self, cell):
        plain = Scenario(soc="d695", test_cell=cell)
        shared = Scenario(
            soc="d695", test_cell=cell, config=OptimizationConfig(broadcast=True)
        )
        assert plain != shared
        assert plain.key != shared.key

    def test_soc_name_does_not_resolve(self, cell):
        assert Scenario(soc="no-such-benchmark", test_cell=cell).soc_name == "no-such-benchmark"

    def test_unknown_benchmark_rejected_on_resolve(self, cell):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            Scenario(soc="no-such-benchmark", test_cell=cell).resolve()

    def test_invalid_soc_reference_rejected(self, cell):
        with pytest.raises(ConfigurationError):
            Scenario(soc=42, test_cell=cell)
        with pytest.raises(ConfigurationError):
            Scenario(soc="", test_cell=cell)

    def test_resolve_soc_pnx8550(self):
        assert resolve_soc("pnx8550").name == "pnx8550"


class TestScenarioDerivation:
    def test_with_sites(self, cell):
        base = Scenario(soc="d695", test_cell=cell)
        limited = base.with_sites(4)
        assert limited.config.max_sites == 4
        assert base.config.max_sites is None  # immutability
        assert limited.with_sites(None).config.max_sites is None

    def test_with_soc(self, cell):
        base = Scenario(soc="d695", test_cell=cell)
        moved = base.with_soc("p22810")
        assert moved.soc_name == "p22810"
        assert moved.test_cell == base.test_cell
        assert base.soc_name == "d695"

    def test_with_soc_accepts_objects(self, cell):
        soc = load_benchmark("d695")
        assert Scenario(soc="p22810", test_cell=cell).with_soc(soc).soc is soc

    def test_with_helpers_compose(self, cell):
        scenario = (
            Scenario(soc="d695", test_cell=cell)
            .with_soc("p22810")
            .with_channels(128)
            .with_sites(6)
            .with_solver("restart")
        )
        assert scenario.soc_name == "p22810"
        assert scenario.test_cell.ate.channels == 128
        assert scenario.config.max_sites == 6
        assert scenario.solver == "restart"


class TestScenarioSweep:
    def test_cartesian_expansion_count(self, cell):
        grid = Scenario.sweep(
            ["d695", "p22810"],
            cell,
            channels=[128, 256],
            depths=[kilo_vectors(48), kilo_vectors(64), kilo_vectors(96)],
            broadcast=[False, True],
        )
        assert len(grid) == 2 * 2 * 3 * 2

    def test_omitted_axes_keep_base_values(self, cell):
        (only,) = Scenario.sweep("d695", cell)
        assert only.test_cell == cell
        assert only.config == OptimizationConfig()

    def test_scalar_axes_accepted(self, cell):
        grid = Scenario.sweep("d695", cell, broadcast=True)
        assert len(grid) == 1
        assert grid[0].config.broadcast

    def test_max_sites_axis(self, cell):
        grid = Scenario.sweep("d695", cell, max_sites=[None, 4, 8])
        assert [scenario.config.max_sites for scenario in grid] == [None, 4, 8]

    def test_deterministic_order(self, cell):
        first = Scenario.sweep("d695", cell, channels=[128, 256], broadcast=[False, True])
        second = Scenario.sweep("d695", cell, channels=[128, 256], broadcast=[False, True])
        assert first == second

    def test_empty_axes_rejected(self, cell):
        with pytest.raises(ConfigurationError):
            Scenario.sweep([], cell)
        with pytest.raises(ConfigurationError):
            Scenario.sweep("d695", cell, channels=[])
        with pytest.raises(ConfigurationError):
            Scenario.sweep("d695", cell, broadcast=[])


class TestEngine:
    def test_run_matches_legacy_function(self, cell):
        outcome = Engine().run(Scenario(soc="d695", test_cell=cell))
        legacy = optimize_multisite(
            load_benchmark("d695"), cell.ate, cell.probe_station, OptimizationConfig()
        )
        assert outcome.result == legacy

    def test_repeated_run_is_cache_hit(self, cell):
        engine = Engine()
        scenario = Scenario(soc="d695", test_cell=cell)
        first = engine.run(scenario)
        second = engine.run(scenario)
        assert first is second
        info = engine.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_cache_hit_keeps_requested_scenario(self, cell):
        # Canonically-equal scenarios with different cosmetic fields share
        # the expensive result, but each caller sees its own scenario back.
        engine = Engine()
        by_name = engine.run(Scenario(soc="d695", test_cell=cell))
        relabeled_cell = cell.with_ate(
            AteSpec(
                channels=cell.ate.channels,
                depth=cell.ate.depth,
                frequency_hz=cell.ate.frequency_hz,
                name="my-label",
            )
        )
        relabeled = engine.run(Scenario(soc="d695", test_cell=relabeled_cell))
        assert engine.cache_info().hits == 1
        assert relabeled.result is by_name.result
        assert relabeled.scenario.test_cell.ate.name == "my-label"

    def test_cache_disabled(self, cell):
        engine = Engine(cache=False)
        scenario = Scenario(soc="d695", test_cell=cell)
        assert engine.run(scenario) is not engine.run(scenario)
        assert engine.cache_info().size == 0

    def test_clear_cache(self, cell):
        engine = Engine()
        engine.run(Scenario(soc="d695", test_cell=cell))
        engine.clear_cache()
        assert engine.cache_info() == type(engine.cache_info())(hits=0, misses=0, size=0)

    def test_batch_equals_serial(self, cell):
        grid = Scenario.sweep(
            "d695",
            cell,
            channels=[128, 256],
            depths=[kilo_vectors(48), kilo_vectors(64)],
            broadcast=[False, True],
        )
        serial = [Engine(cache=False).run(scenario) for scenario in grid]
        batch = Engine().run_batch(grid, workers=4)
        assert len(batch) == len(serial)
        for serial_item, batch_item in zip(serial, batch):
            assert serial_item.scenario == batch_item.scenario
            assert serial_item.result == batch_item.result

    def test_batch_preserves_order_and_dedupes(self, cell):
        scenario = Scenario(soc="d695", test_cell=cell)
        other = scenario.with_channels(128)
        results = Engine().run_batch([scenario, other, scenario])
        assert results[0] is results[2]
        assert results[0].scenario == scenario
        assert results[1].scenario == other

    def test_batch_uses_cache_across_calls(self, cell):
        engine = Engine()
        grid = Scenario.sweep("d695", cell, channels=[128, 256])
        engine.run_batch(grid)
        engine.run_batch(grid)
        info = engine.cache_info()
        assert info.misses == 2 and info.hits == 2

    def test_batch_computes_each_scenario_once_in_a_worker(self, cell):
        """Exact counters of a parallel batch and of its cached rerun.

        Every distinct scenario is computed once (duplicates collapse), in
        a pool worker -- the driving process evaluates no kernel point --
        and a rerun on the same engine is all cache hits, computing nothing.
        """
        from repro.solvers import evaluate

        grid = Scenario.sweep("d695", cell, channels=[128, 256], broadcast=[False, True])
        engine = Engine()
        before = evaluate.cache_info()
        first = engine.run_batch(grid + grid[:2], workers=2)
        info = engine.cache_info()
        assert (info.misses, info.hits, info.size) == (len(grid), 0, len(grid))
        assert evaluate.cache_info() == before
        again = engine.run_batch(grid, workers=2)
        info = engine.cache_info()
        assert (info.misses, info.hits) == (len(grid), len(grid))
        assert evaluate.cache_info() == before
        assert [r.result for r in again] == [r.result for r in first[: len(grid)]]

    def test_invalid_worker_counts_rejected(self, cell):
        with pytest.raises(ConfigurationError):
            Engine(workers=0)
        with pytest.raises(ConfigurationError):
            Engine().run_batch([], workers=-1)

    def test_empty_batch(self):
        assert Engine().run_batch([]) == ()


class TestScenarioResult:
    def test_record_plugs_into_export(self, cell):
        outcome = Engine().run(Scenario(soc="d695", test_cell=cell))
        record = outcome.to_record()
        assert record["soc"] == "d695"
        assert record["scenario_key"] == outcome.scenario.key
        assert record["optimal"]["sites"] == outcome.optimal_sites

    def test_batch_series(self, cell):
        results = Engine().run_batch(Scenario.sweep("d695", cell, channels=[128, 256]))
        series = batch_throughput_series(
            results,
            x_axis=lambda item: item.scenario.test_cell.ate.channels,
            name="d695 throughput",
            x_label="ATE channels",
        )
        assert series.xs == (128.0, 256.0)
        assert series.is_nondecreasing()

    def test_optimize_scenario_without_engine(self, cell):
        soc = load_benchmark("d695")
        direct = optimize_scenario(None, soc, cell.ate, cell.probe_station, OptimizationConfig())
        assert direct == optimize_multisite(soc, cell.ate, cell.probe_station)


class TestExperimentRegistry:
    def test_every_cli_experiment_resolves(self):
        names = experiment_commands()
        assert set(names) == set(experiment_names())
        parser = build_parser()
        for name in names:
            experiment = get_experiment(name)
            assert experiment.name == name
            assert callable(experiment.runner) and callable(experiment.render)
            # The generated sub-command parses (registry drives the CLI).
            assert parser.parse_args([name]).command == name

    def test_report_experiments_registered(self):
        from repro.experiments.runner import REPORT_EXPERIMENTS

        assert set(REPORT_EXPERIMENTS) <= set(experiment_names())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("figure42")

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register_experiment

        with pytest.raises(ConfigurationError, match="already registered"):
            register_experiment("figure5", title="dup", render=str)(lambda engine: None)
