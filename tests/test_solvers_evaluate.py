"""Tests of the evaluation kernel (``repro.solvers.evaluate``)."""

import pytest

from repro.multisite.throughput import MultiSiteScenario
from repro.optimize.config import Objective, OptimizationConfig
from repro.optimize.step1 import run_step1
from repro.optimize.step2 import run_step2, step1_only_throughput
from repro.solvers import evaluate
from repro.tam.assignment import design_architecture


@pytest.fixture
def step1(tiny_soc, small_ate, probe):
    return run_step1(tiny_soc, small_ate, probe, OptimizationConfig())


class TestKernel:
    def test_scenario_matches_manual_derivation(self, step1):
        scenario = evaluate.scenario_for(
            step1.architecture, 2, step1.ate, step1.probe_station, step1.config
        )
        assert isinstance(scenario, MultiSiteScenario)
        assert scenario.sites == 2
        assert scenario.channels_per_site == step1.architecture.ate_channels
        assert scenario.timing.manufacturing_test_time_s == pytest.approx(
            step1.ate.cycles_to_seconds(step1.architecture.test_time_cycles)
        )

    def test_objective_switches_with_config(self, step1):
        scenario = evaluate.scenario_for(
            step1.architecture, 2, step1.ate, step1.probe_station, step1.config
        )
        raw = evaluate.objective_value(scenario, OptimizationConfig())
        unique = evaluate.objective_value(
            scenario, OptimizationConfig(objective=Objective.UNIQUE_THROUGHPUT)
        )
        assert raw == pytest.approx(scenario.throughput())
        assert unique == pytest.approx(scenario.unique_throughput())

    def test_point_is_memoised(self, step1):
        memo = evaluate.PointMemo(step1.ate, step1.probe_station, step1.config)
        first = memo.point(step1.architecture, 3)
        before = evaluate.cache_info()
        second = memo.point(step1.architecture, 3)
        after = evaluate.cache_info()
        assert second is first
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        # The memo belongs to its run: a plain evaluation computes afresh.
        fresh = evaluate.evaluate_point(
            step1.architecture, 3, step1.ate, step1.probe_station, step1.config
        )
        assert fresh == first and fresh is not first
        assert evaluate.cache_info().misses == after.misses + 1

    def test_memo_drops_the_oldest_point_past_its_cap(self, step1):
        memo = evaluate.PointMemo(step1.ate, step1.probe_station, step1.config)
        memo.max_points = 2
        oldest = memo.point(step1.architecture, 1)
        memo.point(step1.architecture, 2)
        newest = memo.point(step1.architecture, 3)
        assert len(memo) == 2
        before = evaluate.cache_info()
        assert memo.point(step1.architecture, 3) is newest
        again = memo.point(step1.architecture, 1)
        after = evaluate.cache_info()
        assert again == oldest and again is not oldest
        assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
        assert len(memo) == 2

    def test_step2_sweep_computes_every_point(self, step1):
        before = evaluate.cache_info()
        result = run_step2(step1)
        info = evaluate.cache_info()
        assert info.misses - before.misses == len(result.points)
        assert info.batch_points - before.batch_points == len(result.points)
        # No process-wide memo: re-running the sweep computes it again,
        # to the same rows.
        rerun = run_step2(step1)
        assert rerun == result
        assert evaluate.cache_info().misses - info.misses == len(result.points)
        assert evaluate.cache_info().hits == info.hits

    def test_step1_only_throughput_uses_the_kernel(self, step1):
        before = evaluate.cache_info()
        value = step1_only_throughput(step1, 1)
        assert value > 0
        assert step1_only_throughput(step1, 1) == value
        assert evaluate.cache_info().misses == before.misses + 2

    def test_distinct_designs_do_not_collide(self, tiny_soc, medium_soc, small_ate, probe):
        config = OptimizationConfig()
        memo = evaluate.PointMemo(small_ate, probe, config)
        tiny_arch = design_architecture(tiny_soc, small_ate.channels, small_ate.depth)
        deep = small_ate.with_depth(131072)
        medium_arch = design_architecture(medium_soc, deep.channels, deep.depth)
        before = evaluate.cache_info()
        a = memo.point(tiny_arch, 2)
        b = memo.point(medium_arch, 2)
        c = memo.point(tiny_arch, 1)
        assert a.objective != b.objective
        assert c.sites == 1 and c is not a
        assert evaluate.cache_info().misses == before.misses + 3
        assert evaluate.cache_info().hits == before.hits
