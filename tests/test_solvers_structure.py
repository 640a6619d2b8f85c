"""Problem structures: Step-1 designs and widened plateaus shared in a scope.

:mod:`repro.solvers.structure` lets the scenarios of one engine call,
pool chunk or worker chunk share the Step-1 design of each (SOC, channels,
depth) and the widened architecture of each (design, budget).  These tests
pin that the sharing changes no output -- down to the encoded store
payload, whose by-identity interning sees which objects are shared -- that
it does exactly the distinct work, and that nothing outlives the scope.
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import pytest

import repro.optimize.step1 as step1_module
import repro.solvers.evaluate as kernel
import repro.solvers.structure as structure_module

from repro.api.engine import Engine, ScenarioResult, _execute, _execute_chunk
from repro.api.grid import SweepGrid
from repro.api.testcell import reference_test_cell
from repro.bench.runner import sweep_digest
from repro.core.units import mega_vectors
from repro.objectives.registry import objective_names
from repro.optimize.channels import max_channels_per_site, max_sites
from repro.optimize.config import OptimizationConfig
from repro.soc.catalog import resolve_catalog_soc, synthetic_family
from repro.solvers.structure import (
    ProblemStructure,
    StructureScope,
    problem_structure,
    structure_scope,
)
from repro.store.serialize import encode_result
from repro.tam.architecture import TestArchitecture
from repro.tam.assignment import design_architecture
from repro.tam.channel_group import ChannelGroup
from repro.tam.redistribution import widen_bottleneck

#: The synthetic family seeds the perfbench workloads draw from.
FAMILY_SEEDS = tuple(7000 + 100 * index for index in range(16))

CHANNELS = (128, 320)
DEPTHS = tuple(mega_vectors(depth) for depth in (1.0, 4.0))


def _grid(family_seed, count=1, **kwargs):
    return SweepGrid(
        synthetic_family(family_seed, count=count, modules=6),
        reference_test_cell(),
        channels=CHANNELS,
        depths=DEPTHS,
        broadcast=[False, True],
        **kwargs,
    )


def _payload(result):
    """The store codec's encoding of ``result``, as compared bytes."""
    return json.dumps(encode_result(result), sort_keys=True)


def _scoped_and_isolated(family_seed):
    """A family's grid run through ``run_iter`` and solved one by one."""
    grid = _grid(
        family_seed,
        objectives=objective_names(),
        max_sites=[6],
        config=OptimizationConfig(abort_on_fail=True, manufacturing_yield=0.9, min_sites=2),
    ) | _grid(family_seed, objectives=objective_names())
    scoped = list(Engine(cache=False).run_iter(grid, workers=1))
    isolated = []
    for scenario in grid:
        assert structure_module._active.get() is None
        isolated.append(ScenarioResult(scenario=scenario, result=_execute(scenario)))
    return scoped, isolated


class TestScopedEqualsIsolated:
    @pytest.mark.parametrize("family_seed", FAMILY_SEEDS)
    def test_run_iter_equals_isolated_solves(self, family_seed):
        scoped, isolated = _scoped_and_isolated(family_seed)
        assert sweep_digest(scoped) == sweep_digest(isolated)

    def test_store_payloads_equal_isolated_solves(self):
        # The store codec interns by identity, so equal payloads also pin
        # that the objects shared within each result are the ones a lone
        # solve shares.
        scoped, isolated = _scoped_and_isolated(FAMILY_SEEDS[7])
        assert [_payload(outcome.result) for outcome in scoped] == [
            _payload(outcome.result) for outcome in isolated
        ]

    def test_chunk_equals_isolated_solves(self):
        scenarios = list(_grid(FAMILY_SEEDS[3], objectives=("throughput", "test_time")))
        results, error = _execute_chunk(scenarios)
        assert error is None
        assert [_payload(result) for result in results] == [
            _payload(_execute(scenario)) for scenario in scenarios
        ]


class TestCarriedFills:
    def test_every_carried_fill_is_the_group_fill(self, monkeypatch):
        carried = []
        with_width = ChannelGroup.with_width

        def recording(group, width, fill=None):
            resized = with_width(group, width, fill)
            if fill is not None:
                carried.append(resized)
            return resized

        monkeypatch.setattr(ChannelGroup, "with_width", recording)
        grid = _grid(FAMILY_SEEDS[0], objectives=("throughput", "test_time"))
        list(Engine(cache=False).run_iter(grid, workers=1))
        assert carried
        for group in carried:
            assert vars(group)["fill"] == group.fill_at_width(group.width)

    def test_widening_carries_fills_on_random_extras(self):
        rng = random.Random(41)
        for name in synthetic_family(FAMILY_SEEDS[5], count=3, modules=10):
            soc = resolve_catalog_soc(name)
            for depth in DEPTHS:
                design = design_architecture(soc, 320, depth)
                for _ in range(10):
                    widened = widen_bottleneck(design, rng.randint(1, 200))
                    for group in widened.groups:
                        assert group.fill == group.fill_at_width(group.width)

    def test_width_move_keeps_untouched_groups_and_skips_the_coverage_check(
        self, monkeypatch
    ):
        soc = resolve_catalog_soc(synthetic_family(FAMILY_SEEDS[1], count=1, modules=10)[0])
        design = design_architecture(soc, 320, DEPTHS[0])
        fills = design.fills
        checks = []
        original = TestArchitecture.__post_init__
        monkeypatch.setattr(
            TestArchitecture, "__post_init__", lambda self: checks.append(original(self))
        )
        target = design.groups[0]
        moved = design.with_group_width(target.index, target.width + 3)
        assert checks == []
        assert moved.groups[0].width == target.width + 3
        assert moved.groups[0].fill == target.fill_at_width(target.width + 3)
        for before, after in zip(design.groups[1:], moved.groups[1:]):
            assert after is before
        assert moved.fills[1:] == fills[1:]


class TestWorkCounters:
    def test_each_design_and_plateau_is_computed_once(self, monkeypatch):
        names = synthetic_family(FAMILY_SEEDS[2], count=2, modules=8)
        grid = SweepGrid(
            names,
            reference_test_cell(),
            channels=CHANNELS,
            depths=DEPTHS,
            broadcast=[False, True],
        )
        # Brute force: every scenario's Step-1 design and Step-2 budgets.
        design_of = step1_module.design_architecture
        inputs, pairs = set(), set()
        for scenario in grid:
            soc, ate = scenario.resolve(), scenario.test_cell.ate
            broadcast = scenario.config.broadcast
            inputs.add((soc.name, ate.channels, ate.depth))
            design = design_of(soc, ate.channels, ate.depth)
            upper = max_sites(ate.channels, design.ate_channels, broadcast)
            for sites in range(upper, 0, -1):
                pairs.add((design, max_channels_per_site(ate.channels, sites, broadcast)))

        designs, widenings = [], []

        def counting_design(*args, **kwargs):
            designs.append(args)
            return design_of(*args, **kwargs)

        def counting_widen(architecture, budget):
            widenings.append(budget)
            return widen(architecture, budget)

        widen = kernel.widen_to_channel_budget
        monkeypatch.setattr(step1_module, "design_architecture", counting_design)
        monkeypatch.setattr(kernel, "widen_to_channel_budget", counting_widen)
        results = list(Engine().run_iter(grid, workers=1))
        assert len(results) == len(grid) == 16
        assert len(designs) == len(inputs) == 8
        assert len(widenings) == len(pairs)
        assert len(pairs) < sum(len(outcome.result.points) for outcome in results)


class TestScopeLifetime:
    @pytest.fixture
    def created(self, monkeypatch):
        refs = []

        class Tracked(ProblemStructure):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(structure_module, "ProblemStructure", Tracked)
        return refs

    def test_nothing_is_retained_after_run_iter(self, created):
        grid = _grid(FAMILY_SEEDS[4])
        engine = Engine()
        for _ in engine.run_iter(grid, workers=1):
            # The scope is active only around each solve, never while the
            # consumer runs.
            assert structure_module._active.get() is None
        gc.collect()
        assert created
        assert all(ref() is None for ref in created)
        assert engine.cache_info().size == len(grid)

    def test_nothing_is_retained_after_a_chunk(self, created):
        results, error = _execute_chunk(list(_grid(FAMILY_SEEDS[4])))
        assert error is None and results
        assert structure_module._active.get() is None
        gc.collect()
        assert created
        assert all(ref() is None for ref in created)

    def test_outside_a_scope_every_lookup_is_throwaway(self):
        soc = resolve_catalog_soc(synthetic_family(FAMILY_SEEDS[0], count=1, modules=6)[0])
        assert problem_structure(soc, DEPTHS[0]) is not problem_structure(soc, DEPTHS[0])

    def test_scope_is_reentrant_and_emptied_on_exit(self):
        soc = resolve_catalog_soc(synthetic_family(FAMILY_SEEDS[0], count=1, modules=6)[0])
        with structure_scope() as outer:
            structure = problem_structure(soc, DEPTHS[0])
            with structure_scope(StructureScope()) as inner:
                assert inner is outer
                assert problem_structure(soc, DEPTHS[0]) is structure
            assert problem_structure(soc, DEPTHS[0]) is structure
            assert len(outer) == 1
        assert len(outer) == 0
        assert structure_module._active.get() is None

    def test_scope_is_bounded(self):
        scope = StructureScope()
        socs = [
            resolve_catalog_soc(name)
            for name in synthetic_family(FAMILY_SEEDS[6], count=3, modules=6)
        ]
        for depth in range(1, 3 * StructureScope.max_structures):
            scope.structure(socs[depth % len(socs)], depth)
            assert len(scope) <= StructureScope.max_structures
