"""Equivalence of the evaluation kernel's fast paths and their references.

The kernel (:mod:`repro.solvers.evaluate`) memoises points, widens Step-2
architectures incrementally and serves batches from one memo; ``repro all``
digests and store records depend on it producing *exactly* the bytes of
plain per-point evaluation.  This suite pins that promise:

* batch evaluation (memo probe plus incremental widening) equals per-point
  scalar evaluation across SOCs, objectives, broadcast modes and yield
  settings (``==`` on floats, no tolerance);
* the incremental Step-2 widening equals from-scratch widening for every
  site count;
* :func:`~repro.solvers.evaluate.evaluate_move` equals a full
  re-evaluation for random single-module width moves;
* the fast wrapper test time equals the full
  :func:`~repro.wrapper.combine.design_wrapper` construction, and the
  closed-form partition helpers equal their brute-force references;
* each module's cached test-time curve equals the per-width computation
  at every width, and so do the wrapper queries that read it
  (:func:`~repro.wrapper.combine.min_width_for_depth`,
  :func:`~repro.wrapper.pareto.pareto_points`);
* the heap-driven Step-2 widening equals the wire-by-wire greedy it
  replaces (kept here as :func:`_wire_by_wire_widen`), including tied
  fills and non-monotone test-time curves;
* the curve cache builds one curve per distinct module, and a widening
  rebuilds each channel group at most once.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import repro.tam.channel_group as channel_group_module
import repro.tam.redistribution as redistribution_module

from repro.api.scenario import Scenario
from repro.api.testcell import reference_test_cell
from repro.core.exceptions import InfeasibleDesignError
from repro.core.units import kilo_vectors, mega_vectors
from repro.objectives.registry import objective_names
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import Objective, OptimizationConfig
from repro.optimize.step1 import run_step1
from repro.soc.catalog import resolve_catalog_soc, synthetic_family
from repro.soc.module import make_module
from repro.soc.soc import Soc
from repro.solvers import evaluate as kernel
from repro.tam.architecture import TestArchitecture
from repro.tam.channel_group import ChannelGroup
from repro.tam.redistribution import widen_bottleneck, widen_to_channel_budget
from repro.wrapper.combine import (
    TestTimeCurve,
    _fast_test_time,
    design_wrapper,
    min_width_for_depth,
    module_curve,
    module_test_time,
)
from repro.wrapper.pareto import pareto_points
from repro.wrapper.partition import (
    best_partition,
    bfd_partition,
    lpt_partition,
    spread_cells,
    water_level,
)

SOC_NAMES = ("d695", "pnx8550", "synthetic:42:8")

#: Per-SOC test-cell operating points (channels, vector depth in M) that
#: are feasible in both broadcast modes.
SOC_CELLS = {
    "d695": (256, 0.0625),
    "pnx8550": (512, 7.0),
    "synthetic:42:8": (256, 2.0),
}


def _step1_for(soc_name, broadcast=False, **config_kwargs):
    soc = resolve_catalog_soc(soc_name)
    channels, depth_m = SOC_CELLS[soc_name]
    cell = reference_test_cell(channels=channels, depth_m=depth_m)
    config = OptimizationConfig(broadcast=broadcast, **config_kwargs)
    return run_step1(soc, cell.ate, cell.probe_station, config)


def _scalar_points(step1, site_counts, objective):
    """Per-point scalar evaluation, bypassing the kernel and its memo."""
    from repro.objectives.registry import get_objective

    spec = get_objective(objective)
    values = []
    current = step1.architecture
    architectures = {}
    for sites in sorted(set(site_counts), reverse=True):
        budget = max_channels_per_site(
            step1.ate.channels, sites, step1.config.broadcast
        )
        current = widen_to_channel_budget(current, budget)
        architectures[sites] = current
    for sites in site_counts:
        scenario = kernel.scenario_for(
            architectures[sites], sites, step1.ate, step1.probe_station, step1.config
        )
        values.append(spec.value(scenario, step1.config, step1.ate))
    return values


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_all_objectives_bit_identical(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        site_counts = list(range(step1.max_sites, 0, -1))
        for objective in objective_names():
            kernel.clear_cache()
            batch = kernel.evaluate_points(step1, site_counts, objective)
            scalar = _scalar_points(step1, site_counts, objective)
            assert [point.objective for point in batch] == scalar, objective

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {"abort_on_fail": True, "manufacturing_yield": 0.85},
            {"objective": Objective.UNIQUE_THROUGHPUT},
            {
                "objective": Objective.UNIQUE_THROUGHPUT,
                "abort_on_fail": True,
                "manufacturing_yield": 0.6,
            },
        ],
    )
    def test_yield_and_retest_variants_bit_identical(self, config_kwargs):
        step1 = _step1_for("d695", **config_kwargs)
        site_counts = list(range(step1.max_sites, 0, -1))
        kernel.clear_cache()
        batch = kernel.evaluate_points(step1, site_counts)
        scalar = _scalar_points(step1, site_counts, "throughput")
        assert [point.objective for point in batch] == scalar

    def test_batch_and_scalar_entry_points_share_results(self):
        step1 = _step1_for("d695")
        kernel.clear_cache()
        batched = kernel.evaluate_points(step1, range(step1.max_sites, 0, -1))
        for point in batched:
            again = kernel.evaluate_point(
                point.architecture,
                point.sites,
                step1.ate,
                step1.probe_station,
                step1.config,
            )
            assert again.objective == point.objective
            assert again.scenario == point.scenario


class TestIncrementalWidening:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_incremental_equals_from_scratch(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        current = step1.architecture
        for sites in range(step1.max_sites, 0, -1):
            budget = max_channels_per_site(step1.ate.channels, sites, broadcast)
            current = widen_to_channel_budget(current, budget)
            scratch = widen_to_channel_budget(step1.architecture, budget)
            assert current == scratch, f"{soc_name} sites={sites}"

    def test_budgets_monotone_as_sites_descend(self):
        # The incremental chain is only valid because budgets never shrink
        # while sites are given up -- pin that property for both modes.
        for broadcast in (False, True):
            budgets = [
                max_channels_per_site(512, sites, broadcast)
                for sites in range(32, 0, -1)
            ]
            assert budgets == sorted(budgets)


class TestEvaluateMove:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_move_equals_full_reevaluation(self, soc_name):
        step1 = _step1_for(soc_name)
        kernel.clear_cache()
        point = kernel.evaluate_points(step1, (step1.max_sites,))[0]
        rng = random.Random(1205)
        modules = list(point.architecture.soc.modules)
        for _ in range(20):
            module = rng.choice(modules)
            delta = rng.choice([-2, -1, 1, 2])
            width = point.architecture.group_of(module.name).width + delta
            if width <= 0:
                continue
            moved = kernel.evaluate_move(point, module, delta)
            reference_architecture = point.architecture.with_group_width(
                point.architecture.group_of(module.name).index, width
            )
            reference = kernel.evaluate_point(
                reference_architecture,
                point.sites,
                step1.ate,
                step1.probe_station,
                step1.config,
            )
            assert moved.objective == reference.objective
            assert moved.architecture == reference_architecture
            assert moved.scenario == reference.scenario

    def test_undoing_a_move_is_a_cache_hit(self):
        step1 = _step1_for("d695")
        kernel.clear_cache()
        point = kernel.evaluate_points(step1, (step1.max_sites,))[0]
        module = point.architecture.soc.modules[0]
        there = kernel.evaluate_move(point, module, 1)
        before = kernel.cache_info()
        back = kernel.evaluate_move(there, module, -1)
        after = kernel.cache_info()
        assert back.objective == point.objective
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_zero_delta_returns_same_point(self):
        step1 = _step1_for("d695")
        point = kernel.evaluate_points(step1, (1,))[0]
        assert kernel.evaluate_move(point, point.architecture.soc.modules[0], 0) is point


class TestFastWrapperTime:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    def test_fast_test_time_equals_full_design(self, soc_name):
        soc = resolve_catalog_soc(soc_name)
        for module in soc.modules:
            for width in range(1, min(40, module.max_useful_width + 3)):
                assert (
                    _fast_test_time(module, width)
                    == design_wrapper(module, width).test_time_cycles
                ), f"{module.name} width={width}"

    def test_module_test_time_is_cached_fast_path(self):
        soc = resolve_catalog_soc("d695")
        module = soc.modules[0]
        assert module_test_time(module, 4) == _fast_test_time(module, 4)


def _greedy_spread(base_loads, cells):
    """Reference: assign cells one by one to the least-loaded chain."""
    loads = list(base_loads)
    added = [0] * len(loads)
    for _ in range(cells):
        index = min(range(len(loads)), key=lambda i: (loads[i], i))
        loads[index] += 1
        added[index] += 1
    return tuple(added)


class TestPartitionHelpers:
    def test_spread_cells_matches_greedy_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            num = rng.randint(1, 8)
            loads = [rng.randint(0, 30) for _ in range(num)]
            cells = rng.randint(0, 60)
            assert spread_cells(loads, cells) == _greedy_spread(loads, cells), (
                loads,
                cells,
            )

    def test_water_level_is_max_final_load(self):
        rng = random.Random(11)
        for _ in range(200):
            num = rng.randint(1, 8)
            loads = [rng.randint(0, 30) for _ in range(num)]
            cells = rng.randint(1, 60)
            added = spread_cells(loads, cells)
            expected = max(load + extra for load, extra in zip(loads, added))
            level = water_level(sorted(loads), cells)
            assert max(max(loads), level) == expected, (loads, cells)

    def test_best_partition_shortcut_preserves_choice(self):
        # The LPT lower-bound shortcut must never change which partition
        # best_partition returns.
        rng = random.Random(23)
        for _ in range(300):
            num_items = rng.randint(1, 10)
            sizes = [rng.randint(1, 50) for _ in range(num_items)]
            bins = rng.randint(1, num_items)
            lpt = lpt_partition(sizes, bins)
            bfd = bfd_partition(sizes, bins)
            reference = bfd if bfd.makespan < lpt.makespan else lpt
            assert best_partition(sizes, bins) == reference, (sizes, bins)


class TestScenarioGridSanity:
    def test_sweep_scenarios_reproduce_after_kernel_clear(self):
        # A whole engine-level scenario evaluated twice -- once against a
        # cold kernel, once warm -- must give identical results.
        from repro.api.engine import Engine

        cell = reference_test_cell(channels=128, depth_m=0.0625)
        scenarios = Scenario.sweep(
            "d695",
            cell,
            channels=[128],
            depths=[kilo_vectors(48), kilo_vectors(64)],
            broadcast=[False, True],
        )
        kernel.clear_cache()
        cold = [Engine().run(s).result for s in scenarios]
        warm = [Engine().run(s).result for s in scenarios]
        assert cold == warm

    def test_synthetic_deep_grid_bit_identical(self):
        # A synthetic SOC at M-deep vectors (the synthetic sweep's regime).
        soc = resolve_catalog_soc("synthetic:42:8")
        cell = reference_test_cell(channels=192, depth_m=2.0)
        config = OptimizationConfig(broadcast=True)
        step1 = run_step1(soc, cell.ate, cell.probe_station, config)
        site_counts = list(range(step1.max_sites, 0, -1))
        kernel.clear_cache()
        batch = kernel.evaluate_points(step1, site_counts, "cost_per_good_die")
        scalar = _scalar_points(step1, site_counts, "cost_per_good_die")
        assert [point.objective for point in batch] == scalar


# ----------------------------------------------------------------------
# Test-time curves
# ----------------------------------------------------------------------
#: Modules at the edges of the wrapper model: no scan chains, no input
#: cells, no output cells, no functional I/O at all, a single chain.
EDGE_MODULES = (
    make_module("no_scan", inputs=17, outputs=5, bidirs=2, scan_lengths=(), patterns=9),
    make_module("no_inputs", inputs=0, outputs=6, bidirs=0, scan_lengths=(40, 12, 7), patterns=4),
    make_module("no_outputs", inputs=3, outputs=0, bidirs=0, scan_lengths=(9, 9, 30), patterns=5),
    make_module("scan_only", inputs=0, outputs=0, bidirs=0, scan_lengths=(25, 3, 3, 8), patterns=7),
    make_module("one_chain", inputs=2, outputs=2, bidirs=1, scan_lengths=(64,), patterns=3),
)


def _curve_modules():
    socs = [resolve_catalog_soc(name) for name in ("d695", "pnx8550")]
    socs += [
        resolve_catalog_soc(name)
        for seed in (3, 17, 91)
        for name in synthetic_family(seed, count=2, modules=12)
    ]
    return [module for soc in socs for module in soc.modules] + list(EDGE_MODULES)


def _reference_min_width(module, depth, max_width):
    """Step 1's width search, one per-width computation per probe."""
    effective_max = min(max_width, module.max_useful_width)
    if _fast_test_time(module, effective_max) > depth:
        raise InfeasibleDesignError("infeasible", module_name=module.name)
    low, high = 1, effective_max
    while low < high:
        mid = (low + high) // 2
        if _fast_test_time(module, mid) <= depth:
            high = mid
        else:
            low = mid + 1
    while low < effective_max and _fast_test_time(module, low) > depth:
        low += 1
    return low


def _reference_pareto(module, max_width):
    """Pareto widths from per-width computations: strict prefix minima."""
    points, best = [], None
    for width in range(1, min(max_width, module.max_useful_width) + 1):
        time = _fast_test_time(module, width)
        if best is None or time < best:
            points.append((width, time))
            best = time
    return points


class TestTestTimeCurve:
    def test_curve_equals_per_width_time_past_the_useful_width(self):
        for module in _curve_modules():
            curve = module_curve(module)
            assert len(curve.times) == module.max_useful_width
            for width in range(1, module.max_useful_width + 41):
                expected = _fast_test_time(module, width)
                assert curve.at(width) == expected, f"{module.name} width={width}"
                assert module_test_time(module, width) == expected

    def test_edge_modules_match_the_full_wrapper_design(self):
        for module in EDGE_MODULES:
            for width in range(1, module.max_useful_width + 5):
                assert (
                    module_curve(module).at(width)
                    == design_wrapper(module, width).test_time_cycles
                ), f"{module.name} width={width}"

    def test_pareto_points_equal_per_width_prefix_minima(self):
        for module in _curve_modules():
            top = module.max_useful_width
            for max_width in sorted({1, max(1, top // 3), top, top + 10}):
                got = [(p.width, p.test_time_cycles) for p in pareto_points(module, max_width)]
                assert got == _reference_pareto(module, max_width), (module.name, max_width)

    def test_min_width_for_depth_equals_per_width_search(self):
        rng = random.Random(5)
        for module in _curve_modules():
            times = sorted(set(module_curve(module).times))
            depths = {time + offset for time in times for offset in (-1, 0, 1)} - {0}
            for depth in sorted(depths):
                max_width = rng.randint(1, module.max_useful_width + 5)
                try:
                    expected = _reference_min_width(module, depth, max_width)
                except InfeasibleDesignError:
                    with pytest.raises(InfeasibleDesignError):
                        min_width_for_depth(module, depth, max_width)
                    continue
                assert min_width_for_depth(module, depth, max_width) == expected, (
                    module.name,
                    depth,
                    max_width,
                )


# ----------------------------------------------------------------------
# Step-2 widening
# ----------------------------------------------------------------------
def _wire_by_wire_widen(architecture, extra_wires, test_time=_fast_test_time):
    """Reference Step-2 widening: one wire at a time to the fullest group.

    Ties go to the lower group position; every group fill is re-derived
    from ``test_time`` per wire.
    """
    groups = list(architecture.groups)

    def fill(group):
        return sum(test_time(module, group.width) for module in group.modules)

    fills = [fill(group) for group in groups]
    for _ in range(extra_wires):
        bottleneck = max(range(len(fills)), key=lambda position: (fills[position], -position))
        groups[bottleneck] = groups[bottleneck].with_width(groups[bottleneck].width + 1)
        fills[bottleneck] = fill(groups[bottleneck])
    return architecture.with_groups(tuple(groups))


def _random_architecture(rng, modules):
    """A random grouping of ``modules`` at random narrow widths."""
    modules = list(modules)
    rng.shuffle(modules)
    count = rng.randint(1, min(6, len(modules)))
    cuts = sorted(rng.sample(range(1, len(modules)), count - 1)) if count > 1 else []
    bounds = [0] + cuts + [len(modules)]
    groups = tuple(
        ChannelGroup(index=index, width=rng.randint(1, 6), modules=tuple(modules[lo:hi]))
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )
    soc = Soc(name="random", modules=tuple(modules))
    return TestArchitecture(soc=soc, groups=groups, depth=10**12)


def _twin_modules(rng, copies):
    """Structurally identical modules, so equal groups tie on fill."""
    lengths = tuple(rng.randint(1, 40) for _ in range(rng.randint(1, 5)))
    inputs, outputs = rng.randint(0, 8), rng.randint(0, 8)
    return [
        make_module(f"twin{index}", inputs, outputs, 0, lengths, patterns=rng.randint(1, 9))
        for index in range(copies)
    ]


class TestHeapWidening:
    def test_equals_wire_by_wire_on_random_architectures(self):
        rng = random.Random(29)
        pool = [
            replace(module, name=f"{soc_index}.{module.name}")
            for soc_index, name in enumerate(synthetic_family(400, count=3, modules=10))
            for module in resolve_catalog_soc(name).modules
        ]
        for trial in range(150):
            modules = rng.sample(pool, rng.randint(1, 12))
            architecture = _random_architecture(rng, modules)
            extra = rng.choice((0, 1, 2, rng.randint(3, 40), rng.randint(40, 400)))
            assert widen_bottleneck(architecture, extra) == _wire_by_wire_widen(
                architecture, extra
            ), (trial, extra)

    def test_equals_wire_by_wire_with_tied_fills(self):
        rng = random.Random(31)
        for trial in range(100):
            modules = _twin_modules(rng, copies=rng.randint(2, 6))
            # One module per group, every group at the same width: all
            # fills tie, so only the lower-position rule picks a group.
            width = rng.randint(1, 4)
            architecture = TestArchitecture(
                soc=Soc(name="twins", modules=tuple(modules)),
                groups=tuple(
                    ChannelGroup(index=index, width=width, modules=(module,))
                    for index, module in enumerate(modules)
                ),
                depth=10**12,
            )
            extra = rng.randint(1, 120)
            assert widen_bottleneck(architecture, extra) == _wire_by_wire_widen(
                architecture, extra
            ), (trial, extra)

    def test_equals_wire_by_wire_on_non_monotone_curves(self, monkeypatch):
        # COMBINE is not formally monotone in the width.  Give every module
        # a random curve that rises, falls and plateaus, and check that
        # the heap, the runs and the flat-tail jump still make exactly the
        # wire-by-wire choices.
        rng = random.Random(37)
        curves = {}

        def fake_curve(module):
            return curves[module.name]

        monkeypatch.setattr(redistribution_module, "module_curve", fake_curve)
        monkeypatch.setattr(channel_group_module, "module_curve", fake_curve)
        for trial in range(150):
            modules = [
                make_module(f"m{index}", 1, 1, 0, (1,), patterns=1)
                for index in range(rng.randint(1, 8))
            ]
            curves.clear()
            for module in modules:
                length = rng.randint(1, 12)
                times = [rng.choice((5, 10, 20, 40)) for _ in range(length)]
                curves[module.name] = TestTimeCurve(times=tuple(times), breakpoints=(1,))
            architecture = _random_architecture(rng, modules)
            extra = rng.randint(0, 60)
            reference = _wire_by_wire_widen(
                architecture, extra, test_time=lambda module, width: curves[module.name].at(width)
            )
            assert widen_bottleneck(architecture, extra) == reference, (trial, extra)


# ----------------------------------------------------------------------
# Exact work counters
# ----------------------------------------------------------------------
class TestWorkCounters:
    def test_one_curve_per_distinct_module(self):
        from repro.api.engine import Engine
        from repro.api.grid import SweepGrid
        from repro.bench.runner import clear_computation_caches

        names = synthetic_family(700, count=4, modules=8)
        grid = SweepGrid(
            names,
            reference_test_cell(),
            channels=[128, 320],
            depths=[mega_vectors(1.0), mega_vectors(4.0)],
            broadcast=[False, True],
        )
        clear_computation_caches()
        results = list(Engine().run_iter(grid, workers=1))
        assert len(results) == len(grid)
        distinct = {module for name in names for module in resolve_catalog_soc(name).modules}
        assert module_curve.cache_info().misses == len(distinct)

    def test_widening_builds_each_group_at_most_once(self, monkeypatch):
        built = []
        original = ChannelGroup.__post_init__

        def counting_post_init(group):
            built.append(group.index)
            original(group)

        step1 = _step1_for("pnx8550")
        architecture = step1.architecture
        monkeypatch.setattr(ChannelGroup, "__post_init__", counting_post_init)
        for extra in (1, 7, 60, 500):
            built.clear()
            widened = widen_bottleneck(architecture, extra)
            assert widened.total_width == architecture.total_width + extra
            assert len(built) == len(set(built)), extra
