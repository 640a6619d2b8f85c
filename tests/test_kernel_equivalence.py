"""Equivalence of the evaluation kernel's fast paths and their references.

The kernel (:mod:`repro.solvers.evaluate`) widens Step-2 architectures
incrementally, once per budget plateau, and builds the Step-2 rows from
one timing per plateau; ``repro all`` digests and store records depend on
it producing *exactly* the bytes of plain per-point evaluation.  This
suite pins that promise:

* batch evaluation equals per-point scalar evaluation across SOCs,
  objectives, broadcast modes and yield settings (``==`` on floats, no
  tolerance);
* the per-plateau rows equal a from-scratch per-point reference (the
  Step-1 design widened straight to each budget) on random site
  sub-ranges, rows on one plateau share one architecture, every row
  keeps Step 1's SOC object, and one call widens exactly once per
  distinct budget and computes each distinct site count once;
* the incremental Step-2 widening equals from-scratch widening for every
  site count;
* a width move through a per-run :class:`~repro.solvers.evaluate.
  PointMemo` equals a full re-evaluation for random single-module moves,
  and undoing a move is a hit;
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
    """Per-point scalar evaluation, bypassing the kernel."""
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


def _kernel_point(step1, sites):
    """The kernel's :class:`EvaluatedPoint` of the Step-1 design at ``sites``."""
    return kernel.evaluate_point(
        step1.architecture, sites, step1.ate, step1.probe_station, step1.config
    )


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_all_objectives_bit_identical(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        site_counts = list(range(step1.max_sites, 0, -1))
        for objective in objective_names():
            batch = kernel.evaluate_points(step1, site_counts, objective)
            scalar = _scalar_points(step1, site_counts, objective)
            assert [point.throughput for point in batch] == scalar, objective

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
        batch = kernel.evaluate_points(step1, site_counts)
        scalar = _scalar_points(step1, site_counts, "throughput")
        assert [point.throughput for point in batch] == scalar

    def test_batch_and_scalar_entry_points_share_results(self):
        step1 = _step1_for("d695")
        batched = kernel.evaluate_points(step1, range(step1.max_sites, 0, -1))
        for point in batched:
            again = kernel.evaluate_point(
                point.architecture,
                point.sites,
                step1.ate,
                step1.probe_station,
                step1.config,
            )
            assert again.objective == point.throughput
            assert again.scenario == point.scenario


#: Optimisation-config variants the per-plateau pins run under.
PLATEAU_CONFIGS = (
    {},
    {"abort_on_fail": True, "manufacturing_yield": 0.85},
    {"objective": Objective.UNIQUE_THROUGHPUT},
    {"objective": Objective.UNIQUE_THROUGHPUT, "abort_on_fail": True},
)


def _random_site_ranges(step1, rng, count=4):
    """Seeded site sub-ranges: non-contiguous, unsorted, with repeats."""
    ranges = []
    for _ in range(count):
        size = rng.randint(1, 2 * step1.max_sites)
        ranges.append([rng.randint(1, step1.max_sites) for _ in range(size)])
    return ranges


def _reference_row(step1, sites, spec):
    """From-scratch reference: widen the Step-1 design straight to the budget."""
    budget = max_channels_per_site(step1.ate.channels, sites, step1.config.broadcast)
    architecture = widen_to_channel_budget(step1.architecture, budget)
    scenario = kernel.scenario_for(
        architecture, sites, step1.ate, step1.probe_station, step1.config
    )
    return architecture, scenario, spec.value(scenario, step1.config, step1.ate)


class TestPlateauRows:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    @pytest.mark.parametrize("config_kwargs", PLATEAU_CONFIGS)
    def test_rows_equal_from_scratch_reference(self, soc_name, broadcast, config_kwargs):
        from repro.objectives.registry import get_objective

        step1 = _step1_for(soc_name, broadcast=broadcast, **config_kwargs)
        rng = random.Random(f"{soc_name}/{broadcast}/{sorted(config_kwargs.items())}")
        for site_counts in _random_site_ranges(step1, rng):
            for objective in objective_names():
                spec = get_objective(objective)
                rows = kernel.evaluate_points(step1, site_counts, objective)
                assert [row.sites for row in rows] == site_counts
                for row in rows:
                    architecture, scenario, value = _reference_row(step1, row.sites, spec)
                    assert row.throughput == value, (objective, row.sites)
                    assert row.scenario == scenario
                    assert row.architecture == architecture
                    assert row.channels_per_site == architecture.ate_channels

    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_plateau_rows_share_one_architecture(self, soc_name, broadcast):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        rows = kernel.evaluate_points(step1, range(step1.max_sites, 0, -1))
        by_budget = {}
        for row in rows:
            assert row.architecture.soc is step1.architecture.soc
            budget = max_channels_per_site(step1.ate.channels, row.sites, broadcast)
            first = by_budget.setdefault(budget, row)
            assert row.architecture is first.architecture
            assert row.scenario.timing is first.scenario.timing
        # A widening spends the whole (even) budget, so every larger budget
        # widens again: one architecture object per plateau.
        architectures = {id(row.architecture) for row in by_budget.values()}
        assert len(architectures) == len(by_budget)

    def test_repeated_site_count_returns_one_row(self):
        step1 = _step1_for("d695")
        rows = kernel.evaluate_points(step1, (2, 1, 2))
        assert rows[0] is rows[2]


class TestPlateauWorkCounters:
    @pytest.mark.parametrize("soc_name", SOC_NAMES)
    @pytest.mark.parametrize("broadcast", [False, True])
    def test_one_widening_per_distinct_budget(self, soc_name, broadcast, monkeypatch):
        step1 = _step1_for(soc_name, broadcast=broadcast)
        calls = []

        def counting(architecture, budget):
            calls.append(budget)
            return widen_to_channel_budget(architecture, budget)

        monkeypatch.setattr(kernel, "widen_to_channel_budget", counting)
        rng = random.Random(f"{soc_name}/{broadcast}")
        for site_counts in [list(range(step1.max_sites, 0, -1))] + _random_site_ranges(
            step1, rng
        ):
            del calls[:]
            kernel.evaluate_points(step1, site_counts)
            budgets = {
                max_channels_per_site(step1.ate.channels, sites, broadcast)
                for sites in site_counts
            }
            assert sorted(calls) == sorted(budgets)

    def test_misses_grow_by_distinct_site_counts(self):
        step1 = _step1_for("d695")
        rng = random.Random(19)
        for site_counts in _random_site_ranges(step1, rng, count=6):
            before = kernel.cache_info()
            kernel.evaluate_points(step1, site_counts)
            after = kernel.cache_info()
            assert after.misses - before.misses == len(set(site_counts))
            assert after.batch_points - before.batch_points == len(site_counts)
            assert after.batch_calls - before.batch_calls == 1
            assert after.hits == before.hits


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
        point = _kernel_point(step1, step1.max_sites)
        memo = kernel.PointMemo(step1.ate, step1.probe_station, step1.config)
        rng = random.Random(1205)
        modules = list(point.architecture.soc.modules)
        for _ in range(20):
            module = rng.choice(modules)
            delta = rng.choice([-2, -1, 1, 2])
            width = point.architecture.group_of(module.name).width + delta
            if width <= 0:
                continue
            moved = memo.move(point, module, delta)
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
        memo = kernel.PointMemo(step1.ate, step1.probe_station, step1.config)
        point = memo.point(step1.architecture, step1.max_sites)
        module = point.architecture.soc.modules[0]
        there = memo.move(point, module, 1)
        assert there != point
        before = kernel.cache_info()
        back = memo.move(there, module, -1)
        after = kernel.cache_info()
        assert back is point
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_zero_delta_returns_same_point(self):
        step1 = _step1_for("d695")
        point = _kernel_point(step1, 1)
        module = point.architecture.soc.modules[0]
        memo = kernel.PointMemo(step1.ate, step1.probe_station, step1.config)
        before = kernel.cache_info()
        assert memo.move(point, module, 0) is point
        assert kernel.cache_info() == before


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
        # A whole engine-level scenario evaluated twice -- once against
        # cleared computation caches, once warm -- must give identical
        # results.
        from repro.api.engine import Engine
        from repro.bench.runner import clear_computation_caches

        cell = reference_test_cell(channels=128, depth_m=0.0625)
        scenarios = Scenario.sweep(
            "d695",
            cell,
            channels=[128],
            depths=[kilo_vectors(48), kilo_vectors(64)],
            broadcast=[False, True],
        )
        clear_computation_caches()
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
        batch = kernel.evaluate_points(step1, site_counts, "cost_per_good_die")
        scalar = _scalar_points(step1, site_counts, "cost_per_good_die")
        assert [point.throughput for point in batch] == scalar


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
