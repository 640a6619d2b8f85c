"""Scenario-first API: declarative runs, batch execution and caching.

This package is the canonical way to drive the reproduction:

* :class:`~repro.api.testcell.TestCell` -- the fixed wafer-test cell (ATE +
  probe station + optional pricing) as one immutable value;
* :class:`~repro.api.scenario.Scenario` -- a declarative, hashable
  description of one optimisation run (including the solver backend that
  executes it), with :meth:`Scenario.sweep
  <repro.api.scenario.Scenario.sweep>` expanding cartesian parameter grids;
* :class:`~repro.api.grid.SweepGrid` -- the lazy, composable form of the
  same grids (sharding via :meth:`~repro.api.grid.Grid.shard`, union via
  ``|``, filtering), sized for streaming campaigns over many SOCs;
* :class:`~repro.api.engine.Engine` -- executes scenarios serially, as
  parallel batches (``run_batch(scenarios, workers=N)``) or as a stream
  (``run_iter(grid, workers=N)`` yields results in completion order and
  persists each one immediately, making interrupted campaigns resumable),
  with an in-process memo cache keyed on the scenario's canonical hash
  (optionally LRU-bounded via ``max_entries``), and optionally backed by a
  persistent :class:`~repro.store.PackedResultStore` (``Engine(store=...)``)
  that shares solved scenarios across processes and sessions.

Scenarios route through the solver registry (:mod:`repro.solvers`):
``Scenario(solver="restart")`` swaps the paper's greedy two-step for any
registered backend, and ``Scenario.sweep(..., solvers=[...])`` treats the
backend as a sweep axis.  The classic free functions
(:func:`repro.optimize.two_step.optimize_multisite`,
:func:`repro.optimize.two_step.design_step1_only`) remain supported and
return identical results for the default backend.
"""

from repro.api.engine import (
    CacheInfo,
    Engine,
    ScenarioResult,
    batch_throughput_series,
    optimize_scenario,
)
from repro.api.grid import FilteredGrid, Grid, GridShard, GridUnion, SweepGrid
from repro.api.plan import PlanChunk, SweepPlan, auto_chunk_size, structure_key
from repro.api.scenario import Scenario, resolve_soc
from repro.api.testcell import TestCell, reference_test_cell

__all__ = [
    "CacheInfo",
    "Engine",
    "FilteredGrid",
    "Grid",
    "GridShard",
    "GridUnion",
    "Scenario",
    "ScenarioResult",
    "PlanChunk",
    "SweepGrid",
    "SweepPlan",
    "TestCell",
    "auto_chunk_size",
    "batch_throughput_series",
    "optimize_scenario",
    "reference_test_cell",
    "resolve_soc",
    "structure_key",
]
