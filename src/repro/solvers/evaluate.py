"""The evaluation kernel for ``(design, sites)`` points.

Step 2 (:mod:`repro.optimize.step2`), the figure experiments and every
solver backend evaluate a design the same way: build the
:class:`~repro.multisite.cost_model.TestTiming` from an architecture and a
test cell, bundle it into a :class:`~repro.multisite.throughput.
MultiSiteScenario`, and evaluate a registered objective.  This module is
that derivation, in two shapes:

* :func:`evaluate_points` evaluates a whole Step-2 site-count range of
  one Step-1 design and returns its :class:`~repro.optimize.result.
  SitePoint` rows.  The per-site channel budget is flat across runs of
  site counts (a *budget plateau*), so the architecture is widened -- and
  its timing built -- once per plateau, not once per site count.
* :func:`evaluate_point` evaluates one point.

Nothing is memoised process-wide: a Step-2 sweep never revisits a point.
The one caller whose points repeat -- simulated annealing, whose undone
moves land on states it has seen -- keeps a :class:`PointMemo` per run,
whose :meth:`PointMemo.move` is the single module-width move primitive.
:func:`cache_info` counts computed points (``misses``), per-run memo hits
(``hits``) and the batch sizes, for tests, the bench telemetry and
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.ate.probe_station import ProbeStation
from repro.ate.spec import AteSpec
from repro.core.exceptions import ConfigurationError
from repro.multisite.cost_model import TestTiming
from repro.multisite.throughput import MultiSiteScenario
from repro.objectives.registry import DEFAULT_OBJECTIVE, get_objective
from repro.optimize.channels import max_channels_per_site
from repro.optimize.config import OptimizationConfig
from repro.optimize.result import SitePoint, Step1Result
from repro.soc.module import Module
from repro.tam.architecture import TestArchitecture
from repro.tam.redistribution import widen_to_channel_budget


def timing_for(architecture: TestArchitecture, ate: AteSpec, probe_station: ProbeStation) -> TestTiming:
    """Touchdown timing of ``architecture`` on the given test cell."""
    return TestTiming(
        index_time_s=probe_station.index_time_s,
        contact_test_time_s=probe_station.contact_test_time_s,
        manufacturing_test_time_s=ate.cycles_to_seconds(architecture.test_time_cycles),
    )


def scenario_for(
    architecture: TestArchitecture,
    sites: int,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
) -> MultiSiteScenario:
    """Build the multi-site throughput scenario for a design at a site count."""
    return MultiSiteScenario(
        sites=sites,
        timing=timing_for(architecture, ate, probe_station),
        channels_per_site=architecture.ate_channels,
        contact_yield=probe_station.contact_yield,
        manufacturing_yield=config.manufacturing_yield,
    )


@dataclass(frozen=True)
class EvaluatedPoint:
    """One evaluation of a design at a site count.

    ``objective`` is the raw value of the evaluated objective; ``score`` is
    its :meth:`~repro.objectives.registry.ObjectiveSpec.signed` form, which
    solvers maximise regardless of the objective's sense.
    """

    architecture: TestArchitecture
    sites: int
    scenario: MultiSiteScenario
    objective: float
    score: float = 0.0


@dataclass(frozen=True)
class KernelCacheInfo:
    """The kernel's work counters.

    ``misses`` counts computed points and ``hits`` the points a per-run
    :class:`PointMemo` served instead.  ``batch_calls`` counts
    :func:`evaluate_points` invocations, ``batch_points`` the points they
    requested (repeats included) and ``max_batch`` the largest single
    batch.
    """

    hits: int
    misses: int
    batch_calls: int = 0
    batch_points: int = 0
    max_batch: int = 0


_hits = 0
_misses = 0
_batch_calls = 0
_batch_points = 0
_max_batch = 0


def evaluate_point(
    architecture: TestArchitecture,
    sites: int,
    ate: AteSpec,
    probe_station: ProbeStation,
    config: OptimizationConfig,
    objective: str = DEFAULT_OBJECTIVE,
) -> EvaluatedPoint:
    """Evaluate one ``(design, sites)`` point.

    ``objective`` names a registered objective (:mod:`repro.objectives`);
    the default is the paper's throughput.  The returned
    :class:`EvaluatedPoint` carries the scenario (timing, yields), the raw
    objective value and its sense-signed score, so callers never rebuild
    any of them.
    """
    global _misses
    _misses += 1
    spec = get_objective(objective)
    scenario = scenario_for(architecture, sites, ate, probe_station, config)
    value = spec.value(scenario, config, ate)
    return EvaluatedPoint(
        architecture=architecture,
        sites=sites,
        scenario=scenario,
        objective=value,
        score=spec.signed(value),
    )


def evaluate_points(
    step1: Step1Result,
    sites_range: Iterable[int],
    objective: str = DEFAULT_OBJECTIVE,
) -> tuple[SitePoint, ...]:
    """Evaluate a whole Step-2 site-count range in one pass.

    For every candidate site count the per-site channel budget follows from
    the ATE channel count and the broadcast mode; the Step-1 architecture
    is widened to that budget by bottleneck redistribution.  The distinct
    site counts are walked in descending order, so the budgets never
    shrink, and the architecture is widened only when the budget changes:
    every site count of one budget plateau shares one architecture object
    and one :class:`~repro.multisite.cost_model.TestTiming`, and only its
    :class:`~repro.multisite.throughput.MultiSiteScenario` and objective
    value are per site count.

    The widening is *incremental*: each plateau widens the previous
    plateau's architecture rather than the Step-1 design.  This is
    bit-identical to the from-scratch widening because the greedy
    one-wire-at-a-time bottleneck choice depends only on the current
    architecture, and the budgets grow monotonically as sites are given up
    -- widening to budget ``b1`` and then to ``b2 >= b1`` performs exactly
    the wire assignments of widening straight to ``b2``.  That argument is
    unaffected by :func:`~repro.tam.redistribution.widen_bottleneck`
    handing the wires out in runs and jumps: it lands on the architecture
    of the one-wire-at-a-time greedy, which the kernel equivalence test
    suite pins.

    Returns one :class:`~repro.optimize.result.SitePoint` per requested
    site count, in input order (a repeated site count is computed once and
    returns the same row).  Every row's ``architecture.soc`` is
    ``step1.architecture.soc``, which the store codec's interning relies
    on.  Raises :class:`~repro.core.exceptions.ConfigurationError` for site
    counts outside ``[1, step1.max_sites]``.
    """
    global _misses, _batch_calls, _batch_points, _max_batch
    site_counts = list(sites_range)
    for sites in site_counts:
        if sites <= 0:
            raise ConfigurationError(f"site count must be positive, got {sites}")
        if sites > step1.max_sites:
            raise ConfigurationError(
                f"site count {sites} exceeds the Step-1 maximum of {step1.max_sites}"
            )
    _batch_calls += 1
    _batch_points += len(site_counts)
    _max_batch = max(_max_batch, len(site_counts))

    value = get_objective(objective).value
    ate, probe_station, config = step1.ate, step1.probe_station, step1.config
    contact_yield, manufacturing_yield = probe_station.contact_yield, config.manufacturing_yield
    architecture, timing, budget = step1.architecture, None, None
    rows: dict[int, SitePoint] = {}
    for sites in sorted(set(site_counts), reverse=True):
        site_budget = max_channels_per_site(ate.channels, sites, config.broadcast)
        if site_budget != budget:
            budget = site_budget
            widened = widen_to_channel_budget(architecture, budget)
            if widened is not architecture or timing is None:
                architecture = widened
                timing = timing_for(architecture, ate, probe_station)
                channels = architecture.ate_channels
        # Positional, in field order: this runs once per site count.
        scenario = MultiSiteScenario(sites, timing, channels, contact_yield, manufacturing_yield)
        rows[sites] = SitePoint(sites, channels, architecture, scenario, value(scenario, config, ate))
    _misses += len(rows)
    return tuple(rows[sites] for sites in site_counts)


class PointMemo:
    """A per-run memo of one test cell's points, keyed by ``(architecture, sites)``.

    Simulated annealing revisits states -- an undone width move lands on
    the architecture it left -- so its run keeps one of these; every other
    caller computes each point once anyway.  A served point counts as a
    kernel ``hit``.  The memo holds at most :attr:`max_points` points and
    drops the oldest past that: the hits that matter come from undoing a
    recent move, and a long run must not grow without bound.
    """

    #: Points held before the oldest is dropped.
    max_points = 4096

    def __init__(
        self,
        ate: AteSpec,
        probe_station: ProbeStation,
        config: OptimizationConfig,
        objective: str = DEFAULT_OBJECTIVE,
    ) -> None:
        self._cell = (ate, probe_station, config, objective)
        self._points: dict[tuple[TestArchitecture, int], EvaluatedPoint] = {}

    def __len__(self) -> int:
        return len(self._points)

    def point(self, architecture: TestArchitecture, sites: int) -> EvaluatedPoint:
        """The point of ``architecture`` at ``sites`` (:func:`evaluate_point`)."""
        global _hits
        key = (architecture, sites)
        point = self._points.get(key)
        if point is not None:
            _hits += 1
            return point
        if len(self._points) >= self.max_points:
            del self._points[next(iter(self._points))]
        point = self._points[key] = evaluate_point(architecture, sites, *self._cell)
        return point

    def move(self, point: EvaluatedPoint, module: Module | str, delta: int) -> EvaluatedPoint:
        """``point`` after one module-width move, re-evaluated.

        Changes the width of the channel group that tests ``module`` (a
        :class:`~repro.soc.module.Module` or a module name) by ``delta``
        TAM wires, which may be negative, and evaluates the result at the
        same site count.  Only the resized group's timing is recomputed --
        the architecture update shares the untouched
        :class:`~repro.tam.channel_group.ChannelGroup` objects, whose fills
        are cached -- and undoing a move is a memo hit.  The move is purely
        structural: the caller owns channel-budget feasibility of the
        result (its ``architecture.ate_channels`` says what it now needs).

        Raises
        ------
        ConfigurationError
            If the move would make the group width non-positive.
        KeyError
            If ``module`` is not assigned to any group of the architecture.
        """
        name = module.name if isinstance(module, Module) else module
        group = point.architecture.group_of(name)
        width = group.width + delta
        if width <= 0:
            raise ConfigurationError(
                f"move of {delta:+d} wires would give group {group.index} "
                f"width {width}; widths must stay positive"
            )
        if delta == 0:
            return point
        return self.point(point.architecture.with_group_width(group.index, width), point.sites)


def cache_info() -> KernelCacheInfo:
    """The kernel's cumulative work counters."""
    return KernelCacheInfo(
        hits=_hits,
        misses=_misses,
        batch_calls=_batch_calls,
        batch_points=_batch_points,
        max_batch=_max_batch,
    )


def reset_counters() -> None:
    """Reset every counter of :func:`cache_info` to zero (used by tests)."""
    global _hits, _misses, _batch_calls, _batch_points, _max_batch
    _hits = _misses = _batch_calls = _batch_points = _max_batch = 0
