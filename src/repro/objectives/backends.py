"""Built-in objective backends: what a multi-site configuration is worth.

Every backend evaluates one fully-specified multi-site configuration (a
:class:`~repro.multisite.throughput.MultiSiteScenario` plus the
:class:`~repro.optimize.config.OptimizationConfig` switches and the target
:class:`~repro.ate.spec.AteSpec`) into a single float; the
:class:`~repro.objectives.registry.ObjectiveSpec` records whether larger or
smaller is better.  All four backends are deterministic functions of their
inputs, so equal ``(design, sites)`` points always get equal values --
which is what lets the engine, the store and a simulated-annealing run's
point memo cache them.

The cost objective prices ATE capacity at the paper's Section-7 street
prices (:class:`~repro.ate.pricing.AtePricing` defaults).  The pricing
model is deliberately *not* a scenario field: objective values must depend
only on the registered name and the evaluated point, so equal scenarios
share one cache entry.  A custom pricing model becomes a custom objective
-- register a closure over your own :class:`AtePricing` under a new name.
"""

from __future__ import annotations

import math

from repro.ate.pricing import AtePricing
from repro.ate.spec import AteSpec
from repro.multisite.throughput import MultiSiteScenario
from repro.objectives.registry import register_objective
from repro.optimize.channels import total_channels_used
from repro.optimize.config import Objective, OptimizationConfig

#: Street-price model of the cost objectives (the paper's Section 7 figures).
DEFAULT_PRICING = AtePricing()

#: Depreciation horizon the capital cost is amortised over: five years of
#: around-the-clock wafer testing (5 * 365 * 24 hours).
DEPRECIATION_HOURS = 43_800.0


@register_objective(
    "throughput",
    title="Devices tested per hour (default)",
    sense="max",
    units="devices/hour",
    description="Eq. 4.5 throughput D_th, or the unique-device D^u_th when "
    "the config selects re-test; the paper's objective",
)
def evaluate_throughput(
    scenario: MultiSiteScenario, config: OptimizationConfig, ate: AteSpec
) -> float:
    """The paper's objective: ``D_th``, or ``D^u_th`` under re-test."""
    if config.objective is Objective.UNIQUE_THROUGHPUT:
        return scenario.unique_throughput(abort_on_fail=config.abort_on_fail)
    return scenario.throughput(abort_on_fail=config.abort_on_fail)


@register_objective(
    "test_time",
    title="Test application time per touchdown",
    sense="min",
    units="s",
    description="Raw test time t_t in seconds (abort-on-fail aware); "
    "favours spending the whole channel budget on few, wide sites",
)
def evaluate_test_time(
    scenario: MultiSiteScenario, config: OptimizationConfig, ate: AteSpec
) -> float:
    """Test application time ``t_t`` of one touchdown, in seconds."""
    return scenario.test_time_s(abort_on_fail=config.abort_on_fail)


@register_objective(
    "cost_per_good_die",
    title="Amortised ATE capital per good die",
    sense="min",
    units="USD/die",
    description="Street-price capital of the employed channels, amortised "
    "over five years, divided by good dies per hour",
)
def evaluate_cost_per_good_die(
    scenario: MultiSiteScenario, config: OptimizationConfig, ate: AteSpec
) -> float:
    """ATE capital per good die under the Section-7 street prices.

    The employed capacity -- the channels the configuration actually
    consumes, broadcast-aware via
    :func:`~repro.optimize.channels.total_channels_used` (sites share the
    stimulus channels under broadcast) -- is valued at the ATE's full
    vector depth with :meth:`~repro.ate.pricing.AtePricing.capital_cost_usd`,
    amortised over :data:`DEPRECIATION_HOURS`, and divided by the good-die
    rate (throughput times manufacturing yield).  Giving up a site both
    frees capital and shortens the test time, so the minimum is a genuine
    trade-off point.  A configuration that yields no good dies at all
    (``manufacturing_yield == 0``) costs ``inf`` per die -- the worst
    possible value for this minimised objective, never an error.
    """
    employed = total_channels_used(
        scenario.channels_per_site, scenario.sites, config.broadcast
    )
    capital = DEFAULT_PRICING.capital_cost_usd(employed, ate.depth)
    good_dies_per_hour = scenario.throughput(
        abort_on_fail=config.abort_on_fail
    ) * scenario.manufacturing_yield
    if good_dies_per_hour <= 0.0:
        return math.inf
    return capital / (DEPRECIATION_HOURS * good_dies_per_hour)


@register_objective(
    "channel_budget",
    title="Throughput per employed ATE channel",
    sense="max",
    units="devices/hour/channel",
    description="Eq. 4.5 throughput divided by the employed channels "
    "(broadcast-aware: sites share stimulus channels); the "
    "channel-efficiency view",
)
def evaluate_channel_budget(
    scenario: MultiSiteScenario, config: OptimizationConfig, ate: AteSpec
) -> float:
    """Devices per hour per employed ATE channel (broadcast-aware)."""
    return scenario.throughput(abort_on_fail=config.abort_on_fail) / total_channels_used(
        scenario.channels_per_site, scenario.sites, config.broadcast
    )

