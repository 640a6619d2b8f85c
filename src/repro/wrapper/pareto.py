"""Pareto-optimal wrapper widths for a module.

The test time of a module is a staircase function of its wrapper width:
several consecutive widths often yield the same time because the longest
internal scan chain dominates.  Only the *Pareto-optimal* widths -- the
smallest width achieving each distinct test time -- matter for TAM design:
giving a module a non-Pareto width wastes ATE channels without reducing its
test time.  Both the rectangle bin-packing baseline (Iyengar et al. [7]) and
the theoretical lower bound on ATE channels work on these Pareto points.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import ConfigurationError
from repro.soc.module import Module
from repro.wrapper.combine import module_curve


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto-optimal (width, test time) pair for a module."""

    width: int
    test_time_cycles: int

    @property
    def area(self) -> int:
        """ATE occupation of this point in channel*cycle units (per TAM wire)."""
        return self.width * self.test_time_cycles


def pareto_points(module: Module, max_width: int) -> tuple[ParetoPoint, ...]:
    """Return the Pareto-optimal wrapper widths of ``module`` up to ``max_width``.

    The result is sorted by increasing width (and therefore non-increasing
    test time).  Width 1 is always included; widths that do not strictly
    improve on a smaller width are dropped.  The points are the breakpoints
    of the module's cached test-time curve, so nothing is recomputed here.
    """
    if max_width <= 0:
        raise ConfigurationError(f"max width must be positive, got {max_width}")
    curve = module_curve(module)
    return tuple(
        ParetoPoint(width=width, test_time_cycles=curve.times[width - 1])
        for width in curve.breakpoints
        if width <= max_width
    )


def min_test_time(module: Module, max_width: int) -> int:
    """Smallest achievable test time of ``module`` with at most ``max_width`` wires."""
    return pareto_points(module, max_width)[-1].test_time_cycles


def min_area(module: Module, max_width: int) -> int:
    """Smallest ATE occupation (channel*cycles) over all Pareto widths.

    This is the per-module contribution to the theoretical lower bound on
    the total TAM width: no schedule can occupy fewer channel*cycle units
    for this module than its cheapest Pareto point.
    """
    return min(point.area for point in pareto_points(module, max_width))


def best_width_for_depth(module: Module, depth: int, max_width: int) -> ParetoPoint | None:
    """Cheapest Pareto point whose test time fits within ``depth`` cycles.

    Returns ``None`` when no width up to ``max_width`` fits, mirroring the
    infeasibility exit of the paper's Step 1 (callers translate this into
    :class:`~repro.core.exceptions.InfeasibleDesignError` with more context).
    """
    if depth <= 0:
        raise ConfigurationError(f"memory depth must be positive, got {depth}")
    for point in pareto_points(module, max_width):
        if point.test_time_cycles <= depth:
            return point
    return None
