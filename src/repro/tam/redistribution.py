"""Step-2 channel redistribution (Section 6, Step 2 of the paper).

When Step 2 gives up one multi-site, the ATE channels that site occupied
become available to the remaining sites.  The paper redistributes them by
iteratively assigning free channel pairs (one TAM wire = one stimulus + one
response channel) to the channel group that is *maximally filled*, because
widening the bottleneck group is what reduces the SOC test-application time.

This module implements that redistribution as a pure function on
:class:`~repro.tam.architecture.TestArchitecture` objects, plus a helper
that widens an architecture up to a given per-site channel budget.
"""

from __future__ import annotations

import heapq

from repro.core.exceptions import ConfigurationError
from repro.tam.architecture import TestArchitecture


def widen_bottleneck(architecture: TestArchitecture, extra_wires: int) -> TestArchitecture:
    """Distribute ``extra_wires`` additional TAM wires over the architecture.

    The result is that of handing the wires out one at a time, each to the
    channel group whose fill is currently the largest (ties towards the
    lower group position for determinism).  The resulting architecture
    therefore has ``total_width + extra_wires`` wires and a test time no
    larger than the original's.

    The wires are handed out in runs instead: a heap on ``(-fill,
    position)`` yields the bottleneck group, which keeps taking wires while
    its new fill (read from the modules' test-time curves) still beats the
    heap top.  Once every module of the group is past its
    ``max_useful_width`` its fill is flat, so it stays the bottleneck and
    takes all remaining wires in one jump.  The curves are the groups'
    own (:attr:`~repro.tam.channel_group.ChannelGroup.curves`), read by
    module position.  Each widened group is rebuilt once, at the end,
    through the width-only constructors, carrying the fill the heap
    already holds.  Equality with the wire-by-wire greedy is pinned by
    the kernel equivalence test suite.

    Parameters
    ----------
    architecture:
        The Step-1 architecture to widen.
    extra_wires:
        Number of extra TAM wires (each worth 2 ATE channels).
    """
    if extra_wires < 0:
        raise ConfigurationError(f"extra wire count must be non-negative, got {extra_wires}")
    if extra_wires == 0:
        return architecture
    groups = architecture.groups
    widths = [group.width for group in groups]
    heap = [(-group.fill, position) for position, group in enumerate(groups)]
    heapq.heapify(heap)
    remaining = extra_wires
    while remaining:
        key = heapq.heappop(heap)
        position = key[1]
        curves = groups[position].curves
        flat_from = max((len(curve.times) for curve in curves), default=0)
        width = widths[position]
        while remaining:
            if width >= flat_from:
                width += remaining
                remaining = 0
                break
            width += 1
            remaining -= 1
            key = (-sum(curve.at(width) for curve in curves), position)
            if heap and key > heap[0]:
                break
        widths[position] = width
        heapq.heappush(heap, key)
    # Every heap key holds its group's fill at the group's final width
    # (past ``flat_from`` the fill no longer changes), so the resized
    # groups carry it instead of summing their curves again.
    fills = [0] * len(groups)
    for fill, position in heap:
        fills[position] = -fill
    return architecture.with_resized_groups(
        tuple(
            group if group.width == width else group.with_width(width, fill)
            for group, width, fill in zip(groups, widths, fills)
        )
    )


def widen_to_channel_budget(
    architecture: TestArchitecture, channels_per_site: int
) -> TestArchitecture:
    """Widen ``architecture`` to use at most ``channels_per_site`` ATE channels.

    This is the operation Step 2 performs for every candidate site count:
    the per-site channel budget follows from the number of sites, and any
    budget beyond the Step-1 requirement is spent on widening the bottleneck
    groups.  If the budget is smaller than the architecture already needs,
    the architecture is returned unchanged (the caller is responsible for
    rejecting such site counts).
    """
    if channels_per_site <= 0:
        raise ConfigurationError(
            f"channel budget must be positive, got {channels_per_site}"
        )
    extra_channels = channels_per_site - architecture.ate_channels
    if extra_channels < 2:
        return architecture
    return widen_bottleneck(architecture, extra_channels // 2)
