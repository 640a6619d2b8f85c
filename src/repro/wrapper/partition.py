"""Multiprocessor-scheduling style partitioning heuristics.

Wrapper design boils down to partitioning the internal scan chains of a
module over ``w`` wrapper chains so that the longest wrapper chain is as
short as possible -- the classic minimum-makespan multiprocessor scheduling
problem, which is NP-hard.  Following the COMBINE algorithm of Marinissen,
Goel & Lousberg (ITC 2000), this module provides the two standard
polynomial-time heuristics the paper builds on:

* **LPT** (Largest Processing Time first): sort items in decreasing size and
  always place the next item on the currently least-loaded bin.
* **BFD** (Best Fit Decreasing): sort items in decreasing size and place the
  next item on the fullest bin it still "fits" on given the current maximum
  load; if it fits nowhere, fall back to the least-loaded bin.

Both return an explicit assignment of item indices to bins so callers can
reconstruct which scan chains ended up on which wrapper chain.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.core.exceptions import ConfigurationError


@dataclass(frozen=True)
class Partition:
    """Result of partitioning items over bins.

    Attributes
    ----------
    bins:
        ``bins[b]`` is the tuple of item indices assigned to bin ``b``.
    loads:
        ``loads[b]`` is the total size assigned to bin ``b``.
    """

    bins: tuple[tuple[int, ...], ...]
    loads: tuple[int, ...]

    @property
    def makespan(self) -> int:
        """Largest bin load (0 when there are no items)."""
        return max(self.loads) if self.loads else 0

    @property
    def num_bins(self) -> int:
        """Number of bins in the partition."""
        return len(self.bins)

    @property
    def num_items(self) -> int:
        """Number of items placed."""
        return sum(len(bin_items) for bin_items in self.bins)


def _check_arguments(sizes: Sequence[int], num_bins: int) -> None:
    if num_bins <= 0:
        raise ConfigurationError(f"number of bins must be positive, got {num_bins}")
    for size in sizes:
        if size < 0:
            raise ConfigurationError(f"item sizes must be non-negative, got {size}")


def _decreasing_order(sizes: Sequence[int]) -> list[int]:
    """Item indices sorted by decreasing size (stable for equal sizes)."""
    return sorted(range(len(sizes)), key=lambda index: (-sizes[index], index))


def lpt_partition(sizes: Sequence[int], num_bins: int) -> Partition:
    """Partition ``sizes`` over ``num_bins`` bins with the LPT heuristic.

    >>> lpt_partition([5, 4, 3, 2], 2).makespan
    7
    """
    _check_arguments(sizes, num_bins)
    assignments: list[list[int]] = [[] for _ in range(num_bins)]
    loads = [0] * num_bins
    # A heap of (load, bin) tuples picks the same bin as
    # ``min(range(num_bins), key=lambda b: (loads[b], b))`` -- the
    # least-loaded bin, ties towards the lower index -- in O(log bins).
    heap = [(0, b) for b in range(num_bins)]
    for index in _decreasing_order(sizes):
        load, target = heapq.heappop(heap)
        assignments[target].append(index)
        load += sizes[index]
        loads[target] = load
        heapq.heappush(heap, (load, target))
    return Partition(
        bins=tuple(tuple(bin_items) for bin_items in assignments),
        loads=tuple(loads),
    )


def bfd_partition(sizes: Sequence[int], num_bins: int) -> Partition:
    """Partition ``sizes`` over ``num_bins`` bins with the BFD heuristic.

    The "capacity" used by best-fit is the current maximum load: an item
    fits on a bin if adding it does not increase the makespan.  Among
    fitting bins the fullest one is chosen (best fit); when no bin fits the
    least-loaded bin is used, which then defines the new makespan.
    """
    _check_arguments(sizes, num_bins)
    assignments: list[list[int]] = [[] for _ in range(num_bins)]
    loads = [0] * num_bins
    current_max = 0
    for index in _decreasing_order(sizes):
        size = sizes[index]
        # One fused scan finds both the best-fit bin (fullest bin the item
        # fits on, ties towards the lower index) and the least-loaded
        # fallback (ties towards the lower index as well).
        target = -1
        target_load = -1
        fallback = 0
        fallback_load = loads[0]
        for b in range(num_bins):
            load = loads[b]
            if load + size <= current_max and load > target_load:
                target = b
                target_load = load
            if load < fallback_load:
                fallback = b
                fallback_load = load
        if target < 0:
            target = fallback
        assignments[target].append(index)
        loads[target] += size
        if loads[target] > current_max:
            current_max = loads[target]
    return Partition(
        bins=tuple(tuple(bin_items) for bin_items in assignments),
        loads=tuple(loads),
    )


def best_partition(sizes: Sequence[int], num_bins: int) -> Partition:
    """Return the better of the LPT and BFD partitions (smaller makespan).

    This is the scan-chain distribution step of the COMBINE algorithm.
    Ties are resolved in favour of LPT -- which also licenses the shortcut
    below: when the LPT makespan already meets the trivial lower bound
    (the largest item, or the average bin load rounded up), no partition
    can beat it and BFD is skipped entirely.
    """
    lpt = lpt_partition(sizes, num_bins)
    if sizes:
        total = sum(sizes)
        lower_bound = max(max(sizes), -(-total // num_bins))
        if lpt.makespan == lower_bound:
            return lpt
    bfd = bfd_partition(sizes, num_bins)
    return bfd if bfd.makespan < lpt.makespan else lpt


def water_level(sorted_loads: Sequence[int], cells: int) -> int:
    """Smallest integer level ``L`` with ``sum(max(0, L - load)) >= cells``.

    ``sorted_loads`` must be sorted ascending and non-empty; ``cells`` must
    be positive.  With the loads sorted, the capacity restricted to the
    ``k`` smallest loads is the closed form ``k * L - prefix_k``, so the
    level is found directly from prefix sums instead of by binary search.
    The level is at least 1, so it always passes every zero load: the scan
    starts after the zero prefix (found by ``bisect``), which is most of
    the loads of a wide wrapper.
    """
    num = len(sorted_loads)
    prefix = 0
    for k in range(max(1, bisect_right(sorted_loads, 0)), num + 1):
        prefix += sorted_loads[k - 1]
        # Smallest L with k * L - prefix >= cells, valid while at most the
        # k smallest loads sit below L (i.e. L does not pass the next load).
        candidate = -(-(cells + prefix) // k)
        if k == num or candidate <= sorted_loads[k]:
            return candidate
    return sorted_loads[-1] + cells  # pragma: no cover - loop always returns


def spread_cells(base_loads: Sequence[int], cells: int) -> tuple[int, ...]:
    """Distribute ``cells`` unit-size wrapper cells over chains optimally.

    The cells are spread "water-filling" style: the final loads are as equal
    as possible, which minimises the maximum load.  This is exactly what a
    greedy cell-by-cell assignment to the least-loaded chain produces, but
    computed in ``O(chains log chains)`` independent of the cell count.

    Returns the per-chain number of cells added (not the new loads).

    >>> spread_cells([5, 1, 1], 4)
    (0, 2, 2)
    """
    if cells < 0:
        raise ConfigurationError(f"cell count must be non-negative, got {cells}")
    if not base_loads:
        raise ConfigurationError("cannot spread cells over zero chains")
    loads = list(base_loads)
    num = len(loads)
    if cells == 0:
        return tuple([0] * num)
    if num == 1:
        return (cells,)

    # Find the water level, then distribute the slack of the last
    # partially-filled level over the lowest-indexed chains for determinism.
    level = water_level(sorted(loads), cells)
    added = [max(0, level - load) for load in loads]
    surplus = sum(added) - cells
    if surplus > 0:
        # Remove the surplus from chains that were raised exactly to the
        # level, preferring higher indices so low indices keep priority
        # (mirrors greedy tie-breaking on the lowest index).
        for index in range(num - 1, -1, -1):
            if surplus == 0:
                break
            if added[index] > 0 and loads[index] + added[index] == level:
                take = min(surplus, 1)
                added[index] -= take
                surplus -= take
    return tuple(added)
