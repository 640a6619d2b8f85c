"""The COMBINE wrapper-design algorithm (Marinissen, Goel & Lousberg, ITC'00).

Given a module and a wrapper width ``w``, COMBINE builds the wrapper chains
in three steps:

1. Distribute the internal scan chains over ``min(w, #scan chains)`` wrapper
   chains so the longest chain is as short as possible.  Two heuristics are
   tried (LPT and BFD, see :mod:`repro.wrapper.partition`) and the better
   result is kept -- this "combination" of heuristics gives the algorithm
   its name.
2. Distribute the wrapper *input* cells (functional inputs + bidirectionals)
   over all ``w`` wrapper chains so the longest scan-in path is minimal.
3. Distribute the wrapper *output* cells likewise for the scan-out paths.

The resulting :class:`~repro.wrapper.design.WrapperDesign` determines the
module test time at width ``w``.  Both steps of the paper's method only
need that time, for many widths of every module, so each module's whole
test-time staircase is computed once (:func:`module_curve`) and every
query reads it: :func:`module_test_time`, :func:`min_width_for_depth` (the
smallest width whose test time fits within an ATE vector-memory depth --
the quantity Step 1 needs for every module), the Pareto widths of
:mod:`repro.wrapper.pareto` and the channel-group fills Step 2 widens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.exceptions import ConfigurationError, InfeasibleDesignError
from repro.soc.module import Module
from repro.wrapper.design import WrapperChain, WrapperDesign, scan_test_time
from repro.wrapper.partition import best_partition, spread_cells, water_level


def design_wrapper(module: Module, width: int) -> WrapperDesign:
    """Design a wrapper of ``width`` TAM wires around ``module`` with COMBINE.

    Widths larger than the module can use are allowed; the extra wrapper
    chains simply stay empty (and are omitted from the result), so the test
    time is monotonically non-increasing in ``width``.
    """
    if width <= 0:
        raise ConfigurationError(
            f"wrapper width must be positive, got {width} for module {module.name!r}"
        )

    scan_lengths = list(module.scan_lengths)
    num_scan_bins = min(width, len(scan_lengths)) if scan_lengths else 0

    # Step 1: scan chains onto wrapper chains (best of LPT / BFD).
    if num_scan_bins > 0:
        partition = best_partition(scan_lengths, num_scan_bins)
        scan_assignment = list(partition.bins)
        scan_loads = list(partition.loads)
    else:
        scan_assignment = []
        scan_loads = []

    # Pad with wrapper chains that carry no internal scan chain; they can
    # still receive functional I/O cells.
    while len(scan_loads) < width:
        scan_assignment.append(())
        scan_loads.append(0)

    # Step 2: input cells to minimise the maximum scan-in length.
    input_cells = spread_cells(scan_loads, module.wrapper_input_cells)
    # Step 3: output cells to minimise the maximum scan-out length.
    output_cells = spread_cells(scan_loads, module.wrapper_output_cells)

    chains = []
    for index in range(width):
        chain = WrapperChain(
            index=index,
            scan_chain_indices=tuple(scan_assignment[index]),
            scan_flipflops=scan_loads[index],
            input_cells=input_cells[index],
            output_cells=output_cells[index],
        )
        if not chain.is_empty:
            chains.append(chain)
    return WrapperDesign(module=module, width=width, chains=tuple(chains))


@dataclass(frozen=True)
class TestTimeCurve:
    """A module's whole COMBINE test-time staircase.

    ``times[w - 1]`` is the test time (cycles) at wrapper width ``w`` for
    ``w = 1 .. max_useful_width``.  From that width on every scan chain has
    a wrapper chain of its own and the wrapper cells fit one per empty
    wrapper chain, so more wires leave the time unchanged and :meth:`at`
    reads the last entry.  ``breakpoints`` are the Pareto widths:
    width 1 and every width whose time is strictly below that of all
    narrower widths.
    """

    times: tuple[int, ...]
    breakpoints: tuple[int, ...]

    # Tell pytest this is a domain class, not a test-case class.
    __test__ = False

    def at(self, width: int) -> int:
        """Test time at a positive ``width`` (constant past the curve's end)."""
        times = self.times
        return times[width - 1] if width <= len(times) else times[-1]


@lru_cache(maxsize=50_000)
def module_curve(module: Module) -> TestTimeCurve:
    """The (cached) test-time curve of ``module``, built once per module.

    The LPT/BFD scan-chain partition only runs for widths below the
    scan-chain count.  From that width on every scan chain has a wrapper
    chain of its own (LPT puts each chain on an empty bin and meets the
    trivial makespan bound, so :func:`best_partition` returns it), and the
    sorted loads are just the zero-padded sorted chain lengths.  The equality
    of every entry with :func:`_fast_test_time` is pinned by the kernel
    equivalence test suite.
    """
    chains = module.num_scan_chains
    own_chains = sorted(module.scan_lengths)
    times: list[int] = []
    breakpoints: list[int] = []
    for width in range(1, module.max_useful_width + 1):
        if width < chains:
            time = _fast_test_time(module, width)
        else:
            time = _time_from_loads(module, [0] * (width - chains) + own_chains)
        if not times or time < times[breakpoints[-1] - 1]:
            breakpoints.append(width)
        times.append(time)
    return TestTimeCurve(times=tuple(times), breakpoints=tuple(breakpoints))


@lru_cache(maxsize=200_000)
def module_test_time(module: Module, width: int) -> int:
    """Module test time (cycles) with a COMBINE wrapper of ``width`` wires.

    One index into the module's :func:`module_curve`, behind an lru so the
    per-``(module, width)`` lookups stay countable.  Widths past
    ``module.max_useful_width`` read the curve's constant tail.
    """
    if width <= 0:
        raise ConfigurationError(
            f"wrapper width must be positive, got {width} for module {module.name!r}"
        )
    return module_curve(module).at(width)


def _fast_test_time(module: Module, width: int) -> int:
    """Test time of :func:`design_wrapper` without building the chain objects.

    This is the per-width computation behind :func:`module_curve` (which
    only calls it below the scan-chain count) and the reference the curve
    is checked against.  Equality with the full design is pinned by the
    kernel equivalence test suite.
    """
    if width <= 0:
        raise ConfigurationError(
            f"wrapper width must be positive, got {width} for module {module.name!r}"
        )
    scan_lengths = module.scan_lengths
    if scan_lengths:
        loads = sorted(best_partition(scan_lengths, min(width, len(scan_lengths))).loads)
        if len(loads) < width:
            loads = [0] * (width - len(loads)) + loads
    else:
        loads = [0] * width
    return _time_from_loads(module, loads)


def _time_from_loads(module: Module, loads: list[int]) -> int:
    """Test time once the scan chains sit on wrapper chains with ``loads``.

    ``loads`` are the per-wrapper-chain scan flip-flop counts, sorted
    ascending, one per wire.  The test time only depends on the maximum
    scan-in and scan-out lengths.  Water-filling ``cells`` wrapper cells
    over the loads gives a maximum final load of ``max(max(loads), level)``
    where ``level`` is the water level
    (:func:`~repro.wrapper.partition.water_level`): chains above the level
    keep their load, and at least one raised chain always sits exactly at
    the level -- the surplus removed after the last full level is strictly
    smaller than the number of raised chains, or the level would not be
    minimal.  So neither the per-chain cell counts nor the
    :class:`~repro.wrapper.design.WrapperChain` objects are needed here.
    """
    longest = loads[-1]
    input_cells = module.wrapper_input_cells
    output_cells = module.wrapper_output_cells
    scan_in = max(longest, water_level(loads, input_cells)) if input_cells else longest
    scan_out = max(longest, water_level(loads, output_cells)) if output_cells else longest
    return scan_test_time(scan_in, scan_out, module.patterns)


def min_width_for_depth(module: Module, depth: int, max_width: int) -> int:
    """Smallest wrapper width whose test time fits in ``depth`` cycles.

    Parameters
    ----------
    module:
        The module to wrap.
    depth:
        ATE vector-memory depth per channel, in vectors (= cycles).
    max_width:
        Upper bound on the width to consider (typically half the ATE channel
        count, since a TAM wire consumes one input and one output channel).

    Raises
    ------
    InfeasibleDesignError
        If even ``max_width`` wires cannot bring the test time below
        ``depth``.  This mirrors the paper's Step 1, which exits when a
        module cannot be tested on the target ATE.
    """
    if depth <= 0:
        raise ConfigurationError(f"memory depth must be positive, got {depth}")
    if max_width <= 0:
        raise ConfigurationError(f"max width must be positive, got {max_width}")

    times = module_curve(module).times
    effective_max = min(max_width, len(times))
    if times[effective_max - 1] > depth:
        raise InfeasibleDesignError(
            f"module {module.name!r} needs more than {max_width} TAM wires to fit "
            f"a vector-memory depth of {depth} vectors",
            module_name=module.name,
        )

    # Binary search on the (in practice non-increasing) test-time curve.
    low, high = 1, effective_max
    while low < high:
        mid = (low + high) // 2
        if times[mid - 1] <= depth:
            high = mid
        else:
            low = mid + 1
    # The COMBINE heuristics are not formally guaranteed to be monotone in
    # the width, so guard against the rare anomaly where the binary search
    # lands on a width that does not actually fit.
    while low < effective_max and times[low - 1] > depth:
        low += 1
    return low
