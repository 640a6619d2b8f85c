"""SOC-level test architecture: a set of channel groups covering all modules.

A :class:`TestArchitecture` is the outcome of Step 1 (and the thing Step 2
modifies): every module of the SOC is assigned to exactly one channel group,
the summed group widths determine the per-site ATE channel requirement
``k = 2 * sum(width)``, and the largest group fill determines the SOC test
application time in cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.exceptions import ConfigurationError, InvalidSocError
from repro.core.fingerprint import pickle_state
from repro.soc.soc import Soc
from repro.tam.channel_group import ChannelGroup


@dataclass(frozen=True)
class TestArchitecture:
    """A complete TAM / channel-group architecture for an SOC.

    Attributes
    ----------
    soc:
        The SOC this architecture was designed for.
    groups:
        The channel groups.  Together they must cover every module of the
        SOC exactly once.
    depth:
        The ATE vector-memory depth (vectors per channel) the architecture
        was designed against; used for fill/feasibility reporting.
    """

    soc: Soc
    groups: tuple[ChannelGroup, ...]
    depth: int

    # Tell pytest this is a domain class, not a test-case class.
    __test__ = False

    def __post_init__(self) -> None:
        if self.depth <= 0:
            raise ConfigurationError(f"depth must be positive, got {self.depth}")
        if not isinstance(self.groups, tuple):
            object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ConfigurationError("test architecture must contain at least one channel group")
        assigned = [module.name for group in self.groups for module in group.modules]
        if len(assigned) != len(set(assigned)):
            raise InvalidSocError("a module is assigned to more than one channel group")
        missing = set(self.soc.module_names) - set(assigned)
        extra = set(assigned) - set(self.soc.module_names)
        if missing:
            raise InvalidSocError(f"modules not assigned to any channel group: {sorted(missing)}")
        if extra:
            raise InvalidSocError(f"unknown modules in channel groups: {sorted(extra)}")

    def __hash__(self) -> int:
        # Structural hash cached on first use; see repro.core.fingerprint.
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = hash((self.soc, self.groups, self.depth))
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    __getstate__ = pickle_state

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def total_width(self) -> int:
        """Total TAM width (sum of group widths)."""
        return sum(group.width for group in self.groups)

    @property
    def ate_channels(self) -> int:
        """ATE channels required per site: ``k = 2 * total TAM width``."""
        return 2 * self.total_width

    @cached_property
    def test_time_cycles(self) -> int:
        """SOC test application time in cycles (largest group fill)."""
        return max(self.fills)

    @cached_property
    def fills(self) -> tuple[int, ...]:
        """Fill of every group, in group order."""
        return tuple(group.fill for group in self.groups)

    @property
    def fits_depth(self) -> bool:
        """True when every group fill fits within the design depth."""
        return self.test_time_cycles <= self.depth

    @property
    def free_memory(self) -> int:
        """Total unused vector memory over all used channels (channel*vectors)."""
        return sum(group.free_memory(self.depth) for group in self.groups)

    @property
    def num_groups(self) -> int:
        """Number of channel groups (TAMs)."""
        return len(self.groups)

    def group_of(self, module_name: str) -> ChannelGroup:
        """Return the channel group a module is assigned to."""
        for group in self.groups:
            if module_name in group.module_names:
                return group
        raise KeyError(f"module {module_name!r} is not assigned to any group")

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_groups(self, groups: tuple[ChannelGroup, ...]) -> "TestArchitecture":
        """Return a copy of this architecture with a different group set."""
        return TestArchitecture(soc=self.soc, groups=groups, depth=self.depth)

    def with_resized_groups(self, groups: tuple[ChannelGroup, ...]) -> "TestArchitecture":
        """Return a copy whose groups are this architecture's, resized.

        The width-only constructor of Step 2's widening and of
        simulated annealing's width moves: ``groups[p]`` must be
        ``self.groups[p]`` or a :meth:`ChannelGroup.with_width` copy of
        it.  Only widths change, so the module coverage that
        :meth:`__post_init__` checks still holds and is not checked again;
        the groups' cached fills are kept as they are.
        """
        resized = object.__new__(TestArchitecture)
        object.__setattr__(resized, "soc", self.soc)
        object.__setattr__(resized, "groups", groups)
        object.__setattr__(resized, "depth", self.depth)
        return resized

    def with_group_width(self, group_index: int, width: int) -> "TestArchitecture":
        """Return a copy in which one group has been resized to ``width``."""
        return self.with_resized_groups(
            tuple(
                group.with_width(width) if group.index == group_index else group
                for group in self.groups
            )
        )

    def describe(self) -> str:
        """Multi-line summary used by reports and the CLI."""
        lines = [
            f"architecture for {self.soc.name}: {self.num_groups} TAMs, "
            f"total width {self.total_width} ({self.ate_channels} ATE channels), "
            f"test time {self.test_time_cycles} cycles "
            f"(depth {self.depth}, fits: {self.fits_depth})",
        ]
        for group in self.groups:
            lines.append("  " + group.describe(self.depth))
        return "\n".join(lines)
