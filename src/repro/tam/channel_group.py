"""Channel groups: fixed-width TAMs driven by a group of ATE channels.

The paper's Step 1 organises the SOC's modules into *channel groups*.  Each
group is a fixed-width TAM: a set of ``width`` TAM wires driven by ``width``
ATE stimulus channels and observed by ``width`` ATE response channels.  The
modules assigned to a group are tested one after another over that TAM, so
the group's *fill* -- the number of vector-memory entries it consumes on its
channels -- is the sum of the module test times at the group's width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.exceptions import ConfigurationError
from repro.core.fingerprint import pickle_state
from repro.soc.module import Module
from repro.wrapper.combine import module_curve


@dataclass(frozen=True)
class ChannelGroup:
    """A fixed-width TAM and the modules assigned to it.

    Attributes
    ----------
    index:
        Stable identifier of the group within its architecture.
    width:
        Number of TAM wires.  The group occupies ``2 * width`` ATE channels
        (stimulus + response).
    modules:
        Modules tested over this TAM, in schedule order.
    """

    index: int
    width: int
    modules: tuple[Module, ...]

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"channel group width must be positive, got {self.width}")
        if not isinstance(self.modules, tuple):
            object.__setattr__(self, "modules", tuple(self.modules))

    def __hash__(self) -> int:
        # Structural hash cached on first use; see repro.core.fingerprint.
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = hash((self.index, self.width, self.modules))
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    __getstate__ = pickle_state

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def ate_channels(self) -> int:
        """ATE channels consumed by this group (stimulus + response)."""
        return 2 * self.width

    @cached_property
    def fill(self) -> int:
        """Vector-memory depth consumed on this group's channels (cycles)."""
        width = self.width
        return sum(module_curve(module).at(width) for module in self.modules)

    @property
    def module_names(self) -> tuple[str, ...]:
        """Names of the assigned modules in schedule order."""
        return tuple(module.name for module in self.modules)

    def fill_at_width(self, width: int) -> int:
        """Fill this group's module set would have at a different TAM width."""
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        return sum(module_curve(module).at(width) for module in self.modules)

    def fill_with(self, module: Module, width: int | None = None) -> int:
        """Fill after additionally assigning ``module`` (optionally at a new width)."""
        effective = self.width if width is None else width
        return self.fill_at_width(effective) + module_curve(module).at(effective)

    def free_depth(self, depth: int) -> int:
        """Unused vector-memory depth on this group's channels."""
        if depth < 0:
            raise ConfigurationError(f"depth must be non-negative, got {depth}")
        return max(0, depth - self.fill)

    def free_memory(self, depth: int) -> int:
        """Unused vector memory over the group's channels (channel*vectors).

        The paper's Step 1 uses the total free memory over all *used*
        channels as the tie-breaker between creating a new group and
        widening an existing one; stimulus and response channels are counted
        separately, hence the factor ``2 * width``.
        """
        return self.free_depth(depth) * self.ate_channels

    # ------------------------------------------------------------------
    # Functional updates (groups are immutable)
    # ------------------------------------------------------------------
    def with_module(self, module: Module) -> "ChannelGroup":
        """Return a copy of this group with ``module`` appended."""
        return ChannelGroup(index=self.index, width=self.width,
                            modules=self.modules + (module,))

    def with_width(self, width: int) -> "ChannelGroup":
        """Return a copy of this group at a different TAM width."""
        return ChannelGroup(index=self.index, width=width, modules=self.modules)

    def describe(self, depth: int | None = None) -> str:
        """One-line summary used by reports."""
        text = (
            f"group {self.index}: width {self.width} ({self.ate_channels} channels), "
            f"{len(self.modules)} modules, fill {self.fill} cycles"
        )
        if depth is not None:
            text += f", free depth {self.free_depth(depth)}"
        return text
