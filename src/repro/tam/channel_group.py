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
from repro.wrapper.combine import TestTimeCurve, module_curve


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

    def __getstate__(self) -> dict:
        # The curves are the process's own module_curve entries: they are
        # looked up again on demand after unpickling rather than shipped.
        state = pickle_state(self)
        if "curves" in state:
            state = {key: value for key, value in state.items() if key != "curves"}
        return state

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def ate_channels(self) -> int:
        """ATE channels consumed by this group (stimulus + response)."""
        return 2 * self.width

    @cached_property
    def curves(self) -> tuple[TestTimeCurve, ...]:
        """Test-time curve of every assigned module, by module position.

        Read once per group through the :func:`~repro.wrapper.combine.
        module_curve` cache and handed on to every :meth:`with_width`
        copy, so fills at other widths index these tables instead of
        looking each module up again.
        """
        return tuple(module_curve(module) for module in self.modules)

    @cached_property
    def fill(self) -> int:
        """Vector-memory depth consumed on this group's channels (cycles)."""
        width = self.width
        return sum(curve.at(width) for curve in self.curves)

    @property
    def module_names(self) -> tuple[str, ...]:
        """Names of the assigned modules in schedule order."""
        return tuple(module.name for module in self.modules)

    def fill_at_width(self, width: int) -> int:
        """Fill this group's module set would have at a different TAM width."""
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        return sum(curve.at(width) for curve in self.curves)

    def fill_with(self, module: Module, width: int | None = None) -> int:
        """Fill after additionally assigning ``module`` (optionally at a new width)."""
        if width is None or width == self.width:
            return self.fill + module_curve(module).at(self.width)
        return self.fill_at_width(width) + module_curve(module).at(width)

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

    def with_width(self, width: int, fill: int | None = None) -> "ChannelGroup":
        """Return a copy of this group at a different TAM width.

        The width-only constructor: the copy keeps this group's modules
        and their curves, and ``fill``, when the caller already knows it
        (Step 2's widening computes it while choosing the width), is
        carried instead of being summed again from the curves.
        """
        resized = ChannelGroup(index=self.index, width=width, modules=self.modules)
        curves = self.__dict__.get("curves")
        if curves is not None:
            resized.__dict__["curves"] = curves
        if fill is not None:
            resized.__dict__["fill"] = fill
        return resized

    def describe(self, depth: int | None = None) -> str:
        """One-line summary used by reports."""
        text = (
            f"group {self.index}: width {self.width} ({self.ate_channels} channels), "
            f"{len(self.modules)} modules, fill {self.fill} cycles"
        )
        if depth is not None:
            text += f", free depth {self.free_depth(depth)}"
        return text
