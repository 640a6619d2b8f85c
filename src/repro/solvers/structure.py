"""Problem structures: what the operating points of one (SOC, depth) share.

The paper's Step 1 designs one minimum-channel architecture per (SOC, ATE
channels, depth), and Step 2 widens that design to each site count's
per-site channel budget.  Neither depends on the broadcast mode, the
yields or the objective, and the widening depends only on the design and
the budget -- yet a sweep visits every (SOC, channels, depth) once per
broadcast mode and every budget once per operating point that reaches
it.  A :class:`ProblemStructure` holds, for one (SOC, depth):

* the Step-1 design per ATE channel cap, with equal designs interned to
  one object (a cap that does not bind leaves the design unchanged, so
  several caps usually share it);
* per interned design, a budget -> widened-architecture map (a
  :class:`Plateaus`), whose groups are interned by (position, width), so
  every architecture of the design holds one object per group width --
  within a result exactly as a single Step-2 pass would share them, which
  keeps the store codec's by-identity interning, and hence the record
  bytes, unchanged;
* through the designs' channel groups, each module's test-time curve by
  position (:attr:`~repro.tam.channel_group.ChannelGroup.curves`), so
  widening reads tables instead of the ``Module``-keyed curve cache.

Structures live in a :class:`StructureScope`: a bounded set held in a
:mod:`contextvars` variable while :func:`structure_scope` is entered.
The engine enters one per serial stream and per pool chunk, and the
campaign worker one per plan chunk of a leased shard.  Outside a scope every lookup
returns a fresh, throwaway structure, so a lone solve shares nothing and
nothing outlives the scope that built it: there is no process-wide memo.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.soc.soc import Soc
from repro.tam.architecture import TestArchitecture
from repro.tam.channel_group import ChannelGroup


class Plateaus:
    """The budget -> widened-architecture map of one Step-1 design.

    ``design`` itself is the architecture of every budget it already
    meets.  :meth:`add` interns the groups of a newly widened
    architecture by (position, width), so two architectures of this
    design never hold equal groups as distinct objects.
    """

    #: Widened architectures kept per design; past this, new budgets are
    #: widened and returned but not kept.
    max_budgets = 4096

    def __init__(self, design: TestArchitecture) -> None:
        self.design = design
        self._widened: dict[int, TestArchitecture] = {}
        self._groups: dict[tuple[int, int], ChannelGroup] = {
            (position, group.width): group for position, group in enumerate(design.groups)
        }

    def get(self, budget: int) -> TestArchitecture | None:
        """The widened architecture of ``budget``, if one is known."""
        return self._widened.get(budget)

    def add(self, budget: int, architecture: TestArchitecture) -> TestArchitecture:
        """Record ``architecture`` as the design widened to ``budget``.

        Returns the architecture to use: ``architecture`` itself, or a
        copy through the width-only constructor whose groups are the ones
        already interned for their (position, width).
        """
        interned = self._groups
        groups = architecture.groups
        canonical = tuple(
            interned.setdefault((position, group.width), group)
            for position, group in enumerate(groups)
        )
        if any(mine is not theirs for mine, theirs in zip(canonical, groups)):
            architecture = architecture.with_resized_groups(canonical)
        if len(self._widened) < self.max_budgets:
            self._widened[budget] = architecture
        return architecture


class ProblemStructure:
    """The shareable Step-1 and Step-2 work of one (SOC, depth).

    It holds one design per channel cap the scope's scenarios ask for,
    and one :class:`Plateaus` map per distinct design.
    """

    def __init__(self, soc: Soc, depth: int) -> None:
        self.soc = soc
        self.depth = depth
        self._designs: dict[int, TestArchitecture] = {}
        self._plateaus: dict[TestArchitecture, Plateaus] = {}

    def design(self, channels: int) -> TestArchitecture | None:
        """The Step-1 design of the ``channels`` cap, if one is known."""
        return self._designs.get(channels)

    def add_design(self, channels: int, design: TestArchitecture) -> TestArchitecture:
        """Record the Step-1 design of the ``channels`` cap.

        Returns the interned design: an equal design already recorded for
        another cap, or ``design`` itself.
        """
        plateaus = self._plateaus.get(design)
        if plateaus is None:
            plateaus = self._plateaus[design] = Plateaus(design)
        self._designs[channels] = plateaus.design
        return plateaus.design

    def plateaus(self, design: TestArchitecture) -> Plateaus:
        """The widening map of ``design``.

        Only an interned design (one :meth:`add_design` returned) has a
        map that outlives the call; any other architecture -- another
        backend's design, or an equal but distinct object -- gets a fresh
        one, because its widened architectures must share its own group
        objects.
        """
        plateaus = self._plateaus.get(design)
        if plateaus is None or plateaus.design is not design:
            return Plateaus(design)
        return plateaus


class StructureScope:
    """A bounded set of :class:`ProblemStructure` objects, by (SOC, depth).

    SOCs are matched by identity (the catalog resolves a name to one
    object per process), so every architecture of a structure holds the
    very SOC object of the scenarios that share it.
    """

    #: Structures kept; the least recently used goes past this.  Grids
    #: iterate SOC-major and pool chunks hold one SOC, so few are live.
    max_structures = 16

    def __init__(self) -> None:
        self._structures: OrderedDict[tuple[int, int], ProblemStructure] = OrderedDict()

    def __len__(self) -> int:
        return len(self._structures)

    def structure(self, soc: Soc, depth: int) -> ProblemStructure:
        """The structure of (``soc``, ``depth``), built on first use."""
        # The structure holds ``soc``, so its id is not reused while the
        # entry lives.
        key = (id(soc), depth)
        structure = self._structures.get(key)
        if structure is None:
            structure = self._structures[key] = ProblemStructure(soc, depth)
            if len(self._structures) > self.max_structures:
                self._structures.popitem(last=False)
        else:
            self._structures.move_to_end(key)
        return structure

    def clear(self) -> None:
        """Drop every structure."""
        self._structures.clear()


_active: ContextVar[StructureScope | None] = ContextVar("structure_scope", default=None)


@contextmanager
def structure_scope(scope: StructureScope | None = None) -> Iterator[StructureScope]:
    """Let the solves inside the block share problem structures.

    Activates ``scope`` (a new one by default) for the block.  Re-entrant:
    inside an active scope the block keeps the active one and ``scope``
    is ignored, so an engine called inside the worker's chunk scope uses
    that scope.  A scope this call created is emptied when the block
    ends; a scope passed in is left as it is, so a caller can activate it
    around each of several calls (the engine's serial stream does, rather
    than keep the variable set across its yields).
    """
    active = _active.get()
    if active is not None:
        yield active
        return
    owned = scope is None
    if owned:
        scope = StructureScope()
    token = _active.set(scope)
    try:
        yield scope
    finally:
        _active.reset(token)
        if owned:
            scope.clear()


def problem_structure(soc: Soc, depth: int) -> ProblemStructure:
    """The active scope's structure of (``soc``, ``depth``), or a throwaway one."""
    scope = _active.get()
    if scope is None:
        return ProblemStructure(soc, depth)
    return scope.structure(soc, depth)
