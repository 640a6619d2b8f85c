"""Execution planning for campaign fan-out: structure-aware chunking.

:class:`SweepPlan` turns a scenario stream into the *chunks* the
:class:`~repro.api.engine.Engine` submits to its process pool.  Chunking
serves two ends at once:

* **IPC amortisation** -- one pool task (one pickle round-trip of the
  scenario graph, one result message) carries ``chunk_size`` scenarios
  instead of one, so orchestration overhead per scenario drops by about
  the chunk size;
* **cache locality** -- scenarios are grouped by their *structural
  fingerprint* (the resolved SOC, the optimisation config, the solver,
  plus any non-default objective or solver options: the canonical key
  minus the test cell), so every scenario in a chunk reuses the same
  per-process SOC build and module test-time curves in its worker.
  Scenarios in one chunk differ only in their test cell (channels,
  depth).

The plan's only reordering is this grouping: **plan order is a
permutation of grid order** (asserted by the test suite), and because the
two-step algorithm is deterministic per scenario, chunked execution is
bit-identical to unchunked execution -- same results, same digests --
regardless of chunk size or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.api.scenario import Scenario
from repro.core.exceptions import ConfigurationError

#: The sentinel ``chunk_size`` value selecting :func:`auto_chunk_size`.
AUTO_CHUNK = "auto"

#: Under ``"auto"`` sizing, aim for this many chunks per pool worker, so a
#: slow chunk cannot stall the tail of a campaign behind one process.
AUTO_CHUNKS_PER_WORKER = 4

#: Upper bound on an ``"auto"`` chunk: bounds both the latency until the
#: first result streams out and the work lost when a chunk is interrupted.
MAX_AUTO_CHUNK_SIZE = 64


def normalize_chunk_size(chunk_size: object) -> "int | str":
    """Validate a ``chunk_size`` argument: a positive int or ``"auto"``.

    Raises
    ------
    ConfigurationError
        On zero, negative, boolean or non-integer values.
    """
    if chunk_size == AUTO_CHUNK:
        return AUTO_CHUNK
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise ConfigurationError(
            f"chunk size must be a positive integer or {AUTO_CHUNK!r}, "
            f"got {chunk_size!r}"
        )
    if chunk_size <= 0:
        raise ConfigurationError(
            f"chunk size must be a positive integer or {AUTO_CHUNK!r}, "
            f"got {chunk_size}"
        )
    return chunk_size


def auto_chunk_size(total: int, workers: int) -> int:
    """The ``"auto"`` heuristic: grid size over workers x chunks-per-worker.

    Sized so each pool worker gets about :data:`AUTO_CHUNKS_PER_WORKER`
    chunks (load balancing against uneven chunk runtimes), clamped to
    ``[1, MAX_AUTO_CHUNK_SIZE]``.  Small grids degrade to chunk size 1 --
    exactly the pre-planning per-scenario fan-out.
    """
    if total <= 0:
        return 1
    workers = max(1, workers)
    return max(
        1,
        min(MAX_AUTO_CHUNK_SIZE, math.ceil(total / (workers * AUTO_CHUNKS_PER_WORKER))),
    )


def structure_key(canonical_key: tuple) -> tuple:
    """The chunk-grouping prefix of a scenario's canonical key.

    Everything except the test cell (the key's second element): the
    resolved SOC, the optimisation config, the solver name, and -- when
    the key carries them -- the non-default objective and solver options.
    Two scenarios with equal structure keys read the same per-process SOC
    and module test-time curves and differ only in their ATE operating
    point.
    """
    return (canonical_key[0],) + tuple(canonical_key[2:])


@dataclass(frozen=True)
class PlanChunk:
    """One pool task of a :class:`SweepPlan`: structure-sharing scenarios.

    ``indices`` are the positions of the chunk's scenarios in the planned
    input sequence, which is how the engine maps completed chunks back to
    its bookkeeping without re-deriving keys.
    """

    indices: tuple[int, ...]
    scenarios: tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)


@dataclass(frozen=True)
class SweepPlan:
    """A chunked execution order over a scenario sequence.

    Build one with :meth:`build`; iterate it for :class:`PlanChunk`
    objects.  Invariants (pinned by the test suite): every input scenario
    appears in exactly one chunk, the concatenated chunk indices are a
    permutation of ``range(total)``, every chunk's scenarios share one
    :func:`structure_key`, and no chunk exceeds ``chunk_size``.
    """

    chunks: tuple[PlanChunk, ...]
    #: The resolved (post-``"auto"``) chunk size the plan was cut with.
    chunk_size: int
    #: Number of scenarios planned.
    total: int
    #: Number of distinct structure keys (fingerprint groups) seen.
    groups: int

    def __iter__(self) -> Iterator[PlanChunk]:
        return iter(self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)

    def scenario_order(self) -> tuple[int, ...]:
        """Input indices in plan order (a permutation of ``range(total)``)."""
        return tuple(index for chunk in self.chunks for index in chunk.indices)

    def describe(self) -> str:
        """One-line summary used by logs and progress lines."""
        return (
            f"plan[{self.total} scenario(s) -> {len(self.chunks)} chunk(s) "
            f"of <= {self.chunk_size}, {self.groups} structure group(s)]"
        )

    @classmethod
    def build(
        cls,
        scenarios: Sequence[Scenario],
        chunk_size: "int | str" = AUTO_CHUNK,
        workers: int = 1,
        keys: "Sequence[tuple] | None" = None,
    ) -> "SweepPlan":
        """Plan ``scenarios`` into structure-keyed chunks.

        ``keys`` passes pre-computed canonical keys (the engine already
        holds them for dedup) so planning never re-walks the scenario
        graphs; omitted, they are computed here.  Groups keep first-seen
        order and each group keeps input order, so the plan is a
        permutation of the input -- never a re-sort.
        """
        scenarios = list(scenarios)
        if keys is None:
            keys = [scenario.canonical_key() for scenario in scenarios]
        elif len(keys) != len(scenarios):
            raise ConfigurationError(
                f"plan keys/scenarios mismatch: {len(keys)} keys for "
                f"{len(scenarios)} scenarios"
            )
        size = normalize_chunk_size(chunk_size)
        if size == AUTO_CHUNK:
            size = auto_chunk_size(len(scenarios), workers)

        grouped: dict[tuple, list[int]] = {}
        for index, key in enumerate(keys):
            grouped.setdefault(structure_key(key), []).append(index)
        chunks = []
        for indices in grouped.values():
            for start in range(0, len(indices), size):
                block = indices[start : start + size]
                chunks.append(
                    PlanChunk(
                        indices=tuple(block),
                        scenarios=tuple(scenarios[index] for index in block),
                    )
                )
        return cls(
            chunks=tuple(chunks),
            chunk_size=size,
            total=len(scenarios),
            groups=len(grouped),
        )
