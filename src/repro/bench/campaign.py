"""Campaign-scale benchmark: streaming sweeps, interruption and resume.

:func:`run_campaign` measures the property the grid/``run_iter``/store
stack exists for -- that a killed campaign costs only its unfinished
scenarios.  Over a multi-SOC grid (a :func:`~repro.soc.catalog.
synthetic_family` sized by ``smoke``) it times three runs:

1. **cold** -- a fresh store-backed engine streams the full grid;
2. **interrupted** -- a second fresh store consumes only part of the
   stream and abandons the rest, exactly like a killed process (each
   finished scenario is already on disk at that point);
3. **resume** -- a new engine over the interrupted store streams the full
   grid again: the finished part is served from disk, only the remainder
   computes.

The resumed run must produce the same order-insensitive result digest as
the cold run (bit-identical values) and recompute only the abandoned
scenarios (the resume row's ``cache`` counters); because it skips
the finished majority it is several times faster than the cold run --
``benchmarks/wallclock_campaign.py`` pins the >= 2x floor.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Any

from repro.api.engine import Engine
from repro.api.grid import SweepGrid
from repro.api.testcell import reference_test_cell
from repro.bench.runner import sweep_digest, timed_section
from repro.core.exceptions import ConfigurationError
from repro.core.units import mega_vectors
from repro.soc.catalog import synthetic_family

#: Seed of the first family member the campaign sweeps.
CAMPAIGN_SEED = 4242

#: Family shape: (SOC count, modules per SOC) -- full and smoke variants.
CAMPAIGN_FAMILY = (6, 8)
SMOKE_FAMILY = (3, 5)

#: ATE channel axis of the campaign grid.
CAMPAIGN_CHANNELS = (128, 256)


def campaign_grid(smoke: bool = False) -> SweepGrid:
    """The synthetic-family grid the campaign benchmark streams.

    12 scenarios (6 SOCs x 2 channel counts) in full mode, 6 in smoke
    mode.  Depth is fixed at 1 M vectors -- comfortably feasible for the
    compact catalog synthetics at every channel count swept.
    """
    count, modules = SMOKE_FAMILY if smoke else CAMPAIGN_FAMILY
    return SweepGrid(
        synthetic_family(CAMPAIGN_SEED, count=count, modules=modules),
        reference_test_cell(),
        channels=CAMPAIGN_CHANNELS,
        depths=[mega_vectors(1.0)],
    )


def _stream(engine: Engine, grid: SweepGrid, limit: int | None = None) -> list:
    """Consume ``grid`` through ``engine`` (at most ``limit`` results)."""
    results = []
    for record in engine.run_iter(grid):
        results.append(record)
        if limit is not None and len(results) >= limit:
            break
    return results


def run_campaign(
    work_dir: str | Path, smoke: bool = False, workers: int | None = None
) -> tuple[list[dict[str, Any]], dict[str, bool]]:
    """Run the cold / interrupted / resumed campaign.

    Returns the three bench section rows (``campaign cold``, ``campaign
    interrupted``, ``campaign resume``; ``ops`` counts the results each
    leg delivered, ``digest`` is their :func:`sweep_digest`) and the
    ``campaign digests`` check (cold == resumed).  ``work_dir`` receives
    two store directories (``cold/``, ``resume/``); the caller owns
    cleanup (the bench runner uses a temp directory).
    """
    work_dir = Path(work_dir)
    grid = campaign_grid(smoke)
    total = len(grid)
    interrupt_after = max(1, (3 * total) // 4)
    if interrupt_after >= total:
        raise ConfigurationError("campaign grid too small to interrupt")

    # Every engine gets the same worker setting, so the resume speedup
    # measures resumption alone, not a parallelism difference.  The
    # interrupted leg abandons a second cold store after `interrupt_after`
    # results -- the finished scenarios are on disk, the in-flight rest is
    # lost -- and the resume leg streams the full grid over it again.
    # Each leg starts from a collected heap, so it pays only for the
    # collections its own allocations trigger, not for a full collection
    # that garbage left by earlier work in this process makes due.
    rows = []
    for name, store, limit in (
        ("campaign cold", "cold", None),
        ("campaign interrupted", "resume", interrupt_after),
        ("campaign resume", "resume", None),
    ):
        gc.collect()
        engine = Engine(store=work_dir / store, workers=workers)
        row, results = timed_section(
            name, lambda: _stream(engine, grid, limit), engine, workers
        )
        row.update(ops=len(results), digest=sweep_digest(results))
        rows.append(row)
    return rows, {"campaign digests": rows[0]["digest"] == rows[2]["digest"]}
