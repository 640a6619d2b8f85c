"""The worker loop behind ``repro work``: lease, dedup, compute, upload.

A worker is stateless: everything it needs arrives in the lease response
(the campaign's grid spec plus a shard index), and everything it produces
leaves as store-format records through ``POST /records/batch``.  That is what
makes workers killable at any instant -- a dead worker's lease expires
server-side and the shard is re-offered; the replacement worker's first
act is a batch presence query, so scenarios the dead worker already
uploaded are never recomputed.

Per leased shard the loop is:

1. rebuild the shard's scenario slice locally from the grid spec
   (deterministic grid order makes this exact);
2. ``POST /records/query`` with every scenario digest -- already-solved
   scenarios are skipped (counted in :attr:`WorkerStats.skipped`);
3. plan the rest into structure-sharing chunks (:class:`~repro.api.plan.
   SweepPlan`, ``chunk_size`` defaulting to ``"auto"``), solve each chunk
   through a local in-memory :class:`~repro.api.engine.Engine` and upload
   its records in one batched ``POST /records/batch`` NDJSON request;
4. heartbeat after every scenario; when the server answers ``gone`` the
   lease has expired -- the worker flushes the records it already
   computed, then abandons the shard (someone else owns it now);
5. ``POST /leases/<id>/complete`` when the slice is exhausted.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.api.engine import Engine
from repro.api.plan import AUTO_CHUNK, SweepPlan
from repro.core.exceptions import ReproError
from repro.service.client import ServiceClient
from repro.service.protocol import GridSpec
from repro.store.result_store import make_record

#: Seconds between lease polls when the server reports no open work.
DEFAULT_POLL = 1.0


@dataclass
class WorkerStats:
    """What one :func:`run_worker` invocation did, for logs and tests."""

    shards: int = 0
    computed: int = 0
    skipped: int = 0
    stored: int = 0
    duplicates: int = 0
    failed: int = 0
    abandoned: int = 0
    #: Scenario digests this worker solved itself (not skipped), in order.
    solved_keys: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary printed when the worker exits."""
        return (
            f"worker done: {self.shards} shard(s), {self.computed} computed, "
            f"{self.skipped} skipped (already solved), {self.stored} stored, "
            f"{self.duplicates} duplicate(s), {self.failed} failed, "
            f"{self.abandoned} abandoned lease(s)"
        )


def run_worker(
    server: "str | ServiceClient",
    *,
    worker: str | None = None,
    campaign: str | None = None,
    poll: float = DEFAULT_POLL,
    until_idle: bool = False,
    max_shards: int | None = None,
    chunk_size: "int | str" = AUTO_CHUNK,
    log: Callable[[str], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> WorkerStats:
    """Run the lease/compute/upload loop against a campaign server.

    Parameters
    ----------
    server:
        Base URL of the campaign server, or an existing client.
    worker:
        Worker name reported with every lease (default: ``worker-<pid>``).
    campaign:
        Restrict leasing to one campaign id (default: any open campaign).
    poll:
        Seconds between lease attempts while the server has no open work.
    chunk_size:
        Scenarios per upload batch: a positive int, or ``"auto"`` to size
        from the shard's to-compute count.  Chunking changes only the
        upload cadence, never which scenarios are computed or their
        records -- digests stay identical to unchunked workers.
    until_idle:
        Exit as soon as the server reports no open work at all (the batch
        mode CI and tests run); the default is to keep polling forever
        (the daemon mode real fleets run).
    max_shards:
        Stop after completing this many shards (``None``: unlimited).
    log:
        Optional sink for progress lines.
    sleep:
        Injectable sleep (tests pass a no-op).

    Returns
    -------
    WorkerStats
        Counters of everything the worker did.
    """
    client = server if isinstance(server, ServiceClient) else ServiceClient(server)
    name = worker or f"worker-{os.getpid()}"
    stats = WorkerStats()

    def say(message: str) -> None:
        if log is not None:
            log(message)

    def upload(records: "list[dict]") -> tuple[int, int]:
        """Ship buffered records in one NDJSON batch; returns ``(stored, duplicates)``."""
        if not records:
            return 0, 0
        report = client.put_records_batch(records)
        return int(report.get("stored", 0)), int(report.get("duplicates", 0))

    while True:
        if max_shards is not None and stats.shards >= max_shards:
            return stats
        response = client.lease(name, campaign=campaign)
        status = response.get("status")
        if status == "idle":
            if until_idle:
                return stats
            sleep(poll)
            continue
        if status == "wait":
            # Shards exist but every one is currently leased.  Even under
            # ``until_idle`` we keep polling: a leased shard may belong to a
            # dead worker, in which case its lease expires and we must be
            # around to pick the shard up -- exiting here could strand a
            # campaign one shard short of complete.
            sleep(poll)
            continue
        if status != "granted":
            raise ReproError(f"unexpected lease status {status!r} from server")

        lease = str(response["lease"])
        shard = int(response["shard"])
        shards = int(response["shards"])
        spec = GridSpec.from_wire(response["grid"])
        scenarios = list(spec.build_grid().shard(shard, shards))
        say(
            f"{name}: leased {response.get('campaign')} shard {shard + 1}/{shards} "
            f"({len(scenarios)} scenario(s)) as {lease}"
        )

        todo = set(client.missing([scenario.digest for scenario in scenarios]))
        compute = [scenario for scenario in scenarios if scenario.digest in todo]
        stats.skipped += len(scenarios) - len(compute)
        plan = SweepPlan.build(compute, chunk_size=chunk_size)
        if compute:
            say(f"{name}: {plan.describe()}")
        engine = Engine()  # local memory cache only; the server owns the store
        abandoned = False
        for number, chunk in enumerate(plan, start=1):
            buffer: list[dict] = []
            for scenario in chunk.scenarios:
                try:
                    outcome = engine.run(scenario)
                except ReproError as error:
                    # An infeasible operating point is a scenario-level
                    # outcome, not a worker failure; record it and move on.
                    stats.failed += 1
                    say(f"{name}: {scenario.describe()} failed: {error}")
                    continue
                stats.computed += 1
                stats.solved_keys.append(scenario.digest)
                buffer.append(make_record(scenario, outcome.result))
                if client.heartbeat(lease).get("status") == "gone":
                    # Our lease expired mid-shard: the shard is someone
                    # else's now.  Flush what this chunk already computed
                    # (uploads are deduplicated), then walk away.
                    stored, duplicates = upload(buffer)
                    stats.stored += stored
                    stats.duplicates += duplicates
                    stats.abandoned += 1
                    abandoned = True
                    say(f"{name}: lease {lease} expired; abandoning shard {shard}")
                    break
            if abandoned:
                break
            stored, duplicates = upload(buffer)
            stats.stored += stored
            stats.duplicates += duplicates
            say(
                f"{name}: shard {shard + 1}/{shards} chunk {number}/{len(plan)}: "
                f"uploaded {len(buffer)} record(s) "
                f"({stored} stored, {duplicates} duplicate(s))"
            )
        if not abandoned:
            client.complete(lease)
            stats.shards += 1
            say(f"{name}: completed shard {shard + 1}/{shards}")
