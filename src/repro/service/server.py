"""The campaign server: shard leases and record ingest over HTTP/JSON.

:class:`CampaignServer` owns the coordination state of ``repro serve``:
submitted campaigns (a :class:`~repro.service.protocol.GridSpec` each,
split into ``shards`` strided slices), the lease table that hands those
slices to workers, and the result store every completed record lands in.
The HTTP layer underneath it is a plain ``http.server.ThreadingHTTPServer``
-- no third-party dependencies -- with one JSON endpoint per verb.

Lease lifecycle
---------------
Each campaign shard is in exactly one state: ``pending`` (available),
``leased`` (a worker owns it, with a TTL deadline) or ``done``.  Workers
``POST /lease`` to claim the oldest pending shard, ``POST
/leases/<id>/heartbeat`` after every scenario to push the deadline out,
and ``POST /leases/<id>/complete`` when the shard is exhausted.  A lease
whose deadline passes (worker crashed, network gone) is swept back to
``pending`` on the next state-touching request, so another worker picks
the shard up; because every record upload is deduplicated against the
store first, the retried shard recomputes only what the dead worker never
uploaded.  Deadlines run on a monotonic clock (injectable for tests), so
wall-clock jumps cannot expire or immortalise a lease.

Record ingest
-------------
Workers upload finished scenarios in the store's own record form
(:func:`repro.store.make_record`), one NDJSON line per record, through
``POST /records/batch`` -- the only ingest.  The server digest-verifies every
record (the embedded result must decode and match the claimed key) before
writing, and drops records whose key the store already holds -- the
counters distinguish ``records_stored`` from ``records_duplicate``, which
is what the distributed-equivalence test asserts on.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.api.engine import Engine, ScenarioResult
from repro.bench.runner import sweep_digest
from repro.core.exceptions import ConfigurationError, ReproError, StoreError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    GridSpec,
    scenario_from_wire,
    sequence_of_keys,
)
from repro.store.factory import open_store
from repro.store.packed import PackedResultStore
from repro.store.result_store import decode_record, record_key

#: Default lease time-to-live: how long a worker may go between heartbeats
#: before its shard is handed to someone else.
DEFAULT_LEASE_TTL = 30.0


class _NotFound(ReproError):
    """Internal: a campaign or lease id that names nothing (HTTP 404)."""


@dataclass
class _Campaign:
    """One submitted campaign: its spec, expanded digests, and shard states."""

    id: str
    spec: GridSpec
    #: Scenario content digest per grid index, in grid iteration order;
    #: shard ``i`` owns ``digests[i::spec.shards]``.
    digests: tuple[str, ...]
    #: Per-shard state: ``pending`` | ``leased`` | ``done``.
    states: list[str]
    created_at: float


@dataclass
class _Lease:
    """A worker's claim on one campaign shard, with a monotonic deadline."""

    id: str
    campaign: str
    shard: int
    worker: str
    deadline: float


class CampaignServer:
    """Coordination core of the campaign service (transport-free).

    All public methods speak plain JSON-able dicts and raise
    :class:`~repro.core.exceptions.ReproError` subclasses on bad input, so
    the HTTP layer is a thin router and tests can drive the server
    in-process without sockets.

    Parameters
    ----------
    store:
        The result store completed records land in -- a store object or a
        directory path (see :func:`repro.store.open_store`).
    lease_ttl:
        Seconds a worker may go between heartbeats before its shard lease
        expires and the shard is re-offered.
    clock:
        Monotonic time source for lease deadlines (injectable for tests).
    """

    def __init__(
        self,
        store: "PackedResultStore | str | Path",
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ConfigurationError(f"lease ttl must be positive, got {lease_ttl}")
        self.store = open_store(store)
        self.engine = Engine(store=self.store)
        self.lease_ttl = float(lease_ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._campaign_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._campaigns: dict[str, _Campaign] = {}
        self._leases: dict[str, _Lease] = {}
        self.counters: dict[str, int] = {
            "leases_granted": 0,
            "leases_expired": 0,
            "leases_completed": 0,
            "records_stored": 0,
            "records_duplicate": 0,
            "presence_hits": 0,
            "scenarios_run": 0,
        }
        #: Optional ``log(message)`` sink for request/lifecycle lines.
        self.log: Callable[[str], None] | None = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _expire_leases(self) -> None:
        """Sweep overdue leases back to ``pending`` (caller holds the lock)."""
        now = self._clock()
        for lease_id in [i for i, lease in self._leases.items() if lease.deadline <= now]:
            lease = self._leases.pop(lease_id)
            campaign = self._campaigns[lease.campaign]
            if campaign.states[lease.shard] == "leased":
                campaign.states[lease.shard] = "pending"
            self.counters["leases_expired"] += 1
            self._say(
                f"lease {lease.id} expired: {lease.campaign} shard {lease.shard} "
                f"(worker {lease.worker}) back to pending"
            )

    def _campaign(self, campaign_id: str) -> _Campaign:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise _NotFound(f"no campaign {campaign_id!r}") from None

    def _progress_locked(self, campaign: _Campaign) -> dict[str, Any]:
        states = {state: campaign.states.count(state) for state in ("pending", "leased", "done")}
        missing = len(self.store.missing_keys(campaign.digests))
        return {
            "campaign": campaign.id,
            "grid": campaign.spec.to_wire(),
            "created_at": campaign.created_at,
            "total": len(campaign.digests),
            "solved": len(campaign.digests) - missing,
            "shards": campaign.spec.shards,
            "shard_states": states,
            "done": states["done"] == campaign.spec.shards,
        }

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def submit_campaign(self, payload: Any) -> dict[str, Any]:
        """Register a sweep campaign: expand the grid, create its shards.

        The grid is expanded once at submit time -- this resolves every
        catalog SOC name and computes every scenario digest, so malformed
        specs fail the submitting client, never a worker.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("campaign submit payload must be a JSON object")
        spec = GridSpec.from_wire(payload.get("grid"))
        digests = tuple(scenario.digest for scenario in spec.build_grid())
        with self._lock:
            campaign = _Campaign(
                id=f"c{next(self._campaign_ids)}",
                spec=spec,
                digests=digests,
                states=["pending"] * spec.shards,
                created_at=time.time(),
            )
            self._campaigns[campaign.id] = campaign
            self._say(f"campaign {campaign.id} submitted: {spec.describe()}")
            return self._progress_locked(campaign)

    def list_campaigns(self) -> dict[str, Any]:
        with self._lock:
            self._expire_leases()
            return {
                "campaigns": [
                    self._progress_locked(campaign)
                    for campaign in self._campaigns.values()
                ]
            }

    def progress(self, campaign_id: str) -> dict[str, Any]:
        with self._lock:
            self._expire_leases()
            return self._progress_locked(self._campaign(campaign_id))

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease(self, payload: Any) -> dict[str, Any]:
        """Claim the oldest pending shard (optionally of one campaign).

        Returns a ``granted`` response carrying everything the worker
        needs to rebuild the shard locally (the grid spec plus the shard
        index), ``wait`` when every remaining shard is currently leased to
        someone else, or ``idle`` when there is no open work at all.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("lease payload must be a JSON object")
        worker = payload.get("worker", "anonymous")
        if not isinstance(worker, str) or not worker:
            raise ConfigurationError("lease 'worker' must be a non-empty string")
        wanted = payload.get("campaign")
        if wanted is not None and not isinstance(wanted, str):
            raise ConfigurationError("lease 'campaign' must be a campaign id string")
        with self._lock:
            self._expire_leases()
            if wanted is not None:
                candidates = [self._campaign(wanted)]
            else:
                candidates = list(self._campaigns.values())
            open_shards = False
            for campaign in candidates:
                for shard, state in enumerate(campaign.states):
                    if state == "leased":
                        open_shards = True
                    if state != "pending":
                        continue
                    lease = _Lease(
                        id=f"l{next(self._lease_ids)}",
                        campaign=campaign.id,
                        shard=shard,
                        worker=worker,
                        deadline=self._clock() + self.lease_ttl,
                    )
                    campaign.states[shard] = "leased"
                    self._leases[lease.id] = lease
                    self.counters["leases_granted"] += 1
                    self._say(
                        f"lease {lease.id}: {campaign.id} shard {shard}/"
                        f"{campaign.spec.shards} -> {worker}"
                    )
                    return {
                        "status": "granted",
                        "lease": lease.id,
                        "campaign": campaign.id,
                        "shard": shard,
                        "shards": campaign.spec.shards,
                        "ttl": self.lease_ttl,
                        "grid": campaign.spec.to_wire(),
                    }
            return {"status": "wait" if open_shards else "idle"}

    def heartbeat(self, lease_id: str) -> dict[str, Any]:
        """Extend a lease's deadline; ``gone`` when it already expired."""
        with self._lock:
            self._expire_leases()
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"status": "gone"}
            lease.deadline = self._clock() + self.lease_ttl
            return {"status": "ok", "ttl": self.lease_ttl}

    def complete(self, lease_id: str) -> dict[str, Any]:
        """Mark a leased shard done; ``gone`` when the lease already expired.

        A ``gone`` answer is not an error for the worker: its results are
        already in the store (ingest is independent of the lease), the
        shard has merely been re-offered in the meantime and the retrying
        worker will find every uploaded scenario already present.
        """
        with self._lock:
            self._expire_leases()
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return {"status": "gone"}
            campaign = self._campaigns[lease.campaign]
            campaign.states[lease.shard] = "done"
            self.counters["leases_completed"] += 1
            self._say(f"lease {lease.id} complete: {lease.campaign} shard {lease.shard}")
            return {"status": "done"}

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def query_missing(self, payload: Any) -> dict[str, Any]:
        """Which of these scenario digests does the store not hold yet?

        Workers call this once per shard before computing anything, so
        scenarios another worker (or an earlier run) already solved are
        never recomputed -- the ``presence_hits`` counter counts exactly
        those skips.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError("records query payload must be a JSON object")
        keys = sequence_of_keys(payload.get("keys"))
        missing = self.store.missing_keys(keys)
        with self._lock:
            self.counters["presence_hits"] += len(set(keys)) - len(missing)
        return {"missing": list(missing), "present": len(set(keys)) - len(missing)}

    def ingest(self, records: "list[Any]") -> dict[str, Any]:
        """Accept completed records, digest-verified and store-deduplicated.

        ``records`` is the parsed NDJSON body of ``POST /records/batch``.
        Every record must decode and its embedded key must be a
        well-formed digest -- a malformed record rejects the whole request
        with 400, nothing is partially written.
        """
        validated: list[tuple[str, dict]] = []
        for record in records:
            if not isinstance(record, dict):
                raise StoreError("each record must be a JSON object")
            key = record_key(record)
            # Decode up front: a record the store could never read back is
            # rejected here, at the uploader, not discovered at analysis time.
            decode_record(record, expected_key=key)
            validated.append((key, record))
        stored = duplicate = 0
        with self._lock:
            fresh: list[dict] = []
            fresh_keys: set[str] = set()
            for key, record in validated:
                if key in fresh_keys or self.store.contains_key(key):
                    duplicate += 1
                    continue
                fresh.append(record)
                fresh_keys.add(key)
            if fresh:
                # One bulk write per request: a single segment append and
                # index transaction, whatever the batch size.
                self.store.put_records(fresh)
                stored = len(fresh)
            self.counters["records_stored"] += stored
            self.counters["records_duplicate"] += duplicate
        return {"stored": stored, "duplicates": duplicate}

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _campaign_results(self, campaign: _Campaign) -> Iterator[ScenarioResult]:
        """Stream the campaign's solved scenarios from the store, grid order."""
        for scenario in campaign.spec.build_grid():
            result = self.store.get(scenario)
            if result is not None:
                yield ScenarioResult(scenario=scenario, result=result)

    def results(self, campaign_id: str) -> Iterator[dict[str, Any]]:
        """Yield the campaign's solved records (sweep-record form), grid order."""
        with self._lock:
            campaign = self._campaign(campaign_id)
        for outcome in self._campaign_results(campaign):
            yield outcome.to_record()

    def digest(self, campaign_id: str) -> dict[str, Any]:
        """The campaign's order-insensitive sweep digest over solved scenarios.

        ``complete`` says whether every grid scenario is solved; the digest
        of a complete campaign equals the ``sweep digest`` line a local
        ``repro sweep`` over the same grid prints, which is the
        distributed-equivalence check.
        """
        with self._lock:
            campaign = self._campaign(campaign_id)
        outcomes = list(self._campaign_results(campaign))
        return {
            "campaign": campaign.id,
            "total": len(campaign.digests),
            "solved": len(outcomes),
            "complete": len(outcomes) == len(campaign.digests),
            "digest": sweep_digest(outcomes),
        }

    # ------------------------------------------------------------------
    # One-shot scenarios
    # ------------------------------------------------------------------
    def run_scenario(self, payload: Any) -> dict[str, Any]:
        """Solve one scenario server-side (store-backed) and return its record."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("scenario payload must be a JSON object")
        scenario = scenario_from_wire(payload.get("scenario"))
        # Deliberately not under self._lock: a slow scenario must not block
        # lease heartbeats (the store is internally thread-safe).
        hit = self.store.contains_key(scenario.digest)
        outcome = self.engine.run(scenario)
        with self._lock:
            self.counters["scenarios_run"] += 1
        return {
            "digest": scenario.digest,
            "key": scenario.key,
            "source": "store" if hit else "computed",
            "record": outcome.to_record(),
        }

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        with self._lock:
            self._expire_leases()
            info = self.store.info()
            return {
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "store": {
                    "root": str(self.store.root),
                    "backend": info.backend,
                    "records": info.size,
                    "segments": info.segments,
                },
                "campaigns": len(self._campaigns),
                "leases": len(self._leases),
                "counters": dict(self.counters),
            }


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto :class:`CampaignServer` methods."""

    server_version = "repro-campaign"
    #: Uploads above this are rejected before reading the body (HTTP 413).
    max_body_bytes = 64 * 1024 * 1024

    # -- plumbing ------------------------------------------------------
    @property
    def app(self) -> CampaignServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.app.log is not None:
            self.app.log(f"http: {format % args}")

    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.max_body_bytes:
            raise ConfigurationError(f"request body exceeds {self.max_body_bytes} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"request body is not valid JSON: {error}") from error

    def _dispatch(self, handler: Callable[[], None]) -> None:
        try:
            handler()
        except _NotFound as error:
            self._send_json(404, {"error": str(error)})
        except (ReproError, OSError) as error:
            self._send_json(400, {"error": str(error)})
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as error:  # pragma: no cover - defensive 500
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    # -- verbs ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch(self._post)

    def _get(self) -> None:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["health"]:
            self._send_json(200, self.app.health())
        elif parts == ["campaigns"]:
            self._send_json(200, self.app.list_campaigns())
        elif len(parts) == 2 and parts[0] == "campaigns":
            self._send_json(200, self.app.progress(parts[1]))
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "digest":
            self._send_json(200, self.app.digest(parts[1]))
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "results":
            self._stream_results(parts[1])
        else:
            raise _NotFound(f"no such endpoint: GET {self.path}")

    def _stream_results(self, campaign_id: str) -> None:
        # Validate the id before committing to a status line.
        results = self.app.results(campaign_id)
        self.app.progress(campaign_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()  # HTTP/1.0: the connection close delimits the stream
        for record in results:
            self.wfile.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
            self.wfile.flush()

    def _read_ndjson_body(self) -> list[Any]:
        """Parse an NDJSON request body: one JSON value per non-blank line.

        The wire form of the batched record upload -- workers serialise
        each record once and concatenate, the server parses line by line,
        so neither side ever builds one giant JSON array in memory.  A
        malformed line rejects the request (400) with its line number.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.max_body_bytes:
            raise ConfigurationError(f"request body exceeds {self.max_body_bytes} bytes")
        raw = self.rfile.read(length) if length else b""
        values: list[Any] = []
        for number, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                values.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ConfigurationError(
                    f"NDJSON body line {number} is not valid JSON: {error}"
                ) from error
        return values

    def _post(self) -> None:
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["records", "batch"]:
            # NDJSON, not JSON: routed before the JSON body parse.
            self._send_json(200, self.app.ingest(self._read_ndjson_body()))
            return
        payload = self._read_body()
        if parts == ["campaigns"]:
            self._send_json(200, self.app.submit_campaign(payload))
        elif parts == ["lease"]:
            self._send_json(200, self.app.lease(payload))
        elif len(parts) == 3 and parts[0] == "leases" and parts[2] == "heartbeat":
            self._send_json(200, self.app.heartbeat(parts[1]))
        elif len(parts) == 3 and parts[0] == "leases" and parts[2] == "complete":
            self._send_json(200, self.app.complete(parts[1]))
        elif parts == ["records", "query"]:
            self._send_json(200, self.app.query_missing(payload))
        elif parts == ["scenarios"]:
            self._send_json(200, self.app.run_scenario(payload))
        else:
            raise _NotFound(f"no such endpoint: POST {self.path}")


class CampaignHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with the :class:`CampaignServer` attached."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: CampaignServer) -> None:
        self.app = app
        super().__init__(address, _Handler)


def start_server(
    store: "PackedResultStore | str | Path",
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    log: Callable[[str], None] | None = None,
) -> CampaignHTTPServer:
    """Bind a campaign server (``port=0``: any free port) without serving yet.

    The caller owns the serve loop: ``server.serve_forever()`` to run,
    ``server.shutdown()`` (from another thread) to stop,
    ``server.server_address`` for the bound ``(host, port)``.
    """
    app = CampaignServer(store, lease_ttl=lease_ttl)
    app.log = log
    return CampaignHTTPServer((host, port), app)
