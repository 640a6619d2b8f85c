"""Campaign service tests: protocol, lease lifecycle, HTTP loop, E2E.

Four layers, from fastest to slowest:

* ``TestGridSpecWire`` / ``TestScenarioWire`` -- pure protocol encode/
  decode and validation, no server at all;
* ``TestLeaseLifecycle`` / ``TestIngest`` -- the transport-free
  :class:`CampaignServer` core driven directly with an injected clock,
  covering expiry, re-lease, and the dedupe/verification gates;
* ``TestServiceHTTP`` -- a real in-thread HTTP server and
  :class:`ServiceClient` + :func:`run_worker`, proving the distributed
  digest equals the single-process sweep digest with zero duplicate work;
* ``TestDistributedE2E`` -- the full subprocess flow the README
  documents: ``repro serve``, a campaign submitted via ``repro sweep
  --server``, a worker killed mid-campaign, and a second worker that
  picks up the expired shard, with digest parity at the end.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.api import Engine
from repro.bench.runner import sweep_digest
from repro.core.exceptions import ConfigurationError, ReproError, ServiceError
from repro.core.units import mega_vectors
from repro.service import (
    PROTOCOL_VERSION,
    CampaignServer,
    GridSpec,
    ServiceClient,
    run_worker,
    scenario_from_wire,
    scenario_to_wire,
    start_server,
)
from repro.store import is_packed, make_record

#: The small synthetic operating point every service test sweeps: two tiny
#: catalog SOCs at two channel widths, one depth -- four scenarios that
#: solve in milliseconds but still exercise every code path.
SMALL_SPEC = GridSpec(
    socs=("synthetic:7:4", "synthetic:8:4"),
    channels=(48, 64),
    depths=(mega_vectors(1),),
    shards=2,
)


# ----------------------------------------------------------------------
# Protocol layer
# ----------------------------------------------------------------------
class TestGridSpecWire:
    def test_wire_round_trip(self):
        assert GridSpec.from_wire(SMALL_SPEC.to_wire()) == SMALL_SPEC

    def test_wire_defaults(self):
        spec = GridSpec.from_wire({"socs": ["d695"]})
        assert spec == GridSpec(socs=("d695",))
        assert spec.shards == 1

    def test_unknown_field_rejected(self):
        payload = SMALL_SPEC.to_wire()
        payload["depht"] = [1]
        with pytest.raises(ConfigurationError, match="unknown fields: depht"):
            GridSpec.from_wire(payload)

    def test_protocol_mismatch_rejected(self):
        payload = SMALL_SPEC.to_wire()
        payload["protocol"] = PROTOCOL_VERSION + 1
        with pytest.raises(ConfigurationError, match="protocol"):
            GridSpec.from_wire(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            "not an object",
            {"socs": []},
            {"socs": ["d695"], "channels": [0]},
            {"socs": ["d695"], "depths": [True]},
            {"socs": ["d695"], "broadcast": "sometimes"},
            {"socs": ["d695"], "shards": 0},
            {"socs": ["d695"], "frequency_mhz": -1},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            GridSpec.from_wire(payload)

    def test_shards_partition_the_grid(self):
        """Shard slices are disjoint and together cover the whole grid."""
        full = {scenario.digest for scenario in SMALL_SPEC.build_grid()}
        shards = [
            [scenario.digest for scenario in SMALL_SPEC.shard_grid(index)]
            for index in range(SMALL_SPEC.shards)
        ]
        flat = [digest for shard in shards for digest in shard]
        assert len(flat) == len(set(flat)) == len(full)
        assert set(flat) == full

    def test_both_ends_build_identical_grids(self):
        """The wire round trip preserves every scenario digest in order."""
        rebuilt = GridSpec.from_wire(json.loads(json.dumps(SMALL_SPEC.to_wire())))
        assert [scenario.digest for scenario in rebuilt.build_grid()] == [
            scenario.digest for scenario in SMALL_SPEC.build_grid()
        ]


class TestScenarioWire:
    def test_round_trip_digest(self):
        wire = scenario_to_wire(
            "synthetic:7:4", channels=48, depth=mega_vectors(1), broadcast=True
        )
        scenario = scenario_from_wire(wire)
        assert scenario.soc == "synthetic:7:4"
        assert scenario.test_cell.ate.channels == 48
        assert scenario.config.broadcast is True
        # Decoding the same wire payload twice is digest-stable.
        assert scenario_from_wire(wire).digest == scenario.digest

    def test_matches_grid_scenarios(self):
        """A wire scenario lands on the same digest as the grid's version."""
        grid_scenario = next(iter(SMALL_SPEC.build_grid()))
        wire = scenario_to_wire(
            grid_scenario.soc,
            channels=grid_scenario.test_cell.ate.channels,
            depth=grid_scenario.test_cell.ate.depth,
        )
        assert scenario_from_wire(wire).digest == grid_scenario.digest

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {},
            {"soc": ""},
            {"soc": "d695", "channels": -4},
            {"soc": "d695", "depth": True},
            {"soc": "d695", "max_sites": 0},
            {"soc": "d695", "solver": 7},
        ],
    )
    def test_malformed_scenarios_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            scenario_from_wire(payload)


# ----------------------------------------------------------------------
# Transport-free server core
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def clocked_server(tmp_path):
    clock = FakeClock()
    server = CampaignServer(tmp_path / "store", lease_ttl=10.0, clock=clock)
    return server, clock


class TestLeaseLifecycle:
    def _submit(self, server):
        return server.submit_campaign({"grid": SMALL_SPEC.to_wire()})["campaign"]

    def test_grant_wait_idle(self, clocked_server):
        server, _ = clocked_server
        campaign = self._submit(server)
        first = server.lease({"worker": "w1"})
        second = server.lease({"worker": "w1"})
        assert (first["status"], second["status"]) == ("granted", "granted")
        assert {first["shard"], second["shard"]} == {0, 1}
        assert first["grid"] == SMALL_SPEC.to_wire()
        # Everything is leased out: a second worker waits, not idles.
        assert server.lease({"worker": "w2"})["status"] == "wait"
        for lease in (first, second):
            assert server.complete(lease["lease"])["status"] == "done"
        assert server.lease({"worker": "w2"})["status"] == "idle"
        assert server.progress(campaign)["shard_states"] == {
            "pending": 0, "leased": 0, "done": 2,
        }

    def test_heartbeat_extends_expiry_repends(self, clocked_server):
        server, clock = clocked_server
        self._submit(server)
        lease = server.lease({"worker": "doomed"})
        assert lease["status"] == "granted"
        clock.now = 5.0
        assert server.heartbeat(lease["lease"])["status"] == "ok"
        # The heartbeat pushed the deadline to t=15: still held at t=14.9.
        clock.now = 14.9
        other = server.lease({"worker": "w2"})
        assert other["status"] == "granted"
        assert other["shard"] != lease["shard"]
        server.complete(other["lease"])
        assert server.lease({"worker": "w2"})["status"] == "wait"
        # Past the deadline the shard is re-offered to the live worker...
        clock.now = 15.1
        release = server.lease({"worker": "w2"})
        assert release["status"] == "granted"
        assert release["shard"] == lease["shard"]
        # ...and the dead worker's lease handle is gone, not resurrectable.
        assert server.heartbeat(lease["lease"])["status"] == "gone"
        assert server.complete(lease["lease"])["status"] == "gone"
        assert server.complete(release["lease"])["status"] == "done"
        assert server.lease({"worker": "w2"})["status"] == "idle"
        assert server.counters["leases_expired"] == 1
        assert server.counters["leases_granted"] == 3
        assert server.counters["leases_completed"] == 2

    def test_unknown_campaign_and_lease(self, clocked_server):
        server, _ = clocked_server
        with pytest.raises(ReproError, match="no campaign"):
            server.progress("c99")
        with pytest.raises(ReproError, match="no campaign"):
            server.lease({"worker": "w", "campaign": "c99"})
        assert server.heartbeat("l99")["status"] == "gone"
        assert server.complete(lease_id="l99")["status"] == "gone"

    def test_campaign_scoped_lease(self, clocked_server):
        server, _ = clocked_server
        first = self._submit(server)
        second = self._submit(server)
        scoped = server.lease({"worker": "w", "campaign": second})
        assert scoped["status"] == "granted"
        assert scoped["campaign"] == second == "c2"
        assert first == "c1"


class TestIngest:
    def _record(self, server, index=0):
        scenario = list(SMALL_SPEC.build_grid())[index]
        outcome = Engine().run(scenario)
        return make_record(scenario, outcome.result)

    def test_dedupe(self, clocked_server):
        server, _ = clocked_server
        record = self._record(server)
        assert server.ingest([record]) == {"stored": 1, "duplicates": 0}
        assert server.ingest([record]) == {"stored": 0, "duplicates": 1}
        assert server.counters["records_stored"] == 1
        assert server.counters["records_duplicate"] == 1

    def test_corrupt_record_rejected_atomically(self, clocked_server):
        """One bad record rejects the whole batch; nothing is written."""
        server, _ = clocked_server
        good = self._record(server)
        bad = dict(good, result="not a result payload")
        with pytest.raises(ReproError):
            server.ingest([good, bad])
        assert server.store.info().size == 0
        assert server.counters["records_stored"] == 0

    def test_packed_ingest_writes_analysis_sidecars(self, tmp_path):
        """Batch ingest over a packed store produces sidecars in the same
        flush, and the sidecar scan matches full decode bit for bit."""
        from repro.analysis.records import records_from_store
        from repro.store import columns
        from repro.store.packed import PackedResultStore

        packed = PackedResultStore(tmp_path / "packed")
        server = CampaignServer(packed, lease_ttl=10.0)
        grid = list(SMALL_SPEC.build_grid())[:3]
        engine = Engine()
        records = [make_record(s, engine.run(s).result) for s in grid]
        assert server.ingest(records) == {"stored": 3, "duplicates": 0}
        sidecars = list(packed.root.rglob(f"*{columns.SIDECAR_SUFFIX}"))
        assert sidecars
        fast = records_from_store(packed)
        assert len(fast) == 3
        assert fast == records_from_store(packed, columns=False)

    def test_query_missing_counts_presence(self, clocked_server):
        server, _ = clocked_server
        record = self._record(server)
        server.ingest([record])
        keys = [record["key"], "0" * 64]
        answer = server.query_missing({"keys": keys})
        assert answer == {"missing": ["0" * 64], "present": 1}
        assert server.counters["presence_hits"] == 1


# ----------------------------------------------------------------------
# HTTP loop: in-thread server + client + workers
# ----------------------------------------------------------------------
@pytest.fixture()
def http_service(tmp_path):
    server = start_server(tmp_path / "store", port=0, lease_ttl=30.0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(f"http://{host}:{port}", timeout=30.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestServiceHTTP:
    def test_health(self, http_service):
        health = http_service.health()
        assert health["status"] == "ok"
        assert health["protocol"] == PROTOCOL_VERSION
        assert health["store"]["records"] == 0
        assert health["campaigns"] == 0

    def test_unknown_campaign_is_404(self, http_service):
        with pytest.raises(ServiceError, match="no campaign") as excinfo:
            http_service.progress("c99")
        assert excinfo.value.status == 404

    def test_malformed_submit_is_400(self, http_service):
        with pytest.raises(ServiceError) as excinfo:
            http_service._call("/campaigns", {"grid": {"socs": []}})
        assert excinfo.value.status == 400

    def test_connection_refused_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_two_workers_match_local_sweep_digest(self, http_service):
        """The distributed-equivalence check, in-process.

        Two workers drain a two-shard campaign; the campaign digest must
        equal a single-process sweep over the same grid, and no scenario
        may be computed or stored twice.
        """
        submitted = http_service.submit_campaign(SMALL_SPEC)
        campaign = submitted["campaign"]
        assert submitted["total"] == 4
        stats = [
            run_worker(http_service.base_url, worker=f"w{index}", max_shards=1)
            for index in (1, 2)
        ]
        assert [s.shards for s in stats] == [1, 1]
        assert sum(s.computed for s in stats) == 4
        assert sum(s.stored for s in stats) == 4
        assert sum(s.duplicates for s in stats) == 0

        answer = http_service.digest(campaign)
        assert answer["complete"] is True
        assert answer["solved"] == 4
        local = sweep_digest(Engine().run_batch(list(SMALL_SPEC.build_grid())))
        assert answer["digest"] == local

        health = http_service.health()
        assert health["counters"]["records_duplicate"] == 0
        assert health["counters"]["leases_completed"] == 2

        records = list(http_service.results(campaign))
        assert len(records) == 4
        assert [r["scenario_key"] for r in records] == [
            s.key for s in SMALL_SPEC.build_grid()
        ]

    def test_resubmitted_campaign_is_all_store_hits(self, http_service):
        """A second identical campaign computes nothing: presence skips all."""
        http_service.submit_campaign(SMALL_SPEC)
        run_worker(http_service.base_url, worker="w1", until_idle=True, poll=0.05)
        second = http_service.submit_campaign(SMALL_SPEC)
        assert second["solved"] == 4  # solved-at-submit, straight from the store
        stats = run_worker(
            http_service.base_url, worker="w2", until_idle=True, poll=0.05
        )
        assert stats.computed == 0
        assert stats.skipped == 4
        assert http_service.digest(second["campaign"])["complete"] is True
        assert http_service.health()["counters"]["records_duplicate"] == 0

    def test_batch_upload_endpoint_stores_and_dedupes(self, http_service):
        grid = list(SMALL_SPEC.build_grid())[:3]
        engine = Engine()
        records = [make_record(s, engine.run(s).result) for s in grid]
        assert http_service.put_records_batch(records) == {"stored": 3, "duplicates": 0}
        assert http_service.put_records_batch(records) == {"stored": 0, "duplicates": 3}
        assert http_service.health()["store"]["records"] == 3

    def test_batch_upload_digest_rejection_parity(self, http_service):
        """A bad record rejects the whole NDJSON batch; JSON ``/records`` is gone."""
        grid = list(SMALL_SPEC.build_grid())[:2]
        engine = Engine()
        good, other = (make_record(s, engine.run(s).result) for s in grid)
        bad = dict(other, result="not a result payload")
        with pytest.raises(ServiceError) as batch_error:
            http_service.put_records_batch([good, bad])
        assert batch_error.value.status == 400
        with pytest.raises(ServiceError) as single_error:
            http_service._call("/records", {"record": good})
        assert single_error.value.status == 404
        # All-or-nothing: the good record was written by neither request.
        assert http_service.health()["store"]["records"] == 0

    def test_batch_upload_malformed_ndjson_is_400(self, http_service):
        with pytest.raises(ServiceError, match="line 1") as excinfo:
            http_service._call(
                "/records/batch", raw=b"{broken\n", content_type="application/x-ndjson"
            )
        assert excinfo.value.status == 400

    def test_chunked_worker_digest_parity(self, http_service):
        """``--chunk`` changes upload cadence only, never the digest."""
        submitted = http_service.submit_campaign(SMALL_SPEC)
        lines: list[str] = []
        stats = run_worker(
            http_service.base_url,
            worker="w1",
            until_idle=True,
            poll=0.05,
            chunk_size=2,
            log=lines.append,
        )
        assert stats.computed == 4
        assert stats.stored == 4
        assert stats.duplicates == 0
        assert any("chunk 1/" in line and "uploaded" in line for line in lines)
        answer = http_service.digest(submitted["campaign"])
        assert answer["complete"] is True
        local = sweep_digest(Engine().run_batch(list(SMALL_SPEC.build_grid())))
        assert answer["digest"] == local

    def test_run_scenario_endpoint(self, http_service):
        wire = scenario_to_wire(
            "synthetic:7:4", channels=48, depth=mega_vectors(1)
        )
        first = http_service.run_scenario(wire)
        assert first["source"] == "computed"
        second = http_service.run_scenario(wire)
        assert second["source"] == "store"
        assert second["record"] == first["record"]


# ----------------------------------------------------------------------
# Full subprocess E2E: serve, submit, kill a worker, recover, compare
# ----------------------------------------------------------------------
E2E_SWEEP = (
    "d695", "--channels", "32", "48", "64", "--depth-m", "1", "--shards", "3",
)
E2E_SPEC = GridSpec(
    socs=("d695",), channels=(32, 48, 64), depths=(mega_vectors(1),), shards=3
)


def _repro(*args: str, **kwargs) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        **kwargs,
    )


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


class TestDistributedE2E:
    def test_kill_worker_mid_campaign_digest_parity(self, tmp_path):
        """serve + sweep --server + two workers, one killed, digest parity.

        One shard is leased by a 'doomed' worker that dies without
        completing it (the lease must expire and re-offer the shard); a
        real worker subprocess is additionally SIGKILLed while running.
        The surviving worker must finish everything, and the campaign
        digest must equal an uninterrupted in-process sweep.
        """
        store = tmp_path / "store"
        serve = _repro(
            "serve", "--store", str(store), "--port", "0",
            "--lease-ttl", "2", "--quiet",
        )
        try:
            line = serve.stdout.readline()
            match = re.search(r"listening on (http://\S+)", line)
            assert match, f"no listen line: {line!r}"
            url = match.group(1)

            submit = _repro("sweep", *E2E_SWEEP, "--server", url)
            out, err = submit.communicate(timeout=60)
            assert submit.returncode == 0, err
            match = re.search(r"campaign (c\d+) submitted", out)
            assert match, out
            campaign = match.group(1)

            # A worker leases shard 0 and dies on the spot: no heartbeat,
            # no completion.  Its shard must come back after the 2s TTL.
            doomed = json.loads(
                urllib.request.urlopen(
                    urllib.request.Request(
                        f"{url}/lease",
                        data=json.dumps({"worker": "doomed"}).encode(),
                        headers={"Content-Type": "application/json"},
                    ),
                    timeout=10,
                ).read()
            )
            assert doomed["status"] == "granted"

            # A real worker subprocess gets SIGKILLed mid-run as well.
            killed = _repro("work", "--server", url, "--poll", "0.1")
            time.sleep(0.3)
            killed.kill()
            killed.wait(timeout=10)

            # The survivor drains the campaign, waiting out expired leases.
            survivor = _repro(
                "work", "--server", url, "--until-idle", "--poll", "0.2",
            )
            out, err = survivor.communicate(timeout=60)
            assert survivor.returncode == 0, err

            answer = _get_json(f"{url}/campaigns/{campaign}/digest")
            assert answer["complete"] is True, answer
            assert answer["solved"] == 3
            local = sweep_digest(Engine().run_batch(list(E2E_SPEC.build_grid())))
            assert answer["digest"] == local

            health = _get_json(f"{url}/health")
            assert health["counters"]["leases_expired"] >= 1
            assert health["store"]["records"] == 3
        finally:
            serve.send_signal(signal.SIGINT)
            try:
                serve.wait(timeout=10)
            except subprocess.TimeoutExpired:
                serve.kill()
                serve.wait(timeout=10)
        assert serve.returncode == 0

        # The service made the fresh directory a packed store: a local
        # engine over the same grid is all store hits, zero computes.
        assert is_packed(store)
        engine = Engine(store=store)
        engine.run_batch(list(E2E_SPEC.build_grid()))
        info = engine.cache_info()
        assert (info.misses, info.store_hits) == (0, 3)
