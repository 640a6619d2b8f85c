"""Thin JSON client of the campaign service (stdlib ``urllib`` only).

:class:`ServiceClient` is both the worker's transport and the
programmatic way to drive a running ``repro serve`` daemon: submit
campaigns, poll progress, stream results.  Every method mirrors one HTTP
endpoint and speaks plain dicts -- the wire forms are defined in
:mod:`repro.service.protocol`.

All failures surface as :class:`~repro.core.exceptions.ServiceError`:
transport problems (server unreachable, connection dropped) carry
``status=None``, protocol rejections carry the HTTP status code and the
server's ``error`` message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Iterator, Sequence

from repro.core.exceptions import ServiceError
from repro.service.protocol import GridSpec

#: Default per-request timeout (seconds).  Generous: endpoints answer in
#: milliseconds, but a one-shot ``POST /scenarios`` solves server-side.
DEFAULT_TIMEOUT = 60.0


class ServiceClient:
    """JSON client bound to one campaign server base URL.

    Parameters
    ----------
    server:
        Base URL, e.g. ``http://127.0.0.1:8750`` (a bare ``host:port`` is
        accepted and gets the scheme prepended).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, server: str, *, timeout: float = DEFAULT_TIMEOUT) -> None:
        if "://" not in server:
            server = f"http://{server}"
        self.base_url = server.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _open(
        self,
        path: str,
        payload: dict[str, Any] | None = None,
        raw: "bytes | None" = None,
        content_type: str = "application/json",
    ):
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if raw is not None:
            data = raw
            headers["Content-Type"] = content_type
        elif payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = content_type
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                body = json.loads(error.read().decode("utf-8"))
                detail = str(body.get("error", ""))
            except Exception:  # noqa: BLE001 - any unreadable body
                pass
            message = detail or f"HTTP {error.code}"
            raise ServiceError(
                f"{path}: server rejected the request: {message}", status=error.code
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(f"{path}: cannot reach {self.base_url}: {error.reason}") from error
        except OSError as error:
            raise ServiceError(f"{path}: transport failure: {error}") from error

    def _call(
        self,
        path: str,
        payload: dict[str, Any] | None = None,
        raw: "bytes | None" = None,
        content_type: str = "application/json",
    ) -> dict[str, Any]:
        with self._open(path, payload, raw=raw, content_type=content_type) as response:
            try:
                decoded = json.loads(response.read().decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
                raise ServiceError(f"{path}: malformed server response: {error}") from error
        if not isinstance(decoded, dict):
            raise ServiceError(f"{path}: server response is not a JSON object")
        return decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /health``: server status, store shape, counters."""
        return self._call("/health")

    def submit_campaign(self, spec: GridSpec) -> dict[str, Any]:
        """``POST /campaigns``: register a sweep campaign; returns its progress."""
        return self._call("/campaigns", {"grid": spec.to_wire()})

    def list_campaigns(self) -> list[dict[str, Any]]:
        """``GET /campaigns``: progress of every submitted campaign."""
        return list(self._call("/campaigns").get("campaigns", []))

    def progress(self, campaign: str) -> dict[str, Any]:
        """``GET /campaigns/<id>``: one campaign's shard states and solve count."""
        return self._call(f"/campaigns/{campaign}")

    def digest(self, campaign: str) -> dict[str, Any]:
        """``GET /campaigns/<id>/digest``: the order-insensitive sweep digest."""
        return self._call(f"/campaigns/{campaign}/digest")

    def results(self, campaign: str) -> Iterator[dict[str, Any]]:
        """``GET /campaigns/<id>/results``: stream solved records (JSONL)."""
        with self._open(f"/campaigns/{campaign}/results") as response:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError) as error:
                    raise ServiceError(
                        f"/campaigns/{campaign}/results: malformed record line: {error}"
                    ) from error

    def lease(self, worker: str, campaign: str | None = None) -> dict[str, Any]:
        """``POST /lease``: claim a pending shard (``granted``/``wait``/``idle``)."""
        payload: dict[str, Any] = {"worker": worker}
        if campaign is not None:
            payload["campaign"] = campaign
        return self._call("/lease", payload)

    def heartbeat(self, lease: str) -> dict[str, Any]:
        """``POST /leases/<id>/heartbeat``: extend the lease (``ok``/``gone``)."""
        return self._call(f"/leases/{lease}/heartbeat", {})

    def complete(self, lease: str) -> dict[str, Any]:
        """``POST /leases/<id>/complete``: mark the shard done (``done``/``gone``)."""
        return self._call(f"/leases/{lease}/complete", {})

    def missing(self, keys: Sequence[str]) -> tuple[str, ...]:
        """``POST /records/query``: which of these digests the store lacks."""
        response = self._call("/records/query", {"keys": list(keys)})
        missing = response.get("missing")
        if not isinstance(missing, list):
            raise ServiceError("/records/query: server response lacks 'missing'")
        return tuple(str(key) for key in missing)

    def put_records_batch(self, records: Sequence[dict[str, Any]]) -> dict[str, Any]:
        """``POST /records/batch``: bulk NDJSON upload of completed records.

        The service's only record ingest: one HTTP request per batch, one
        JSON line per record.  Every record is digest-verified and
        deduplicated against the store; a malformed record rejects the
        whole batch (400), nothing is partially stored.
        """
        body = b"".join(
            json.dumps(record).encode("utf-8") + b"\n" for record in records
        )
        return self._call("/records/batch", raw=body, content_type="application/x-ndjson")

    def run_scenario(self, scenario: dict[str, Any]) -> dict[str, Any]:
        """``POST /scenarios``: solve one scenario server-side, get its record."""
        return self._call("/scenarios", {"scenario": scenario})
