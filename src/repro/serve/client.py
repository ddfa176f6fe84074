"""Stdlib HTTP client for the HPO service daemon.

:class:`ServeClient` wraps :mod:`http.client` (no third-party
dependencies, matching the daemon's zero-dependency constraint) around
the service's JSON protocol.  One client object holds one persistent
connection; it is not thread-safe — give each thread its own client.

>>> client = ServeClient("http://127.0.0.1:8123")          # doctest: +SKIP
>>> job = client.submit(tenant="alice", dataset="australian")  # doctest: +SKIP
>>> final = client.wait(job["job_id"], timeout=120)        # doctest: +SKIP
>>> final["incumbent"]["best_score"]                       # doctest: +SKIP

Errors surface as :class:`ServeError` carrying the HTTP status, so
callers can distinguish backpressure (429) from validation failures
(400) and drain rejections (503).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Union
from urllib.parse import urlparse

from ..engine.core import backoff_delay
from .protocol import JobSpec, TERMINAL_STATES

__all__ = ["ServeError", "ServeClient"]


class ServeError(RuntimeError):
    """A non-2xx response from the daemon.

    Attributes
    ----------
    status:
        HTTP status code (0 for transport-level failures).
    payload:
        Decoded JSON error payload (``{"error": ...}``) when available.
    """

    def __init__(self, status: int, payload: Optional[Dict[str, Any]] = None) -> None:
        self.status = status
        self.payload = payload or {}
        detail = self.payload.get("error") or self.payload or "request failed"
        super().__init__(f"HTTP {status}: {detail}")


class ServeClient:
    """Typed access to one daemon's endpoints over a persistent connection.

    Parameters
    ----------
    url:
        Base URL (``"http://host:port"``) — what ``repro serve`` prints —
        or just ``"host:port"``.
    timeout:
        Read timeout per request, in seconds (how long to wait for the
        daemon's response once connected).
    connect_timeout:
        Timeout for establishing the TCP connection; defaults to
        ``timeout``.  A daemon that is down fails fast here instead of
        hanging for a full read timeout.
    retries:
        Transport retry budget: how many times a failed round trip is
        re-attempted after the first try.  Each retry sleeps a jittered
        exponential backoff from the engine's seeded
        :func:`~repro.engine.core.backoff_delay` helper, so the delay
        schedule is reproducible.  Retrying a ``submit`` whose first
        attempt actually landed is safe: the daemon's in-flight dedup
        subscribes the duplicate to the original job.
    retry_backoff / retry_backoff_max:
        Base and cap (seconds) of the backoff schedule.
    retry_seed:
        Seed for the deterministic jitter.
    retry_statuses:
        Optional HTTP statuses (e.g. ``(429, 503)``) also retried within
        the same budget; by default only transport-level failures retry
        and every HTTP error surfaces immediately as :class:`ServeError`.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.1,
        retry_backoff_max: float = 2.0,
        retry_seed: int = 0,
        retry_statuses: tuple = (),
        sleep=time.sleep,
    ) -> None:
        if "//" not in url:
            url = "http://" + url
        parsed = urlparse(url)
        if parsed.scheme != "http" or parsed.hostname is None or parsed.port is None:
            raise ValueError(f"expected an http://host:port URL, got {url!r}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0 or retry_backoff_max < 0:
            raise ValueError("retry backoff terms must be >= 0")
        self.host = parsed.hostname
        self.port = parsed.port
        self.timeout = timeout
        self.connect_timeout = timeout if connect_timeout is None else connect_timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.retry_seed = retry_seed
        self.retry_statuses = tuple(retry_statuses)
        #: Round trips that failed and were retried (transport or status).
        self.transport_retries = 0
        self._sleep = sleep
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.connect_timeout
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, method: str, path: str, body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One logical request with a bounded, seeded-jitter retry budget.

        Transport failures (stale kept-alive connection, refused connect,
        socket timeout) are retried up to ``retries`` times with
        :func:`~repro.engine.core.backoff_delay` sleeps between attempts;
        statuses listed in ``retry_statuses`` consume the same budget.
        Whatever failure ends the budget is what surfaces.
        """
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        last_failure: Optional[ServeError] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.transport_retries += 1
                delay = backoff_delay(
                    self.retry_backoff, attempt, self.retry_backoff_max,
                    self.retry_seed + attempt,
                )
                if delay > 0:
                    self._sleep(delay)
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                if conn.sock is not None:
                    conn.sock.settimeout(self.timeout)
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError, socket.timeout, OSError) as exc:
                self.close()
                last_failure = ServeError(0, {"error": f"{type(exc).__name__}: {exc}"})
                last_failure.__cause__ = exc
                continue
            try:
                data = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                data = {}
            if not isinstance(data, dict):
                data = {}
            if response.status >= 400:
                last_failure = ServeError(response.status, data)
                if response.status in self.retry_statuses:
                    continue
                raise last_failure
            return data
        assert last_failure is not None
        raise last_failure

    # -- endpoints -------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness and serving/draining state."""
        return self._request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        """``GET /readyz`` — readiness to accept new work.

        Raises :class:`ServeError` with ``status == 503`` (payload
        carrying the blocking ``reasons``) while the daemon is not ready.
        """
        return self._request("GET", "/readyz")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats`` — queues, tenants, shared cache, throughput."""
        return self._request("GET", "/stats")

    def submit(self, spec: Union[JobSpec, Dict[str, Any], None] = None, **fields: Any) -> Dict[str, Any]:
        """``POST /jobs`` — submit one job; returns the accepted record.

        Accepts a :class:`~repro.serve.protocol.JobSpec`, a plain dict,
        or keyword fields (``submit(tenant="a", dataset="australian")``).
        Raises :class:`ServeError` with ``status == 429`` on backpressure
        and ``status == 503`` while the daemon drains.
        """
        if spec is None:
            payload: Dict[str, Any] = dict(fields)
        elif isinstance(spec, JobSpec):
            payload = spec.to_dict()
        else:
            payload = {**spec, **fields}
        return self._request("POST", "/jobs", body=payload)

    def jobs(self) -> List[Dict[str, Any]]:
        """``GET /jobs`` — newest-first summaries of every known job."""
        return self._request("GET", "/jobs").get("jobs", [])

    def job(self, job_id: str, wait: Optional[float] = None) -> Dict[str, Any]:
        """``GET /jobs/<id>`` — the full record of one job.

        With ``wait`` (seconds) the daemon holds the request until the job
        is terminal or the wait elapses (it clamps long waits), then
        answers with the record as it stands — one request instead of a
        polling loop.  Keep ``wait`` under the read ``timeout``.
        """
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._request("GET", f"/jobs/{job_id}{query}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``DELETE /jobs/<id>`` — cooperative cancel."""
        return self._request("DELETE", f"/jobs/{job_id}")

    # -- conveniences ----------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0, poll: float = 0.05) -> Dict[str, Any]:
        """Long-poll until the job reaches a terminal state; return its record.

        Each request asks the daemon to hold it for what is left of
        ``timeout``, capped at half the read ``timeout``; ``poll`` is the
        pause before the next request when one comes back non-terminal.
        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            record = self.job(job_id, wait=min(remaining, self.timeout / 2))
            if record.get("state") in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record.get('state')!r} after {timeout:.1f}s"
                )
            time.sleep(poll)

    def wait_all(self, job_ids: List[str], timeout: float = 600.0, poll: float = 0.05) -> Dict[str, Dict[str, Any]]:
        """Wait for many jobs; returns ``{job_id: final record}``.

        One :meth:`wait` per job, in the order given, all under the one
        ``timeout``.
        """
        deadline = time.monotonic() + timeout
        done: Dict[str, Dict[str, Any]] = {}
        for job_id in job_ids:
            try:
                done[job_id] = self.wait(job_id, max(0.0, deadline - time.monotonic()), poll)
            except TimeoutError:
                raise TimeoutError(
                    f"{len(job_ids) - len(done)} job(s) unfinished after {timeout:.1f}s"
                ) from None
        return done
