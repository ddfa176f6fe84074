"""The HPO service daemon: HTTP front end, worker pool, recovery, drain.

:class:`ServeDaemon` composes the pieces this package and the engine
already provide into a long-lived multi-tenant server:

- a stdlib :class:`~http.server.ThreadingHTTPServer` speaking the small
  JSON protocol (``POST /jobs``, ``GET /jobs``, ``GET /jobs/<id>``,
  ``DELETE /jobs/<id>``, ``GET /healthz``, ``GET /stats``), where
  ``GET /jobs/<id>?wait=<seconds>`` long-polls: it answers when the job
  reaches a terminal state or the wait elapses, whichever is first;
- a pool of worker threads pulling jobs from the
  :class:`~repro.serve.scheduler.FairShareScheduler` (weighted
  round-robin, per-tenant quotas, 429 backpressure when the bounded
  admission queue is full);
- the :class:`~repro.serve.registry.SharedEngineState` — process-lifetime
  evaluation caches and durable checkpoint stores shared by every job of
  the same evaluation context, so overlapping searches from different
  tenants never recompute each other's work;
- crash recovery: at startup every ``queued``/``running`` job found under
  the serve root is re-queued, and its journal replays the already-durable
  trials so the resumed job finishes bitwise-identical to an
  uninterrupted run;
- graceful drain: :meth:`ServeDaemon.drain` (wired to SIGTERM/SIGINT by
  :meth:`ServeDaemon.run_forever`) stops admitting (503), lets in-flight
  and queued jobs finish within the grace period, and leaves anything
  slower journaled on disk for the next start.

The daemon binds ``127.0.0.1`` by default — it is a backend service; put
a real proxy in front of it before exposing it further.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

from ..faults.points import fault_point
from ..obs import flightrec as _flightrec
from ..obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..obs.prom import render, serve_families
from .jobs import execute_job
from .protocol import PROTOCOL_VERSION, JobRecord, JobSpec, ProtocolError, spec_digest
from .registry import JobRegistry, SharedEngineState
from .scheduler import FairShareScheduler, QueueFull

__all__ = ["ServeDaemon", "Degraded", "LiveJobs", "STATS_SCHEMA_VERSION"]

#: Version of the ``/stats`` JSON shape (see docs/SERVICE.md); bump on
#: any breaking change so scrapers can evolve safely.
STATS_SCHEMA_VERSION = 1

#: Longest a ``GET /jobs/<id>?wait=`` request is held, whatever it asks
#: for: under half the client's default read timeout, so a parked request
#: is never mistaken for a dead daemon.
MAX_WAIT_S = 10.0


class LiveJobs:
    """Thread-safe table of the jobs currently executing in this daemon.

    Each entry pairs the mutable :class:`JobRecord` with the job's
    :class:`~repro.telemetry.Telemetry`, letting the ``/metrics``
    exporter read trial progress and per-rung counters mid-flight.
    Reads take the same lock as writes but hold it only to copy the
    table — rendering happens outside, so a scrape cannot stall a
    dispatch that wants to register.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Tuple[JobRecord, Any]] = {}

    def register(self, record: JobRecord, telemetry: Any) -> None:
        """Add a job that just started running (called from the dispatch path)."""
        with self._lock:
            self._jobs[record.job_id] = (record, telemetry)

    def unregister(self, job_id: str) -> None:
        """Drop a job that settled; unknown ids are a no-op."""
        with self._lock:
            self._jobs.pop(job_id, None)

    def snapshot(self) -> List[Tuple[JobRecord, Any]]:
        """Stable-ordered copy of the live entries (sorted by job id)."""
        with self._lock:
            return [self._jobs[job_id] for job_id in sorted(self._jobs)]


class Degraded(RuntimeError):
    """Admission shed because the daemon is in degraded mode (HTTP 429).

    Raised by :meth:`ServeDaemon.admit` while the spill disk refuses
    durable writes; cleared automatically once a probe write succeeds.
    """


class _ServeHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying a reference back to its daemon.

    Enforces the daemon's keep-alive connection budget at accept time:
    past ``max_connections`` concurrently-open connections, new arrivals
    get a minimal ``503 + Retry-After`` and are closed before a handler
    thread is ever tied up parsing them.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, daemon_ref: "ServeDaemon") -> None:
        super().__init__(address, handler)
        self.daemon_ref = daemon_ref

    def process_request_thread(self, request, client_address) -> None:
        daemon = self.daemon_ref
        if not daemon._acquire_connection(request):
            body = b'{"error": "connection limit reached"}'
            try:
                request.sendall(
                    b"HTTP/1.1 503 Service Unavailable\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Retry-After: 1\r\n"
                    b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                    b"Connection: close\r\n\r\n" + body
                )
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request_thread(request, client_address)
        finally:
            daemon._release_connection(request)


class _Handler(BaseHTTPRequestHandler):
    """Request handler translating HTTP routes to daemon operations."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    timeout = 60.0
    #: TCP_NODELAY on every accepted socket: a response is one small write,
    #: and Nagle would hold its tail for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    @property
    def daemon(self) -> "ServeDaemon":
        """The owning daemon (via the server object)."""
        return self.server.daemon_ref

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs through the daemon's verbosity switch."""
        if self.daemon.verbose:
            super().log_message(format, *args)

    def end_headers(self, body: bytes = b"") -> None:
        """Give the connection's slot back before its *last* response goes out.

        Whoever has read that response may already be reconnecting; the
        count they meet must not still include the connection they left.
        ``body`` leaves in the same write as the head.
        """
        if self.close_connection:
            self.daemon._release_connection(self.request)
        if self.request_version == "HTTP/0.9":  # a bare body, no head
            self.wfile.write(body)
            return
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_text(
        self, status: int, body: str, content_type: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers(data)

    def _send_json(self, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None) -> None:
        self._send_text(status, json.dumps(payload), "application/json", headers)

    def _read_body(self) -> bytes:
        """Consume the request body (always, even on error paths).

        A kept-alive connection re-parses from the first unread byte, so
        responding without draining the body would turn it into a bogus
        next request line and poison the connection with a stray 400.
        """
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    @staticmethod
    def _parse_json(raw: bytes) -> Dict[str, Any]:
        if not raw:
            raise ProtocolError("request body required")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc

    # -- routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        """``/healthz``, ``/metrics``, ``/stats``, ``/jobs`` and ``/jobs/<id>[?wait=s]``."""
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.daemon.health())
        elif path == "/readyz":
            payload = self.daemon.ready()
            self._send_json(200 if payload["ready"] else 503, payload)
        elif path == "/metrics":
            self._send_text(200, self.daemon.metrics_text(), _PROM_CONTENT_TYPE)
        elif path == "/stats":
            self._send_json(200, self.daemon.stats())
        elif path == "/jobs":
            self._send_json(200, {"jobs": [r.summary() for r in self.daemon.registry.all()]})
        elif path.startswith("/jobs/"):
            self._get_job(path[len("/jobs/"):], parse_qs(query).get("wait"))
        else:
            self._send_json(404, {"error": f"no route {self.path!r}"})

    def _get_job(self, job_id: str, wait: Optional[List[str]]) -> None:
        """One job's record — after parking up to ``wait`` seconds for it to settle."""
        registry = self.daemon.registry
        record = registry.get(job_id)
        if record is None:
            self._send_json(404, {"error": "unknown job"})
            return
        if wait is not None:
            try:
                seconds = float(wait[-1])
            except ValueError:
                seconds = float("nan")
            if not seconds >= 0:  # negative, or not a number at all
                self._send_json(400, {"error": f"wait must be a number >= 0, got {wait[-1]!r}"})
                return
            registry.wait_finished(record, min(seconds, MAX_WAIT_S))
        self._send_json(200, record.to_dict())

    def do_POST(self) -> None:  # noqa: N802
        """``POST /jobs`` — admit one job (202/400/429/503)."""
        raw = self._read_body()
        if self.path.rstrip("/") != "/jobs":
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        if self.daemon.draining:
            self._send_json(503, {"error": "daemon is draining; not admitting jobs"})
            return
        try:
            spec = JobSpec.from_dict(self._parse_json(raw))
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            record = self.daemon.admit(spec)
        except QueueFull as exc:
            self._send_json(429, {"error": str(exc)}, headers={"Retry-After": "1"})
            return
        except Degraded as exc:
            self._send_json(429, {"error": str(exc)}, headers={"Retry-After": "5"})
            return
        self._send_json(202, record.to_dict())

    def do_DELETE(self) -> None:  # noqa: N802
        """``DELETE /jobs/<id>`` — cooperative cancel (200/202/404)."""
        path = self.path.rstrip("/")
        if not path.startswith("/jobs/"):
            self._send_json(404, {"error": f"no route {self.path!r}"})
            return
        job_id = path[len("/jobs/"):]
        status, payload = self.daemon.cancel(job_id)
        self._send_json(status, payload)


class ServeDaemon:
    """Multi-tenant HPO service over one shared warm engine state.

    Parameters
    ----------
    root:
        Serve root directory: job records, journals, results and
        checkpoint spills all live under it, making the daemon's whole
        state restart-safe.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` — the pattern tests and benches use).
    n_workers:
        Job-executor threads.  Each runs one job at a time on a serial
        engine; trials release the GIL inside numpy, so a small pool
        genuinely overlaps work.
    max_queued, default_quota, quotas:
        Scheduler admission bound and per-tenant concurrency quotas (see
        :class:`~repro.serve.scheduler.FairShareScheduler`).
    cache_entries:
        LRU bound per evaluation-context cache (``None`` = unbounded).
    max_connections:
        Concurrent keep-alive HTTP connection budget; arrivals past it
        get ``503 + Retry-After`` at accept time (counted in ``/stats``).
    verbose:
        Emit per-request access logs to stderr.

    Notes
    -----
    Beyond scheduling, the daemon is a fault-tolerance shell:

    - ``/healthz`` answers liveness (the process serves requests) while
      ``/readyz`` answers readiness — scheduler accepting, registry
      writable (probe write), worker pool alive — so an orchestrator can
      stop routing to a sick instance without killing it;
    - jobs whose :func:`~repro.serve.protocol.spec_digest` matches a
      currently queued/running job **subscribe** to that job's result
      instead of recomputing it (cross-run in-flight dedup); if the
      primary fails or is cancelled, its followers are promoted to run
      for real;
    - when durable writes fail (disk full), admission enters *degraded
      mode*: new jobs are shed with ``429 + Retry-After`` while running
      jobs continue, and a successful probe write clears the mode
      automatically;
    - corrupt or torn ``job.json`` files found on restart are moved to
      ``<root>/quarantine/`` and the jobs rebuilt from their spec
      sidecars and journals (see
      :meth:`~repro.serve.registry.JobRegistry.load_all`).

    Examples
    --------
    >>> daemon = ServeDaemon(root="serve-root", port=0)   # doctest: +SKIP
    >>> daemon.start()                                    # doctest: +SKIP
    >>> print(daemon.address)                             # doctest: +SKIP
    >>> daemon.drain(); daemon.stop()                     # doctest: +SKIP
    """

    def __init__(
        self,
        root: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        n_workers: int = 2,
        max_queued: int = 64,
        default_quota: int = 2,
        quotas: Optional[Dict[str, int]] = None,
        cache_entries: Optional[int] = None,
        max_connections: int = 64,
        verbose: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_connections < 1:
            raise ValueError(f"max_connections must be >= 1, got {max_connections}")
        self.root = Path(root)
        self.registry = JobRegistry(self.root)
        self.shared = SharedEngineState(self.root, cache_entries=cache_entries)
        self.scheduler = FairShareScheduler(
            max_queued=max_queued, default_quota=default_quota, quotas=quotas
        )
        self.n_workers = n_workers
        self.verbose = verbose
        self.draining = False
        self.started_at: Optional[float] = None
        self.recovered_jobs = 0
        #: Jobs currently executing, readable by the /metrics exporter.
        self.live_jobs = LiveJobs()
        #: Where flight-recorder crash dumps and live spills land.
        self.obs_dir = self.root / "obs"
        self._cancel_events: Dict[str, threading.Event] = {}
        self._cancel_lock = threading.Lock()
        self._threads: list = []
        # -- fault-tolerance state --------------------------------------------
        #: Why admission is degraded (``None`` = healthy).
        self.degraded_reason: Optional[str] = None
        #: Jobs shed with 429 while degraded (telemetry counter).
        self.shed_jobs = 0
        #: Jobs that subscribed to an in-flight twin instead of running.
        self.deduped_jobs = 0
        self._dedup_lock = threading.Lock()
        #: spec digest -> job_id of the queued/running job owning it.
        self._inflight_digests: Dict[str, str] = {}
        #: primary job_id -> follower job_ids awaiting its result.
        self._followers: Dict[str, List[str]] = {}
        # -- connection budget -------------------------------------------------
        self.max_connections = max_connections
        self.connections_rejected = 0
        self.connections_peak = 0
        self._connections: set = set()  # open sockets holding a slot
        self._conn_lock = threading.Lock()
        self._httpd = _ServeHTTPServer((host, port), _Handler, daemon_ref=self)
        self.host, self.port = self._httpd.server_address[:2]

    # -- properties ------------------------------------------------------------

    @property
    def address(self) -> str:
        """``http://host:port`` of the bound listener."""
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Recover interrupted jobs, start workers and the HTTP listener.

        Also arms the process-wide flight recorder with dumps under
        ``<root>/obs``: spilled every 32 events (and on every job
        dispatch), so even a SIGKILL leaves a ``flightrec-<pid>-live.jsonl``
        naming what was in flight.
        """
        _flightrec.install(dump_dir=self.obs_dir, spill_every=32)
        self._recover()
        self.started_at = time.monotonic()
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        )
        http_thread.start()
        self._threads.append(http_thread)
        return self

    def _recover(self) -> None:
        """Re-queue every non-terminal job found under the serve root.

        A job that was ``running`` when the previous daemon died goes
        back to ``queued`` and re-executes; its journal replays the
        already-durable trials, so the re-run only computes the lost tail
        and finishes bitwise-identical to an uninterrupted run.
        """
        for record in self.registry.load_all():
            if record.terminal:
                continue
            fault_point("serve.recover.pre_requeue")
            if record.deduped_from is not None:
                # The twin this job subscribed to did not survive the
                # restart as its primary; promote it to run on its own
                # (its journal, if any, still replays).
                record.deduped_from = None
            if record.state != "queued":
                record.state = "queued"
                record.started_at = None
            self.registry.persist(record)
            self.scheduler.submit(record)
            with self._dedup_lock:
                self._inflight_digests[spec_digest(record.spec)] = record.job_id
            self.recovered_jobs += 1

    def admit(self, spec: JobSpec) -> Any:
        """Persist then enqueue one job (or subscribe it to an in-flight twin).

        Raises :class:`QueueFull` when the scheduler is saturated and
        :class:`Degraded` while durable writes are failing (both shed
        with 429 at the HTTP layer).  A job whose
        :func:`~repro.serve.protocol.spec_digest` matches a queued or
        running job becomes that job's *follower*: it is persisted and
        visible like any job, but never scheduled — it adopts the
        primary's result the moment the primary finishes.
        """
        self._check_degraded()
        digest = spec_digest(spec)
        with self._dedup_lock:
            primary_id = self._inflight_digests.get(digest)
            primary = self.registry.get(primary_id) if primary_id else None
            if primary is not None and not primary.terminal:
                record = self._create_record(spec)
                record.deduped_from = primary.job_id
                try:
                    self.registry.persist(record)
                except OSError as exc:
                    self._enter_degraded(exc)
                fault_point("serve.dedup.pre_subscribe")
                self._followers.setdefault(primary.job_id, []).append(record.job_id)
                self.deduped_jobs += 1
                return record
        record = self._create_record(spec)
        try:
            fault_point("serve.admit.pre_enqueue")
            self.scheduler.submit(record)
        except (QueueFull, RuntimeError):
            self.registry.discard(record)
            self.shed_jobs += 1
            raise
        with self._dedup_lock:
            self._inflight_digests[digest] = record.job_id
        return record

    def _create_record(self, spec: JobSpec) -> JobRecord:
        """Durably create one record, entering degraded mode on write failure."""
        try:
            return self.registry.create(spec)
        except OSError as exc:
            self._enter_degraded(exc)
            self.shed_jobs += 1
            raise Degraded(f"admission degraded ({self.degraded_reason}); retry later") from exc

    # -- degraded mode ---------------------------------------------------------

    def _enter_degraded(self, exc: BaseException) -> None:
        self.degraded_reason = f"{type(exc).__name__}: {exc}"

    def _check_degraded(self) -> None:
        """Shed (raise :class:`Degraded`) while the disk still refuses writes.

        Every admission attempted in degraded mode re-probes, so the mode
        clears itself on the first request after pressure lifts — no
        operator action, no restart.
        """
        if self.degraded_reason is None:
            return
        try:
            self.registry.probe()
        except OSError as exc:
            self._enter_degraded(exc)
            self.shed_jobs += 1
            raise Degraded(
                f"admission degraded ({self.degraded_reason}); retry later"
            ) from exc
        self.degraded_reason = None

    # -- connection budget -----------------------------------------------------

    @property
    def _active_connections(self) -> int:
        return len(self._connections)

    def _acquire_connection(self, request) -> bool:
        with self._conn_lock:
            if len(self._connections) >= self.max_connections:
                self.connections_rejected += 1
                return False
            self._connections.add(request)
            self.connections_peak = max(self.connections_peak, len(self._connections))
            return True

    def _release_connection(self, request) -> None:
        """Free ``request``'s slot (idempotent: the handler may have already)."""
        with self._conn_lock:
            self._connections.discard(request)

    # -- dedup resolution ------------------------------------------------------

    def _resolve_followers(self, primary: JobRecord) -> None:
        """Settle every follower of a just-finished primary.

        ``done`` primaries hand their incumbent (and result file) to each
        follower; a failed or cancelled primary promotes its first
        follower to run for real (the rest re-subscribe to it), so a
        tenant's job never silently dies with someone else's failure.
        """
        with self._dedup_lock:
            digest = spec_digest(primary.spec)
            if self._inflight_digests.get(digest) == primary.job_id:
                del self._inflight_digests[digest]
            follower_ids = self._followers.pop(primary.job_id, [])
        waiting = []
        for job_id in follower_ids:
            follower = self.registry.get(job_id)
            if follower is not None and not follower.terminal:
                waiting.append(follower)
        if not waiting:
            return
        if primary.state == "done":
            source = self.registry.result_path(primary.job_id)
            for follower in waiting:
                follower.trials_done = primary.trials_done
                if source.is_file():
                    try:
                        self.registry.publish_result(follower.job_id, source.read_bytes())
                    except OSError:
                        pass  # the incumbent on the record still answers queries
                self.registry.mark_finished(
                    follower, "done", incumbent=primary.incumbent
                )
            return
        # Primary failed or was cancelled: promote the first live follower.
        leader, rest = waiting[0], waiting[1:]
        leader.deduped_from = None
        with self._dedup_lock:
            self._inflight_digests[digest] = leader.job_id
            if rest:
                self._followers[leader.job_id] = [f.job_id for f in rest]
        try:
            self.registry.persist(leader)
            self.scheduler.submit(leader)
        except (QueueFull, RuntimeError) as exc:
            self.registry.mark_finished(
                leader, "failed", error=f"promotion after twin {primary.job_id}: {exc}"
            )
            self._resolve_followers(leader)

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """Cancel one job; returns ``(http_status, payload)``.

        Queued jobs cancel immediately; running jobs get their cancel
        event set and stop cooperatively after the trial currently
        settling (202).  Terminal jobs are left untouched (200).
        """
        record = self.registry.get(job_id)
        if record is None:
            return 404, {"error": "unknown job"}
        if record.terminal:
            return 200, record.to_dict()
        if record.deduped_from is not None:
            # A follower never runs; unsubscribe it from its primary.
            with self._dedup_lock:
                followers = self._followers.get(record.deduped_from)
                if followers and job_id in followers:
                    followers.remove(job_id)
            self.registry.mark_finished(record, "cancelled", error="cancelled while subscribed")
            return 200, record.to_dict()
        dequeued = self.scheduler.cancel(job_id)
        if dequeued is not None:
            self.registry.mark_finished(record, "cancelled", error="cancelled while queued")
            return 200, record.to_dict()
        self._cancel_event(job_id).set()
        return 202, {"job_id": job_id, "state": record.state, "cancelling": True}

    def drain(self, timeout: Optional[float] = 60.0) -> bool:
        """Stop admitting and wait for outstanding jobs; ``True`` when empty.

        Long-polling readers are woken and no request parks from here on
        (clients fall back to their ``poll`` pause between requests).
        On timeout the remaining jobs are simply left where they are —
        queued records and journals are durable, so the next daemon over
        the same root resumes them.  "Empty" is the scheduler's view: a job
        frees its slot just before it publishes its terminal record, so
        follow with :meth:`stop`, which joins the worker writing it.
        """
        self.draining = True
        self.registry.release_waiters()
        return self.scheduler.wait_drained(timeout=timeout)

    def stop(self) -> None:
        """Shut down workers and the HTTP listener (idempotent).

        Workers finish the job they are on; anything still queued stays
        durable on disk for the next start.
        """
        self.scheduler.close()
        self.registry.release_waiters()
        self._httpd.shutdown()
        self._httpd.server_close()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    def run_forever(self) -> None:
        """Start, then serve until SIGTERM/SIGINT triggers a graceful drain."""
        stop_requested = threading.Event()

        def _signal_handler(signum, frame) -> None:
            stop_requested.set()

        previous = {
            sig: signal.signal(sig, _signal_handler)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self.start()
            while not stop_requested.wait(timeout=0.2):
                pass
            # A signal asked us to die: persist the ring before draining,
            # so the post-mortem shows what was in flight at the moment of
            # the request even if the drain itself then hangs or is killed.
            _flightrec.note("serve.shutdown", reason="signal")
            _flightrec.dump_now("sigterm")
            self.drain()
            self.stop()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- workers ---------------------------------------------------------------

    def _cancel_event(self, job_id: str) -> threading.Event:
        with self._cancel_lock:
            event = self._cancel_events.get(job_id)
            if event is None:
                event = threading.Event()
                self._cancel_events[job_id] = event
            return event

    def _worker_loop(self) -> None:
        """One worker thread: pull, execute, release — until close()."""
        while True:
            record = self.scheduler.next_job()
            if record is None:
                return
            event = self._cancel_event(record.job_id)
            held = [record]

            def release_slot() -> None:
                # Once: before the terminal state is published (a client that
                # has seen it must find ``running`` settled), or on the way out.
                if held:
                    self.scheduler.task_done(held.pop())

            try:
                if event.is_set():
                    release_slot()
                    self.registry.mark_finished(
                        record, "cancelled", error="cancelled before start"
                    )
                else:
                    fault_point("serve.dispatch.pre")
                    execute_job(
                        record,
                        self.registry,
                        self.shared,
                        cancel_event=event,
                        live=self.live_jobs,
                        on_settled=release_slot,
                    )
                    fault_point("serve.dispatch.post")
            finally:
                with self._cancel_lock:
                    self._cancel_events.pop(record.job_id, None)
                try:
                    self._resolve_followers(record)
                except Exception:  # noqa: BLE001 — a follower must never kill a worker
                    pass
                release_slot()

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload — pure liveness, always 200."""
        return {
            "status": "ok",
            "state": "draining" if self.draining else "serving",
            "version": PROTOCOL_VERSION,
            "queued": self.scheduler.depth(),
            "running": self.scheduler.running(),
        }

    def ready(self) -> Dict[str, Any]:
        """The ``/readyz`` payload — readiness to accept *new* work.

        Ready iff the scheduler is accepting (not draining, not closed),
        the registry proves writable with a probe write, and at least one
        job-worker thread is alive.  Each failing condition is named in
        ``reasons`` so an orchestrator's probe log says *why* traffic
        stopped; a successful probe also clears degraded mode.
        """
        reasons = []
        if self.started_at is None:
            reasons.append("not started")
        if self.draining:
            reasons.append("draining")
        if self.scheduler.closed:
            reasons.append("scheduler closed")
        workers_alive = sum(
            1
            for thread in self._threads
            if thread.name.startswith("serve-worker") and thread.is_alive()
        )
        if self.started_at is not None and workers_alive == 0:
            reasons.append("no job workers alive")
        try:
            self.registry.probe()
            self.degraded_reason = None
        except OSError as exc:
            self._enter_degraded(exc)
            reasons.append(f"registry not writable: {self.degraded_reason}")
        return {
            "ready": not reasons,
            "reasons": reasons,
            "workers_alive": workers_alive,
            "pool_size": self.n_workers,
            "queued": self.scheduler.depth(),
            "degraded": self.degraded_reason is not None,
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` body: live state in Prometheus text format.

        Pure reads — scheduler snapshot, attribute loads, dict copies —
        so a scrape never blocks job dispatch; and no wall-clock-derived
        values, so two scrapes of an idle daemon are byte-identical.
        """
        return render(serve_families(self))

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload: global, per-tenant and shared-state counters.

        The JSON shape is versioned by ``schema_version`` and documented
        in ``docs/SERVICE.md``; scrapers should check the version before
        assuming field layout.
        """
        records = self.registry.all()
        by_state: Dict[str, int] = {}
        for record in records:
            by_state[record.state] = by_state.get(record.state, 0) + 1
        uptime = (time.monotonic() - self.started_at) if self.started_at is not None else 0.0
        completed = by_state.get("done", 0)
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "state": "draining" if self.draining else "serving",
            "uptime_s": round(uptime, 3),
            "recovered_jobs": self.recovered_jobs,
            "jobs": by_state,
            "queue": {
                "depth": self.scheduler.depth(),
                "limit": self.scheduler.max_queued,
                "per_tenant": self.scheduler.snapshot(),
            },
            "tenants": {
                name: stats.as_dict() for name, stats in sorted(self.registry.tenants().items())
            },
            "shared_cache": self.shared.stats(),
            "throughput": {
                "completed": completed,
                "jobs_per_s": completed / uptime if uptime > 0 else 0.0,
            },
            "fault_tolerance": {
                "degraded": self.degraded_reason is not None,
                "degraded_reason": self.degraded_reason,
                "shed_jobs": self.shed_jobs,
                "deduped_jobs": self.deduped_jobs,
                "quarantined_records": self.registry.quarantined,
                "connections": {
                    "active": self._active_connections,
                    "peak": self.connections_peak,
                    "limit": self.max_connections,
                    "rejected": self.connections_rejected,
                },
            },
        }
