"""ServeDaemon end to end: HTTP protocol, shared warm state, recovery.

Marked ``serve`` (excluded from tier-1): these tests bind real sockets
and run real MLP evaluations through the daemon.  Run with
``pytest -m serve``.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro import optimize
from repro.serve import (
    JobRegistry,
    JobSpec,
    ServeClient,
    ServeDaemon,
    ServeError,
    SharedEngineState,
    execute_job,
    incumbent_fingerprint,
    optimize_inputs,
    run_job_local,
)
from repro.results import load_result
from repro.serve.server import MAX_WAIT_S

pytestmark = pytest.mark.serve

#: A job small enough to finish in well under a second.
FAST = dict(dataset="australian", method="sha", hps=2, scale=0.2, seed=0, max_iter=8)
#: A job slow enough (~40 evaluations at a heavy fit budget) to observe
#: and cancel mid-flight.
SLOW = dict(dataset="australian", method="sha", hps=2, scale=0.5, seed=0, max_iter=60)


@pytest.fixture()
def daemon(tmp_path):
    with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=2) as server:
        yield server


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as c:
        yield c


class TestLifecycle:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["state"] == "serving"

    def test_submit_runs_to_done(self, client):
        accepted = client.submit(tenant="alice", **FAST)
        assert accepted["state"] == "queued"
        final = client.wait(accepted["job_id"], timeout=60)
        assert final["state"] == "done"
        assert final["trials_done"] == final["incumbent"]["n_trials"]
        assert final["incumbent"]["best_score"] > 0
        assert final["engine_stats"]["executed"] > 0

    def test_daemon_equals_direct_bitwise(self, daemon, client):
        accepted = client.submit(tenant="alice", **FAST)
        final = client.wait(accepted["job_id"], timeout=60)
        daemon_result = load_result(daemon.registry.result_path(accepted["job_id"]))
        reference = run_job_local(JobSpec(tenant="ref", **FAST))
        assert incumbent_fingerprint(daemon_result) == incumbent_fingerprint(reference.result)
        assert final["incumbent"]["fingerprint"] == incumbent_fingerprint(reference.result)

    def test_terminal_state_is_the_last_thing_a_job_writes(self, tmp_path):
        """Whoever sees ``done`` finds live table, trace file and quota slot settled."""
        from repro.serve.server import LiveJobs

        live, settled, seen = LiveJobs(), [], {}

        class Registry(JobRegistry):
            def mark_finished(self, record, state, **fields):
                seen["live"] = live.snapshot()
                seen["settled"] = list(settled)
                seen["trace"] = self.trace_path(record.job_id).read_text()
                return super().mark_finished(record, state, **fields)

        registry = Registry(tmp_path / "serve")
        record = registry.create(JobSpec(tenant="alice", trace=True, **FAST))
        execute_job(
            record, registry, SharedEngineState(tmp_path / "serve"),
            live=live, on_settled=lambda: settled.append(True),
        )  # fmt: skip
        assert record.state == "done"
        assert seen["live"] == [] and seen["settled"] == [True]
        # Closed before the state was published: nothing was written after.
        assert seen["trace"] == registry.trace_path(record.job_id).read_text() != ""

    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit(tenant="alice", dataset="not-a-dataset")
        assert excinfo.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("doesnotexist")
        assert excinfo.value.status == 404

    def test_jobs_listing_newest_first(self, client):
        first = client.submit(tenant="alice", **FAST)
        client.wait(first["job_id"], timeout=60)
        second = client.submit(tenant="bob", **FAST)
        client.wait(second["job_id"], timeout=60)
        listed = client.jobs()
        assert [j["job_id"] for j in listed] == [second["job_id"], first["job_id"]]


class TestSharedWarmState:
    def test_duplicate_job_served_from_cache(self, tmp_path):
        # One worker makes the runs sequential: the twin must hit on
        # every single evaluation of the original.
        with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1) as server:
            with ServeClient(server.address) as c:
                cold = c.submit(tenant="alice", **FAST)
                cold_final = c.wait(cold["job_id"], timeout=60)
                dup = c.submit(tenant="bob", **FAST)
                dup_final = c.wait(dup["job_id"], timeout=60)
        assert cold_final["engine_stats"]["cache_hits"] == 0
        stats = dup_final["engine_stats"]
        assert stats["cache_hits"] == stats["submitted"]
        assert stats["cache_misses"] == 0
        assert stats["executed"] == 0  # every evaluation came from alice's work
        # and sharing never changed the answer
        assert dup_final["incumbent"]["fingerprint"] == cold_final["incumbent"]["fingerprint"]

    def test_different_seeds_never_alias(self, daemon, client):
        a = client.submit(tenant="alice", **FAST)
        b = client.submit(tenant="alice", **{**FAST, "seed": 1})
        final_a = client.wait(a["job_id"], timeout=60)
        final_b = client.wait(b["job_id"], timeout=60)
        assert final_a["incumbent"]["fingerprint"] != final_b["incumbent"]["fingerprint"]
        assert daemon.stats()["shared_cache"]["contexts"] == 2

    def test_tenant_stats_accumulate(self, daemon, client):
        accepted = client.submit(tenant="alice", **FAST)
        client.wait(accepted["job_id"], timeout=60)
        tenants = client.stats()["tenants"]
        assert tenants["alice"]["submitted"] == 1
        assert tenants["alice"]["completed"] == 1
        assert tenants["alice"]["trials"] > 0


class TestCancel:
    def test_cancel_mid_run_stops_after_current_trial(self, client):
        accepted = client.submit(tenant="alice", **SLOW)
        job_id = accepted["job_id"]
        deadline = time.monotonic() + 60
        while True:
            record = client.job(job_id)
            if record["state"] == "running" and record["trials_done"] >= 2:
                break
            assert time.monotonic() < deadline, "job never got going"
            time.sleep(0.005)
        outcome = client.cancel(job_id)
        assert outcome.get("cancelling") or outcome.get("state") == "cancelled"
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "cancelled"
        assert final["incumbent"] is None
        assert 0 < final["trials_done"] < 36  # genuinely stopped mid-search

    def test_cancel_queued_job_never_runs(self, tmp_path):
        with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1) as server:
            with ServeClient(server.address) as c:
                blocker = c.submit(tenant="alice", **SLOW)
                queued = c.submit(tenant="alice", **FAST)
                outcome = c.cancel(queued["job_id"])
                assert outcome["state"] == "cancelled"
                c.cancel(blocker["job_id"])
                final = c.wait(queued["job_id"], timeout=60)
                c.wait(blocker["job_id"], timeout=60)
        assert final["state"] == "cancelled"
        assert final["trials_done"] == 0

    def test_cancel_unknown_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.cancel("doesnotexist")
        assert excinfo.value.status == 404

    def test_cancel_terminal_job_is_noop(self, client):
        accepted = client.submit(tenant="alice", **FAST)
        client.wait(accepted["job_id"], timeout=60)
        outcome = client.cancel(accepted["job_id"])
        assert outcome["state"] == "done"  # untouched


class TestBackpressure:
    def test_queue_full_maps_to_429(self, tmp_path):
        with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1, max_queued=2) as server:
            with ServeClient(server.address) as c:
                blocker = c.submit(tenant="alpha", **SLOW)
                deadline = time.monotonic() + 30
                while server.scheduler.running() < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # Distinct seeds: identical specs would dedup into
                # followers of the first job and never occupy the queue.
                queued = [c.submit(tenant="alpha", **{**FAST, "seed": 1}),
                          c.submit(tenant="beta", **{**FAST, "seed": 2})]
                with pytest.raises(ServeError) as excinfo:
                    c.submit(tenant="gamma", **{**FAST, "seed": 3})
                assert excinfo.value.status == 429
                for accepted in queued:
                    c.cancel(accepted["job_id"])
                c.cancel(blocker["job_id"])
                c.wait(blocker["job_id"], timeout=60)

    def test_draining_daemon_rejects_with_503(self, daemon, client):
        daemon.drain(timeout=5)
        with pytest.raises(ServeError) as excinfo:
            client.submit(tenant="alice", **FAST)
        assert excinfo.value.status == 503
        assert client.healthz()["state"] == "draining"


class TestRestartRecovery:
    def test_interrupted_job_resumes_bitwise(self, tmp_path):
        spec = JobSpec(tenant="alice", **FAST)
        reference_fp = incumbent_fingerprint(run_job_local(spec).result)
        # run_job_local is plain optimize(): no engine passed, same search.
        assert incumbent_fingerprint(optimize(**optimize_inputs(spec)).result) == reference_fp

        # Produce a full journal in a scratch root, then fabricate a
        # crashed daemon: the job marked running, only half its journal
        # durable.
        scratch_registry = JobRegistry(tmp_path / "scratch")
        scratch_record = scratch_registry.create(spec)
        execute_job(scratch_record, scratch_registry, SharedEngineState(tmp_path / "scratch"))
        assert scratch_record.state == "done"
        journal_lines = (
            scratch_registry.journal_path(scratch_record.job_id)
            .read_text().splitlines(keepends=True)
        )
        assert len(journal_lines) > 10

        root = tmp_path / "serve"
        registry = JobRegistry(root)
        record = registry.create(spec)
        record.state = "running"
        record.started_at = record.created_at
        registry.persist(record)
        registry.journal_path(record.job_id).write_text(
            "".join(journal_lines[: len(journal_lines) // 2])
        )

        with ServeDaemon(root=root, port=0, n_workers=1) as server:
            assert server.recovered_jobs == 1
            with ServeClient(server.address) as c:
                final = c.wait(record.job_id, timeout=60)
        assert final["state"] == "done"
        assert final["resumed"] == 1
        assert final["engine_stats"]["resumed"] > 0  # trials replayed, not re-run
        assert final["incumbent"]["fingerprint"] == reference_fp

    def test_terminal_jobs_are_not_requeued(self, tmp_path):
        root = tmp_path / "serve"
        spec = JobSpec(tenant="alice", **FAST)
        with ServeDaemon(root=root, port=0, n_workers=1) as server:
            with ServeClient(server.address) as c:
                accepted = c.submit(spec)
                c.wait(accepted["job_id"], timeout=60)
        with ServeDaemon(root=root, port=0, n_workers=1) as server:
            assert server.recovered_jobs == 0
            assert server.registry.get(accepted["job_id"]).state == "done"


class TestHTTP:
    def test_accepted_connection_has_nodelay(self, daemon, client):
        client.healthz()  # the kept-alive connection now holds its slot
        accepted = list(daemon._connections)
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_keepalive_requests_do_not_stall_on_delayed_ack(self, client):
        """Head and body in two Nagle'd sends cost 44 ms a request from the second on."""
        elapsed = []
        for _ in range(30):
            start = time.perf_counter()
            client.healthz()
            elapsed.append(time.perf_counter() - start)
        assert statistics.median(elapsed) < 0.010

    def test_responses_are_well_formed_http11(self, daemon):
        """Raw bytes of two kept-alive responses and a closing one."""
        requests = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /jobs/nope?wait=0 HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        with socket.create_connection((daemon.host, daemon.port), timeout=30) as sock:
            sock.sendall(requests)
            raw = b""
            while chunk := sock.recv(65536):  # until the daemon closes
                raw += chunk
        seen = []
        while raw:
            head, _, raw = raw.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode("ascii").split("\r\n")
            headers = dict(line.split(": ", 1) for line in header_lines)
            length = int(headers["Content-Length"])
            body, raw = raw[:length], raw[length:]
            assert len(body) == length
            seen.append((status_line, headers, body))
        assert [status for status, _, _ in seen] == [
            "HTTP/1.1 200 OK", "HTTP/1.1 404 Not Found", "HTTP/1.1 200 OK",
        ]
        assert json.loads(seen[0][2])["status"] == "ok"
        assert json.loads(seen[1][2]) == {"error": "unknown job"}
        assert seen[0][1]["Content-Type"] == "application/json"
        assert seen[2][2].startswith(b"# HELP")

    def test_versionless_request_gets_a_bare_body(self, daemon):
        """``GET /healthz`` with no HTTP version is HTTP/0.9: no head to write."""
        with socket.create_connection((daemon.host, daemon.port), timeout=30) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        assert json.loads(raw)["status"] == "ok"

    def test_slot_is_released_before_the_last_response(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            assert daemon._active_connections == 1  # kept alive: still held
            conn.request("GET", "/healthz", headers={"Connection": "close"})
            conn.getresponse().read()
            # Released in end_headers, i.e. before these bytes were sent.
            assert daemon._active_connections == 0
        finally:
            conn.close()


def _parked(daemon, count, deadline=10.0):
    """Block until ``count`` long-polls are parked on the registry's condition."""
    limit = time.monotonic() + deadline
    while len(daemon.registry._finished._waiters) < count:
        assert time.monotonic() < limit, "long-poll never parked"
        time.sleep(0.002)


class TestLongPoll:
    @pytest.fixture()
    def idle(self, tmp_path):
        """A daemon whose HTTP side is up but whose one record never runs."""
        server = ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1)
        record = server.registry.create(JobSpec(tenant="alice", **FAST))
        http_thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        http_thread.start()
        yield server, record
        server.stop()
        http_thread.join(timeout=30)
        assert not http_thread.is_alive()

    def test_terminal_job_returns_at_once(self, client):
        accepted = client.submit(tenant="alice", **FAST)
        client.wait(accepted["job_id"], timeout=60)
        start = time.perf_counter()
        record = client.job(accepted["job_id"], wait=5.0)
        assert time.perf_counter() - start < 0.5
        assert record["state"] == "done"

    def test_elapsed_wait_returns_the_current_record(self, idle):
        server, record = idle
        with ServeClient(server.address) as c:
            start = time.perf_counter()
            got = c.job(record.job_id, wait=0.2)
            elapsed = time.perf_counter() - start
        assert got["state"] == "queued"
        assert 0.2 <= elapsed < 1.0

    def test_wakes_within_50ms_of_mark_finished(self, idle):
        server, record = idle
        result = {}

        def poll():
            with ServeClient(server.address) as c:
                result["record"] = c.job(record.job_id, wait=10.0)
                result["at"] = time.monotonic()

        waiter = threading.Thread(target=poll)
        waiter.start()
        _parked(server, 1)
        # Parked on the condition's own lock: the registry's is free.
        assert server.registry._lock.acquire(blocking=False)
        server.registry._lock.release()
        assert server._active_connections == 1  # ... and it holds its slot
        server.registry.mark_finished(record, "cancelled", error="test")
        finished = time.monotonic()
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert result["record"]["state"] == "cancelled"
        assert result["at"] - finished < 0.050
        # Woken after persist: what the waiter saw is what is on disk.
        on_disk = json.loads((server.registry.job_dir(record.job_id) / "job.json").read_text())
        assert on_disk == result["record"]

    def test_waiters_are_notified_only_after_persist(self, tmp_path):
        order = []

        class Registry(JobRegistry):
            def persist(self, record):
                order.append(("persist", record.state))
                super().persist(record)

        registry = Registry(tmp_path / "serve")
        record = registry.create(JobSpec(tenant="alice", **FAST))
        notify_all = registry._finished.notify_all
        registry._finished.notify_all = lambda: (order.append(("notify", record.state)), notify_all())
        registry.mark_finished(record, "failed", error="test")
        assert order == [("persist", "failed"), ("notify", "failed")]

    def test_unknown_job_is_404_with_or_without_wait(self, client):
        for wait in (None, 0.0, 5.0):
            with pytest.raises(ServeError) as excinfo:
                client.job("doesnotexist", wait=wait)
            assert excinfo.value.status == 404

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan", "-inf", "1s"])
    def test_bad_wait_is_400(self, idle, wait):
        server, record = idle
        with ServeClient(server.address) as c:
            with pytest.raises(ServeError) as excinfo:
                c._request("GET", f"/jobs/{record.job_id}?wait={wait}")
        assert excinfo.value.status == 400

    def test_wait_above_the_clamp_is_clamped_not_rejected(self, idle, monkeypatch):
        server, record = idle
        asked = []
        real = server.registry.wait_finished
        monkeypatch.setattr(
            server.registry, "wait_finished",
            lambda rec, timeout: asked.append(timeout) or real(rec, 0.0),
        )
        with ServeClient(server.address) as c:
            for wait in ("1e9", "inf", "3"):
                assert c._request("GET", f"/jobs/{record.job_id}?wait={wait}")["state"] == "queued"
        assert asked == [MAX_WAIT_S, MAX_WAIT_S, 3.0]
        assert MAX_WAIT_S < ServeClient("x:1").timeout / 2

    @pytest.mark.parametrize("release", ["drain", "stop"])
    def test_drain_and_stop_wake_every_waiter(self, tmp_path, release):
        server = ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1).start()
        try:
            record = server.registry.create(JobSpec(tenant="alice", **FAST))  # never scheduled
            states = []

            def poll():
                with ServeClient(server.address) as c:
                    states.append(c.job(record.job_id, wait=10.0)["state"])

            waiters = [threading.Thread(target=poll) for _ in range(3)]
            for waiter in waiters:
                waiter.start()
            _parked(server, 3)
            start = time.monotonic()
            if release == "drain":
                assert server.drain(timeout=5)
            else:
                server.stop()
            for waiter in waiters:
                waiter.join(timeout=30)
                assert not waiter.is_alive()
            assert time.monotonic() - start < 2.0
            assert states == ["queued"] * 3
        finally:
            server.stop()

    def test_client_wait_never_asks_past_its_deadline_or_half_its_read_timeout(self, idle):
        server, record = idle
        with ServeClient(server.address, timeout=1.0) as c:
            asked = []
            real = c.job
            c.job = lambda job_id, wait=None: asked.append(wait) or real(job_id, wait=wait)
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                c.wait(record.job_id, timeout=1.2, poll=0.01)
            elapsed = time.monotonic() - start
        assert 1.2 <= elapsed < 2.5
        assert max(asked) <= 0.5  # half the read timeout
        assert len(asked) >= 3  # 0.5 + 0.5 + the remainder
        spent = 0.0
        for wait in asked:  # each request asks for no more than what is left
            assert wait <= 1.2 - spent + 1e-6
            spent += wait

    def test_wait_all_is_one_request_per_job(self, client):
        ids = [
            client.submit(tenant="alice", **{**FAST, "seed": seed})["job_id"]
            for seed in range(3)
        ]
        calls = []
        real = client.job
        client.job = lambda job_id, wait=None: calls.append(job_id) or real(job_id, wait=wait)
        finals = client.wait_all(ids, timeout=120)
        assert calls == ids
        assert [finals[job_id]["state"] for job_id in ids] == ["done"] * 3
