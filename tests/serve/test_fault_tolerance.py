"""Daemon fault tolerance: readiness, dedup, degraded mode, connection cap.

Marked ``serve`` (excluded from tier-1): these tests bind real sockets
and run real jobs.  Run with ``pytest -m serve``.
"""

import http.client
import json
import time

import errno

import pytest

from repro.engine.core import backoff_delay
from repro.serve import Degraded, JobSpec, ServeClient, ServeDaemon, ServeError

pytestmark = pytest.mark.serve

FAST = dict(dataset="australian", method="sha", hps=2, scale=0.2, seed=0, max_iter=8)
SLOW = dict(dataset="australian", method="sha", hps=2, scale=0.5, seed=0, max_iter=60)


@pytest.fixture()
def daemon(tmp_path):
    with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=2) as server:
        yield server


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as c:
        yield c


def _host_port(daemon):
    host, port = daemon.address.split("//", 1)[1].rsplit(":", 1)
    return host, int(port)


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


class TestReadiness:
    def test_ready_while_serving(self, client):
        payload = client.readyz()
        assert payload["ready"] is True
        assert payload["reasons"] == []
        assert payload["workers_alive"] >= 1

    def test_not_ready_while_draining(self, daemon, client):
        daemon.drain(timeout=5)
        with pytest.raises(ServeError) as excinfo:
            client.readyz()
        assert excinfo.value.status == 503
        assert any("drain" in reason for reason in excinfo.value.payload["reasons"])

    def test_not_ready_while_registry_unwritable(self, daemon, client, arm_fault):
        arm_fault("registry.probe.pre_write", "enospc")  # readiness writes a probe
        with pytest.raises(ServeError) as excinfo:
            client.readyz()
        assert excinfo.value.status == 503
        assert any("registry" in reason for reason in excinfo.value.payload["reasons"])
        assert client.readyz()["ready"] is True  # the next probe write succeeds


class TestDedup:
    def test_identical_inflight_spec_subscribes(self, daemon, client):
        first = client.submit(tenant="alice", **SLOW)
        second = client.submit(tenant="bob", **SLOW)  # same digest, new tenant
        assert second["deduped_from"] == first["job_id"]
        finals = client.wait_all([first["job_id"], second["job_id"]], timeout=120)
        assert all(r["state"] == "done" for r in finals.values())
        assert (finals[second["job_id"]]["incumbent"]["fingerprint"]
                == finals[first["job_id"]]["incumbent"]["fingerprint"])
        assert daemon.stats()["fault_tolerance"]["deduped_jobs"] == 1

    def test_result_file_is_durable_before_the_terminal_record(self, tmp_path, monkeypatch):
        """A ``done`` record never points at a result.json that was not fsync'd."""
        import repro.serve.registry as registry_module

        published = []
        publish = registry_module.atomic_publish

        def recording(path, write, site):
            publish(path, write, site)
            published.append((path.parent.name, path.name))

        monkeypatch.setattr(registry_module, "atomic_publish", recording)
        with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=2) as daemon:
            with ServeClient(daemon.address) as client:
                first = client.submit(tenant="alice", **SLOW)
                second = client.submit(tenant="bob", **SLOW)
                assert second["deduped_from"] == first["job_id"]
                finals = client.wait_all([first["job_id"], second["job_id"]], timeout=120)
        assert all(r["state"] == "done" for r in finals.values())
        for job_id in (first["job_id"], second["job_id"]):
            result_at = published.index((job_id, "result.json"))  # raises if never published
            last_record_at = max(
                i for i, entry in enumerate(published) if entry == (job_id, "job.json")
            )
            assert result_at < last_record_at

    def test_distinct_specs_not_deduped(self, client):
        first = client.submit(tenant="alice", **FAST)
        second = client.submit(tenant="alice", **{**FAST, "seed": 1})
        assert second["deduped_from"] is None
        assert first["deduped_from"] is None

    def test_terminal_job_does_not_capture_followers(self, client):
        first = client.submit(tenant="alice", **FAST)
        client.wait(first["job_id"], timeout=60)
        again = client.submit(tenant="alice", **FAST)  # primary already done
        assert again["deduped_from"] is None
        final = client.wait(again["job_id"], timeout=60)
        assert final["state"] == "done"

    def test_cancelled_primary_promotes_follower(self, daemon, client):
        primary = client.submit(tenant="alice", **SLOW)
        follower = client.submit(tenant="bob", **SLOW)
        assert follower["deduped_from"] == primary["job_id"]
        _wait_for(lambda: client.job(primary["job_id"])["state"] == "running")
        client.cancel(primary["job_id"])
        final = client.wait(follower["job_id"], timeout=120)
        assert final["state"] == "done"
        assert client.job(primary["job_id"])["state"] == "cancelled"

    def test_cancelling_follower_leaves_primary_running(self, client):
        primary = client.submit(tenant="alice", **SLOW)
        follower = client.submit(tenant="bob", **SLOW)
        outcome = client.cancel(follower["job_id"])
        assert outcome["state"] == "cancelled"
        final = client.wait(primary["job_id"], timeout=120)
        assert final["state"] == "done"


class TestDegradedMode:
    def test_admit_sheds_while_unwritable_then_recovers(self, daemon, arm_fault):
        arm_fault("registry.record.pre_write", "enospc")
        with pytest.raises(Degraded) as excinfo:
            daemon.admit(JobSpec(tenant="alice", **FAST))
        assert excinfo.value.__cause__.errno == errno.ENOSPC
        stats = daemon.stats()["fault_tolerance"]
        assert stats["degraded"] is True and stats["shed_jobs"] >= 1
        # The shed job's spec sidecar went with it: a restart cannot revive it.
        assert list(daemon.registry.jobs_dir.glob("*/spec.json")) == []

        # The trigger fired once: the next admission's probe write succeeds.
        record = daemon.admit(JobSpec(tenant="alice", **{**FAST, "seed": 9}))
        assert record.state == "queued"
        assert daemon.stats()["fault_tolerance"]["degraded"] is False

    def test_degraded_submit_maps_to_429_with_retry_after(self, daemon, arm_fault):
        arm_fault("registry.record.pre_write", "enospc")
        host, port = _host_port(daemon)
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/jobs", body=json.dumps(dict(tenant="a", **FAST)),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 429
        assert response.getheader("Retry-After") is not None


class TestConnectionCap:
    def test_excess_connection_gets_503(self, tmp_path):
        with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=1,
                         max_connections=1) as daemon:
            host, port = _host_port(daemon)
            holder = http.client.HTTPConnection(host, port, timeout=30)
            holder.request("GET", "/healthz")
            holder.getresponse().read()  # keep-alive: the slot stays held

            rejected = http.client.HTTPConnection(host, port, timeout=30)
            rejected.request("GET", "/healthz")
            response = rejected.getresponse()
            response.read()
            assert response.status == 503
            assert response.getheader("Retry-After") is not None
            rejected.close()

            stats = daemon.stats()["fault_tolerance"]["connections"]
            assert stats["rejected"] >= 1
            assert stats["limit"] == 1
            holder.close()
            # the slot frees up: new connections serve normally again
            _wait_for(lambda: daemon.stats()["fault_tolerance"]
                      ["connections"]["active"] == 0)
            again = http.client.HTTPConnection(host, port, timeout=30)
            again.request("GET", "/healthz")
            assert again.getresponse().status == 200
            again.close()

    def test_cap_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ServeDaemon(root=tmp_path / "serve", port=0, max_connections=0)


class TestClientRetries:
    def test_transport_retries_then_surfaces(self, tmp_path):
        sleeps = []
        client = ServeClient("http://127.0.0.1:9", timeout=1.0, retries=2,
                             retry_backoff=0.05, retry_seed=13,
                             sleep=sleeps.append)
        with pytest.raises(ServeError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 0
        assert client.transport_retries == 2
        assert sleeps == [backoff_delay(0.05, 1, 2.0, 14),
                          backoff_delay(0.05, 2, 2.0, 15)]

    def test_zero_retries_fails_immediately(self):
        client = ServeClient("http://127.0.0.1:9", retries=0, sleep=lambda _: None)
        with pytest.raises(ServeError):
            client.stats()
        assert client.transport_retries == 0

    def test_retry_statuses_consume_budget(self, daemon):
        daemon.drain(timeout=5)  # every submit now answers 503
        sleeps = []
        with ServeClient(daemon.address, retries=2, retry_backoff=0.01,
                         retry_statuses=(503,), sleep=sleeps.append) as client:
            with pytest.raises(ServeError) as excinfo:
                client.submit(tenant="alice", **FAST)
        assert excinfo.value.status == 503
        assert len(sleeps) == 2

    def test_stale_keepalive_connection_recovers(self, daemon):
        """A daemon-side connection close mid-keep-alive is retried away."""
        with ServeClient(daemon.address, retries=1) as client:
            assert client.healthz()["status"] == "ok"
            client._conn.sock.close()  # simulate the peer dropping the socket
            assert client.healthz()["status"] == "ok"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:9", timeout=0)
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:9", retries=-1)
        with pytest.raises(ValueError):
            ServeClient("http://127.0.0.1:9", retry_backoff=-0.1)

    def test_connect_timeout_defaults_to_timeout(self):
        client = ServeClient("http://127.0.0.1:9", timeout=7.0)
        assert client.connect_timeout == 7.0
        client = ServeClient("http://127.0.0.1:9", timeout=7.0, connect_timeout=0.5)
        assert client.connect_timeout == 0.5
