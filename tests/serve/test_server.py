"""ServeDaemon end to end: HTTP protocol, shared warm state, recovery.

Marked ``serve`` (excluded from tier-1): these tests bind real sockets
and run real MLP evaluations through the daemon.  Run with
``pytest -m serve``.
"""

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
