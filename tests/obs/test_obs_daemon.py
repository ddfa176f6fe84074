"""Live observability end to end: /metrics under load, stitched traces,
and the flight-recorder spill a SIGKILLed daemon leaves behind.

Marked ``obs`` (excluded from tier-1): these tests bind real sockets and
run real MLP evaluations.  Run with ``pytest -m obs``.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core import optimize
from repro.engine import ParallelExecutor, TrialEngine
from repro.obs import flightrec
from repro.obs.prom import CONTENT_TYPE, parse_prometheus
from repro.serve import JobSpec, ServeClient, ServeDaemon
from repro.serve.jobs import optimize_inputs
from repro.serve.server import STATS_SCHEMA_VERSION
from repro.telemetry import Telemetry, TraceSink, merge_chrome_traces

pytestmark = pytest.mark.obs

FAST = dict(dataset="australian", method="sha", hps=2, scale=0.2, seed=0, max_iter=8)


@pytest.fixture()
def daemon(tmp_path):
    with ServeDaemon(root=tmp_path / "serve", port=0, n_workers=2) as server:
        yield server


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as c:
        yield c


def scrape(daemon):
    with urllib.request.urlopen(daemon.address + "/metrics", timeout=30) as response:
        return response.headers.get("Content-Type"), response.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_content_type_and_grammar(self, daemon):
        content_type, body = scrape(daemon)
        assert content_type == CONTENT_TYPE
        parsed = parse_prometheus(body)  # raises on any malformed line
        assert parsed["repro_serve_up"] == [({}, 1.0)]
        assert parsed["repro_serve_workers"] == [({}, 2.0)]

    def test_all_job_states_present_at_zero(self, daemon):
        parsed = parse_prometheus(scrape(daemon)[1])
        states = {labels["state"]: value for labels, value in parsed["repro_serve_jobs"]}
        assert states == {
            "queued": 0.0, "running": 0.0, "done": 0.0, "failed": 0.0, "cancelled": 0.0,
        }

    def test_idle_scrapes_byte_identical(self, daemon, client):
        job = client.submit(tenant="alice", **FAST)
        client.wait(job["job_id"], timeout=60)
        first = scrape(daemon)[1]
        second = scrape(daemon)[1]
        assert first == second

    def test_sequential_scrapes_never_overlap_in_the_connection_count(self, daemon):
        """A connection gives its slot back before its last response goes out."""
        for _ in range(30):
            parsed = parse_prometheus(scrape(daemon)[1])
            kinds = {labels["kind"]: value for labels, value in parsed["repro_serve_connections"]}
            assert kinds["active"] == 1.0 and kinds["peak"] == 1.0

    def test_concurrent_scrapes_never_block_dispatch(self, daemon, client):
        """Hammer /metrics from several threads during a 2-tenant burst.

        Every scrape must parse line by line, and the burst must finish —
        i.e. the exporter reads live state without ever taking a lock
        that job dispatch needs.
        """
        specs = [dict(FAST, seed=seed) for seed in range(2)]
        job_ids = [
            client.submit(tenant=tenant, **spec)["job_id"]
            for tenant in ("alice", "bob")
            for spec in specs
        ]
        stop = threading.Event()
        scrapes, failures = [], []

        def scraper():
            while not stop.is_set():
                try:
                    parsed = parse_prometheus(scrape(daemon)[1])
                except Exception as exc:  # noqa: BLE001 - recorded for the assert
                    failures.append(repr(exc))
                    return
                scrapes.append(parsed)

        threads = [threading.Thread(target=scraper) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            finals = {job_id: client.wait(job_id, timeout=120) for job_id in job_ids}
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not failures, failures
        assert all(record["state"] == "done" for record in finals.values())
        assert len(scrapes) >= 3
        # mid-burst scrapes only ever name real tenants (a fast machine may
        # drain a tenant's queue before any scrape catches it live) ...
        tenants_seen = {
            labels["tenant"]
            for parsed in scrapes
            for labels, _ in parsed.get("repro_serve_queue_depth", [])
        }
        assert tenants_seen <= {"alice", "bob"}
        # ... and the final scrape accounts for the whole burst per tenant.
        parsed = parse_prometheus(scrape(daemon)[1])
        completed = {
            labels["tenant"]: value
            for labels, value in parsed["repro_tenant_jobs_total"]
            if labels["outcome"] == "completed"
        }
        assert completed == {"alice": 2.0, "bob": 2.0}

    def test_finished_jobs_roll_into_tenant_counters(self, daemon, client):
        job = client.submit(tenant="alice", **FAST)
        client.wait(job["job_id"], timeout=60)
        parsed = parse_prometheus(scrape(daemon)[1])
        jobs = {
            labels["outcome"]: value
            for labels, value in parsed["repro_tenant_jobs_total"]
            if labels["tenant"] == "alice"
        }
        assert jobs["submitted"] == 1.0
        assert jobs["completed"] == 1.0
        trials = dict(
            (labels["tenant"], value)
            for labels, value in parsed["repro_tenant_trials_total"]
        )
        assert trials["alice"] > 0


class TestStatsSchema:
    def test_stats_carries_schema_version(self, client):
        stats = client.stats()
        assert stats["schema_version"] == STATS_SCHEMA_VERSION


class TestStitchedTrace:
    def test_serve_engine_worker_spans_under_one_trace_id(self, daemon, client, tmp_path):
        """The acceptance walk: a traced serve job plus a parallel engine
        trace claiming the same trace id merge into one Chrome trace with
        serve -> engine -> worker spans."""
        job = client.submit(tenant="alice", trace=True, **FAST)
        job_id = job["job_id"]
        client.wait(job_id, timeout=60)

        serve_trace = daemon.registry.trace_path(job_id)
        assert serve_trace.exists()
        serve_header, serve_records, dropped = TraceSink.read(serve_trace)
        assert dropped == 0
        assert serve_header["trace_id"] == job_id
        serve_spans = [r for r in serve_records if r.get("type") == "span"]
        root = next(s for s in serve_spans if s["kind"] == "serve.job")
        assert root["attrs"]["job_id"] == job_id
        # engine spans hang under the serve.job root in the same file
        assert any(s["kind"] == "run" and s["parent"] == root["id"] for s in serve_spans)

        # A second process tier: the same spec through a parallel engine,
        # its trace claiming the job's trace id.
        engine_trace = tmp_path / "engine.trace"
        telemetry = Telemetry(trace=engine_trace, trace_id=job_id)
        spec = JobSpec(tenant="alice", **FAST)
        engine = TrialEngine(executor=ParallelExecutor(n_workers=2), telemetry=telemetry)
        try:
            optimize(**optimize_inputs(spec), engine=engine)
        finally:
            engine.shutdown()
            telemetry.close()
        engine_header, engine_records, _ = TraceSink.read(engine_trace)
        assert engine_header["trace_id"] == job_id
        worker_spans = [
            r for r in engine_records
            if r.get("type") == "span" and (r.get("attrs") or {}).get("pid")
        ]
        assert worker_spans, "no worker-origin spans rode the result sidecar"
        worker_pids = {s["attrs"]["pid"] for s in worker_spans}
        assert engine_header["pid"] not in worker_pids  # genuinely cross-process

        merged = merge_chrome_traces(
            [(serve_header, serve_records), (engine_header, engine_records)]
        )
        assert merged["metadata"]["trace_ids"] == [job_id]
        events = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in events} == {serve_header["pid"], engine_header["pid"]}
        categories = {e["cat"] for e in events}
        assert {"serve.job", "run", "trial", "fold"} <= categories
        labels = [e["args"]["name"] for e in merged["traceEvents"]
                  if e["name"] == "process_name"]
        assert all(f"trace {job_id}" in label for label in labels)


class TestSigkillSpill:
    def test_surviving_live_spill_names_the_in_flight_jobs(self, tmp_path):
        """SIGKILL is uncatchable, so the daemon cannot dump on the way down:
        the evidence is the append-only ``flightrec-<pid>-live.jsonl`` spill
        the recorder writes at every sticky event (job dispatch).  A job the
        client saw ``running`` must be a ``job.start`` event in it."""
        root = tmp_path / "serve"
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--port", "0", "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            line = ""
            while "serving on " not in line:
                line = proc.stdout.readline()
                assert line or proc.poll() is None, "serve daemon failed to start"
            url = line.split("serving on ", 1)[1].split()[0]
            slow = dict(FAST, scale=0.5, max_iter=40)
            with ServeClient(url) as client:
                job_ids = [
                    client.submit(tenant=tenant, **dict(slow, seed=seed))["job_id"]
                    for tenant in ("acme", "globex") for seed in range(2)
                ]
                deadline = time.monotonic() + 60.0
                running = set()
                while not running:
                    assert time.monotonic() < deadline, "no job ever started running"
                    running = {job_id for job_id in job_ids
                               if client.job(job_id)["state"] == "running"}
                    time.sleep(0.02)
            time.sleep(0.3)  # the spill is forced just after the flip to running
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()

        spills = sorted((root / "obs").glob("flightrec-*-live.jsonl"))
        assert spills, f"no flight-recorder live spill under {root / 'obs'}"
        payload = flightrec.load(spills[-1])
        assert payload["schema_version"] == flightrec.FLIGHTREC_SCHEMA_VERSION
        started = {event.get("job") for event in payload["events"]
                   if event.get("kind") == "job.start"}
        assert running & started, f"spill names {sorted(started)}, in flight {sorted(running)}"
