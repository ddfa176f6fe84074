"""Registry corruption recovery: quarantine, spec.json rebuild, bitwise re-runs.

Marked ``serve`` (excluded from tier-1): the end-to-end cases run real
jobs through a real daemon.  Run with ``pytest -m serve``.
"""

import json
import os

import pytest

import repro
from repro.serve import (
    JobRegistry,
    JobSpec,
    ServeClient,
    ServeDaemon,
    incumbent_fingerprint,
    run_job_local,
)

pytestmark = pytest.mark.serve

FAST = dict(dataset="australian", method="sha", hps=2, scale=0.2, seed=0, max_iter=8)


def _registry_with_job(tmp_path, seed=0):
    registry = JobRegistry(tmp_path / "serve")
    record = registry.create(JobSpec(tenant="alice", **{**FAST, "seed": seed}))
    return registry, record


def _reload(tmp_path):
    registry = JobRegistry(tmp_path / "serve")
    return registry, registry.load_all()


class TestQuarantine:
    def test_truncated_record_rebuilt_queued(self, tmp_path):
        registry, record = _registry_with_job(tmp_path)
        record.state = "running"
        registry.persist(record)
        path = registry.job_dir(record.job_id) / "job.json"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        fresh, recovered = _reload(tmp_path)
        assert fresh.quarantined == 1
        assert [r.job_id for r in recovered] == [record.job_id]
        rebuilt = fresh.get(record.job_id)
        assert rebuilt.state == "queued"
        assert rebuilt.spec.to_dict() == record.spec.to_dict()
        # the rebuilt record is re-persisted, so a second restart is clean
        again, _ = _reload(tmp_path)
        assert again.quarantined == 0

    def test_garbage_record_rebuilt_queued(self, tmp_path):
        registry, record = _registry_with_job(tmp_path)
        path = registry.job_dir(record.job_id) / "job.json"
        path.write_bytes(b"{\x00 definitely not json")

        fresh, recovered = _reload(tmp_path)
        assert fresh.quarantined == 1
        assert fresh.get(record.job_id).state == "queued"

    def test_lost_rename_rebuilt_from_spec(self, tmp_path):
        """Only ``job.json.<pid>.tmp`` on disk — the rename never happened."""
        registry, record = _registry_with_job(tmp_path)
        path = registry.job_dir(record.job_id) / "job.json"
        os.replace(path, path.with_name("job.json.4242.tmp"))

        fresh, recovered = _reload(tmp_path)
        assert fresh.quarantined == 1  # the stray tmp file
        rebuilt = fresh.get(record.job_id)
        assert rebuilt is not None and rebuilt.state == "queued"
        assert rebuilt.spec.seed == record.spec.seed

    def test_corrupt_files_preserved_for_postmortem(self, tmp_path):
        registry, record = _registry_with_job(tmp_path)
        path = registry.job_dir(record.job_id) / "job.json"
        path.write_bytes(b"garbage")

        fresh, _ = _reload(tmp_path)
        moved = fresh.quarantine_dir() / record.job_id / "job.json"
        assert moved.read_bytes() == b"garbage"
        # the live path now holds the freshly persisted rebuilt record
        assert json.loads(path.read_text())["state"] == "queued"

    def test_unreadable_spec_skips_job(self, tmp_path):
        """With both job.json and spec.json gone there is nothing to recover."""
        registry, record = _registry_with_job(tmp_path)
        (registry.job_dir(record.job_id) / "job.json").write_bytes(b"x")
        registry.spec_path(record.job_id).write_bytes(b"also broken")

        fresh, recovered = _reload(tmp_path)
        assert recovered == []
        assert fresh.quarantined == 2  # record + spec both moved aside

    def test_intact_records_untouched(self, tmp_path):
        registry, record = _registry_with_job(tmp_path)
        record.state = "done"
        registry.persist(record)

        fresh, recovered = _reload(tmp_path)
        assert fresh.quarantined == 0
        assert fresh.get(record.job_id).state == "done"

    def test_spec_sidecar_is_written_at_admission(self, tmp_path):
        registry, record = _registry_with_job(tmp_path, seed=3)
        sidecar = json.loads(registry.spec_path(record.job_id).read_text())
        assert sidecar == record.spec.to_dict()


class TestEndToEndRecovery:
    def test_corrupt_restart_completes_bitwise(self, tmp_path):
        """A job whose record was corrupted re-runs to the direct-run result."""
        spec = JobSpec(tenant="alice", **FAST)
        reference = incumbent_fingerprint(run_job_local(spec).result)

        root = tmp_path / "serve"
        with ServeDaemon(root=root, port=0, n_workers=2) as daemon:
            with ServeClient(daemon.address) as client:
                job_id = client.submit(spec.to_dict())["job_id"]
                final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"

        record_path = root / "jobs" / job_id / "job.json"
        blob = record_path.read_bytes()
        record_path.write_bytes(blob[: len(blob) // 2])

        with ServeDaemon(root=root, port=0, n_workers=2) as daemon:
            assert daemon.registry.quarantined == 1
            with ServeClient(daemon.address) as client:
                final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        assert final["incumbent"]["fingerprint"] == reference

    def test_kill_between_the_flip_and_the_persist_replays_bitwise(self, tmp_path):
        """``mark_finished`` flips the record in memory, then persists it.

        A kill in between (the ``job.json`` write of the third record
        update: create, running, *finished*) leaves ``running`` on disk
        with a complete journal: the next daemon replays it to the same
        incumbent and runs nothing twice.
        """
        import subprocess
        import sys

        from repro.faults.points import ENV_VAR
        from repro.faults.schedule import CRASH_EXIT_CODE, FaultSchedule

        spec = JobSpec(tenant="alice", **FAST)
        reference = incumbent_fingerprint(run_job_local(spec).result)
        root = tmp_path / "serve"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {os.path.dirname(os.path.dirname(repro.__file__))!r})\n"
            "from repro.serve import JobRegistry, JobSpec, SharedEngineState, execute_job\n"
            f"registry = JobRegistry({str(root)!r})\n"
            f"record = registry.create(JobSpec.from_dict({spec.to_dict()!r}))\n"
            f"execute_job(record, registry, SharedEngineState({str(root)!r}))\n"
            "sys.exit(f'survived the kill: {record.state}')\n"
        )
        schedule = FaultSchedule.single("registry.record.pre_write", 2, "crash")
        arming = {"schedule": schedule.to_payload(), "claims": str(tmp_path)}
        env = dict(os.environ, **{ENV_VAR: json.dumps(arming)})
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

        (job_dir,) = (root / "jobs").iterdir()
        assert json.loads((job_dir / "job.json").read_text())["state"] == "running"
        assert (job_dir / "result.json").is_file()  # everything but the record was written

        with ServeDaemon(root=root, port=0, n_workers=1) as daemon:
            assert daemon.recovered_jobs == 1
            with ServeClient(daemon.address) as client:
                final = client.wait(job_dir.name, timeout=60)
        assert final["state"] == "done"
        assert final["resumed"] == 1
        stats = final["engine_stats"]
        assert stats["resumed"] == stats["submitted"] and stats["executed"] == 0
        assert final["incumbent"]["fingerprint"] == reference
