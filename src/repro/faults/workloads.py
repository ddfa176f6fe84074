"""Reference workloads the crash-schedule explorer enumerates over.

Each workload is a deterministic, resumable run living entirely under one
directory.  The explorer invokes a workload as a **subprocess leg**
(``python -m repro.faults.workloads <name> <dir>``) so a scheduled crash
kills a real process; re-running the same command over the same directory
is the resume.  On clean completion a workload writes
``<dir>/FINGERPRINT.json`` — the bitwise comparator the explorer checks
against the uninterrupted reference.

Workloads
---------
``hb``
    A small HB+ search (the paper's enhanced HyperBand) over the
    ``australian`` dataset at reduced scale, run through a journaled,
    warm-checkpointed serial engine — the "direct" path.  Every journal,
    checkpoint, cache and engine fault point fires here, all in the main
    process, so any crash is resumable bitwise via journal replay.
``hb-par``
    The same job through a 2-worker :class:`ParallelExecutor` (which
    publishes the dataset into the shared-memory arena), prefixed by a
    shared-memory self-check in the main process — adds the ``arena.*`` and ``executor.pool.*``
    fault points to the lattice while keeping every crash-swept arena
    site in the journaled parent.
``hb-par-spawn``
    ``hb-par`` with a ``spawn`` pool: its workers are fresh interpreters
    that attach the arena by name instead of inheriting the parent.
``serve``
    A six-job burst (five distinct specs across two tenants plus one
    duplicate that exercises dedup-subscribe) against an in-process
    :class:`~repro.serve.server.ServeDaemon` with one worker.  Adds the
    registry and daemon fault points; resume restarts the daemon over the
    same root, recovery re-queues interrupted jobs, and missing specs are
    re-submitted.
``toy`` / ``toy-buggy``
    A five-step persistent counter appending each step to a log.  The
    safe variant writes log-then-state with reconcile-on-resume (a WAL in
    miniature) and survives any crash; the buggy variant writes
    state-then-log and demonstrably loses log entries — it exists so the
    explorer's *fail* path and the schedule shrinker have a real defect
    to catch in tests.

Workloads never read wall clocks or OS randomness; everything derives
from fixed seeds, which is what makes crash-at-hit-``k`` meaningful run
over run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from .points import fault_point

__all__ = ["WORKLOAD_NAMES", "run_workload", "main"]

#: Root seed shared by the direct workload and the serve burst's twin.
_HB_SEED = 7

#: Spec fields of the reference HB+ job (kept tiny: ~40 ms per run).
_JOB_BASE = dict(
    dataset="australian",
    method="hb+",
    hps=1,
    scale=0.1,
    max_iter=4,
    n_configurations=4,
    refit=False,
)


def _write_fingerprint(run_dir: Path, payload: Dict[str, Any]) -> None:
    (run_dir / "FINGERPRINT.json").write_text(json.dumps(payload, sort_keys=True, indent=2))


# -- direct HB+ workload ------------------------------------------------------


def _run_hb(run_dir: Path) -> Dict[str, Any]:
    from ..engine import CheckpointStore, SerialExecutor, TrialEngine
    from ..serve.jobs import incumbent_fingerprint, optimize_inputs
    from ..serve.protocol import JobSpec
    from ..core import optimize

    spec = JobSpec(tenant="ref", seed=_HB_SEED, warm_start=True, **_JOB_BASE)
    engine = TrialEngine(
        executor=SerialExecutor(),
        cache=True,
        journal=str(run_dir / "run.wal"),
        checkpoints=CheckpointStore(spill_dir=run_dir / "ckpt"),
    )
    try:
        outcome = optimize(**optimize_inputs(spec), engine=engine)
    finally:
        engine.shutdown()
    return {"fingerprint": incumbent_fingerprint(outcome.result)}


def _arena_self_check() -> None:
    """Publish→attach→verify→unlink one probe block in the main process.

    Exercises every arena fault point (``arena.create`` / ``arena.attach``
    / ``arena.unlink``) where the explorer's crash schedules are
    resumable: a kill at any of them restarts the whole workload leg.
    The parallel run below keeps its forked workers on copy-on-write
    arrays, so without this probe ``arena.attach`` would only ever fire
    inside short-lived worker processes that a schedule cannot replay
    deterministically.
    """
    import numpy as np

    from ..engine.arena import SharedArena, attach, detach_all, reap_stale

    reap_stale()
    probe = np.arange(64, dtype=np.float64)
    with SharedArena() as arena:
        ref = arena.publish("probe", probe)
        view = attach(ref)
        if not np.array_equal(view, probe):
            raise RuntimeError("arena self-check round-trip mismatch")
        detach_all()


def _run_hb_par(run_dir: Path, start_method: Optional[str] = None) -> Dict[str, Any]:
    """The ``hb`` job through a 2-worker pool on the shared-memory arena.

    Adds the data-plane lattice to the direct workload: the arena
    self-check plus a :class:`~repro.engine.executors.ParallelExecutor`,
    whose dataset publish makes ``arena.*`` and ``executor.pool.*``
    fault points fire in the journaled main process.  Resume over the
    same directory replays the journal bitwise, and a successor's
    publish reaps any segments a crashed leg leaked.
    """
    from ..engine import CheckpointStore, ParallelExecutor, TrialEngine
    from ..serve.jobs import incumbent_fingerprint, optimize_inputs
    from ..serve.protocol import JobSpec
    from ..core import optimize

    _arena_self_check()
    spec = JobSpec(tenant="ref", seed=_HB_SEED, warm_start=True, **_JOB_BASE)
    engine = TrialEngine(
        executor=ParallelExecutor(n_workers=2, start_method=start_method),
        cache=True,
        journal=str(run_dir / "run.wal"),
        checkpoints=CheckpointStore(spill_dir=run_dir / "ckpt"),
    )
    try:
        outcome = optimize(**optimize_inputs(spec), engine=engine)
    finally:
        engine.shutdown()
    return {"fingerprint": incumbent_fingerprint(outcome.result)}


# -- serve burst workload -----------------------------------------------------


def _burst_specs():
    """The burst: five distinct specs over two tenants, plus one duplicate.

    The duplicate twins the *last* spec, which is still queued behind the
    single worker when the duplicate arrives — so the dedup-subscribe
    fault point fires deterministically in every fresh run.
    """
    from ..serve.protocol import JobSpec

    specs = [
        JobSpec(tenant=f"t{index % 2}", seed=index, **_JOB_BASE) for index in range(5)
    ]
    specs.append(JobSpec(tenant="t0", seed=4, **_JOB_BASE))
    return specs


def _run_serve(run_dir: Path) -> Dict[str, Any]:
    from ..serve.client import ServeClient
    from ..serve.protocol import spec_digest
    from ..serve.server import ServeDaemon

    specs = _burst_specs()
    digests = {spec_digest(spec) for spec in specs}
    daemon = ServeDaemon(root=run_dir / "serve", n_workers=1)
    daemon.start()
    try:
        client = ServeClient(daemon.address, timeout=30.0)
        # Resume contract: a digest already covered by a terminal-or-queued
        # record on disk re-executes through recovery; everything else is
        # (re-)submitted.  In a fresh run that means all six specs.
        covered = {
            spec_digest(record.spec)
            for record in daemon.registry.all()
            if record.state == "done" or not record.terminal
        }
        for spec in specs:
            if spec_digest(spec) not in covered:
                client.submit(spec)
        job_ids = [
            record.job_id
            for record in daemon.registry.all()
            if spec_digest(record.spec) in digests
        ]
        records = client.wait_all(job_ids, timeout=120.0)
        fingerprints: Dict[str, str] = {}
        for record in records.values():
            if record.get("state") != "done":
                raise RuntimeError(
                    f"job {record.get('job_id')} finished {record.get('state')!r}: "
                    f"{record.get('error')!r}"
                )
            digest = spec_digest_from_dict(record["spec"])
            fingerprint = (record.get("incumbent") or {}).get("fingerprint")
            if fingerprint is None:
                raise RuntimeError(f"job {record.get('job_id')} has no incumbent fingerprint")
            previous = fingerprints.setdefault(digest, fingerprint)
            if previous != fingerprint:
                raise RuntimeError(
                    f"twin jobs of digest {digest} disagree: {previous} != {fingerprint}"
                )
        missing = digests - set(fingerprints)
        if missing:
            raise RuntimeError(f"burst digests never finished: {sorted(missing)}")
        client.close()
    finally:
        daemon.drain(timeout=30.0)
        daemon.stop()
    return {"fingerprints": fingerprints}


def spec_digest_from_dict(spec_dict: Dict[str, Any]) -> str:
    """Digest of a spec already serialized to a record's dict."""
    from ..serve.protocol import JobSpec, spec_digest

    return spec_digest(JobSpec.from_dict(spec_dict))


# -- toy counter workloads ----------------------------------------------------

_TOY_STEPS = 5


def _toy_fingerprint(log_path: Path) -> str:
    content = log_path.read_text() if log_path.exists() else ""
    return hashlib.blake2b(content.encode("utf-8"), digest_size=8).hexdigest()


def _toy_append_log(log_path: Path, value: int) -> None:
    with log_path.open("a") as handle:
        handle.write(f"{value}\n")
        handle.flush()
        os.fsync(handle.fileno())


def _toy_write_state(state_path: Path, value: int) -> None:
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(str(value))
    os.replace(tmp, state_path)


def _run_toy(run_dir: Path, buggy: bool) -> Dict[str, Any]:
    log_path = run_dir / "log.txt"
    state_path = run_dir / "state.txt"
    value = int(state_path.read_text()) if state_path.exists() else 0
    if not buggy:
        # Safe ordering: the log is the WAL; reconcile state from it.
        logged = log_path.read_text().splitlines() if log_path.exists() else []
        if len(logged) > value:
            value = int(logged[-1])
    while value < _TOY_STEPS:
        value += 1
        fault_point("toy.step.pre")
        if buggy:
            # Deliberate bug: state advances before the log entry is
            # durable, so a crash at toy.step.mid loses one log line.
            _toy_write_state(state_path, value)
            fault_point("toy.step.mid")
            _toy_append_log(log_path, value)
        else:
            _toy_append_log(log_path, value)
            fault_point("toy.step.mid")
            _toy_write_state(state_path, value)
        fault_point("toy.step.post")
    return {"fingerprint": _toy_fingerprint(log_path)}


# -- registry and entry point -------------------------------------------------

_WORKLOADS: Dict[str, Callable[[Path], Dict[str, Any]]] = {
    "hb": _run_hb,
    "hb-par": _run_hb_par,
    "hb-par-spawn": lambda run_dir: _run_hb_par(run_dir, start_method="spawn"),
    "serve": _run_serve,
    "toy": lambda run_dir: _run_toy(run_dir, buggy=False),
    "toy-buggy": lambda run_dir: _run_toy(run_dir, buggy=True),
}

WORKLOAD_NAMES = tuple(sorted(_WORKLOADS))


def run_workload(name: str, run_dir: Path) -> Dict[str, Any]:
    """Execute one workload over ``run_dir`` and persist its fingerprint."""
    if name not in _WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    payload = _WORKLOADS[name](run_dir)
    _write_fingerprint(run_dir, payload)
    return payload


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.faults.workloads <name> <dir>``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m repro.faults.workloads <workload> <run_dir>", file=sys.stderr)
        return 2
    name, run_dir = argv
    started = time.monotonic()
    payload = run_workload(name, Path(run_dir))
    elapsed = time.monotonic() - started
    print(json.dumps({"workload": name, "elapsed": round(elapsed, 3), **payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
