"""Fault-injection harness: attack the engine and assert its invariants.

Each scenario breaks the engine on purpose — evaluator exceptions, NaN
and ``+inf`` scores, hung evaluations, workers dying via ``os._exit``,
SIGKILL mid-run, torn journal tails, corrupted training data fed to real
learners, SIGKILL of the HPO service daemon mid-burst — and asserts the
robustness contract:

1. the search always completes and a real (finite, non-sentinel) trial
   wins whenever one exists;
2. degraded trials carry the sentinel score and are counted in
   :class:`~repro.engine.EngineStats`;
3. a journaled run interrupted at any point resumes to the *bitwise*
   result of the uninterrupted run, for SHA+, HyperBand+ and ASHA;
4. under ``guard_policy="repair"`` a dataset with NaN cells, a constant
   feature and a diverging learner still yields a finite incumbent, with
   every guard event counted in the stats and persisted in the journal,
   and serial == parallel bitwise.

Usage::

    PYTHONPATH=src python tools/chaos_suite.py           # full sweep
    PYTHONPATH=src python tools/chaos_suite.py --quick   # CI smoke subset
    PYTHONPATH=src python tools/chaos_suite.py --trace DIR  # + span traces
    PYTHONPATH=src python tools/chaos_suite.py --jobs 4  # parallel subprocesses

With ``--jobs N`` each scenario runs in its own subprocess with an
isolated temporary directory and a per-scenario ``--timeout`` (default
900 s), N at a time.  Result lines, the summary count and the
first-failed report keep the listed scenario order and the exit-code
contract of the serial path.

With ``--trace DIR`` every engine-backed search inside the scenarios
records a :mod:`repro.telemetry` span trace into ``DIR`` (one JSONL file
per search, numbered in execution order), so a chaotic run is
inspectable after the fact — injected faults appear as
``chaos.injected.*`` counters in each trace's metrics snapshot and
retries/watchdog kills as ``engine.*`` counters, instead of being
visible only in this harness's stdout summary.  Convert any of the
files with ``tools/trace_view.py``.

Exit code 0 iff every scenario PASSes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bandit import ASHA, BOHB, HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.core import MLPModelFactory, grouped_evaluator
from repro.engine import (
    FAILURE_SCORE,
    ChaosExecutor,
    ChaosPolicy,
    DataCorruption,
    ParallelExecutor,
    RunJournal,
    SerialExecutor,
    TrialEngine,
)
from repro.space import Categorical, SearchSpace

SPACE = SearchSpace([Categorical("q", list(range(8)))])

SEARCHERS = {
    "sha+": lambda space, ev, engine: SuccessiveHalving(space, ev, random_state=7, engine=engine),
    "hb+": lambda space, ev, engine: HyperBand(space, ev, random_state=7, engine=engine),
    "asha": lambda space, ev, engine: ASHA(space, ev, random_state=7, n_workers=2, engine=engine),
    "bohb+": lambda space, ev, engine: BOHB(space, ev, random_state=7, engine=engine),
}


class QualityEvaluator:
    """Picklable synthetic evaluator: best configuration is q=7."""

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.001 * float(rng.standard_normal())
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100 * budget_fraction)


def fingerprint(result):
    """Order-sensitive trial identity: what "bitwise resume" compares."""
    return [
        (t.key, t.budget_fraction, t.result.score, t.iteration, t.bracket)
        for t in result.trials
    ]


# Directory for per-search telemetry traces (set by --trace), plus a
# counter so every engine-backed fit inside a scenario gets its own file.
TRACE_DIR = None
_trace_counter = itertools.count(1)


def make_telemetry(tag):
    """A fresh tracing Telemetry under --trace, else ``None``."""
    if TRACE_DIR is None:
        return None
    from repro.telemetry import Telemetry

    return Telemetry(trace=TRACE_DIR / f"{next(_trace_counter):03d}_{tag}.trace.jsonl")


def run_search(name, engine):
    """One fit of the named searcher on the shared space/evaluator.

    Under ``--trace`` the engine records a full span trace of the search;
    telemetry is observational only, so the scenarios' bitwise
    fingerprint assertions hold with tracing on or off.
    """
    searcher = SEARCHERS[name](SPACE, QualityEvaluator(), engine)
    telemetry = make_telemetry(name)
    if telemetry is not None:
        engine.telemetry = telemetry
    try:
        return searcher.fit(configurations=SPACE.grid())
    finally:
        if telemetry is not None:
            telemetry.close()


def assert_sane(result, stats):
    """Invariants every chaotic search must keep."""
    assert math.isfinite(result.best_score), "non-finite score escaped sanitization"
    assert result.best_score > FAILURE_SCORE, "a degraded trial won the search"
    # The cache may re-serve a degraded outcome across brackets, so compare
    # *distinct* degraded (config, budget) pairs against the failure count.
    degraded = {
        (t.key, t.budget_fraction) for t in result.trials
        if t.result.score == FAILURE_SCORE
    }
    assert len(degraded) == stats.failures, (
        f"distinct sentinel trials ({len(degraded)}) disagree with "
        f"stats.failures ({stats.failures})"
    )


# -- scenarios ----------------------------------------------------------------


def scenario_crash_resume(searcher_name):
    """Truncate a journal at every prefix; each resume must be bitwise."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
            reference = run_search(searcher_name, engine)
        full = path.read_text().splitlines(True)
        n_entries = len(full) - 1
        for n_keep in range(1, n_entries):
            path.write_text("".join(full[: 1 + n_keep]))
            with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
                resumed = run_search(searcher_name, engine)
            assert fingerprint(resumed) == fingerprint(reference), (
                f"{searcher_name}: resume from {n_keep}/{n_entries} diverged"
            )
            # Repeated (config, budget) pairs re-serve from the replay map,
            # so `resumed` is >= the prefix length; only the lost distinct
            # executions may run again.
            assert engine.stats.resumed >= n_keep
            assert engine.stats.executed == n_entries - n_keep
        return f"{n_entries - 1} cut points, all bitwise"


def scenario_evaluator_faults():
    """Raises + NaN + inf under retries: completes, degrades, sanitizes."""
    policy = ChaosPolicy(failure_rate=0.2, nan_rate=0.1, corrupt_rate=0.1)
    with TrialEngine(executor=ChaosExecutor(SerialExecutor(), policy),
                     max_retries=2, retry_backoff=0.0) as engine:
        result = run_search("hb+", engine)
        stats = engine.stats
    assert_sane(result, stats)
    assert stats.retries > 0, "no fault was ever injected"
    assert stats.non_finite > 0, "no corrupted score was ever injected"
    return f"{stats.retries} retries, {stats.failures} degraded, {stats.non_finite} non-finite"


def scenario_hang_watchdog():
    """Injected hangs outlive trial_timeout: watchdog kills, run finishes."""
    policy = ChaosPolicy(hang_rate=0.15, hang_seconds=60.0)
    executor = ChaosExecutor(ParallelExecutor(n_workers=2, trial_timeout=0.5), policy)
    start = time.monotonic()
    with TrialEngine(executor=executor, max_retries=2, retry_backoff=0.0) as engine:
        result = run_search("sha+", engine)
        stats = engine.stats
    elapsed = time.monotonic() - start
    assert_sane(result, stats)
    assert stats.timeouts > 0, "no hang was ever injected"
    assert elapsed < 60.0, "the watchdog failed to preempt a hang"
    return f"{stats.timeouts} watchdog kills in {elapsed:.1f}s"


def scenario_worker_exit():
    """Workers die via os._exit mid-trial: respawn + resubmit, no deadlock."""
    policy = ChaosPolicy(exit_rate=0.15)
    inner = ParallelExecutor(n_workers=2)
    with TrialEngine(executor=ChaosExecutor(inner, policy),
                     max_retries=3, retry_backoff=0.0) as engine:
        result = run_search("hb+", engine)
        stats = engine.stats
    assert_sane(result, stats)
    assert inner.respawns > 0, "no worker was ever killed"
    return f"{inner.respawns} workers respawned, {stats.retries} retries"


def scenario_sigkill_resume():
    """SIGKILL a journaled child mid-run; resume must match the clean run."""
    with TrialEngine(executor=SerialExecutor(), retry_backoff=0.0) as engine:
        reference = run_search("hb+", engine)

    script = textwrap.dedent(
        """
        import sys, time
        from repro.bandit import HyperBand
        from repro.bandit.base import EvaluationResult
        from repro.engine import SerialExecutor, TrialEngine
        from repro.space import Categorical, SearchSpace

        class SlowQuality:
            def evaluate(self, config, budget_fraction, rng):
                time.sleep(0.05)
                score = config["q"] / 10.0 + 0.001 * float(rng.standard_normal())
                return EvaluationResult(mean=score, std=0.0, score=score,
                                        gamma=100 * budget_fraction)

        space = SearchSpace([Categorical("q", list(range(8)))])
        engine = TrialEngine(executor=SerialExecutor(), journal=sys.argv[1],
                             retry_backoff=0.0)
        HyperBand(space, SlowQuality(), random_state=7, engine=engine).fit(
            configurations=space.grid())
        engine.shutdown()
        """
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.wal"
        env = {**os.environ,
               "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
        child = subprocess.Popen([sys.executable, "-c", script, str(path)], env=env)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists() and len(path.read_text().splitlines()) >= 5:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert child.poll() is None, "child finished before it could be killed"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        _, entries, _ = RunJournal.read(path)
        assert 0 < len(entries) < len(reference.trials), "kill was not mid-run"

        # The child's evaluator only adds a sleep, so its journal replays
        # bitwise into the in-process reference run.
        with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
            resumed = run_search("hb+", engine)
            stats = engine.stats
        assert stats.resumed >= len(entries) and stats.executed > 0
        assert fingerprint(resumed) == fingerprint(reference), "SIGKILL resume diverged"
        return f"killed at {len(entries)}/{len(reference.trials)} trials, resume bitwise"


_ARENA_RUN_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro.bandit import SuccessiveHalving
    from repro.core.evaluator import MLPModelFactory, vanilla_evaluator
    from repro.engine import ParallelExecutor, TrialEngine
    from repro.space import Categorical, SearchSpace

    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 8))
    y = (X @ rng.normal(size=8) > 0).astype(int)
    space = SearchSpace([
        Categorical("learning_rate_init", [1e-3, 3e-3, 1e-2, 3e-2]),
        Categorical("alpha", [1e-4, 1e-2]),
        # 16 configurations = four rungs: the journal commits per rung, so
        # the kill needs whole rungs left to run after the first commit.
        Categorical("momentum", [0.5, 0.9]),
    ])
    evaluator = vanilla_evaluator(
        X, y, MLPModelFactory(task="classification", max_iter=30),
        task="classification")
    engine = TrialEngine(
        executor=ParallelExecutor(n_workers=2, transport="arena"),
        journal=sys.argv[1], retry_backoff=0.0)
    result = SuccessiveHalving(space, evaluator, random_state=7,
                               engine=engine).fit(configurations=space.grid())
    engine.shutdown()
    print(json.dumps([
        (t.key, t.budget_fraction, t.result.score, t.iteration, t.bracket)
        for t in result.trials]))
    """
)


def scenario_arena_sigkill():
    """SIGKILL a run holding shared-memory segments; resume reaps and finishes.

    The run publishes its dataset into the ``/dev/shm`` arena, so a kill
    mid-run orphans named segments with a dead owner pid.  The workers
    exit with their parent, which lets Python's resource tracker unlink
    those orphans on its own moments later, so the scenario also plants
    one segment under the dead pid that no tracker knows about: only the
    successor's ``reap_stale()`` can remove it.  The resumed leg must
    (1) reap every orphan before publishing its own, (2) replay the
    journal to the bitwise reference, and (3) unlink everything on clean
    shutdown — zero arena segments with a dead owner survive the scenario.
    """
    from repro.engine import list_segments
    from repro.engine.arena import _SHM_DIR, _owner_pid, _pid_alive

    def dead_owner_segments():
        return [name for name in list_segments()
                if _owner_pid(name) is not None and not _pid_alive(_owner_pid(name))]

    env = {**os.environ,
           "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    with tempfile.TemporaryDirectory() as tmp:
        reference_wal = Path(tmp) / "reference.wal"
        proc = subprocess.run(
            [sys.executable, "-c", _ARENA_RUN_SCRIPT, str(reference_wal)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, f"reference leg failed:\n{proc.stderr[-2000:]}"
        reference = json.loads(proc.stdout.splitlines()[-1])

        wal = Path(tmp) / "run.wal"
        child = subprocess.Popen(
            [sys.executable, "-c", _ARENA_RUN_SCRIPT, str(wal)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            prefix = f"repro-arena-{child.pid}-"
            deadline = time.monotonic() + 60.0
            armed = False
            def durable_entries():
                # Parse, don't count raw lines: line 0 is the header and
                # the tail may be torn mid-append.
                if not wal.exists():
                    return 0
                try:
                    _, entries, _ = RunJournal.read(wal)
                except Exception:
                    return 0
                return len(entries)

            while time.monotonic() < deadline:
                held = [s for s in list_segments() if s.startswith(prefix)]
                if held and durable_entries() >= 3:
                    armed = True
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            assert armed, "child finished before segments + journal were observed"
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.wait(timeout=30)

        _, entries, _ = RunJournal.read(wal)
        assert len(entries) >= 3, "kill was not mid-run"

        planted = prefix + "chaos-orphan"
        (Path(_SHM_DIR) / planted).write_bytes(bytes(64))
        assert planted in dead_owner_segments(), "planted orphan not seen as dead-owner"

        try:
            proc = subprocess.run(
                [sys.executable, "-c", _ARENA_RUN_SCRIPT, str(wal)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, f"resume leg failed:\n{proc.stderr[-2000:]}"
            resumed = json.loads(proc.stdout.splitlines()[-1])
            assert resumed == reference, "arena SIGKILL resume diverged"
            remaining = dead_owner_segments()
            assert not remaining, f"leaked arena segments survived resume: {remaining}"
        finally:
            (Path(_SHM_DIR) / planted).unlink(missing_ok=True)
        return (f"killed holding {len(held)} shm segments at "
                f"{len(entries)}/{len(reference)} trials; resume reaped the planted "
                f"orphan and the rest, bitwise")


def scenario_torn_journal():
    """A crash mid-append leaves a torn line: dropped, then overwritten."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
            reference = run_search("sha+", engine)
        lines = path.read_text().splitlines(True)
        torn = "".join(lines[:4]) + lines[4][: len(lines[4]) // 2]
        path.write_text(torn)
        with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
            resumed = run_search("sha+", engine)
            stats = engine.stats
        assert engine.journal.dropped_records == 1, "torn tail not detected"
        assert stats.resumed == 3, "intact prefix not replayed"
        assert fingerprint(resumed) == fingerprint(reference), "torn-tail resume diverged"
        return "torn record dropped, prefix replayed, resume bitwise"


def _start_serve_daemon(root):
    """Launch ``python -m repro serve`` on an ephemeral port; return (proc, url)."""
    env = {**os.environ,
           "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root),
         "--port", "0", "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on " in line:
            url = line.split("serving on ", 1)[1].split()[0]
            return proc, url
        if proc.poll() is not None:
            break
    raise AssertionError("serve daemon failed to start")


def scenario_serve_sigkill():
    """SIGKILL the HPO service daemon mid-burst; a restart must finish
    every job bitwise-identical to running the same specs directly.

    Exercises the full durability stack at once: atomic job records, the
    per-job journals, recovery re-queueing and journal replay-resume —
    through a real subprocess daemon and real HTTP, exactly as deployed.
    """
    from repro.serve import JobSpec, ServeClient, incumbent_fingerprint, run_job_local

    base = dict(dataset="australian", method="sha", hps=2, scale=0.5, max_iter=40)
    specs = [dict(base, tenant="burst", seed=seed) for seed in range(6)]
    references = {
        spec["seed"]: incumbent_fingerprint(
            run_job_local(JobSpec(**{k: v for k, v in spec.items()})).result
        )
        for spec in specs
    }

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "serve-root"
        proc, url = _start_serve_daemon(root)
        try:
            with ServeClient(url) as client:
                job_ids = {client.submit(spec)["job_id"]: spec["seed"] for spec in specs}
                # wait until some job is genuinely mid-search, then kill -9
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if any(
                        record["state"] == "running" and record["trials_done"] >= 2
                        for record in (client.job(job_id) for job_id in job_ids)
                    ):
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError("no job ever got mid-flight")
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        proc, url = _start_serve_daemon(root)
        try:
            with ServeClient(url) as client:
                finals = client.wait_all(list(job_ids), timeout=300.0)
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)

    assert all(r["state"] == "done" for r in finals.values()), (
        f"states after restart: {sorted(r['state'] for r in finals.values())}"
    )
    resumed = [r for r in finals.values()
               if r["resumed"] >= 1 and r["engine_stats"].get("resumed", 0) > 0]
    assert resumed, "no job replayed a journal — the kill missed every run"
    mismatched = [
        job_id for job_id, record in finals.items()
        if record["incumbent"]["fingerprint"] != references[job_ids[job_id]]
    ]
    assert not mismatched, f"resume diverged from direct runs: {mismatched}"
    replayed = max(r["engine_stats"]["resumed"] for r in resumed)
    return (f"{len(resumed)}/{len(finals)} jobs journal-resumed "
            f"(deepest replay {replayed} trials), all bitwise == direct")


def scenario_serve_sigkill_flightrec():
    """SIGKILL the daemon mid-burst; the flight recorder's spill-backed
    live snapshot must survive and name the in-flight jobs.

    SIGKILL is uncatchable, so the daemon cannot dump on the way down —
    the post-mortem evidence is the append-only
    ``flightrec-<pid>-live.jsonl`` spill the recorder force-writes at
    every sticky event (job dispatch), read back with ``flightrec.load``
    (which drops a last line the kill tore).  A job the client observed
    ``running`` must therefore appear as a ``job.start`` event in the
    surviving file.
    """
    from repro.obs import flightrec
    from repro.serve import ServeClient

    base = dict(dataset="australian", method="sha", hps=2, scale=0.5, max_iter=40)
    specs = [dict(base, tenant=tenant, seed=seed)
             for tenant in ("acme", "globex") for seed in range(2)]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "serve-root"
        proc, url = _start_serve_daemon(root)
        running = set()
        try:
            with ServeClient(url) as client:
                job_ids = [client.submit(spec)["job_id"] for spec in specs]
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    running = {job_id for job_id in job_ids
                               if client.job(job_id)["state"] == "running"}
                    if running:
                        break
                    time.sleep(0.02)
                else:
                    raise AssertionError("no job ever started running")
                # The spill is forced right after the state flips to
                # running; give the write a beat before pulling the plug.
                time.sleep(0.3)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        spills = sorted((root / "obs").glob("flightrec-*-live.jsonl"))
        assert spills, f"no flight-recorder live spill under {root / 'obs'}"
        payload = flightrec.load(spills[-1])
        assert payload.get("schema_version") == 1, f"bad spill schema: {payload.keys()}"
        started = {event.get("job") for event in payload.get("events", [])
                   if event.get("kind") == "job.start"}
        named = running & started
        assert named, (
            f"spill names jobs {sorted(started)} but none of the in-flight "
            f"{sorted(running)}"
        )
    return (f"SIGKILL'd daemon; surviving spill ({spills[-1].name}) names "
            f"{len(named)}/{len(running)} in-flight job(s)")


GUARDED_SEARCHERS = {
    "sha+": lambda space, ev, engine: SuccessiveHalving(space, ev, random_state=7, engine=engine),
    "hb+": lambda space, ev, engine: HyperBand(space, ev, random_state=7, engine=engine),
    "bohb+": lambda space, ev, engine: BOHB(space, ev, random_state=7, engine=engine),
}


def _corrupted_problem():
    """Two Gaussian blobs, then 5% NaN cells, one constant feature, 2% flips."""
    rng = np.random.default_rng(5)
    n_per = 80
    X = np.vstack([
        rng.normal(loc=-1.0, scale=0.7, size=(n_per, 6)),
        rng.normal(loc=1.0, scale=0.7, size=(n_per, 6)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
    order = rng.permutation(len(y))
    corruption = DataCorruption(
        nan_cell_rate=0.05, label_flip_rate=0.02, constant_columns=1, seed=11
    )
    return corruption.apply(X[order], y[order])


def scenario_corrupted_data(searcher_name):
    """Real learners on corrupted data under guard_policy="repair".

    The space plants one deliberately diverging configuration
    (``learning_rate_init=1e6``): the guarded run must detect the
    divergence, floor those folds, and still crown a finite, sane
    incumbent — with every guard event in the stats and the journal, and
    the parallel run bitwise equal to the serial one.
    """
    X, y = _corrupted_problem()
    factory = MLPModelFactory(task="classification", max_iter=8,
                              solver="sgd", hidden_layer_sizes=(8,))
    evaluator = grouped_evaluator(X, y, factory, guard_policy="repair",
                                  n_groups=2, min_subset=20, random_state=3)
    space = SearchSpace([Categorical("learning_rate_init", [0.001, 0.01, 1e6])])
    builder = GUARDED_SEARCHERS[searcher_name]

    def guarded_fingerprint(result):
        return [row + (trial.result.guard_events,)
                for row, trial in zip(fingerprint(result), result.trials)]

    def guarded_run(engine, tag):
        telemetry = make_telemetry(tag)
        if telemetry is not None:
            engine.telemetry = telemetry
        try:
            return builder(space, evaluator, engine).fit(configurations=space.grid())
        finally:
            if telemetry is not None:
                telemetry.close()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.wal"
        with TrialEngine(executor=SerialExecutor(), journal=str(path), retry_backoff=0.0) as engine:
            serial = guarded_run(engine, f"corrupted-{searcher_name}-serial")
            serial_stats = engine.stats
        assert math.isfinite(serial.best_score), "corrupted data produced a non-finite incumbent"
        assert serial.best_config["learning_rate_init"] != 1e6, "the diverging learner won"
        assert serial_stats.guard_events > 0, "no guard event reached EngineStats"
        diverged = sum(1 for t in serial.trials for event in t.result.guard_events
                       if event["kind"] == "learner.diverged")
        assert diverged > 0, "lr=1e6 never tripped divergence detection"
        # Journal entries are appended at settle time (executed trials
        # only), which is exactly what the stats counter counts too.
        _, entries, _ = RunJournal.read(path)
        journal_events = sum(len(e.result.guard_events) for e in entries)
        assert journal_events == serial_stats.guard_events, "journal lost guard events"

    with TrialEngine(executor=ParallelExecutor(n_workers=2), retry_backoff=0.0) as engine:
        parallel = guarded_run(engine, f"corrupted-{searcher_name}-parallel")
        parallel_stats = engine.stats
    assert guarded_fingerprint(parallel) == guarded_fingerprint(serial), (
        f"{searcher_name}: guarded serial/parallel runs diverged"
    )
    assert parallel_stats.guard_events == serial_stats.guard_events
    return (f"{serial_stats.guard_events} guard events journaled, "
            f"{diverged} divergence catches, serial==parallel")


def scenario_pipe_drop():
    """Workers drop their result pipe mid-trial: respawn + retry, no hang."""
    policy = ChaosPolicy(pipe_drop_rate=0.2)
    inner = ParallelExecutor(n_workers=2)
    with TrialEngine(executor=ChaosExecutor(inner, policy),
                     max_retries=3, retry_backoff=0.0) as engine:
        result = run_search("hb+", engine)
        stats = engine.stats
    assert_sane(result, stats)
    assert inner.respawns > 0, "no pipe was ever dropped"
    return f"{inner.respawns} workers respawned after pipe drops, {stats.retries} retries"


def scenario_registry_corruption():
    """Corrupt three job.json records behind a restart; nothing is lost.

    One record is truncated mid-byte, one is overwritten with garbage,
    one's rename "never happened" (only a ``job.json.*.tmp`` remains).
    The restarted daemon must quarantine all three, rebuild each job from
    its immutable ``spec.json`` sidecar, re-run them to completion and
    match the fingerprints of direct ``run_job_local`` executions.
    """
    from repro.serve import (
        JobSpec, ServeClient, ServeDaemon, incumbent_fingerprint, run_job_local,
    )

    base = dict(dataset="australian", method="sha", hps=2, scale=0.35, max_iter=12)
    specs = {seed: JobSpec(tenant="chaos", seed=seed, **base) for seed in (0, 1, 2)}
    references = {
        seed: incumbent_fingerprint(run_job_local(spec).result)
        for seed, spec in specs.items()
    }

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "serve-root"
        with ServeDaemon(root=root, port=0, n_workers=2) as daemon:
            with ServeClient(daemon.address) as client:
                job_ids = {
                    client.submit(spec.to_dict())["job_id"]: seed
                    for seed, spec in specs.items()
                }
                finals = client.wait_all(list(job_ids), timeout=300.0)
        assert all(r["state"] == "done" for r in finals.values())

        paths = [root / "jobs" / job_id / "job.json" for job_id in job_ids]
        blob = paths[0].read_bytes()
        paths[0].write_bytes(blob[: len(blob) // 2])          # truncated write
        paths[1].write_bytes(b"{\x00 not json at all")         # bit rot
        os.replace(paths[2], paths[2].with_name("job.json.4242.tmp"))  # lost rename

        with ServeDaemon(root=root, port=0, n_workers=2) as daemon:
            assert daemon.registry.quarantined == 3, (
                f"expected 3 quarantined records, got {daemon.registry.quarantined}"
            )
            with ServeClient(daemon.address) as client:
                finals = client.wait_all(list(job_ids), timeout=300.0)

    assert all(r["state"] == "done" for r in finals.values()), (
        f"states after corruption: {sorted(r['state'] for r in finals.values())}"
    )
    mismatched = [
        job_id for job_id, record in finals.items()
        if record["incumbent"]["fingerprint"] != references[job_ids[job_id]]
    ]
    assert not mismatched, f"recovered jobs diverged from direct runs: {mismatched}"
    return "3 corrupt records quarantined, all jobs re-completed bitwise == direct"


def scenario_disk_full_degraded():
    """Durable writes fail (ENOSPC): shed with 429 + Retry-After, recover.

    While the registry cannot write, every submit must be shed — counted,
    answered 429 with a Retry-After header, and never half-admitted.  The
    moment writes succeed again the daemon recovers on its own, and the
    records written before the outage are untouched.
    """
    import http.client as http_client
    import json as json_mod

    import repro.serve.registry as registry_mod
    from repro.serve import ServeClient, ServeDaemon

    base = dict(tenant="chaos", dataset="australian", method="sha", hps=2,
                scale=0.35, max_iter=12)
    with tempfile.TemporaryDirectory() as tmp:
        with ServeDaemon(root=Path(tmp) / "serve-root", port=0, n_workers=2) as daemon:
            with ServeClient(daemon.address) as client:
                before = client.submit(dict(base, seed=0))
                client.wait(before["job_id"], timeout=300.0)
                durable_bytes = (daemon.registry.jobs_dir / before["job_id"]
                                 / "job.json").read_bytes()

                real_write = registry_mod._atomic_write_json
                def enospc(*args, **kwargs):
                    raise OSError(28, "No space left on device")
                registry_mod._atomic_write_json = enospc
                try:
                    host, port = daemon.address.split("//", 1)[1].rsplit(":", 1)
                    conn = http_client.HTTPConnection(host, int(port), timeout=30)
                    body = json_mod.dumps(dict(base, seed=1))
                    conn.request("POST", "/jobs", body=body,
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 429, f"expected 429, got {response.status}"
                    assert response.getheader("Retry-After"), "no Retry-After header"
                    conn.close()
                    for seed in (2, 3):  # degraded mode keeps shedding
                        try:
                            client.submit(dict(base, seed=seed))
                            raise AssertionError("degraded daemon accepted a job")
                        except Exception as exc:
                            assert getattr(exc, "status", None) == 429, exc
                    shed = daemon.stats()["fault_tolerance"]["shed_jobs"]
                    assert shed >= 3, f"expected >= 3 shed submits, got {shed}"
                    assert daemon.stats()["fault_tolerance"]["degraded"] is True
                finally:
                    registry_mod._atomic_write_json = real_write

                after = client.submit(dict(base, seed=4))  # auto-recovery
                final = client.wait(after["job_id"], timeout=300.0)
                assert final["state"] == "done"
                assert daemon.stats()["fault_tolerance"]["degraded"] is False
                # the pre-outage record is byte-identical and still readable
                assert (daemon.registry.jobs_dir / before["job_id"]
                        / "job.json").read_bytes() == durable_bytes, (
                    "the outage corrupted a record written before it"
                )
                assert client.job(before["job_id"])["state"] == "done"
                return (f"{shed} submits shed at 429 while disk full, "
                        f"auto-recovered after restore")


def scenario_drifting_data():
    """A drifting, NaN-pocked dataset under guard repair: still sane.

    ``make_drifting_classification`` moves the class structure along the
    row axis (translation + rotation) and knocks out feature cells, so
    subset evaluators see genuinely different distributions per budget.
    The guarded engine must repair, survive the planted diverging
    learner, crown a finite incumbent, and stay serial == parallel.
    """
    from repro.datasets import make_drifting_classification

    X, y = make_drifting_classification(
        n_samples=160, n_features=6, drift=2.0, drift_rotation=1.0,
        nan_cell_rate=0.05, random_state=5, class_sep=1.5,
    )
    factory = MLPModelFactory(task="classification", max_iter=8,
                              solver="sgd", hidden_layer_sizes=(8,))
    evaluator = grouped_evaluator(X, y, factory, guard_policy="repair",
                                  n_groups=2, min_subset=20, random_state=3)
    space = SearchSpace([Categorical("learning_rate_init", [0.001, 0.01, 1e6])])

    def guarded_fingerprint(result):
        return [row + (trial.result.guard_events,)
                for row, trial in zip(fingerprint(result), result.trials)]

    def run(engine, tag):
        telemetry = make_telemetry(tag)
        if telemetry is not None:
            engine.telemetry = telemetry
        try:
            searcher = SuccessiveHalving(space, evaluator, random_state=7, engine=engine)
            return searcher.fit(configurations=space.grid())
        finally:
            if telemetry is not None:
                telemetry.close()

    with TrialEngine(executor=SerialExecutor(), retry_backoff=0.0) as engine:
        serial = run(engine, "drifting-serial")
        serial_stats = engine.stats
    assert math.isfinite(serial.best_score), "drifting data produced a non-finite incumbent"
    assert serial.best_config["learning_rate_init"] != 1e6, "the diverging learner won"
    assert serial_stats.guard_events > 0, "NaN knockout never reached the guard"

    with TrialEngine(executor=ParallelExecutor(n_workers=2), retry_backoff=0.0) as engine:
        parallel = run(engine, "drifting-parallel")
        parallel_stats = engine.stats
    assert guarded_fingerprint(parallel) == guarded_fingerprint(serial), (
        "drifting-data: serial/parallel diverged"
    )
    assert parallel_stats.guard_events == serial_stats.guard_events
    return (f"{serial_stats.guard_events} guard events under drift, "
            f"finite incumbent, serial==parallel")


def build_scenarios(quick):
    """(name, callable) list; --quick keeps one fast probe per failure mode."""
    scenarios = [
        ("crash-resume[sha+]", lambda: scenario_crash_resume("sha+")),
        ("evaluator-faults", scenario_evaluator_faults),
        ("torn-journal", scenario_torn_journal),
        ("worker-exit", scenario_worker_exit),
        ("pipe-drop", scenario_pipe_drop),
        ("hang-watchdog", scenario_hang_watchdog),
        ("corrupted-data[sha+]", lambda: scenario_corrupted_data("sha+")),
    ]
    if not quick:
        scenarios[1:1] = [
            ("crash-resume[hb+]", lambda: scenario_crash_resume("hb+")),
            ("crash-resume[asha]", lambda: scenario_crash_resume("asha")),
        ]
        scenarios.append(("sigkill-resume", scenario_sigkill_resume))
        scenarios.append(("arena-sigkill", scenario_arena_sigkill))
        scenarios.append(("serve-sigkill", scenario_serve_sigkill))
        scenarios.append(("serve-sigkill-flightrec", scenario_serve_sigkill_flightrec))
        scenarios.extend([
            ("registry-corruption", scenario_registry_corruption),
            ("disk-full-degraded", scenario_disk_full_degraded),
            ("corrupted-data[hb+]", lambda: scenario_corrupted_data("hb+")),
            ("corrupted-data[bohb+]", lambda: scenario_corrupted_data("bohb+")),
            ("drifting-data", scenario_drifting_data),
        ])
    return scenarios


def _run_one_subprocess(name, args, index):
    """Run one scenario in a child process under an isolated temp dir.

    The child is this script with ``--only name --report-json``; its
    TMPDIR points at a private directory (removed afterwards) so
    concurrent scenarios can never collide on temp state.  Returns a
    ``{"name", "status", "detail", "elapsed"}`` record; a timeout or a
    child that dies without reporting becomes a FAIL record.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    workdir = Path(tempfile.mkdtemp(prefix=f"chaos-{safe}-"))
    report_path = workdir / "report.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--only", name, "--report-json", str(report_path)]
    if args.quick:
        cmd.append("--quick")
    if args.trace is not None:
        trace_dir = Path(args.trace) / safe
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd.extend(["--trace", str(trace_dir)])
    env = {**os.environ,
           "TMPDIR": str(workdir), "TEMP": str(workdir), "TMP": str(workdir),
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")
           + os.pathsep + os.environ.get("PYTHONPATH", "")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=args.timeout)
        elapsed = time.monotonic() - start
        if report_path.exists():
            record = json.loads(report_path.read_text())[0]
            record["elapsed"] = elapsed
        else:
            tail = (proc.stdout + proc.stderr).strip().splitlines()
            record = {"name": name, "status": "FAIL", "elapsed": elapsed,
                      "detail": f"child exited {proc.returncode} without a report: "
                                f"{tail[-1] if tail else '<no output>'}"}
    except subprocess.TimeoutExpired:
        record = {"name": name, "status": "FAIL",
                  "elapsed": time.monotonic() - start,
                  "detail": f"timed out after {args.timeout:.0f}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def _run_parallel(scenarios, args) -> int:
    """Dispatch scenarios onto ``--jobs`` subprocesses; keep serial semantics.

    Result lines print in the listed scenario order as soon as each
    scenario (and all before it) has finished, the summary counts every
    scenario, ``first failed scenario`` is the first in listed order, and
    the exit code is 1 iff anything failed — exactly the serial contract.
    """
    print(f"chaos suite: {len(scenarios)} scenarios "
          f"({'quick' if args.quick else 'full'}, {args.jobs} jobs)\n")
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_run_one_subprocess, name, args, index)
                   for index, (name, _fn) in enumerate(scenarios)]
        results = []
        for future in futures:  # listed order, printed as each completes
            record = future.result()
            results.append(record)
            print(f"[{record['status']}] {record['name']:<28} "
                  f"{record['elapsed']:6.1f}s  {record['detail']}")
    failures = [r for r in results if r["status"] != "PASS"]
    print(f"\n{len(results) - len(failures)}/{len(results)} scenarios passed")
    if failures:
        print(f"first failed scenario: {failures[0]['name']}")
    return 1 if failures else 0


def main(argv=None) -> int:
    """Run every scenario; print PASS/FAIL; exit non-zero on any failure."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smoke subset: one fast scenario per failure mode")
    parser.add_argument("--list", action="store_true",
                        help="print the scenario names the current flags select, then exit")
    parser.add_argument("--only", action="append", default=None, metavar="SCENARIO",
                        help="run only the named scenario (repeatable; see --list)")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="record a telemetry span trace per engine-backed "
                             "search into DIR (inspect with tools/trace_view.py)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenarios in N parallel subprocesses, each with "
                             "an isolated temp dir (default 1: in-process, serial)")
    parser.add_argument("--timeout", type=float, default=900.0, metavar="S",
                        help="per-scenario timeout in seconds under --jobs (default 900)")
    parser.add_argument("--report-json", default=None, metavar="PATH",
                        help=argparse.SUPPRESS)  # child channel for --jobs
    args = parser.parse_args(argv)

    if args.trace is not None:
        global TRACE_DIR
        TRACE_DIR = Path(args.trace)
        TRACE_DIR.mkdir(parents=True, exist_ok=True)

    scenarios = build_scenarios(args.quick)
    if args.list:
        for name, _scenario in scenarios:
            print(name)
        return 0
    if args.only:
        known = {name for name, _ in scenarios}
        unknown = sorted(set(args.only) - known)
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(unknown)} "
                         f"(use --list to see the available names)")
        scenarios = [(name, fn) for name, fn in scenarios if name in set(args.only)]
    if args.jobs > 1:
        return _run_parallel(scenarios, args)
    print(f"chaos suite: {len(scenarios)} scenarios ({'quick' if args.quick else 'full'})\n")
    failures = 0
    first_failed = None
    results = []
    for name, scenario in scenarios:
        start = time.monotonic()
        try:
            detail = scenario()
            status = "PASS"
        except Exception:
            failures += 1
            first_failed = first_failed or name
            detail = traceback.format_exc().splitlines()[-1]
            status = "FAIL"
        elapsed = time.monotonic() - start
        results.append({"name": name, "status": status,
                        "detail": detail, "elapsed": round(elapsed, 1)})
        print(f"[{status}] {name:<28} {elapsed:6.1f}s  {detail}")
    if args.report_json is not None:
        Path(args.report_json).write_text(json.dumps(results, indent=2) + "\n")
    print(f"\n{len(scenarios) - failures}/{len(scenarios)} scenarios passed")
    if first_failed is not None:
        print(f"first failed scenario: {first_failed}")
    if TRACE_DIR is not None:
        traces = sorted(TRACE_DIR.glob("*.trace.jsonl"))
        print(f"{len(traces)} telemetry trace(s) in {TRACE_DIR}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
