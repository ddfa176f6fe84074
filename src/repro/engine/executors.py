"""Pluggable trial executors: serial reference and watchdog-supervised pool.

Both executors implement the same tiny submit/wait protocol consumed by
:class:`~repro.engine.core.TrialEngine`:

- :meth:`TrialExecutor.submit` schedules a prepared
  :class:`~repro.engine.protocol.TrialRequest`;
- :meth:`TrialExecutor.wait_one` blocks for the next completion and
  returns ``(trial_id, ok, result, error)`` — exceptions raised by the
  evaluator are *returned*, never propagated, so the engine's retry policy
  sees worker failures as data.

:class:`SerialExecutor` runs requests inline in FIFO order and is the
bitwise reference implementation.  :class:`ParallelExecutor` owns a pool
of long-lived worker processes it supervises directly (rather than hiding
them behind ``concurrent.futures``), which is what makes a real watchdog
possible:

- every worker gets the evaluator **once** at spawn (copy-on-write under
  the ``fork`` start method), so a task's payload is just
  ``(trial_id, config, budget_fraction, seed, telemetry_flags)``;
- each worker runs a heartbeat thread, letting the parent distinguish
  *alive-but-slow* from *wedged in native code*;
- a per-trial deadline (``trial_timeout``) bounds how long any single
  evaluation may run; on expiry the worker is killed, **respawned**, and
  the trial surfaced as a failed completion for the engine to retry with
  backoff or degrade — a hung trial can never stall ``wait_one`` forever;
- a worker that dies mid-trial (segfault, ``os._exit``, OOM-kill) is
  detected the same way: respawn plus a failed completion, never a
  deadlock.

Every involuntary recovery — watchdog kill, worker death — is the same
*leave then join* sequence (:meth:`_leave` + :meth:`_ensure_workers`), so
there is exactly one code path and one set of invariants for pool
membership.

Dispatch has one rule — hold, deal, collect: :meth:`ParallelExecutor.submit`
appends to one backlog, :meth:`ParallelExecutor._deal` is the only function
that sends, and supervision changes a single quantity, the *lane depth*
(how many tasks a worker may hold at once): 1 under a watchdog, a rung's
balanced share otherwise.  Because seeds are derived per trial, none of
this affects scores: serial==parallel holds for the rung-barrier searchers
however a rung is dealt and whichever worker is respawned.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, Optional, Tuple

import numpy as np

# numpy imports ``numpy.ma`` on the first plain ``np.unique`` (the fold
# splitters call it).  A parent that only dispatches never makes that call,
# so every forked worker would pay the 10 ms once per pool lifetime: load
# it here, before any fork.
import numpy.ma  # noqa: F401

from ..faults.points import fault_point
from ..obs import flightrec as _flightrec
from .arena import ArenaError, SharedArena, arena_available, reap_stale
from .protocol import EvaluationResult
from ..telemetry.collect import (
    PAYLOAD_ATTR,
    TrialCollector,
    attach_payload,
    install_collector,
)

__all__ = [
    "TrialExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "TIMEOUT_ERROR_PREFIX",
    "WORKER_DIED_PREFIX",
    "WORKER_HUNG_PREFIX",
]

#: Error-string prefixes the watchdog uses; the engine keys its
#: ``timeouts`` counter off them, and tests match on them.
TIMEOUT_ERROR_PREFIX = "TrialTimeout"
WORKER_DIED_PREFIX = "WorkerDied"
WORKER_HUNG_PREFIX = "WorkerHung"

#: Parent-side supervision granularity under a watchdog: how often (in
#: seconds) ``wait_one`` wakes to run watchdog checks while no completion
#: is ready.
POLL_INTERVAL = 0.05

#: Set inside worker processes: the id stamped on telemetry sidecars.
#: ``None`` in the parent process and under :class:`SerialExecutor`.
_WORKER_ID: Optional[int] = None


def _task(token: int, request) -> Tuple:
    """The tuple a request travels as: executor token first, then what to run."""
    return (
        token,
        request.trial_id,
        request.config,
        request.budget_fraction,
        request.seed,
        getattr(request, "telemetry", 0),
        getattr(request, "warm_states", None),
        getattr(request, "capture", False),
    )


def _rung_wide(evaluator) -> bool:
    """Whether the evaluator's *class* defines ``evaluate_many``.

    Resolved on the class, never through ``__getattr__`` delegation:
    wrapper evaluators (test doubles) that override ``evaluate`` and proxy
    every other attribute to the wrapped instance must run through their
    own ``evaluate``, one task at a time.
    """
    return getattr(type(evaluator), "evaluate_many", None) is not None


def _evaluate_tasks(evaluator, tasks):
    """Evaluate task tuples; exceptions come back as failed completions.

    Returns ``(payloads, mega)``: per-task ``(trial_id, ok, result,
    error)`` in task order, plus the call's
    :class:`~repro.learners.batched.MegaBatchStats` when two or more
    tasks went through one ``evaluate_many`` call (else ``None``).

    Every task runs under a generator rebuilt from its own seed.  A
    non-zero telemetry bitmask gives the task a collector (fold/fit
    spans, counters, timings) whose payload rides home on the
    result, stamped with the worker it ran on; the engine detaches it
    before the result is cached or journaled.  A :func:`_rung_wide`
    evaluator gets one call at whatever width arrived; if that raises
    at width > 1 every task is re-run alone through this same function
    (bitwise the same results — seeds are per task), which is what keeps
    guard degradation and error reporting per trial.  Any other
    evaluator is looped over its ``evaluate``, passed the warm-start
    keywords only when set so evaluators predating them keep working.

    Every evaluator call passes the ``executor.evaluate`` fault point
    first: a raise there is a failed trial at width 1 and a rung retry
    above it.
    """
    alone = len(tasks) == 1
    rung_wide = _rung_wide(evaluator)
    if alone or rung_wide:
        try:
            fault_point("executor.evaluate", tasks=len(tasks))
            t0 = time.monotonic()
            specs = [
                (
                    config,
                    budget_fraction,
                    np.random.default_rng(seed),
                    warm,
                    bool(capture),
                    TrialCollector(flags=telemetry) if telemetry else None,
                )
                for _, _, config, budget_fraction, seed, telemetry, warm, capture in tasks
            ]
            mega = None
            if rung_wide:
                results, mega = evaluator.evaluate_many(specs)
            else:
                config, budget_fraction, rng, warm, capture, collector = specs[0]
                kwargs = {}
                if warm is not None:
                    kwargs["warm_states"] = warm
                if capture:
                    kwargs["capture_checkpoints"] = True
                with install_collector(collector):
                    results = [evaluator.evaluate(config, budget_fraction, rng, **kwargs)]
            elapsed = time.monotonic() - t0
            for spec, result in zip(specs, results):
                collector = spec[5]
                if collector is None:
                    continue
                # A lone trial owns the call's wall time; in a wider call the
                # evaluator's apportioned cost is the only per-trial figure.
                collector.observe("trial.execute_s", elapsed if alone else float(result.cost))
                attach_payload(result, collector)
                sidecar = result.__dict__.get(PAYLOAD_ATTR)
                if sidecar is not None and _WORKER_ID is not None:
                    # Stamp where the evaluation physically ran; rides the same
                    # sidecar and is stripped with it before caching/journaling,
                    # so stored results stay byte-identical to an untraced run.
                    sidecar["origin"] = {"pid": os.getpid(), "worker": _WORKER_ID}
            payloads = [(task[1], True, result, None) for task, result in zip(tasks, results)]
            return payloads, (None if alone else mega)
        except Exception as exc:  # noqa: BLE001 — fault tolerance is the point
            if alone:
                return [(tasks[0][1], False, None, f"{type(exc).__name__}: {exc}")], None
            # Retried below, one task at a time; leave a trace of why.
            _flightrec.note("executor.rung_retry", error=type(exc).__name__, tasks=len(tasks))
    return [_evaluate_tasks(evaluator, [task])[0][0] for task in tasks], None


def _watchdog_worker_main(evaluator, conn, worker_id: int, heartbeat_interval: float) -> None:
    """Worker process loop: recv a batch, evaluate it, send one reply, heartbeat.

    The duplex pipe carries batches — lists of task tuples — parent→worker
    and ``("hb",)`` / ``("done", [(token, payload), ...])`` messages
    worker→parent: one reply per batch, in task order.  When
    ``heartbeat_interval`` is positive a background thread emits
    heartbeats even while an evaluation is running, so the parent can tell
    a long evaluation (heartbeats flowing) from a process wedged in
    non-Python code (heartbeats stopped); the parent passes 0 when it runs
    no hang detection, silencing the chatter entirely.  ``None`` is the
    shutdown sentinel; a closed pipe (parent gone) also ends the loop.
    """
    global _WORKER_ID
    _WORKER_ID = worker_id
    _flightrec.note("worker.start", worker=worker_id)
    stop = threading.Event()
    send_lock = threading.Lock()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("hb",))
            except (BrokenPipeError, OSError):
                return

    def _die_with_parent() -> None:
        # A parent killed outright (SIGKILL, os._exit) never EOFs the pipe —
        # siblings inherited its far end at fork — so watch the parent itself
        # rather than block in recv (or a large send) forever.
        mp_connection.wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=_die_with_parent, daemon=True).start()
    if heartbeat_interval > 0:
        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
    try:
        while True:
            try:
                tasks = conn.recv()
            except (EOFError, OSError):
                break
            if tasks is None:
                break
            fault_point("executor.worker.post_recv")
            payloads, mega = _evaluate_tasks(evaluator, tasks)
            if mega is not None and mega.trials:
                sidecar = payloads[0][2].__dict__.get(PAYLOAD_ATTR)
                if sidecar is not None:
                    # The mega-batch summary rides home on the first
                    # trial's sidecar; the engine pops it before the
                    # result is cached or journaled.
                    sidecar["megabatch"] = mega.as_dict()
            try:
                fault_point("executor.worker.pre_send")
                with send_lock:
                    conn.send(("done", [(task[0], out) for task, out in zip(tasks, payloads)]))
            except (BrokenPipeError, OSError):
                break
    finally:
        stop.set()


class TrialExecutor:
    """Abstract submit/wait executor bound to one evaluator.

    Attributes
    ----------
    capacity:
        Number of trials the executor can genuinely run concurrently
        (1 for serial execution, the worker count for a process pool).
    """

    capacity: int = 1

    def bind(self, evaluator) -> None:
        """Attach the evaluator used for every subsequent submission."""
        raise NotImplementedError

    def submit(self, request) -> None:
        """Schedule a prepared request (``trial_id`` and ``seed`` set)."""
        raise NotImplementedError

    def wait_one(self) -> Tuple[int, bool, Optional[EvaluationResult], Optional[str]]:
        """Block until one submission finishes; never raises evaluator errors."""
        raise NotImplementedError

    def pending(self) -> int:
        """Number of submitted-but-uncollected trials."""
        raise NotImplementedError

    def flush_batch(self):
        """Run what :meth:`submit` queued as one rung, if the executor can.

        The engine calls this once per :meth:`~repro.engine.core.TrialEngine.run_batch`
        after submitting the whole rung.  The serial executor evaluates
        the queue in one ``evaluate_many`` call and returns its
        :class:`~repro.learners.batched.MegaBatchStats`; the default
        no-op returns ``None`` and trials run one by one.  Only
        scheduling changes: results are bitwise those of one-by-one
        execution.
        """
        return None

    def shutdown(self) -> None:
        """Release any resources (idempotent)."""

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "TrialExecutor":
        """Support ``with executor: ...`` for deterministic teardown."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Shut the executor down on scope exit."""
        self.shutdown()


class SerialExecutor(TrialExecutor):
    """In-process FIFO executor — the default and the bitwise reference.

    Submissions are queued and only executed inside :meth:`wait_one`, so
    the submit/wait protocol behaves observably like a one-worker pool
    with deterministic completion order.  Running in the caller's process
    it cannot preempt an evaluation, so watchdog timeouts do not apply —
    use :class:`ParallelExecutor` (any worker count, even 1) when hung or
    crashing evaluations must be survivable.
    """

    capacity = 1

    def __init__(self) -> None:
        self._evaluator = None
        self._queue: deque = deque()
        self._completed: deque = deque()

    def bind(self, evaluator) -> None:
        """Attach the evaluator requests will run against."""
        self._evaluator = evaluator

    def submit(self, request) -> None:
        """Queue the request for lazy FIFO execution."""
        if self._evaluator is None:
            raise RuntimeError("SerialExecutor.submit called before bind()")
        self._queue.append(request)

    def flush_batch(self):
        """Evaluate the queued rung in one ``evaluate_many`` call.

        Completions queue up for :meth:`wait_one` in request order.
        Returns ``None`` with the queue untouched — :meth:`wait_one` then
        runs the requests one by one, bitwise-identically — when fewer
        than two requests are queued or the evaluator only has
        ``evaluate``.
        """
        if len(self._queue) < 2 or not _rung_wide(self._evaluator):
            return None
        payloads, mega = _evaluate_tasks(
            self._evaluator, [_task(0, request) for request in self._queue]
        )
        self._queue.clear()
        self._completed.extend(payloads)
        return mega

    def wait_one(self) -> Tuple[int, bool, Optional[EvaluationResult], Optional[str]]:
        """Return the next flushed completion, else execute the oldest request."""
        if self._completed:
            return self._completed.popleft()
        if not self._queue:
            raise RuntimeError("wait_one called with no pending trials")
        request = self._queue.popleft()
        fault_point("executor.serial.pre_execute")
        return _evaluate_tasks(self._evaluator, [_task(0, request)])[0][0]

    def pending(self) -> int:
        """Queued requests plus fused completions awaiting pickup."""
        return len(self._queue) + len(self._completed)


class _WorkerHandle:
    """Parent-side view of one worker process: pipe, queued tasks, deadlines."""

    __slots__ = ("worker_id", "process", "conn", "tasks", "deadline", "last_heartbeat")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: ``(token, trial_id)`` of dispatched-but-unfinished trials, in
        #: dispatch order: at most one entry under a watchdog, a rung's
        #: whole share otherwise.
        self.tasks: Deque[Tuple[int, int]] = deque()
        self.deadline: Optional[float] = None
        self.last_heartbeat = time.monotonic()

    @property
    def idle(self) -> bool:
        return not self.tasks


class ParallelExecutor(TrialExecutor):
    """Watchdog-supervised process pool shipping the evaluator once.

    Parameters
    ----------
    n_workers:
        Worker process count; defaults to ``os.cpu_count()`` (min 1).
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` where
        available (Linux), which inherits the evaluator's data arrays
        copy-on-write and makes even closure-carrying evaluators usable;
        falls back to the platform default elsewhere, in which case the
        evaluator must be picklable (see
        ``SubsetCVEvaluator.__getstate__``).
    trial_timeout:
        Per-trial wall-clock deadline in seconds, measured from dispatch
        to a worker.  On expiry the worker is killed and respawned and the
        trial surfaces as a failed completion with a
        ``"TrialTimeout: ..."`` error, which the engine retries (with
        backoff) or degrades.  ``None`` (default) disables the deadline.
    heartbeat_interval:
        Seconds between worker heartbeats.
    heartbeat_timeout:
        Declare a worker *hung* when no heartbeat has arrived for this
        many seconds while it runs a trial (the worker is killed and
        respawned like a timeout).  ``None`` (default) disables the check
        and the workers' heartbeat threads with it.
    transport:
        How the evaluator's dataset reaches workers; ``"arena"`` is the
        only accepted value.  The pool publishes the dataset once into a
        shared-memory arena (:mod:`repro.engine.arena`) under any start
        method; a platform without shared memory, or a publishing
        failure (size limits), falls back to pickle transport — the
        transport changes, the evaluated bytes do not.  The pool owns the
        arena's lifetime: segments are unlinked in :meth:`shutdown`,
        survive watchdog respawns (the new worker re-attaches), and stale
        segments from a SIGKILLed run are reaped before every publish.

    Notes
    -----
    A crashed worker (``os._exit``, segfault, OOM-kill) never sinks the
    search: its in-flight trials are surfaced as failed completions — which
    the engine retries or degrades — and the pool is brought back to
    ``n_workers`` through :meth:`_leave` + :meth:`_ensure_workers`.
    Supervision happens entirely in the parent over per-worker duplex
    pipes; there is no shared queue a dying worker could leave locked.

    Dispatch is hold, deal, collect.  :meth:`submit` appends to the
    backlog and :meth:`_deal` moves it onto workers, each task to the
    least-loaded live worker, up to the pool's *lane depth*:

    - **no watchdog** (``trial_timeout`` and ``heartbeat_timeout`` both
      ``None``): the depth is unbounded and the deal waits for
      :meth:`flush_batch` (or the next :meth:`wait_one`), so a rung
      travels as one message per worker, each worker runs its share as
      one fused mega-batch and answers with one message; workers skip
      the heartbeat thread and ``wait_one`` blocks on the pipes.
    - **watchdog**: the depth is 1 — every idle worker gets one task, at
      submit time and after every completion — so per-trial deadlines
      stay meaningful, and ``wait_one`` wakes every :data:`POLL_INTERVAL`
      seconds to run the watchdog.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        trial_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.2,
        heartbeat_timeout: Optional[float] = None,
        transport: str = "arena",
    ) -> None:
        if transport != "arena":
            raise ValueError(f"transport must be 'arena', got {transport!r}")
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ValueError(f"trial_timeout must be > 0 or None, got {trial_timeout}")
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0 or None, got {heartbeat_timeout}")
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        if n_workers is None:
            n_workers = max(1, os.cpu_count() or 1)
        self.n_workers = n_workers
        self.capacity = n_workers
        self.trial_timeout = trial_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: Tasks a worker may hold at once: 1 under a watchdog (deadlines are
        #: per trial), ``None`` — a rung's whole share — without one.
        self._lane_depth = (
            1 if trial_timeout is not None or heartbeat_timeout is not None else None
        )
        if start_method is None and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        self._context = multiprocessing.get_context(start_method)
        self._arena: Optional[SharedArena] = None
        self._evaluator = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._backlog: Deque[Tuple] = deque()
        self._completed: Deque[Tuple[int, bool, Optional[EvaluationResult], Optional[str]]] = deque()
        self._next_token = 0
        self._next_worker_id = 0
        #: Lifetime counts of watchdog interventions and pool membership
        #: changes (observability).
        self.respawns = 0
        self.timeouts = 0
        self.joins = 0
        self.leaves = 0

    # -- lifecycle -------------------------------------------------------------

    def bind(self, evaluator) -> None:
        """Attach the evaluator; a new one forces a pool restart."""
        if evaluator is not self._evaluator:
            self.shutdown()
            self._evaluator = evaluator
            self._publish_arena()

    def _publish_arena(self) -> None:
        """Publish the evaluator's dataset into shared memory, if it can.

        Runs when the evaluator class supports
        :meth:`~repro.core.evaluator.SubsetCVEvaluator.share_memory` and
        the platform has shared memory at all.  Any publishing failure
        degrades silently to pickle transport.  Stale segments left by a
        SIGKILLed run (dead owner pid in the segment name) are reaped
        first, so crashed runs cannot leak ``/dev/shm`` space past their
        successor.
        """
        if getattr(type(self._evaluator), "share_memory", None) is None:
            return
        if not arena_available():
            return
        reap_stale()
        try:
            arena = SharedArena()
            self._evaluator.share_memory(arena)
        except ArenaError:
            return
        self._arena = arena

    def _spawn_worker(self) -> _WorkerHandle:
        fault_point("executor.pool.pre_spawn")
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_watchdog_worker_main,
            args=(
                self._evaluator,
                child_conn,
                worker_id,
                # The heartbeat thread only serves hang detection; without
                # it, silence the per-worker chatter entirely.
                self.heartbeat_interval if self.heartbeat_timeout is not None else 0.0,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(worker_id, process, parent_conn)
        self._workers[worker_id] = handle
        self.joins += 1
        return handle

    def _ensure_workers(self) -> int:
        """Join workers until the pool holds ``n_workers``.

        This is the single *join* path: initial spawn and watchdog
        respawn both come through here.  Returns how many workers joined.
        """
        if self._evaluator is None:
            raise RuntimeError("ParallelExecutor.submit called before bind()")
        spawned = 0
        while len(self._workers) < self.n_workers:
            self._spawn_worker()
            spawned += 1
        return spawned

    def _leave(self, handle: _WorkerHandle) -> bool:
        """The single *leave* path: kill one worker and drop it from the pool.

        Returns ``False`` when the worker already left (idempotence — a
        worker can be reported dead through several paths and must only
        leave once).
        """
        if self._workers.pop(handle.worker_id, None) is None:
            return False
        fault_point("executor.pool.pre_leave")
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        self.leaves += 1
        return True

    def pool_stats(self) -> Dict[str, int]:
        """Live pool gauges: target/alive sizes plus lifecycle counters.

        Read by the engine's shutdown snapshot and the /metrics exporter;
        every value is a plain attribute, safe to call from another
        thread between dispatches.
        """
        return {
            "workers": self.n_workers,
            "alive": len(self._workers),
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "joins": self.joins,
            "leaves": self.leaves,
            "arena": int(self._arena is not None),
        }

    # -- dispatch --------------------------------------------------------------

    def submit(self, request) -> None:
        """Append the request to the backlog for the next deal.

        Without a watchdog that is :meth:`flush_batch` (or the next
        :meth:`wait_one`), which sees the rung whole; under one it is
        now, so an idle worker starts at once.
        """
        self._ensure_workers()
        self._backlog.append(_task(self._next_token, request))
        self._next_token += 1
        if self._lane_depth is not None:
            self._deal()

    def flush_batch(self):
        """Deal the submitted rung out; see :meth:`_deal`.

        Returns ``None``: workers fuse, and their summaries ride home on
        telemetry sidecars.
        """
        self._deal()
        return None

    def _deal(self) -> None:
        """The one sender: move the backlog onto workers, up to the lane depth.

        Each task goes to the least-loaded live worker (lowest id on
        ties) with room in its lane, and every worker that gained tasks
        gets them as a single message.  With unbounded depth N tasks over
        W idle workers split ceil(N/W)/floor(N/W) and a lone async
        submission lands on an idle one; at depth 1 every idle worker
        gets one task.  What finds no room — every lane full, or no live
        worker until the pump respawns one — stays in the backlog.
        """
        if not self._backlog:
            return
        workers = [h for h in self._workers.values() if h.process.is_alive()]
        shares: Dict[int, list] = {h.worker_id: [] for h in workers}

        def load(h: _WorkerHandle) -> int:
            return len(h.tasks) + len(shares[h.worker_id])

        while self._backlog and workers:
            handle = min(workers, key=load)
            if self._lane_depth is not None and load(handle) >= self._lane_depth:
                break
            shares[handle.worker_id].append(self._backlog.popleft())
        for handle in workers:
            if shares[handle.worker_id]:
                self._dispatch(handle, shares[handle.worker_id])

    def _dispatch(self, handle: _WorkerHandle, tasks: list) -> None:
        """Send ``tasks`` to one worker as a single message."""
        now = time.monotonic()
        if self.trial_timeout:
            handle.deadline = now + self.trial_timeout  # lane depth is 1
        handle.tasks.extend((task[0], task[1]) for task in tasks)
        handle.last_heartbeat = now
        try:
            fault_point("executor.pool.pre_send")
            handle.conn.send(tasks)
        except (BrokenPipeError, OSError):
            self._retire(handle, f"{WORKER_DIED_PREFIX}: worker pipe closed before dispatch")

    # -- completion ------------------------------------------------------------

    def pending(self) -> int:
        """In-flight trials plus queued tasks plus uncollected completions."""
        in_flight = sum(len(handle.tasks) for handle in self._workers.values())
        return in_flight + len(self._backlog) + len(self._completed)

    def wait_one(self) -> Tuple[int, bool, Optional[EvaluationResult], Optional[str]]:
        """Next completion in any order; watchdog failures count as completions."""
        while not self._completed:
            if not self.pending():
                raise RuntimeError("wait_one called with no pending trials")
            self._deal()  # async callers never flush themselves
            # Without a watchdog there is nothing to periodically check:
            # block on the pipes (a dead worker's EOF wakes the wait too).
            self._pump(None if self._lane_depth is None else POLL_INTERVAL)
            if not self._completed:
                self._run_watchdog()
        if self._lane_depth is not None:
            self._deal()  # a completion or a respawn left a lane empty
        return self._completed.popleft()

    def _pump(self, timeout: Optional[float]) -> None:
        """Drain every readable worker pipe, waiting up to ``timeout``."""
        conns = {handle.conn: handle for handle in self._workers.values()}
        if not conns:
            return
        try:
            ready = mp_connection.wait(list(conns), timeout)
        except OSError:
            ready = []
        for conn in ready:
            self._drain(conns[conn])

    def _drain(self, handle: _WorkerHandle) -> None:
        """Consume every queued message from one worker's pipe."""
        while handle.worker_id in self._workers:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
                fault_point("executor.pool.post_recv")
            except (EOFError, OSError):
                self._retire(handle, f"{WORKER_DIED_PREFIX}: worker process exited unexpectedly")
                return
            kind = message[0]
            if kind == "hb":
                handle.last_heartbeat = time.monotonic()
            elif kind == "done":
                for token, payload in message[1]:
                    if not (handle.tasks and handle.tasks[0][0] == token):
                        # A completion the watchdog already resolved as a
                        # failure; drop it — the retry owns the trial.
                        continue
                    handle.tasks.popleft()
                    handle.deadline = None  # only ever set at lane depth 1
                    self._completed.append(payload)

    def _run_watchdog(self) -> None:
        """Kill/respawn dead, overdue or silent workers; surface their trials."""
        now = time.monotonic()
        for handle in list(self._workers.values()):
            if not handle.process.is_alive():
                # Salvage any result that raced the death before declaring it.
                self._drain(handle)
                if handle.worker_id in self._workers:
                    self._retire(
                        handle, f"{WORKER_DIED_PREFIX}: worker process exited unexpectedly"
                    )
                continue
            if handle.idle:
                continue
            if handle.conn.poll():
                continue  # a completion is waiting; let the next pump collect it
            if handle.deadline is not None and now > handle.deadline:
                self.timeouts += 1
                self._retire(
                    handle,
                    f"{TIMEOUT_ERROR_PREFIX}: trial exceeded trial_timeout="
                    f"{self.trial_timeout}s",
                )
            elif (
                self.heartbeat_timeout is not None
                and now - handle.last_heartbeat > self.heartbeat_timeout
            ):
                self.timeouts += 1
                self._retire(
                    handle,
                    f"{WORKER_HUNG_PREFIX}: no heartbeat for over "
                    f"{self.heartbeat_timeout}s",
                )

    def _retire(self, handle: _WorkerHandle, error: str) -> None:
        """One worker leaves involuntarily; its trials fail; the pool rejoins.

        This *is* the leave+join path: the worker is removed via
        :meth:`_leave`, its in-flight trials surface as failed completions
        and :meth:`_ensure_workers` brings the pool back to ``n_workers``.
        Idempotent per handle: a worker can be reported dead through
        several paths (pipe EOF while draining, ``is_alive`` in the
        watchdog) and must only leave once.
        """
        tasks = list(handle.tasks)
        handle.tasks.clear()
        handle.deadline = None
        if not self._leave(handle):
            return
        recorder = _flightrec.installed()
        if recorder is not None:
            recorder.record(
                "worker.retire",
                worker=handle.worker_id,
                error=error,
                trials=[trial_id for _, trial_id in tasks],
            )
            recorder.dump("watchdog-kill")
        self._completed.extend((trial_id, False, None, error) for _, trial_id in tasks)
        if self._evaluator is not None:
            self.respawns += self._ensure_workers()

    # -- teardown --------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker (graceful, then forceful) and forget all state."""
        for handle in self._workers.values():
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for handle in self._workers.values():
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._backlog.clear()
        self._completed.clear()
        if self._arena is not None:
            # Unpublish before unlinking so a later pickle of the same
            # evaluator (serial reuse, a different pool) carries real
            # arrays again instead of dangling refs.
            if self._evaluator is not None:
                try:
                    self._evaluator.unshare_memory()
                except Exception:  # noqa: BLE001 - teardown must not raise
                    pass
            self._arena.close()
            self._arena = None
