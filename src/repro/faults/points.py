"""Fault points: named instrumentation sites on crash-critical paths.

A fault point is one line at a code location whose failure behaviour we
want to be able to *enumerate* rather than sample::

    from ..faults.points import fault_point
    ...
    fault_point("journal.commit.pre_fsync", handle=self._handle)
    os.fsync(self._handle.fileno())

Disarmed (the default, and the only state production code ever sees) the
call is a module-global ``None`` check and returns immediately — no
allocation beyond the (rare) keyword context, no locks, no I/O.  Armed,
the active :class:`FaultController` counts the hit under the site's name
and, when a :class:`~repro.faults.schedule.FaultSchedule` maps
``(site, hit_index)`` to an action, fires it: crash the process, raise,
shear bytes off the file being written, or sleep.

Site names are hierarchical dot-paths (``layer.operation.phase``), e.g.
``checkpoint.segment.pre_replace`` or ``serve.dedup.pre_subscribe``; the
full catalog lives in ``docs/ROBUSTNESS.md``.  Two context keywords are
understood by actions: ``handle`` (an open writable file object — the
truncate action shears its tail) and ``path`` (a filesystem path used
when no handle is available).

Arming is either programmatic (:func:`arm` / :func:`disarm`) or — the
route the ScheduleExplorer uses for its subprocess legs — via the
``REPRO_FAULTS`` environment variable, a JSON object parsed at import::

    {"schedule": [{"site": "...", "hit": 3, "action": "crash"}],
     "census": "/path/to/census.jsonl",
     "claims": "/dir/the/arming/process/owns",
     "flightrec": "/dir/for/flightrec-dumps"}

:func:`arm` writes the variable back, so every child process — a forked
pool worker inherits the controller itself, a spawned one re-arms from
the environment — runs under the same arming.  Hit indices count per
process, so siblings and respawned workers all reach the same
``site#hit``; a scheduled trigger nevertheless fires **once per arming**:
the first process to create the trigger's file in the ``claims``
directory (``O_CREAT | O_EXCL``) fires it, every later arrival passes
through.  A worker crashed at ``executor.evaluate#0`` is therefore
respawned once, not in a loop.  Without a ``claims`` key, :func:`arm`
creates a temporary directory and removes it on :func:`disarm` or exit;
a process that crashes cannot, so harnesses that crash their children
pass one they clean up (the explorer puts it in the plan's directory).

The optional ``flightrec`` key arms a :mod:`repro.obs.flightrec` ring in
the subprocess, so an injected crash leaves a ``flightrec-<pid>-*.json``
post-mortem naming the span that was in flight.

When ``census`` is set, an :mod:`atexit` hook appends one JSON line
``{"pid": ..., "hits": {site: count, ...}}`` to that file on clean
interpreter shutdown (append mode, so forked workers each contribute
their own line).  Crash actions bypass atexit by design — a crashed
process reports nothing, exactly like a real power cut.

This module is imported by the innermost engine layers (journal,
checkpoint stores) and therefore keeps its own imports to the standard
library only.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Dict, Optional

__all__ = [
    "ENV_VAR",
    "FaultController",
    "active_controller",
    "arm",
    "disarm",
    "fault_point",
    "set_fault_observer",
]

#: Environment variable carrying a JSON arming spec to subprocesses.
ENV_VAR = "REPRO_FAULTS"


class FaultController:
    """Counts fault-point hits and fires scheduled actions.

    Parameters
    ----------
    schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule`; ``None``
        means census-only (count hits, never inject).
    census_path:
        Optional path receiving one appended JSON line of hit counts at
        interpreter exit (see module docstring).
    """

    def __init__(self, schedule=None, census_path: Optional[str] = None) -> None:
        self.schedule = schedule
        self.census_path = census_path
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._flushed = False
        #: Directory where firings are claimed (set by :func:`arm`), and the
        #: pid of the process that created it and removes it on disarm.
        self._claims: Optional[str] = None
        self._claims_owner: Optional[int] = None
        #: Flight-recorder dump directory, passed on to child processes.
        self._flightrec: Optional[str] = None

    def hit(self, site: str, context: Dict) -> None:
        """Record one arrival at ``site``; fire the scheduled action if any."""
        with self._lock:
            index = self._hits.get(site, 0)
            self._hits[site] = index + 1
        action = None
        if self.schedule is not None:
            action = self.schedule.action_for(site, index)
            if action is not None and not self._claim(site, index):
                action = None  # another process of this arming fired it
        observer = _observer
        if observer is not None:
            # The observer runs BEFORE the action: crash actions exit via
            # os._exit, so this is the last chance to persist what was in
            # flight (the flight recorder dumps here).
            observer(site, index, str(action) if action is not None else None)
        if action is not None:
            action.fire(site, index, context)

    def _claim(self, site: str, hit: int) -> bool:
        """Whether this process wins the one firing of ``site#hit``."""
        if self._claims is None:
            return True
        try:
            fd = os.open(
                os.path.join(self._claims, f"{site}#{hit}"),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
            )
        except OSError:  # claimed already, or the arming was withdrawn
            return False
        os.close(fd)
        return True

    def to_env(self) -> str:
        """The ``REPRO_FAULTS`` value that re-arms a child process like this one."""
        spec: Dict = {}
        if self.schedule is not None and len(self.schedule):
            spec["schedule"] = self.schedule.to_payload()
        for key, value in (
            ("census", self.census_path),
            ("claims", self._claims),
            ("flightrec", self._flightrec),
        ):
            if value is not None:
                spec[key] = str(value)
        return json.dumps(spec, sort_keys=True)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the per-site hit counts so far."""
        with self._lock:
            return dict(self._hits)

    def flush_census(self) -> None:
        """Append this process's hit counts to the census file (idempotent)."""
        if self.census_path is None or self._flushed:
            return
        self._flushed = True
        line = json.dumps({"pid": os.getpid(), "hits": self.snapshot()}, sort_keys=True)
        with open(self.census_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")


#: The armed controller, or ``None`` (the common case — zero cost).
_controller: Optional[FaultController] = None

#: Optional observer called as ``observer(site, hit_index, action_or_None)``
#: on every *armed* hit, before any action fires.  Installed by the
#: flight recorder (:func:`repro.obs.flightrec.install`); the dependency
#: points the other way — this module never imports the observer's home.
_observer = None


def set_fault_observer(observer) -> None:
    """Install (or clear, with ``None``) the armed-hit observer."""
    global _observer
    _observer = observer


def fault_point(site: str, **context) -> None:
    """Mark a crash-critical code location.  No-op unless armed."""
    controller = _controller
    if controller is None:
        return
    controller.hit(site, context)


def active_controller() -> Optional[FaultController]:
    """The currently armed controller, or ``None``."""
    return _controller


def arm(controller: FaultController) -> FaultController:
    """Install ``controller`` process-wide and export it to child processes.

    A scheduled controller without a claims directory gets a fresh one,
    owned by this process; ``REPRO_FAULTS`` then carries the arming to
    every process started while it holds (see the module docstring).
    """
    global _controller
    if controller.schedule is not None and len(controller.schedule) and controller._claims is None:
        import tempfile  # fault runs only: keeps the disarmed import light

        controller._claims = tempfile.mkdtemp(prefix="repro-faults-")
        controller._claims_owner = os.getpid()
    _controller = controller
    os.environ[ENV_VAR] = controller.to_env()
    return controller


def disarm() -> Optional[FaultController]:
    """Remove the active controller and withdraw ``REPRO_FAULTS``.

    Returns the controller (census is NOT flushed).  A claims directory
    this process created is deleted.
    """
    global _controller
    previous = _controller
    _controller = None
    os.environ.pop(ENV_VAR, None)
    if previous is not None:
        _release_claims(previous)
    return previous


def _release_claims(controller: FaultController) -> None:
    """Delete the controller's claims directory if this process created it."""
    if controller._claims_owner == os.getpid():
        import shutil

        shutil.rmtree(controller._claims, ignore_errors=True)
        controller._claims_owner = None


def _arm_from_env() -> Optional[FaultController]:
    """Arm from ``REPRO_FAULTS`` if present; called once at import."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    try:
        spec = json.loads(raw)
    except ValueError:
        raise RuntimeError(f"{ENV_VAR} is not valid JSON: {raw!r}")
    schedule = None
    triggers = spec.get("schedule")
    if triggers:
        from .schedule import FaultSchedule

        schedule = FaultSchedule.from_payload(triggers)
    controller = FaultController(schedule=schedule, census_path=spec.get("census"))
    controller._claims = spec.get("claims")
    if controller.census_path is not None:
        atexit.register(controller.flush_census)
    flightrec_dir = spec.get("flightrec")
    if flightrec_dir:
        # Deferred, fault-runs-only import: repro.obs.flightrec is itself
        # stdlib-only, and its install() resolves this (already-importing)
        # module through sys.modules, so there is no cycle at runtime.
        from ..obs import flightrec as _flightrec

        controller._flightrec = flightrec_dir
        _flightrec.install(dump_dir=flightrec_dir)
    arm(controller)
    atexit.register(_release_claims, controller)
    return controller


_arm_from_env()
