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
     "flightrec": "/dir/for/flightrec-dumps"}

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

    def hit(self, site: str, context: Dict) -> None:
        """Record one arrival at ``site``; fire the scheduled action if any."""
        with self._lock:
            index = self._hits.get(site, 0)
            self._hits[site] = index + 1
        action = None
        if self.schedule is not None:
            action = self.schedule.action_for(site, index)
        observer = _observer
        if observer is not None:
            # The observer runs BEFORE the action: crash actions exit via
            # os._exit, so this is the last chance to persist what was in
            # flight (the flight recorder dumps here).
            observer(site, index, str(action) if action is not None else None)
        if action is not None:
            action.fire(site, index, context)

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
    """Install ``controller`` as the process-wide fault controller."""
    global _controller
    _controller = controller
    return controller


def disarm() -> Optional[FaultController]:
    """Remove the active controller; returns it (census is NOT flushed)."""
    global _controller
    previous = _controller
    _controller = None
    return previous


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
    if controller.census_path is not None:
        atexit.register(controller.flush_census)
    flightrec_dir = spec.get("flightrec")
    if flightrec_dir:
        # Deferred, fault-runs-only import: repro.obs.flightrec is itself
        # stdlib-only, and its install() resolves this (already-importing)
        # module through sys.modules, so there is no cycle at runtime.
        from ..obs import flightrec as _flightrec

        _flightrec.install(dump_dir=flightrec_dir, spill_every=32)
    return arm(controller)


_arm_from_env()
