"""repro.faults — deterministic failure injection (FoundationDB-style).

The one fault mechanism of the repo: failures are enumerated, not
sampled.  Three layers:

- :mod:`repro.faults.points` — the **fault-point API**: named,
  hierarchical instrumentation sites (``fault_point("journal.commit.pre_fsync")``)
  threaded through every crash-critical path of the engine and the serve
  daemon.  Zero-cost when disarmed; when armed, each site counts its hits
  per run and consults the active schedule.
- :mod:`repro.faults.schedule` — the **FaultSchedule**: a deterministic
  plan mapping ``(site, hit_index) -> action`` where action is one of
  *crash* (``os._exit``), *ioerror* / *enospc* (raised), *truncate:N*
  (shear N bytes off the file being written, then crash — a torn-write
  simulator) or *delay:S*.  Schedules serialize to JSON and transport to
  subprocesses via the ``REPRO_FAULTS`` environment variable; a trigger
  fires once per arming across every process it reaches, so a worker
  killed at ``executor.evaluate`` is respawned once, under ``fork`` or
  ``spawn``.
- :mod:`repro.faults.explore` — the **ScheduleExplorer**: census a
  reference run's fault-point hits, then for every ``(site, k)`` run
  crash-at-hit-``k`` in a subprocess, restart/resume, and assert the
  incumbent fingerprint is bitwise-equal to the uninterrupted run.
  Pairwise schedules under a budget and a greedy shrinker round out the
  harness; ``tools/crashx.py`` is the CLI.

See ``docs/ROBUSTNESS.md`` for the fault-point catalog and the guide to
adding new sites.
"""

from .points import (
    ENV_VAR,
    FaultController,
    active_controller,
    arm,
    disarm,
    fault_point,
)
from .schedule import (
    CRASH_EXIT_CODE,
    FaultAction,
    FaultSchedule,
    FaultTrigger,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FaultAction",
    "FaultController",
    "FaultSchedule",
    "FaultTrigger",
    "active_controller",
    "arm",
    "disarm",
    "fault_point",
]
