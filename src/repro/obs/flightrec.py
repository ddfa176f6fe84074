"""Flight recorder: a bounded in-process ring of recent operational events.

A :class:`FlightRecorder` keeps the last ``capacity`` events (span closes,
guard trips, fault-point firings, job lifecycle marks) in a fixed-size
ring with lock-free appends — one slot store plus one integer bump per
event, cheap enough to leave armed in production paths.
When something kills the process, the ring is what the post-mortem reads:

- :meth:`FlightRecorder.dump` writes the ring atomically to
  ``flightrec-<pid>-<reason>.json`` (temp file + rename, so a dump can
  never itself be torn);
- processes that can *see* death coming (unhandled exception, SIGTERM,
  a fault-injected crash action, a watchdog retiring a hung worker) dump
  explicitly via the hooks in :func:`install`;
- processes that cannot (SIGKILL, power cut) are covered by the optional
  *spill*: every ``spill_every`` events — and always on ``sticky``
  events like a job dispatch — the events recorded since the previous
  spill are appended, one JSON line each, to
  ``flightrec-<pid>-live.jsonl``, so the file that survives an abrupt
  kill names what was in flight;
- :func:`load` reads either file back into the same payload dict.

The module-global install mirrors :mod:`repro.faults.points`: disarmed,
:func:`note` is a ``None`` check and returns; armed, it appends to the
installed recorder.  A forked worker inherits the parent's installed
recorder and dump directory — ``os.getpid()`` is read at dump time, so
each process's dumps are its own.

Everything here is stdlib-only and imports nothing from the rest of the
repo, so the innermost layers (fault points, span tracer, collectors)
can call :func:`note` without import cycles.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "FLIGHTREC_SCHEMA_VERSION",
    "FlightRecorder",
    "install",
    "uninstall",
    "installed",
    "note",
    "dump_now",
    "load",
]

#: Version stamped into every dump file; bump when the schema changes.
FLIGHTREC_SCHEMA_VERSION = 1

#: Default ring capacity (events retained).
DEFAULT_CAPACITY = 512

#: Periodic spill interval (events) of the recorder :func:`install` builds.
SPILL_EVERY = 32

#: The live file is rewritten down to the ring once it holds this many
#: times ``capacity`` event lines: it never grows without bound, and
#: rewriting costs a third of what appending did since the last rewrite.
_COMPACT_FACTOR = 4


class FlightRecorder:
    """Fixed-capacity event ring with atomic crash dumps.

    Parameters
    ----------
    capacity:
        Events retained; older events are overwritten in ring order.
    dump_dir:
        Directory crash dumps and live spills are written to (created on
        first dump).  ``None`` disables dumping — the ring still records,
        which is what the engine-embedded recorder does until a daemon
        or CLI gives it a home.
    spill_every:
        Append the new events to ``flightrec-<pid>-live.jsonl`` every N
        recorded events (0 disables periodic spilling).  Sticky events
        (``note(..., sticky=True)``) always spill immediately.
    clock:
        Injectable monotonic clock for event timestamps.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Optional[Union[str, Path]] = None,
        spill_every: int = 0,
        clock=time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.spill_every = spill_every
        self.clock = clock
        self._ring: List[Optional[Dict[str, Any]]] = [None] * capacity
        self._seq = 0
        self.dumps_written = 0
        # Live-file state, guarded by ``_spill_lock`` (``record`` never takes
        # it): the process the lock and descriptor belong to, the append
        # descriptor, the event lines the file holds and the sequence
        # number spilled up to.
        self._spill_lock = threading.Lock()
        self._live_pid = os.getpid()
        self._live_fd: Optional[int] = None
        self._live_lines = 0
        self._spilled = 0

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, sticky: bool = False, **fields: Any) -> None:
        """Append one event (lock-free: one slot store, one integer bump).

        Two racing appends can claim the same sequence number and one
        event may be lost — an accepted trade for keeping the hot path
        free of locks; the ring is diagnostics, not a ledger.
        """
        seq = self._seq
        self._seq = seq + 1
        event = {"seq": seq, "t": round(self.clock(), 6), "kind": kind}
        if fields:
            event.update(fields)
        self._ring[seq % self.capacity] = event
        if self.dump_dir is not None and (
            sticky or (self.spill_every and (seq + 1) % self.spill_every == 0)
        ):
            self._spill()

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (a copy; safe to mutate)."""
        seq = self._seq
        if seq <= self.capacity:
            window = self._ring[:seq]
        else:
            pivot = seq % self.capacity
            window = self._ring[pivot:] + self._ring[:pivot]
        return [dict(event) for event in window if event is not None]

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    # -- dumping ---------------------------------------------------------------

    def payload(self, reason: str) -> Dict[str, Any]:
        """The JSON-able dump body (schema documented in OBSERVABILITY.md)."""
        events = self.events()
        return {
            "schema_version": FLIGHTREC_SCHEMA_VERSION,
            "pid": os.getpid(),
            "reason": reason,
            "created_unix": round(time.time(), 3),
            "events_recorded": self._seq,
            "events_retained": len(events),
            "capacity": self.capacity,
            "events": events,
        }

    def dump(self, reason: str, directory: Optional[Union[str, Path]] = None) -> Optional[Path]:
        """Atomically write ``flightrec-<pid>-<reason>.json``; returns the path.

        Returns ``None`` when no directory is configured, and swallows
        write errors — a post-mortem writer must never turn a crash into
        a different crash.
        """
        target_dir = Path(directory) if directory is not None else self.dump_dir
        if target_dir is None:
            return None
        safe_reason = "".join(c if c.isalnum() or c in "-_." else "-" for c in reason)
        path = target_dir / f"flightrec-{os.getpid()}-{safe_reason}.json"
        try:
            self._write_atomic(path, self.payload(reason))
        except OSError:
            return None
        self.dumps_written += 1
        return path

    def _spill(self) -> None:
        """Append the events recorded since the last spill to the live file.

        One ``os.write`` of one JSON line per new event on an ``O_APPEND``
        descriptor, so a spill costs what the new events cost and a kill
        can tear only the last line.  The first spill of a process and
        every spill that finds the file ``_COMPACT_FACTOR`` rings long
        write header + ring to a temp file and rename it over the live
        one instead, so the file always holds at least the last
        ``capacity`` events.  Best-effort: write errors are swallowed.
        """
        pid = os.getpid()
        if pid != self._live_pid:
            # A forked child's first spill: the lock may have been copied
            # mid-hold, and the descriptor is the parent's file.
            self._spill_lock = threading.Lock()
            self._live_pid = pid
            self._live_fd = None
        with self._spill_lock:
            seq = self._seq
            try:
                if (
                    self._live_fd is None
                    or self._live_lines + seq - self._spilled
                    >= _COMPACT_FACTOR * self.capacity
                ):
                    self._rewrite_live(pid, seq)
                else:
                    lines = self._lines(self._spilled, seq)
                    os.write(self._live_fd, "".join(lines).encode("utf-8"))
                    self._live_lines += len(lines)
                self._spilled = seq
            except OSError:
                pass

    def _lines(self, start: int, stop: int) -> List[str]:
        """Events ``start..stop-1`` still in the ring, one JSON line each."""
        lines = []
        for seq in range(max(start, stop - self.capacity), stop):
            event = self._ring[seq % self.capacity]
            if event is not None and event["seq"] == seq:
                lines.append(json.dumps(event) + "\n")
        return lines

    def _rewrite_live(self, pid: int, seq: int) -> None:
        """Replace the live file with header + ring; keep appending to it."""
        path = self.dump_dir / f"flightrec-{pid}-live.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "schema_version": FLIGHTREC_SCHEMA_VERSION,
            "pid": pid,
            "reason": "live",
            "created_unix": round(time.time(), 3),
            "capacity": self.capacity,
        }
        lines = self._lines(0, seq)
        tmp = path.with_name(path.name + f".{pid}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)
        try:
            os.write(fd, (json.dumps(header) + "\n" + "".join(lines)).encode("utf-8"))
            os.replace(tmp, path)
        except OSError:
            os.close(fd)
            raise
        # The descriptor follows the rename: it is the live file's now.
        if self._live_fd is not None:
            os.close(self._live_fd)
        self._live_fd = fd
        self._live_lines = len(lines)

    def close(self) -> None:
        """Release the live file's descriptor (a later spill reopens it)."""
        with self._spill_lock:
            if self._live_fd is not None:
                os.close(self._live_fd)
            self._live_fd = None

    @staticmethod
    def _write_atomic(path: Path, payload: Dict[str, Any]) -> None:
        # Not repro.engine.durability.atomic_publish: dumps run inside the
        # fault observer (the hook every armed fault point calls), so a
        # fault point on this path would recurse.
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n")
        os.replace(tmp, path)


def load(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a crash dump or a live spill back into the dump payload dict.

    A crash dump is one JSON document and is returned as written.  A live
    spill is a header line followed by one event per line; its events come
    back in ``seq`` order under the same keys a dump has.  A kill can only
    tear the last line of a live spill, so reading stops at the first
    line that does not parse and everything before it is trusted.
    """
    text = Path(path).read_text()
    lines = text.split("\n")
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError:
        return json.loads(text)
    events = []
    for line in lines[1:]:
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            break
    payload["events_recorded"] = events[-1]["seq"] + 1 if events else 0
    payload["events_retained"] = len(events)
    payload["events"] = events
    return payload


#: The installed recorder, or ``None`` (the common case — zero cost).
_recorder: Optional[FlightRecorder] = None
_previous_excepthook = None


def installed() -> Optional[FlightRecorder]:
    """The process-wide recorder, or ``None`` when none is installed."""
    return _recorder


def note(kind: str, sticky: bool = False, **fields: Any) -> None:
    """Record one event on the installed recorder.  No-op unless installed."""
    recorder = _recorder
    if recorder is None:
        return
    recorder.record(kind, sticky=sticky, **fields)


def dump_now(reason: str) -> Optional[Path]:
    """Dump the installed recorder (``None`` when absent or undumpable)."""
    recorder = _recorder
    if recorder is None:
        return None
    return recorder.dump(reason)


def _crash_excepthook(exc_type, exc, tb) -> None:
    """sys.excepthook chain link: dump the ring, then defer to the previous."""
    recorder = _recorder
    if recorder is not None:
        recorder.record(
            "crash.exception",
            error=f"{getattr(exc_type, '__name__', exc_type)}: {exc}",
        )
        recorder.dump("exception")
    hook = _previous_excepthook or sys.__excepthook__
    hook(exc_type, exc, tb)


def _fault_observer(site: str, index: int, action: Optional[str]) -> None:
    """repro.faults observer: record every armed hit, dump before actions.

    Registered with :func:`repro.faults.points.set_fault_observer` by
    :func:`install`.  The dump happens *before* the action fires because
    crash actions exit via ``os._exit`` — nothing downstream of the
    action ever runs.
    """
    recorder = _recorder
    if recorder is None:
        return
    if action is None:
        recorder.record("fault.hit", site=site, hit=index)
        return
    recorder.record("fault.fire", site=site, hit=index, action=action)
    recorder.dump(f"fault-{site}")


def install(
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[Union[str, Path]] = None,
    hook_exceptions: bool = True,
) -> FlightRecorder:
    """Install a process-wide flight recorder and wire its crash hooks.

    Without a ``recorder`` it builds one of :data:`DEFAULT_CAPACITY`
    events spilling every :data:`SPILL_EVERY` to ``dump_dir``.

    Idempotent in spirit: installing over an existing recorder replaces
    it (the daemon owns the process; tests install fresh ones per case).
    Hooks wired here:

    - ``sys.excepthook`` — dump on any unhandled exception (chains to the
      previously-installed hook);
    - the :mod:`repro.faults.points` observer — record every armed
      fault-point hit and dump *before* an injected action fires.

    SIGTERM and watchdog-kill dumps are wired at their owners (the serve
    daemon's signal handler, the parallel executor's retire path), which
    know the reason strings.
    """
    global _recorder, _previous_excepthook
    if recorder is None:
        recorder = FlightRecorder(dump_dir=dump_dir, spill_every=SPILL_EVERY)
    elif dump_dir is not None:
        recorder.dump_dir = Path(dump_dir)
    if _recorder is not None and _recorder is not recorder:
        _recorder.close()
    _recorder = recorder
    if hook_exceptions and _previous_excepthook is None:
        _previous_excepthook = sys.excepthook
        sys.excepthook = _crash_excepthook
    from ..faults import points as _points

    _points.set_fault_observer(_fault_observer)
    return recorder


def uninstall() -> Optional[FlightRecorder]:
    """Remove the installed recorder (hooks become no-ops); returns it."""
    global _recorder
    previous = _recorder
    _recorder = None
    if previous is not None:
        previous.close()
    try:
        from ..faults import points as _points

        _points.set_fault_observer(None)
    except ImportError:  # interpreter teardown
        pass
    return previous
