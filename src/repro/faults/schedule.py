"""Deterministic fault schedules: ``(site, hit_index) -> action`` plans.

A :class:`FaultSchedule` replaces the probability knobs of
:class:`~repro.engine.chaos.ChaosPolicy` with enumeration: it names the
exact arrival (the *k*-th hit of a named fault point) at which a fault
fires, so a crash test is a point in a lattice rather than a dice roll,
and any failure replays from its schedule alone.

Actions are small parsed strings so schedules survive JSON/env transport:

``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — the process dies mid-syscall like a
    power cut; no atexit hooks, no flushes.
``ioerror``
    Raise :class:`OSError` (EIO) at the site — exercises the error paths
    (retry, degrade, quarantine) rather than the resume path.
``enospc``
    Raise :class:`OSError` with ``errno.ENOSPC`` — the disk-full degrade
    contract.
``truncate:N``
    Shear the last ``N`` bytes off the file being written (the site must
    pass ``handle=`` or ``path=`` context), fsync the shear, then crash.
    This simulates a torn write followed by power loss — the nastiest
    ordering the journal/registry readers must tolerate.
``delay:S``
    Sleep ``S`` seconds — a scheduling perturbation, not a failure; used
    to widen race windows in pairwise schedules.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultAction",
    "FaultSchedule",
    "FaultTrigger",
]

#: Exit status of a scheduled ``crash`` action — distinctive, so the
#: explorer can tell an injected crash (86) from an ordinary failure (1).
CRASH_EXIT_CODE = 86

_ACTION_KINDS = ("crash", "ioerror", "enospc", "truncate", "delay")


@dataclass(frozen=True)
class FaultAction:
    """One parsed action: ``kind`` plus an optional numeric ``amount``."""

    kind: str
    amount: float = 0.0

    @classmethod
    def parse(cls, spec: str) -> "FaultAction":
        """Parse ``"crash"`` / ``"truncate:20"`` / ``"delay:0.05"`` forms."""
        kind, _, raw_amount = str(spec).partition(":")
        if kind not in _ACTION_KINDS:
            raise ValueError(f"unknown fault action {spec!r} (want one of {_ACTION_KINDS})")
        amount = 0.0
        if raw_amount:
            amount = float(raw_amount)
            if amount < 0:
                raise ValueError(f"fault action amount must be >= 0, got {spec!r}")
        elif kind in ("truncate", "delay"):
            raise ValueError(f"fault action {kind!r} needs an amount, e.g. {kind}:8")
        return cls(kind=kind, amount=amount)

    def __str__(self) -> str:
        if self.kind in ("truncate", "delay"):
            amount = int(self.amount) if self.amount == int(self.amount) else self.amount
            return f"{self.kind}:{amount}"
        return self.kind

    # -- firing ----------------------------------------------------------------

    def fire(self, site: str, hit: int, context: Dict) -> None:
        """Execute the action at ``site`` hit ``hit``.  May not return."""
        if self.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if self.kind == "ioerror":
            raise OSError(errno.EIO, f"injected I/O error at {site}#{hit}")
        if self.kind == "enospc":
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {site}#{hit}")
        if self.kind == "delay":
            time.sleep(self.amount)
            return
        if self.kind == "truncate":
            self._truncate(context)
            os._exit(CRASH_EXIT_CODE)

    def _truncate(self, context: Dict) -> None:
        """Shear ``amount`` bytes off the context's file, fsync the shear."""
        shear = int(self.amount)
        handle = context.get("handle")
        if handle is not None:
            try:
                handle.flush()
                fd = handle.fileno()
                size = os.fstat(fd).st_size
                os.ftruncate(fd, max(0, size - shear))
                os.fsync(fd)
            except (OSError, ValueError):
                pass
            return
        path = context.get("path")
        if path is not None:
            try:
                size = os.path.getsize(path)
                with open(path, "rb+") as shear_handle:
                    shear_handle.truncate(max(0, size - shear))
                    shear_handle.flush()
                    os.fsync(shear_handle.fileno())
            except OSError:
                pass


@dataclass(frozen=True)
class FaultTrigger:
    """One schedule entry: fire ``action`` at the ``hit``-th arrival at ``site``."""

    site: str
    hit: int
    action: FaultAction

    def to_payload(self) -> Dict:
        """JSON-safe dict form, inverse of :meth:`from_payload`."""
        return {"site": self.site, "hit": self.hit, "action": str(self.action)}

    @classmethod
    def from_payload(cls, payload: Dict) -> "FaultTrigger":
        return cls(
            site=str(payload["site"]),
            hit=int(payload["hit"]),
            action=FaultAction.parse(payload["action"]),
        )


class FaultSchedule:
    """An immutable plan mapping ``(site, hit_index)`` to actions."""

    def __init__(self, triggers: Iterable[FaultTrigger] = ()) -> None:
        self.triggers: Tuple[FaultTrigger, ...] = tuple(triggers)
        self._by_key: Dict[Tuple[str, int], FaultAction] = {
            (t.site, t.hit): t.action for t in self.triggers
        }
        if len(self._by_key) != len(self.triggers):
            raise ValueError("duplicate (site, hit) triggers in schedule")

    def __len__(self) -> int:
        return len(self.triggers)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultSchedule) and self.triggers == other.triggers

    def __hash__(self) -> int:
        return hash(self.triggers)

    def action_for(self, site: str, hit: int) -> Optional[FaultAction]:
        """The action scheduled for the ``hit``-th arrival at ``site``, if any."""
        return self._by_key.get((site, hit))

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``journal.commit.pre_fsync#3=crash``."""
        if not self.triggers:
            return "<empty schedule>"
        return " + ".join(f"{t.site}#{t.hit}={t.action}" for t in self.triggers)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def single(cls, site: str, hit: int, action: str = "crash") -> "FaultSchedule":
        """The one-fault schedule ``site#hit=action``."""
        return cls([FaultTrigger(site=site, hit=hit, action=FaultAction.parse(action))])

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> List[Dict]:
        """JSON-safe list form, inverse of :meth:`from_payload`."""
        return [t.to_payload() for t in self.triggers]

    @classmethod
    def from_payload(cls, payload: Sequence[Dict]) -> "FaultSchedule":
        return cls(FaultTrigger.from_payload(entry) for entry in payload)

    def to_json(self) -> str:
        """Canonical JSON string form, inverse of :meth:`from_json`."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultSchedule":
        return cls.from_payload(json.loads(raw))

    def to_env(self, census_path: Optional[str] = None) -> str:
        """The ``REPRO_FAULTS`` value arming a subprocess with this schedule."""
        spec: Dict = {"schedule": self.to_payload()}
        if census_path is not None:
            spec["census"] = str(census_path)
        return json.dumps(spec, sort_keys=True)
