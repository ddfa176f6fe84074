"""Typed guard events: the audit trail of every graceful degradation.

Whenever guarded code repairs, clamps, shrinks or substitutes something
instead of crashing, it records a :class:`GuardEvent` into a
:class:`GuardLog`.  Events are plain data (kind + human detail + JSON-able
context), so they serialise into the run journal and survive process
boundaries by riding on
:attr:`~repro.engine.protocol.EvaluationResult.guard_events`.

The ``kind`` vocabulary is dot-namespaced by pipeline stage:

========================  ====================================================
kind                      meaning
========================  ====================================================
``data.nonfinite_cells``  NaN/inf feature cells found (imputed under repair)
``data.nonfinite_targets``  NaN/inf regression targets (rows dropped)
``data.constant_columns``  zero-variance feature columns (dropped)
``data.duplicate_columns``  exact duplicate feature columns (dropped)
``data.single_class``     classification labels hold one class
``data.high_cardinality``  label cardinality close to the sample count
``grouping.n_groups_shrunk``  requested ``v`` exceeded the sample count
``grouping.empty_group_refilled``  Operation 1 left a group empty
``grouping.recluster_fallback``  the ``r_group`` iteration ran out of points
``folds.k_shrunk``        fold counts reduced to fit a small subset
``folds.special_group_reused``  fewer distinct groups than ``k_spe``
``folds.single_class_train``  a training fold held one class
``learner.diverged``      a fit was aborted on exploding / non-finite loss
``learner.fit_error``     a fit raised; the fold was scored at the floor
``scoring.nonfinite_fold``  a non-finite fold score was clamped/dropped
``scoring.gamma_clamped``  an out-of-range sampling percentage was clamped
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["EVENT_KINDS", "GuardEvent", "GuardLog"]

#: The documented event vocabulary (unknown kinds are allowed but new code
#: should extend this set so the taxonomy stays discoverable).
EVENT_KINDS = frozenset(
    {
        "data.nonfinite_cells",
        "data.nonfinite_targets",
        "data.constant_columns",
        "data.duplicate_columns",
        "data.single_class",
        "data.high_cardinality",
        "grouping.n_groups_shrunk",
        "grouping.empty_group_refilled",
        "grouping.recluster_fallback",
        "folds.k_shrunk",
        "folds.special_group_reused",
        "folds.single_class_train",
        "learner.diverged",
        "learner.fit_error",
        "scoring.nonfinite_fold",
        "scoring.gamma_clamped",
    }
)


@dataclass(frozen=True)
class GuardEvent:
    """One recorded degradation.

    Attributes
    ----------
    kind:
        Dot-namespaced event type (see the module table).
    detail:
        Human-readable one-liner.
    context:
        JSON-able scalars pinning down what happened (counts, before/after
        values); keep values to numbers and short strings so events
        serialise into the journal unchanged.
    """

    kind: str
    detail: str = ""
    context: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form used on the wire (journal, results JSON)."""
        payload: Dict[str, Any] = {"kind": self.kind, "detail": self.detail}
        if self.context:
            payload["context"] = dict(self.context)
        return payload

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "GuardEvent":
        """Inverse of :meth:`as_dict`."""
        return GuardEvent(
            kind=str(data.get("kind", "unknown")),
            detail=str(data.get("detail", "")),
            context=dict(data.get("context") or {}),
        )


class GuardLog:
    """Ordered, picklable recorder of :class:`GuardEvent` objects.

    Guarded code receives a log (or ``None`` — recording is always
    optional) and calls :meth:`record`; consumers read :attr:`events`,
    :meth:`counts` or :meth:`as_dicts`.  A log is deliberately cheap:
    recording appends to a list, nothing else, so guards stay well under
    the <5% overhead budget.

    Parameters
    ----------
    policy:
        The guard policy this log was created under (informational; the
        policy is enforced by the code doing the recording).
    """

    def __init__(self, policy: Optional[str] = None) -> None:
        self.policy = policy
        self.events: List[GuardEvent] = []

    def record(self, kind: str, detail: str = "", **context: Any) -> GuardEvent:
        """Append one event and return it."""
        event = GuardEvent(kind=kind, detail=detail, context=context)
        self.events.append(event)
        return event

    def counts(self) -> Dict[str, int]:
        """Event count per kind, insertion-ordered."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def as_dicts(self) -> List[Dict[str, Any]]:
        """All events in wire form (the shape stored on evaluation results)."""
        return [event.as_dict() for event in self.events]

    def extend(self, events: Iterable[GuardEvent]) -> None:
        """Append events recorded elsewhere (e.g. merged from a worker)."""
        self.events.extend(events)

    def clear(self) -> None:
        """Drop all recorded events (the per-evaluation reset)."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        # An empty log is still a real log: truthiness follows existence,
        # not event count, so `if guard:` guards on presence.
        return True

    def __repr__(self) -> str:
        return f"GuardLog(policy={self.policy!r}, events={len(self.events)})"
