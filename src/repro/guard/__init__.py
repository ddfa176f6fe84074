"""Data-integrity guard layer: validation, degradation, numerical hardening.

Real-world datasets break the assumptions the evaluation pipeline was
built on: features carry NaN/inf cells, columns are constant or
duplicated, groups end up smaller than the fold counts drawn from them,
and learners diverge into non-finite weights.  This package is the
single place those pathologies are detected, repaired (or refused) and
*recorded*:

- :func:`~repro.guard.validate.validate_dataset` sanitises a dataset at
  pipeline entry under a ``strict | repair | warn | off`` policy and
  returns a structured :class:`~repro.guard.validate.DataReport`;
- :class:`~repro.guard.events.GuardLog` collects typed
  :class:`~repro.guard.events.GuardEvent` records for every graceful
  degradation downstream code performs — shrunken fold counts, re-seeded
  empty clusters, clamped scores, aborted diverging fits — so nothing
  degrades silently;
- events ride on each
  :class:`~repro.engine.protocol.EvaluationResult` into the engine, where
  they are counted in :class:`~repro.engine.EngineStats` and persisted
  by the run journal.

See ``docs/ROBUSTNESS.md`` for the full event taxonomy and policy
semantics.
"""

from .events import EVENT_KINDS, GuardEvent, GuardLog
from .validate import (
    GUARD_POLICIES,
    DataIssue,
    DataReport,
    GuardError,
    GuardWarning,
    validate_dataset,
)

__all__ = [
    "DataIssue",
    "DataReport",
    "EVENT_KINDS",
    "GUARD_POLICIES",
    "GuardError",
    "GuardEvent",
    "GuardLog",
    "GuardWarning",
    "validate_dataset",
]
