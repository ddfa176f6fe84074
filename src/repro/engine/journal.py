"""Crash-safe run journal: a write-ahead log of trial outcomes.

Long HyperBand-family runs are exactly the workloads whose bracket
structure makes a restart-from-scratch expensive, yet a process crash
used to lose every completed evaluation.  :class:`RunJournal` fixes that
with the classic write-ahead-log recipe:

- the first line of the file is a **header** recording the run's identity
  (root seed, optional metadata such as the searcher name and a
  :func:`space_fingerprint` of the search space);
- every *executed* terminal :class:`~repro.engine.protocol.TrialOutcome`
  — successes and degraded failures alike — becomes one JSON line, and
  lines reach the disk in **commits** (a whole rung from ``run_batch``,
  one record otherwise): one ``write`` and one ``fsync``, finished
  **before** any of the commit's outcomes becomes visible to the
  searcher, so a crash at any instant leaves a valid prefix on disk
  (possibly plus one torn line, which :meth:`RunJournal.read` drops).

Because the engine derives every trial's seed purely from
``(root_seed, config, budget, attempt)`` — see
:func:`~repro.engine.protocol.derive_seed` — a journaled outcome is not
an approximation of what a re-run would produce, it *is* what a re-run
would produce.  Resume therefore needs no searcher-side checkpointing at
all: :class:`~repro.engine.core.TrialEngine` replays the journal into a
lookaside map at :meth:`~repro.engine.core.TrialEngine.bind` time, the
searcher re-executes its (deterministic) schedule, and every already-
durable trial is served instantly with ``resumed=True`` while only the
lost tail is actually evaluated.  The resumed run is bitwise identical
to the uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .._jsonl import read_log
from ..faults.points import fault_point
from ..space import config_from_jsonable, config_to_jsonable
from .cache import EvaluationCache
from .protocol import EvaluationResult, TrialOutcome, TrialRequest, derive_seed

__all__ = [
    "JOURNAL_VERSION",
    "JournalError",
    "RunJournal",
    "replay_key",
    "space_fingerprint",
]

#: On-disk format version; bump when the record schema changes.
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal file is unusable: bad header, version, or identity mismatch."""


def space_fingerprint(space) -> str:
    """Short stable digest of a search space's parameters.

    Built from the parameters' ``repr`` (all of which are
    value-complete: ``Categorical('q', [1, 2])`` etc.), so two processes
    constructing the same space agree on the fingerprint and a journal
    recorded against one space refuses to resume against another.
    """
    payload = repr([repr(p) for p in space.parameters]).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _outcome_to_dict(outcome: TrialOutcome) -> Dict[str, Any]:
    """Serialise an executed terminal outcome to a journal record.

    ``seed``/``attempt`` are those of the final attempt that settled the
    trial; ``warm`` is the donor budget it warm-started from (``None``
    when cold).
    """
    request = outcome.request
    return {
        "type": "outcome",
        "trial_id": request.trial_id,
        "config": config_to_jsonable(request.config),
        "budget_fraction": request.budget_fraction,
        "iteration": request.iteration,
        "bracket": request.bracket,
        "seed": request.seed,
        "attempt": request.attempt,
        "attempts": outcome.attempts,
        "failed": outcome.failed,
        "error": outcome.error,
        "warm": request.warm_source,
        "result": outcome.result.to_dict(),
    }


def _outcome_from_dict(data: Dict[str, Any], seq: int) -> TrialOutcome:
    """Inverse of :func:`_outcome_to_dict`: the outcome, marked replayed
    (``resumed=True``, ``journal_seq=seq``); raises ``KeyError`` when malformed."""
    request = TrialRequest(
        config=config_from_jsonable(data["config"]),
        budget_fraction=float(data["budget_fraction"]),
        iteration=int(data.get("iteration", 0)),
        bracket=int(data.get("bracket", 0)),
        trial_id=int(data.get("trial_id", -1)),
        seed=data.get("seed"),
        attempt=int(data.get("attempt", 0)),
        warm_source=data.get("warm"),
    )
    return TrialOutcome(
        request=request,
        result=EvaluationResult.from_dict(data["result"]),
        attempts=int(data.get("attempts", 1)),
        failed=bool(data.get("failed", False)),
        error=data.get("error"),
        resumed=True,
        journal_seq=seq,
    )


def replay_key(outcome: TrialOutcome, root_seed: Optional[int]) -> Tuple:
    """The engine lookup key a fresh submission of this trial would use.

    Fresh submissions always carry ``attempt=0``, so the key is built from
    the attempt-0 derived seed regardless of how many retries the original
    run needed before the trial settled.  A warm outcome's key carries its
    donor budget as a fourth element, matching
    :meth:`~repro.engine.cache.EvaluationCache.make_key` — so it only
    replays for a resubmission that would warm-start from the same source.
    """
    request = outcome.request
    key = request.resolved_key()
    seed = derive_seed(root_seed, key, request.budget_fraction, 0)
    return EvaluationCache.make_key(key, request.budget_fraction, seed, request.warm_source)


def _normalise_root(root_seed: Optional[int]) -> int:
    """Match :func:`~repro.engine.protocol.derive_seed`'s None-is-zero rule."""
    return int(root_seed) if root_seed is not None else 0


class RunJournal:
    """Append-only fsync'd JSONL log of a run's executed trial outcomes.

    Parameters
    ----------
    path:
        Journal file location; created (with parents) on first open.
    fsync:
        Force each commit to stable storage before it is considered
        durable (default).  ``False`` trades crash safety for speed —
        useful for benchmarking the journaling overhead itself.

    Examples
    --------
    Engines accept the journal (or just its path) directly::

        engine = TrialEngine(executor=SerialExecutor(),
                             journal=RunJournal("run.wal"))
        searcher = HyperBand(space, evaluator, random_state=0, engine=engine)
        searcher.fit(configurations=pool)     # every outcome lands in run.wal

    Re-running the same search against the same journal replays every
    durable trial and only executes what the interrupted run lost.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.header: Optional[Dict[str, Any]] = None
        self._handle = None
        #: Journal lines dropped at open because of a torn/corrupt tail.
        self.dropped_records = 0
        #: 1-based sequence number of the last durable outcome record.
        self.last_seq = 0

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def read(path: Union[str, Path]) -> Tuple[Dict[str, Any], List[TrialOutcome], int]:
        """Parse a journal file into ``(header, outcomes, n_dropped)``.

        Each outcome is the one the engine journaled, with its request
        fields restored, ``resumed=True`` and ``journal_seq`` its 1-based
        record position.  A crash can only ever truncate the file
        mid-line, so parsing stops at the first undecodable or incomplete
        record and reports how many trailing lines were dropped;
        everything before it is trusted.  A missing/invalid header or an
        unsupported version raises :class:`JournalError` — that is
        corruption of a different kind and must not be silently
        "resumed" from.
        """
        return read_log(
            path, "journal", JOURNAL_VERSION, JournalError, kind="outcome",
            decode=_outcome_from_dict,
        )

    # -- writing ---------------------------------------------------------------

    def open(
        self,
        root_seed: Optional[int],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> List[TrialOutcome]:
        """Open for appending, returning every already-durable outcome.

        A fresh file gets a header recording ``root_seed`` and
        ``metadata``; an existing file is replayed and its header verified
        against them — resuming with a different seed, searcher or space
        raises :class:`JournalError` instead of silently mixing two runs.
        Idempotent: re-opening an already-open journal just re-verifies.
        """
        if self._handle is not None:
            self.check_identity(root_seed, metadata)
            return []
        if self.path.exists() and self.path.stat().st_size > 0:
            fault_point("journal.open.pre_replay", path=str(self.path))
            self.header, entries, self.dropped_records = self.read(self.path)
            self.last_seq = len(entries)
            self.check_identity(root_seed, metadata)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.header = {
                "type": "header",
                "version": JOURNAL_VERSION,
                "root_seed": _normalise_root(root_seed),
                "metadata": dict(metadata or {}),
            }
            self._handle = self.path.open("w")
            self._write(json.dumps(self.header, separators=(",", ":")) + "\n", "journal.header")
            return []
        self._handle = self.path.open("a")
        # Cut a torn tail off (and end a last record that lost its newline):
        # a record appended straight after it would be glued onto it —
        # unreadable itself, and hiding every later record from the next replay.
        raw = self.path.read_bytes()
        good = b"\n".join(raw.split(b"\n")[: 1 + len(entries)])
        if raw != good + b"\n":
            self._handle.truncate(len(good))
            self._handle.write("\n")
            self._handle.flush()
        return entries

    def check_identity(
        self, root_seed: Optional[int], metadata: Optional[Dict[str, Any]] = None
    ) -> None:
        """Raise :class:`JournalError` unless header matches this run's identity.

        Metadata keys present in **both** the header and ``metadata`` must
        agree; keys only one side knows about are ignored, so adding a new
        metadata field does not invalidate old journals.
        """
        if self.header is None:
            raise JournalError("journal has no header; call open() first")
        recorded = self.header.get("root_seed")
        if recorded != _normalise_root(root_seed):
            raise JournalError(
                f"journal {self.path} was recorded with root_seed={recorded}, "
                f"cannot resume with root_seed={_normalise_root(root_seed)}"
            )
        stored = self.header.get("metadata") or {}
        for key, value in (metadata or {}).items():
            if key in stored and stored[key] != value:
                raise JournalError(
                    f"journal {self.path} metadata mismatch on {key!r}: "
                    f"recorded {stored[key]!r}, run has {value!r}"
                )

    def append(self, outcome: TrialOutcome, batch: List[str]) -> int:
        """Stage one executed terminal outcome (success or degraded).

        The record's line goes into ``batch`` (a list the caller owns),
        and the caller must :meth:`commit` the batch *before* releasing
        any staged outcome to the searcher — the write-ahead ordering
        that makes every observed result recoverable.  Returns
        the record's 1-based sequence number, which the telemetry layer
        stamps onto trial spans.
        """
        if self._handle is None:
            raise JournalError("journal not open; call open() before append()")
        line = json.dumps(_outcome_to_dict(outcome), separators=(",", ":")) + "\n"
        self.last_seq += 1
        batch.append(line)
        return self.last_seq

    def commit(self, lines: List[str]) -> None:
        """Make staged record lines durable: one write, one fsync."""
        if lines:
            self._write("".join(lines), "journal.commit")

    def _write(self, text: str, site: str) -> None:
        fault_point(site + ".pre_write", handle=self._handle)
        self._handle.write(text)
        self._handle.flush()
        if self.fsync:
            fault_point(site + ".pre_fsync", handle=self._handle)
            os.fsync(self._handle.fileno())
            fault_point(site + ".post_fsync", handle=self._handle)

    def close(self) -> None:
        """Close the underlying file (idempotent); reopening replays it."""
        if self._handle is not None:
            fault_point("journal.close.pre", handle=self._handle)
            self._handle.close()
            self._handle = None

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "RunJournal":
        """Support ``with RunJournal(path) as journal:``."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the file on scope exit."""
        self.close()
