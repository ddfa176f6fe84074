"""Trial protocol: the trial record, its identities and per-trial seeds.

:class:`EvaluationResult` is the one record every trial produces — the
paper's ``mu``, ``sigma``, ``gamma`` and Equation 3 score — and its
:meth:`~EvaluationResult.to_dict` / :meth:`~EvaluationResult.from_dict`
pair is the one codec the run journal and ``result.json`` both write it
through.  It lives here, at the bottom of the engine, so the engine never
imports the searchers that consume it.

The engine decouples *what to evaluate* (a :class:`TrialRequest`) from *how
it runs* (an executor).  For the decoupling to be safe the randomness of an
evaluation must not depend on which worker runs it or in which order trials
complete.  :func:`derive_seed` therefore derives every trial's seed purely
from stable facts — the search's root seed, the configuration's
order-independent :func:`~repro.space.config_key`, the budget fraction and
the retry attempt — via a keyed BLAKE2b digest.  Two consequences:

- a batch produces bitwise-identical scores under any executor and any
  worker count (the acceptance property of the engine);
- a repeated ``(config, budget)`` pair derives the *same* seed, which is
  what makes memoization in :class:`~repro.engine.cache.EvaluationCache`
  semantically transparent rather than an approximation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..space import config_key

__all__ = ["EvaluationResult", "TrialRequest", "TrialOutcome", "derive_seed"]

#: Digest size (bytes) of the derived seed; 8 bytes -> uint64 seeds.
_SEED_BYTES = 8


@dataclass
class EvaluationResult:
    """Outcome of evaluating one configuration under a partial budget.

    Attributes
    ----------
    mean:
        Average cross-validation score ``mu`` (the vanilla metric).
    std:
        Standard deviation ``sigma`` across folds.
    score:
        Ranking score used for halving; equals ``mean`` for vanilla
        evaluators and ``mu + alpha * beta(gamma) * sigma`` (Equation 3) for
        the enhanced evaluator.
    gamma:
        Subset size as a percentage of the full budget (``gamma`` in the
        paper).
    fold_scores:
        Per-fold validation scores.
    n_instances:
        Number of training instances actually used.
    cost:
        Wall-clock seconds spent on this evaluation.
    guard_events:
        Data-integrity degradations recorded while evaluating, as
        JSON-able dicts (see :mod:`repro.guard.events`).  Kept as plain
        data so the events survive worker-process boundaries and journal
        round-trips; empty when no guard is active.
    """

    mean: float
    std: float
    score: float
    gamma: float
    fold_scores: List[float] = field(default_factory=list)
    n_instances: int = 0
    cost: float = 0.0
    guard_events: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able record, keys in field order (journal lines and
        ``result.json`` are written without ``sort_keys``, so the order is
        part of the on-disk format)."""
        return {
            "mean": self.mean,
            "std": self.std,
            "score": self.score,
            "gamma": self.gamma,
            "fold_scores": list(self.fold_scores),
            "n_instances": self.n_instances,
            "cost": self.cost,
            "guard_events": list(self.guard_events),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EvaluationResult":
        """Inverse of :meth:`to_dict`; raises ``TypeError`` on missing or unknown keys."""
        return cls(**data)


def derive_seed(
    root_seed: Optional[int],
    key: Tuple,
    budget_fraction: float,
    attempt: int = 0,
) -> int:
    """Deterministic uint64 seed for one (config, budget, attempt) trial.

    Parameters
    ----------
    root_seed:
        The search's ``random_state`` (``None`` is treated as 0 so that an
        unseeded search is still internally self-consistent).
    key:
        Stable configuration identity from
        :func:`~repro.space.config_key`; because the key is sorted by
        parameter name, dict insertion order cannot leak into the seed.
    budget_fraction:
        Budget the trial runs at, rounded to 12 decimals before hashing so
        float noise below reproducibility relevance cannot split seeds.
    attempt:
        Retry counter; each retry of a failed trial draws a fresh stream.

    Returns
    -------
    int
        A seed in ``[0, 2**64)`` suitable for ``np.random.default_rng``.

    Notes
    -----
    The digest is computed over ``repr`` of the tuple, not ``hash``:
    Python's string hashing is salted per process, and seeds must agree
    across worker processes and across runs.
    """
    payload = repr(
        (int(root_seed) if root_seed is not None else 0, key, round(float(budget_fraction), 12), int(attempt))
    ).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=_SEED_BYTES).digest()
    return int.from_bytes(digest, "little")


@dataclass
class TrialRequest:
    """A unit of work submitted to the engine: evaluate ``config`` at a budget.

    Attributes
    ----------
    config:
        The hyperparameter configuration to evaluate.
    budget_fraction:
        Fraction of the instance budget, in ``(0, 1]``.
    iteration, bracket:
        Bookkeeping the searcher copies onto its trial record (rung index /
        bracket id).
    trial_id:
        Stable submission index assigned by the engine; outcomes are
        matched back to requests through it, so batch results can be
        returned in request order regardless of completion order.
    seed:
        Derived per-trial seed (filled in by the engine via
        :func:`derive_seed`; pre-setting it overrides derivation).
    key:
        Cached :func:`~repro.space.config_key` of ``config``.
    attempt:
        Retry attempt this request represents (0 = first try).
    telemetry:
        Collection-flag bitmask (see :mod:`repro.telemetry.collect`)
        shipped to the executor so worker processes know what to record;
        0 (the default) keeps evaluation entirely uninstrumented.
    warm_source:
        Budget fraction of the lower-rung checkpoint this trial warm-starts
        from (filled by the engine from its
        :class:`~repro.engine.checkpoint.CheckpointStore`); ``None`` for a
        cold trial.  Part of the trial's identity: cache and journal keys
        gain it as a fourth element, so warm and cold evaluations of the
        same ``(config, budget)`` never alias.
    warm_states:
        The per-fold :class:`~repro.engine.checkpoint.FoldCheckpoint` list
        backing ``warm_source``; shipped to the executor, never journaled
        (the spill directory is the durable copy).
    capture:
        Whether the evaluation should capture per-fold checkpoints for the
        store (set on every trial once a store is configured).
    """

    config: Dict[str, Any]
    budget_fraction: float
    iteration: int = 0
    bracket: int = 0
    trial_id: int = -1
    seed: Optional[int] = None
    key: Optional[Tuple] = None
    attempt: int = 0
    telemetry: int = 0
    warm_source: Optional[float] = None
    warm_states: Optional[list] = None
    capture: bool = False

    def resolved_key(self) -> Tuple:
        """The configuration identity, computing and caching it if needed."""
        if self.key is None:
            self.key = config_key(self.config)
        return self.key


@dataclass
class TrialOutcome:
    """What the engine hands back for one :class:`TrialRequest`.

    Attributes
    ----------
    request:
        The originating request (with ``trial_id`` and ``seed`` filled in).
    result:
        The evaluation result; for a permanently-failed trial this is the
        engine's sentinel worst-score result, so searchers never see an
        exception and simply rank the trial last.
    attempts:
        Number of executions performed (1 = first try succeeded,
        0 = served from cache).
    cache_hit:
        Whether the result came from the evaluation cache (including
        deduplication against an identical in-flight request).
    failed:
        True when every attempt raised and ``result`` is the sentinel.
    error:
        ``"ExcType: message"`` of the last failure, if any attempt failed.
    resumed:
        True when the outcome was replayed from a
        :class:`~repro.engine.journal.RunJournal` written by an earlier
        (possibly interrupted) run instead of being executed.
    journal_seq:
        1-based sequence number of this outcome's journal record, when
        the engine journals (or replayed) it; ``None`` otherwise.  Trace
        spans carry it so a trace links back to the write-ahead log.
    """

    request: TrialRequest
    result: EvaluationResult
    attempts: int = 1
    cache_hit: bool = False
    failed: bool = False
    error: Optional[str] = None
    resumed: bool = False
    journal_seq: Optional[int] = None
