"""Job execution: one accepted spec run end to end through the engine.

A :class:`~repro.serve.protocol.JobSpec` names a fully deterministic
optimization; this module turns it into actual work:

- :func:`optimize_inputs` — the single source of truth translating a spec
  into :func:`repro.optimize` arguments (dataset load, search space,
  model factory, candidate pool).  The daemon's executor and the local
  reference runner both call it, which is what underwrites the
  daemon-vs-direct equivalence guarantee.
- :func:`execute_job` — the daemon-side path: per-job
  :class:`~repro.engine.journal.RunJournal` under the job directory
  (crash -> replay-resume), the context's shared
  :class:`~repro.engine.cache.EvaluationCache` (cross-tenant reuse),
  per-job :class:`~repro.telemetry.Telemetry` whose trial callback drives
  the live progress counter and the cooperative cancel check.
- :func:`run_job_local` — the same spec run through plain
  ``optimize()``; used by benches and tests as the bitwise reference
  twin of a daemon job.
- :func:`incumbent_fingerprint` — a stable digest of a search result
  (best configuration, best score and every trial's scores; wall time
  and per-trial cost excluded), so "bitwise-equal incumbents" is a
  one-string comparison.

Cancellation is cooperative at trial granularity: the engine emits every
settled trial through the job's telemetry, whose callback raises
:class:`JobCancelled` once the record's cancel event is set — mid-rung, a
job stops after the trial that is currently settling, and everything
already journaled stays durable.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, Dict, Optional

from ..core import MLPModelFactory, optimize
from ..datasets import load_dataset
from ..engine import TrialEngine
from ..experiments import paper_search_space
from ..faults.points import fault_point
from ..obs import flightrec as _flightrec
from ..results import result_to_dict, save_result
from ..telemetry import Telemetry
from .protocol import JobRecord, JobSpec, eval_context
from .registry import JobRegistry, SharedEngineState

__all__ = [
    "JobCancelled",
    "optimize_inputs",
    "run_job_local",
    "execute_job",
    "incumbent_fingerprint",
]

#: Method prefixes that sample their own candidates (no finite grid pool).
_SAMPLING_METHODS = ("bohb", "dehb", "tpe", "smac")


class JobCancelled(Exception):
    """Raised inside a running job once its cancel event is set."""


def optimize_inputs(spec: JobSpec) -> Dict[str, Any]:
    """Translate a spec into :func:`repro.optimize` keyword arguments.

    Mirrors the ``repro tune`` CLI: registry dataset, Table III search
    space, MLP factory with the spec's iteration budget, and a full grid
    pool for finite spaces under non-sampling searchers.  Deterministic:
    equal specs produce equal inputs, bit for bit.
    """
    dataset = load_dataset(spec.dataset, scale=spec.scale, random_state=spec.seed)
    task = "regression" if dataset.task == "regression" else "classification"
    space = paper_search_space(spec.hps)
    use_grid = space.is_finite and not spec.method.lower().startswith(_SAMPLING_METHODS)
    return {
        "X": dataset.X_train,
        "y": dataset.y_train,
        "space": space,
        "method": spec.method,
        "metric": dataset.metric,
        "task": task,
        "model_factory": MLPModelFactory(task=task, max_iter=spec.max_iter),
        "random_state": spec.seed,
        "configurations": space.grid() if use_grid else None,
        "n_configurations": spec.n_configurations,
        "guard": spec.guard,
        "refit": spec.refit,
    }


def incumbent_fingerprint(result) -> str:
    """Stable digest of a search result, excluding measured timings.

    Covers the best configuration, best score and every trial's
    (config, budget, scores) — two runs agree on the fingerprint iff they
    are bitwise-equal searches.  Wall time and per-trial evaluation cost
    are wall-clock measurements, not search decisions, so both are
    stripped before hashing.  JSON float serialisation uses ``repr``, so
    the digest is sensitive to the last bit of every score.
    """
    payload = result_to_dict(result)
    payload.pop("wall_time", None)
    for trial in payload.get("trials", []):
        trial_result = trial.get("result")
        if isinstance(trial_result, dict):
            trial_result.pop("cost", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def _incumbent_summary(outcome, spec: JobSpec) -> Dict[str, Any]:
    """JSON-safe incumbent payload stored on the job record."""
    from ..results import config_to_jsonable

    summary = {
        "best_config": config_to_jsonable(outcome.result.best_config),
        "best_score": outcome.result.best_score,
        "n_trials": outcome.result.n_trials,
        "search_wall_time": outcome.result.wall_time,
        "fingerprint": incumbent_fingerprint(outcome.result),
    }
    if spec.refit:
        summary["train_score"] = outcome.train_score
    return summary


def run_job_local(spec: JobSpec, engine: Optional[TrialEngine] = None):
    """Run one spec through ``optimize()`` directly — the reference twin.

    This *is* ``optimize(**optimize_inputs(spec))`` plus the spec's
    ``warm_start`` (on the default engine unless one is supplied): exactly
    what a standalone user calling :func:`repro.optimize` with the same
    arguments gets.  Returns the
    :class:`~repro.core.enhanced.OptimizationOutcome`.
    """
    return optimize(**optimize_inputs(spec), engine=engine, warm_start=spec.warm_start)


def execute_job(
    record: JobRecord,
    registry: JobRegistry,
    shared: SharedEngineState,
    cancel_event: Optional[threading.Event] = None,
    live=None,
    on_settled: Optional[Callable[[], None]] = None,
) -> JobRecord:
    """Run one dispatched job to a terminal state (daemon-side path).

    Wires the job to the shared warm state of its evaluation context, a
    durable per-job journal (an existing journal from an interrupted
    daemon is replayed, resuming the job bitwise), per-job telemetry with
    the cancel/progress hook, then records the outcome — ``done`` with an
    incumbent summary and engine stats, ``cancelled`` or ``failed``
    otherwise.  Never raises: every exception becomes job state.

    The job's trace (when ``spec.trace`` is on) carries the job id as its
    header ``trace_id`` — deterministic, so a resumed job lands in the same logical trace
    — and opens with a ``serve.job`` root span the engine's run/bracket
    spans hang under.  ``live``, when given, is the daemon's live-job
    table (see :class:`~repro.serve.server.LiveJobs`): the job registers
    its record+telemetry for the duration so ``/metrics`` can export
    trial progress and rung occupancy mid-flight.  ``on_settled``, when
    given, runs once the job's work is over and everything it held is
    released, *before* the terminal state is published (the daemon frees
    the tenant's quota slot there).
    """
    spec = record.spec
    context = eval_context(spec)
    journal_path = registry.journal_path(record.job_id)
    if journal_path.exists() and journal_path.stat().st_size > 0:
        record.resumed += 1

    def _on_trial(telemetry: Telemetry, attrs: Dict[str, Any]) -> None:
        record.trials_done = telemetry.trials_seen
        if cancel_event is not None and cancel_event.is_set():
            raise JobCancelled(record.job_id)

    telemetry = Telemetry(
        trace=str(registry.trace_path(record.job_id)) if spec.trace else None,
        on_trial=_on_trial,
        trace_id=record.job_id,
    )
    engine = TrialEngine(
        cache=shared.cache_for(context),
        journal=str(journal_path),
        checkpoints=shared.checkpoints_for(context) if spec.warm_start else None,
        telemetry=telemetry,
    )
    fault_point("serve.job.pre_mark_running")
    registry.mark_running(record)
    _flightrec.note("job.start", sticky=True, job=record.job_id, tenant=spec.tenant)
    if live is not None:
        live.register(record, telemetry)
    try:
        if cancel_event is not None and cancel_event.is_set():
            raise JobCancelled(record.job_id)
        with telemetry.span(
            "serve.job", job_id=record.job_id, tenant=spec.tenant, method=spec.method
        ):
            outcome = optimize(**optimize_inputs(spec), engine=engine, telemetry=telemetry)
    except JobCancelled:
        state, fields = "cancelled", {"error": "cancelled by request"}
    except Exception as exc:  # job isolation: one bad job must not kill the daemon
        state, fields = "failed", {"error": f"{type(exc).__name__}: {exc}"}
    else:
        state, fields = "done", {}
    finally:
        if live is not None:
            live.unregister(record.job_id)
        engine.shutdown()
        telemetry.close()
        if on_settled is not None:
            on_settled()
    if state == "done":
        fault_point("serve.job.pre_result_write")
        save_result(outcome.result, registry.result_path(record.job_id))
        fields["incumbent"] = _incumbent_summary(outcome, spec)
        fault_point("serve.job.pre_mark_finished")
    # The terminal state is the last thing a job writes: whoever has seen it
    # finds the live table, the journal, the trace file and the tenant's
    # quota slot already settled (an idle daemon scrapes byte-identically).
    registry.mark_finished(
        record,
        state,
        engine_stats=engine.stats.as_dict(),
        metrics=telemetry.registry,
        **fields,
    )
    _flightrec.note("job.finish", job=record.job_id, state=record.state)
    return record
