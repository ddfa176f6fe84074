"""Which callables each layer's spans come from, and the per-layer metrics.

:func:`install` wraps the layers' public entry points (see
:mod:`trace`); :func:`layer_metrics` turns the spans of the traced
repetitions plus the program's own counters (``EngineStats``,
``MegaBatchStats``, job records — read, never recomputed) into the
metrics ``BENCHMARK.json`` lists under ``per_layer``;
:func:`waterfall` renders the same spans as a markdown time budget, per
layer and per bracket x rung.

Span names are ``<layer>.<part>``; the table in ``README.md`` says
which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import multiprocessing.connection
import multiprocessing.process
import statistics
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict, List, Sequence

import repro.cluster.kmeans
import repro.core.enhanced
import repro.core.grouping
import repro.core.scoring
import repro.datasets
import repro.learners.batched
import repro.serve.jobs
from repro.bandit.base import BaseSearcher
from repro.core.evaluator import SubsetCVEvaluator
from repro.engine import (
    CheckpointStore,
    EvaluationCache,
    ParallelExecutor,
    RunJournal,
    SharedArena,
    TrialEngine,
)
from repro.learners import MLPClassifier, MLPRegressor
from repro.serve import JobRegistry, ServeClient
from repro.telemetry import Telemetry, TraceSink

from trace import Span, Tracer, by_name, descendants, duration, self_times


def _rung_tags(engine, requests) -> Dict[str, Any]:
    first = requests[0]
    return {
        "bracket": first.bracket,
        "rung": first.iteration,
        "budget": round(first.budget_fraction, 6),
        "trials": len(requests),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the report needs."""
    function, method = tracer.patch_function, tracer.patch_method

    function(repro.datasets.load_dataset, "datasets.load")
    function(repro.datasets.make_classification, "datasets.load")

    function(repro.core.grouping.generate_groups, "core.grouping")
    method(repro.cluster.kmeans.KMeans, "fit", "cluster.kmeans")
    method(SubsetCVEvaluator, "evaluate", "core.plan")
    method(SubsetCVEvaluator, "evaluate_many", "core.plan")
    function(repro.core.scoring.ucb_score, "core.scoring")

    function(
        repro.learners.batched.fit_mlp_trials,
        "learners.fit.fused",
        result_attrs=lambda out: {"occupancy": out[1].occupancy},
    )
    function(repro.learners.batched.fit_mlp_folds, "learners.fit.folds")
    method(MLPClassifier, "fit", "learners.fit.sequential")
    method(MLPClassifier, "predict", "learners.score")
    method(MLPRegressor, "predict", "learners.score")

    function(repro.core.enhanced.make_searcher, "bandit.build")
    method(BaseSearcher, "fit", "bandit.fit")

    method(TrialEngine, "run_batch", "engine.run_batch", attrs=_rung_tags)
    method(TrialEngine, "submit", "engine.submit")
    method(TrialEngine, "wait_one", "engine.wait_one")
    method(TrialEngine, "shutdown", "engine.shutdown")
    method(EvaluationCache, "get", "engine.cache")
    method(EvaluationCache, "put", "engine.cache")

    method(ParallelExecutor, "submit", "engine.executor.submit")
    method(ParallelExecutor, "wait_one", "engine.executor.wait")
    method(ParallelExecutor, "shutdown", "engine.pool.shutdown")
    method(multiprocessing.process.BaseProcess, "start", "engine.pool.startup")
    method(
        multiprocessing.connection.Connection,
        "send",
        "engine.transport.send",
        attrs=lambda conn, obj: {"bytes": len(ForkingPickler.dumps(obj))},
    )
    method(
        SharedArena,
        "publish",
        "engine.arena.publish",
        attrs=lambda arena, key, array: {"bytes": int(array.nbytes)},
    )

    method(RunJournal, "open", "engine.journal.open")
    method(RunJournal, "append", "engine.journal.append")
    method(CheckpointStore, "put", "engine.checkpoint.put")
    method(CheckpointStore, "get", "engine.checkpoint.get")
    method(CheckpointStore, "best_source", "engine.checkpoint.get")

    method(ServeClient, "submit", "serve.submit")
    method(ServeClient, "job", "serve.poll")
    method(JobRegistry, "persist", "serve.registry.persist")
    function(repro.serve.jobs.execute_job, "serve.job")

    method(Telemetry, "emit_trial", "telemetry.emit")
    method(TraceSink, "write", "telemetry.sink.write")


#: Span names whose self time is fit-kernel work.
FIT_SPANS = ("learners.fit.fused", "learners.fit.folds", "learners.fit.sequential")
#: Span names whose self time is the engine's own dispatch work.
DISPATCH_SPANS = ("engine.run_batch", "engine.submit", "engine.wait_one", "engine.shutdown")


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    rep_spans: List[Span],
    setup_spans: List[Span],
    reps: int,
    rep_wall: float,
    result,
    workload,
) -> Dict[str, float]:
    """Per-repetition layer metrics from ``reps`` traced repetitions.

    Milliseconds and call counts are per repetition (totals over the
    traced repetitions divided by ``reps``); program counters come from
    the last traced repetition's ``result.stats``.
    """
    table = by_name(rep_spans)
    setup_load_s = sum(duration(span) for span in setup_spans if span["name"] == "datasets.load")

    def ms(name: str, kind: str = "total") -> float:
        return 1000.0 * table.get(name, {}).get(kind, 0.0) / reps

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0) / reps

    def tagged(name: str, tag: str) -> List[float]:
        return [span["attrs"][tag] for span in rep_spans if span["name"] == name]

    stats = result.stats
    busy_s = stats.get("worker_busy_s", 0.0)
    metrics = {
        "datasets.load_ms": 1000.0 * setup_load_s + ms("datasets.load"),
        "core.grouping.calls": calls("core.grouping"),
        "core.grouping.self_ms": ms("core.grouping", "self"),
        "cluster.kmeans.fit_ms": ms("cluster.kmeans"),
        "core.plan.self_ms": ms("core.plan", "self"),
        "core.plan_cache.hits": stats.get("plan_cache_hits", 0),
        "core.plan_cache.misses": stats.get("plan_cache_misses", 0),
        "core.scoring.calls": calls("core.scoring"),
        "core.scoring.self_ms": ms("core.scoring", "self"),
        "learners.fit.calls": sum(calls(name) for name in FIT_SPANS),
        "learners.fit.busy_ms": sum(ms(name, "self") for name in FIT_SPANS),
        "learners.sequential.fits": calls("learners.fit.sequential"),
        "learners.fused.trials": stats.get("megabatch_trials", 0),
        "learners.fused.folds": stats.get("megabatch_folds", 0),
        "learners.fused.lane_occupancy": _mean(tagged("learners.fit.fused", "occupancy")),
        "learners.score.busy_ms": ms("learners.score", "self"),
        "bandit.self_ms": ms("bandit.fit", "self"),
        "bandit.rungs": calls("engine.run_batch"),
        "bandit.trials": result.trials,
        "engine.dispatch.self_ms": sum(ms(name, "self") for name in DISPATCH_SPANS),
        "engine.submitted": stats.get("submitted", 0),
        "engine.executed": stats.get("executed", 0),
        "engine.cache.hits": stats.get("cache_hits", 0),
        "engine.cache.misses": stats.get("cache_misses", 0),
        "engine.cache.self_ms": ms("engine.cache", "self"),
        "engine.pool.startup_ms": ms("engine.pool.startup"),
        "engine.pool.shutdown_ms": ms("engine.pool.shutdown"),
        "engine.executor.wait_ms": ms("engine.executor.wait"),
        "engine.worker.busy_ms": 1000.0 * busy_s if workload.workers else 0.0,
        "engine.worker.utilisation": (
            busy_s / (workload.workers * rep_wall) if workload.workers else 0.0
        ),
        "engine.arena.publish_ms": ms("engine.arena.publish"),
        "engine.arena.bytes_published": sum(tagged("engine.arena.publish", "bytes")) / reps,
        "engine.transport.pickle_bytes": sum(tagged("engine.transport.send", "bytes")) / reps,
        "engine.journal.appends": calls("engine.journal.append"),
        "engine.journal.append_ms": ms("engine.journal.append"),
        "engine.journal.bytes": stats.get("journal_bytes", 0),
        "engine.journal.replay_ms": 0.0,
        "engine.journal.replayed": 0,
        "engine.checkpoint.puts": calls("engine.checkpoint.put"),
        "engine.checkpoint.put_ms": ms("engine.checkpoint.put"),
        "engine.checkpoint.get_ms": ms("engine.checkpoint.get", "self"),
        "engine.checkpoint.warm_hits": stats.get("warm_hits", 0),
        "engine.checkpoint.spill_bytes": stats.get("spill_bytes", 0),
        "telemetry.spans_emitted": calls("telemetry.sink.write"),
        "telemetry.trace_bytes": 0,
        "telemetry.emit_ms": ms("telemetry.emit"),
    }
    replay_stats = getattr(workload, "replay_stats", None)
    if replay_stats is not None:
        # The warm-up's second fit() replays the journal the first wrote:
        # the last journal open of set-up is the one that read it back.
        opens = [span for span in setup_spans if span["name"] == "engine.journal.open"]
        metrics["engine.journal.replay_ms"] = 1000.0 * duration(opens[-1])
        metrics["engine.journal.replayed"] = replay_stats["resumed"]
    metrics.update(serve_metrics(stats.get("records"), table, reps, workload))
    return metrics


def serve_metrics(records, table, reps: int, workload) -> Dict[str, float]:
    """``serve.*`` (and the service-side telemetry bytes); zeros off serve."""
    metrics = {
        "serve.submit_ms": 0.0,
        "serve.queue_wait_ms": 0.0,
        "serve.run_ms.cold": 0.0,
        "serve.run_ms.dup": 0.0,
        "serve.job_overhead_ms": 0.0,
        "serve.dup_hit_rate": 0.0,
        "serve.poll_requests": 0.0,
        "serve.registry.persist_calls": 0.0,
        "serve.registry.persist_ms": 0.0,
        "serve.latency_p50_ms": 0.0,
        "serve.latency_samples": 0,
        "serve.concurrent2_slowdown": 0.0,
    }
    if records is None:
        return metrics
    jobs = workload.jobs  # every job of the run, three per round: fresh, duplicate, fresh
    cold = [job for index, job in enumerate(jobs) if index % 3 != 1]
    dup = jobs[1::3]

    def run_ms(job) -> float:
        return 1000.0 * (job["finished_at"] - job["started_at"])

    submit = table.get("serve.submit", {"calls": 0, "total": 0.0})
    persist = table.get("serve.registry.persist", {"calls": 0, "total": 0.0})
    metrics.update(
        {
            "serve.submit_ms": 1000.0 * submit["total"] / max(1, submit["calls"]),
            "serve.queue_wait_ms": _mean(
                [1000.0 * (job["started_at"] - job["created_at"]) for job in jobs]
            ),
            "serve.run_ms.cold": _mean([run_ms(job) for job in cold]),
            "serve.run_ms.dup": _mean([run_ms(job) for job in dup]),
            "serve.job_overhead_ms": workload.job_overhead_ms,
            "serve.dup_hit_rate": _mean([job["engine_stats"]["hit_rate"] for job in dup]),
            "serve.poll_requests": table.get("serve.poll", {"calls": 0})["calls"] / reps,
            "serve.registry.persist_calls": persist["calls"] / reps,
            "serve.registry.persist_ms": 1000.0 * persist["total"] / reps,
            "serve.latency_p50_ms": statistics.median(
                1000.0 * (job["finished_at"] - job["created_at"]) for job in jobs
            ),
            "serve.latency_samples": len(jobs),
            "telemetry.trace_bytes": sum(
                workload.daemon.registry.trace_path(job["job_id"]).stat().st_size
                for job in records
                if job["spec"]["trace"]
            ),
        }
    )
    return metrics


# -- waterfall -------------------------------------------------------------------


def coverage_pct(rep_spans: List[Span], rep_ids: Sequence[int], rep_wall_total: float) -> float:
    """Share of the repetitions' wall clock spent inside any wrapped callable.

    Counts the spans directly under the ``rep`` root spans — the parent
    process's main thread, which is where the end-to-end clock runs.
    """
    covered = sum(duration(span) for span in rep_spans if span["parent"] in rep_ids)
    return 100.0 * covered / rep_wall_total


def waterfall(name: str, rep_spans: List[Span], reps: int, rep_wall: float) -> str:
    """Markdown time budget of one traced repetition (means over ``reps``)."""
    table = by_name(rep_spans)
    lines = [
        f"# Waterfall: {name}",
        "",
        f"{reps} traced repetition(s), mean wall {1000 * rep_wall:.1f} ms each. Self time is a "
        "span's duration minus its direct children, so the rows of one thread sum to the "
        "time spent inside wrapped callables.",
        "",
        "| span | calls/rep | total ms/rep | self ms/rep | self % of wall |",
        "|---|---:|---:|---:|---:|",
    ]
    for span_name, row in sorted(table.items(), key=lambda item: -item[1]["self"]):
        self_ms = 1000.0 * row["self"] / reps
        lines.append(
            f"| {span_name} | {row['calls'] / reps:.1f} | {1000 * row['total'] / reps:.2f} "
            f"| {self_ms:.2f} | {100 * self_ms / (1000 * rep_wall):.1f} |"
        )

    rungs = [span for span in rep_spans if span["name"] == "engine.run_batch"]
    if rungs:
        own = self_times(rep_spans)
        layers = ("core", "learners", "engine", "cluster", "telemetry")
        lines += [
            "",
            "## Per bracket x rung",
            "",
            "Wall of each `TrialEngine.run_batch` call and the self time below it by layer "
            "(means over the traced repetitions; `engine` includes the wait for workers).",
            "",
            "| bracket | rung | budget | trials | wall ms | " + " | ".join(layers) + " |",
            "|---:|---:|---:|---:|---:|" + "---:|" * len(layers),
        ]
        cells: Dict[tuple, Dict[str, float]] = {}
        for rung in rungs:
            tags = rung["attrs"]
            key = (tags["bracket"], tags["rung"], tags["budget"], tags["trials"])
            cell = cells.setdefault(key, dict.fromkeys(("wall",) + layers, 0.0))
            cell["wall"] += duration(rung)
            for span in [rung] + descendants(rep_spans, rung["id"]):
                layer = span["name"].split(".", 1)[0]
                if layer in cell:
                    cell[layer] += own[span["id"]]
        for (bracket, rung_index, budget, trials), cell in sorted(
            cells.items(), key=lambda item: (-item[0][0], item[0][1])
        ):
            lines.append(
                f"| {bracket} | {rung_index} | {budget:.4f} | {trials} | "
                + " | ".join(f"{1000 * cell[key] / reps:.1f}" for key in ("wall",) + layers)
                + " |"
            )
    return "\n".join(lines) + "\n"
