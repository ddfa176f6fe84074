"""Command-line interface.

Subcommands::

    python -m repro datasets                 # list dataset analogues
    python -m repro tune --dataset NAME      # run HPO on one dataset
    python -m repro report --out report.md   # regenerate all experiments
    python -m repro serve --root DIR         # run the HPO service daemon
    python -m repro submit --url U ...       # submit a job to the daemon
    python -m repro jobs --url U [...]       # list/inspect/cancel jobs
    python -m repro obs snapshot [...]       # Prometheus-text metrics snapshot

``tune`` runs any registered method (``sha+``, ``bohb``, ...) on a registry
dataset, prints the chosen configuration with its train/test scores and can
persist the full search record as JSON.  Every run goes through
:class:`repro.engine.TrialEngine` — ``--n-workers``, ``--cache/--no-cache``
and ``--max-retries`` configure it (a process pool when ``--n-workers >
1``; the chosen configuration and all scores are the same at any worker
count) — and the run summary reports the cache hit rate.

Robustness flags: ``--journal PATH`` write-ahead-logs every evaluation so
a crashed run can be continued with ``--resume`` (replaying the durable
trials and reproducing the uninterrupted result bit for bit), and
``--trial-timeout SECONDS`` arms the parallel executor's watchdog so a
hung evaluation is killed, retried with backoff, and eventually degraded
instead of stalling the search forever.  ``--guard POLICY`` switches on
the data-integrity guard layer (:mod:`repro.guard`): dirty datasets are
rejected (``strict``), repaired in a copy (``repair``) or recorded
(``warn``), degenerate grouping/fold cases degrade gracefully, and the
run summary reports every guard event.  The guard policy is part of a
journal's identity, so a ``--resume`` under a different policy refuses
rather than silently mixing scores.

Observability flags (:mod:`repro.telemetry`): ``--trace PATH`` streams a
structured span trace (run > bracket > rung > trial > fold > fit) as
JSONL, convertible to Chrome-trace JSON with ``tools/trace_view.py``;
``--metrics`` prints the merged metric counters/histograms after the
run.  With a tty on stderr either also shows a live one-line progress
ticker.  Telemetry is observational only — the chosen configuration and
all scores are bitwise identical with and without it.

Service verbs (:mod:`repro.serve`): ``serve`` runs the multi-tenant HPO
daemon in the foreground (graceful drain on SIGTERM), ``submit`` posts
one job spec to a running daemon (``--wait`` blocks for the terminal
state and prints the incumbent), and ``jobs`` lists jobs, prints one
record (``--job ID``), cancels cooperatively (``--cancel ID``) or dumps
daemon stats (``--stats``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .datasets import dataset_info_table, list_datasets, load_dataset

__all__ = ["main", "build_parser"]


def _methods():
    from .core import METHODS

    return METHODS


class _MethodChoices:
    """``--method`` choices, read from :data:`repro.core.METHODS` on first use.

    Building the parser must not import the search stack: ``--help``,
    ``datasets`` and ``jobs`` never look at a method name.
    """

    def __iter__(self):
        return iter(sorted(_methods()))

    def __contains__(self, method) -> bool:
        return method in _methods()


def _add_method_flag(parser: argparse.ArgumentParser) -> None:
    # ``add_argument(choices=...)`` would iterate the choices (to check the
    # metavar), so they are attached afterwards: only help and parsing of
    # *this* subcommand read them.
    parser.add_argument("--method", default="sha+").choices = _MethodChoices()


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bandit-based HPO reproduction (ICDE 2024)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets_parser = subparsers.add_parser("datasets", help="list dataset analogues")
    datasets_parser.add_argument("--scale", type=float, default=1.0)

    tune_parser = subparsers.add_parser("tune", help="run HPO on one dataset")
    tune_parser.add_argument("--dataset", required=True, choices=list_datasets())
    _add_method_flag(tune_parser)
    tune_parser.add_argument("--hps", type=int, default=2,
                             help="number of Table III hyperparameters (1-8)")
    tune_parser.add_argument("--scale", type=float, default=0.5)
    tune_parser.add_argument("--seed", type=int, default=0)
    tune_parser.add_argument("--max-iter", type=int, default=25)
    tune_parser.add_argument("--save", default=None, help="write the search record as JSON")
    tune_parser.add_argument("--n-workers", type=_positive_int, default=1,
                             help="evaluation worker processes (>1 enables the parallel executor)")
    tune_parser.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                             help="memoize repeated (config, budget) evaluations (default: on)")
    tune_parser.add_argument("--max-retries", type=int, default=1,
                             help="retries per failed trial before degrading it (default: 1)")
    tune_parser.add_argument("--journal", default=None, metavar="PATH",
                             help="write-ahead log of every evaluation; enables crash-safe resume")
    tune_parser.add_argument("--resume", action="store_true",
                             help="continue an interrupted run from --journal "
                                  "(replays completed trials, executes only the rest)")
    tune_parser.add_argument("--trial-timeout", type=float, default=None, metavar="SECONDS",
                             help="watchdog deadline per evaluation; a hung trial is killed, "
                                  "retried with backoff and finally degraded (implies the "
                                  "parallel executor)")
    tune_parser.add_argument("--warm-start", action="store_true",
                             help="resume each promoted configuration's training from its "
                                  "lower-rung checkpoint instead of re-initialising")
    tune_parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                             help="spill directory making warm-start checkpoints durable; "
                                  "required with --journal, implies --warm-start")
    tune_parser.add_argument("--guard", default="off",
                             choices=["strict", "repair", "warn", "off"],
                             help="data-integrity guard policy: strict rejects dirty data, "
                                  "repair fixes it in a copy, warn only records, off (default) "
                                  "skips all checks")
    tune_parser.add_argument("--trace", default=None, metavar="PATH",
                             help="stream a structured span trace of the run as JSONL "
                                  "(convert with tools/trace_view.py)")
    tune_parser.add_argument("--metrics", action="store_true",
                             help="print the merged telemetry metrics after the run")

    report_parser = subparsers.add_parser("report", help="regenerate every table & figure")
    report_parser.add_argument("--scale", type=float, default=0.3)
    report_parser.add_argument("--seeds", type=int, default=3)
    report_parser.add_argument("--configs", type=int, default=36)
    report_parser.add_argument("--max-iter", type=int, default=12)
    report_parser.add_argument("--out", default=None)

    serve_parser = subparsers.add_parser(
        "serve", help="run the multi-tenant HPO service daemon"
    )
    serve_parser.add_argument("--root", required=True, metavar="DIR",
                              help="serve root: job records, journals, results and "
                                   "checkpoint spills live here (restart-safe)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="bind port (0 picks an ephemeral port, printed at start)")
    serve_parser.add_argument("--workers", type=_positive_int, default=2,
                              help="job-executor threads")
    serve_parser.add_argument("--queue-limit", type=_positive_int, default=64,
                              help="admission queue bound; submits beyond it get 429")
    serve_parser.add_argument("--default-quota", type=_positive_int, default=2,
                              help="max concurrently running jobs per tenant")
    serve_parser.add_argument("--quota", action="append", default=[], metavar="TENANT=N",
                              help="per-tenant quota override (repeatable)")
    serve_parser.add_argument("--max-connections", type=_positive_int, default=64,
                              help="concurrent keep-alive connection cap; connections "
                                   "beyond it are refused with 503 + Retry-After")
    serve_parser.add_argument("--cache-entries", type=_positive_int, default=None,
                              help="LRU bound per shared evaluation cache (default: unbounded)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="emit per-request access logs to stderr")

    submit_parser = subparsers.add_parser(
        "submit", help="submit one job to a running service daemon"
    )
    submit_parser.add_argument("--url", required=True,
                               help="daemon address, e.g. http://127.0.0.1:8123")
    submit_parser.add_argument("--tenant", required=True)
    submit_parser.add_argument("--dataset", required=True, choices=list_datasets())
    _add_method_flag(submit_parser)
    submit_parser.add_argument("--hps", type=int, default=2)
    submit_parser.add_argument("--scale", type=float, default=0.35)
    submit_parser.add_argument("--seed", type=int, default=0)
    submit_parser.add_argument("--max-iter", type=int, default=12)
    submit_parser.add_argument("--priority", type=_positive_int, default=1,
                               help="fair-share weight: a priority-2 tenant is dispatched "
                                    "twice as often as a priority-1 tenant")
    submit_parser.add_argument("--n-configurations", type=_positive_int, default=None)
    submit_parser.add_argument("--guard", default="off",
                               choices=["strict", "repair", "warn", "off"])
    submit_parser.add_argument("--warm-start", action="store_true",
                               help="share the context's durable checkpoint store")
    submit_parser.add_argument("--refit", action="store_true",
                               help="refit the incumbent on the full training split")
    submit_parser.add_argument("--trace", action="store_true",
                               help="stream a telemetry span trace into the job directory")
    _add_client_transport_flags(submit_parser)
    submit_parser.add_argument("--wait", action="store_true",
                               help="block until the job reaches a terminal state")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               help="--wait deadline in seconds")

    jobs_parser = subparsers.add_parser(
        "jobs", help="inspect or cancel jobs on a running service daemon"
    )
    jobs_parser.add_argument("--url", required=True,
                             help="daemon address, e.g. http://127.0.0.1:8123")
    jobs_group = jobs_parser.add_mutually_exclusive_group()
    jobs_group.add_argument("--job", default=None, metavar="ID",
                            help="print one job's full record as JSON")
    jobs_group.add_argument("--cancel", default=None, metavar="ID",
                            help="cooperatively cancel one job")
    jobs_group.add_argument("--stats", action="store_true",
                            help="print daemon stats (queues, tenants, shared cache)")
    _add_client_transport_flags(jobs_parser)

    obs_parser = subparsers.add_parser(
        "obs", help="observability: render metrics snapshots as Prometheus text"
    )
    obs_parser.add_argument("action", choices=["snapshot"],
                            help="snapshot: print a Prometheus-text metrics scrape")
    obs_source = obs_parser.add_mutually_exclusive_group(required=True)
    obs_source.add_argument("--trace", action="append", default=None, metavar="PATH",
                            help="render the final metrics record of a run's trace "
                                 "file (repeatable; multiple files merge)")
    obs_source.add_argument("--url", default=None,
                            help="scrape GET /metrics from a running daemon instead")
    return parser


def _add_client_transport_flags(parser: argparse.ArgumentParser) -> None:
    """Shared ``ServeClient`` transport flags for the submit/jobs verbs."""
    parser.add_argument("--request-timeout", type=float, default=30.0, metavar="SECONDS",
                        help="read timeout per request to the daemon")
    parser.add_argument("--connect-timeout", type=float, default=None, metavar="SECONDS",
                        help="TCP connect timeout (defaults to --request-timeout)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="transport retry budget with seeded jittered backoff "
                             "(0 disables retries)")


def _make_client(args: argparse.Namespace):
    from .serve import ServeClient

    return ServeClient(
        args.url,
        timeout=args.request_timeout,
        connect_timeout=args.connect_timeout,
        retries=args.retries,
    )


def _positive_int(value: str) -> int:
    """Argparse type for flags that must be a strictly positive integer."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _command_datasets(args: argparse.Namespace) -> int:
    print(dataset_info_table(scale=args.scale))
    return 0


def _build_engine(args: argparse.Namespace):
    """Engine from the CLI flags (a plain ``repro tune`` gets the serial one),
    carrying the run's telemetry when ``--trace``/``--metrics`` asked for it.

    ``--trial-timeout`` needs a preemptable evaluation, so it selects the
    (watchdog-equipped) parallel executor even at one worker.
    """
    from .engine import ParallelExecutor, SerialExecutor, TrialEngine

    warm_start = args.warm_start or args.checkpoint_dir is not None
    if args.resume and args.journal is None:
        raise SystemExit("--resume requires --journal")
    if warm_start and args.journal is not None and args.checkpoint_dir is None:
        raise SystemExit("--warm-start with --journal requires --checkpoint-dir "
                         "(journal replay can only re-warm from durable checkpoints)")
    if args.journal is not None:
        journal_path = Path(args.journal)
        if journal_path.exists() and journal_path.stat().st_size > 0 and not args.resume:
            raise SystemExit(
                f"journal {journal_path} already exists; pass --resume to continue "
                "that run, or delete the file to start fresh"
            )
        if args.resume and not journal_path.exists():
            raise SystemExit(f"--resume: journal {journal_path} does not exist")
    if args.n_workers > 1 or args.trial_timeout is not None:
        executor = ParallelExecutor(n_workers=args.n_workers, trial_timeout=args.trial_timeout)
    else:
        executor = SerialExecutor()
    if not warm_start:
        checkpoints = None
    elif args.checkpoint_dir is not None:
        checkpoints = args.checkpoint_dir
    else:
        checkpoints = True
    return TrialEngine(
        executor=executor,
        cache=args.cache,
        max_retries=args.max_retries,
        journal=args.journal,
        checkpoints=checkpoints,
        telemetry=_build_telemetry(args),
    )


def _progress_line(telemetry, attrs) -> None:
    """Live one-line ticker on stderr (installed only when it is a tty)."""
    score = attrs.get("score")
    shown = f"{score:.4f}" if isinstance(score, float) else "-"
    sys.stderr.write(f"\r  trial {telemetry.trials_seen:>4}  last score {shown}  ")
    sys.stderr.flush()


def _build_telemetry(args: argparse.Namespace):
    """Telemetry from the CLI flags, or ``None`` when none were requested."""
    if args.trace is None and not args.metrics:
        return None
    from .telemetry import Telemetry

    on_trial = _progress_line if sys.stderr.isatty() else None
    return Telemetry(trace=args.trace, on_trial=on_trial)


def _command_tune(args: argparse.Namespace) -> int:
    from .core import MLPModelFactory, grid_pool, make_scorer, optimize
    from .experiments import paper_search_space
    from .results import save_result
    from .telemetry.formatting import format_percent

    dataset = load_dataset(args.dataset, scale=args.scale, random_state=args.seed)
    task = "regression" if dataset.task == "regression" else "classification"
    space = paper_search_space(args.hps)
    factory = MLPModelFactory(task=task, max_iter=args.max_iter)
    engine = _build_engine(args)
    telemetry = engine.telemetry
    extras = []
    if args.trial_timeout is not None:
        extras.append(f"trial_timeout {args.trial_timeout}s")
    if args.journal is not None:
        extras.append(f"journal {args.journal}" + (" (resuming)" if args.resume else ""))
    if engine.checkpoints is not None:
        extras.append(
            "warm-start "
            + (f"spill {args.checkpoint_dir}" if args.checkpoint_dir else "in-memory")
        )
    print(f"engine: {type(engine.executor).__name__} x{args.n_workers} workers, "
          f"cache {'on' if engine.cache is not None else 'off'}, "
          f"max_retries {engine.max_retries}"
          + ("".join(f", {extra}" for extra in extras)))
    print(f"tuning {dataset.name} ({dataset.n_train} rows) with {args.method} "
          f"over {space.n_configurations} configurations ...")
    outcome = optimize(
        dataset.X_train,
        dataset.y_train,
        space,
        method=args.method,
        metric=dataset.metric,
        task=task,
        model_factory=factory,
        random_state=args.seed,
        configurations=grid_pool(space, args.method),
        n_configurations=None,
        engine=engine,
        guard=args.guard,
    )
    if telemetry is not None and telemetry.on_trial is not None:
        sys.stderr.write("\r" + " " * 40 + "\r")  # clear the progress ticker
        sys.stderr.flush()
    test_score = make_scorer(dataset.metric)(outcome.model, dataset.X_test, dataset.y_test)
    print(f"best configuration : {outcome.best_config}")
    print(f"train {dataset.metric}      : {outcome.train_score:.4f}")
    print(f"test {dataset.metric}       : {test_score:.4f}")
    print(f"search wall time   : {outcome.result.wall_time:.1f}s over {outcome.result.n_trials} trials")
    stats = engine.stats
    print(f"cache hit rate     : {format_percent(stats.hit_rate)} "
          f"({stats.cache_hits}/{stats.cache_hits + stats.cache_misses} lookups, "
          f"{stats.executed} evaluations run, {stats.retries} retries, "
          f"{stats.failures} degraded)")
    print(f"robustness         : {stats.resumed} resumed from journal, "
          f"{stats.timeouts} watchdog timeouts, {stats.non_finite} non-finite results, "
          f"{stats.guard_events} guard events, "
          f"{stats.journal_commits} journal commits + {stats.spill_segments} spill segments "
          f"for {stats.executed} evaluations")
    if engine.checkpoints is not None:
        total = stats.warm_hits + stats.warm_misses
        print(f"warm start         : {stats.warm_hits}/{total} trials warm-started, "
              f"{stats.checkpoints_stored} checkpoints stored"
              + (f", spilled to {args.checkpoint_dir}" if args.checkpoint_dir else ""))
    engine.shutdown()
    if telemetry is not None:
        telemetry.close()
        if args.trace:
            print(f"trace              : {telemetry.sink.spans_written} spans -> {args.trace}")
        if args.metrics:
            print("telemetry metrics  :")
            for line in telemetry.registry.render_lines():
                print(f"  {line}")
    if args.guard != "off":
        from collections import Counter

        if outcome.data_report is not None:
            print(f"data report        : {outcome.data_report.summary()}")
        counts = Counter(
            event.get("kind", "unknown")
            for trial in outcome.result.trials
            for event in trial.result.guard_events
        )
        detail = ", ".join(f"{kind} x{n}" for kind, n in sorted(counts.items())) or "none"
        print(f"guard [{args.guard:>6}]    : {sum(counts.values())} trial event(s): {detail}")
    if args.save:
        save_result(outcome.result, args.save)
        print(f"search record saved to {args.save}")
    return 0


def _parse_quotas(pairs: List[str]):
    """Parse repeated ``--quota TENANT=N`` flags into a dict (or ``None``)."""
    if not pairs:
        return None
    quotas = {}
    for pair in pairs:
        tenant, sep, value = pair.partition("=")
        if not sep or not tenant:
            raise SystemExit(f"--quota expects TENANT=N, got {pair!r}")
        try:
            quotas[tenant] = int(value)
        except ValueError:
            raise SystemExit(f"--quota {pair!r}: quota must be an integer")
        if quotas[tenant] < 1:
            raise SystemExit(f"--quota {pair!r}: quota must be >= 1")
    return quotas


def _command_serve(args: argparse.Namespace) -> int:
    """Run the service daemon in the foreground until SIGTERM/SIGINT."""
    from .serve import ServeDaemon

    daemon = ServeDaemon(
        root=args.root,
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        max_queued=args.queue_limit,
        default_quota=args.default_quota,
        quotas=_parse_quotas(args.quota),
        cache_entries=args.cache_entries,
        max_connections=args.max_connections,
        verbose=args.verbose,
    )
    print(f"serving on {daemon.address} (root {args.root}, "
          f"{args.workers} workers, queue limit {args.queue_limit})", flush=True)
    daemon.run_forever()
    print("daemon drained and stopped")
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    """Submit one job; optionally block for its terminal state."""
    import json as _json

    from .serve import ServeError

    spec = {
        "tenant": args.tenant,
        "dataset": args.dataset,
        "method": args.method,
        "hps": args.hps,
        "scale": args.scale,
        "seed": args.seed,
        "max_iter": args.max_iter,
        "priority": args.priority,
        "n_configurations": args.n_configurations,
        "guard": args.guard,
        "warm_start": args.warm_start,
        "refit": args.refit,
        "trace": args.trace,
    }
    with _make_client(args) as client:
        try:
            accepted = client.submit(spec)
        except ServeError as exc:
            hint = " (queue full — retry later)" if exc.status == 429 else ""
            hint = " (daemon draining)" if exc.status == 503 else hint
            print(f"submit rejected: {exc}{hint}", file=sys.stderr)
            return 1
        job_id = accepted["job_id"]
        print(f"job {job_id} {accepted['state']} (tenant {args.tenant})")
        if not args.wait:
            return 0
        record = client.wait(job_id, timeout=args.timeout)
    print(f"job {job_id} {record['state']}" +
          (f": {record['error']}" if record.get("error") else ""))
    if record.get("incumbent"):
        print(_json.dumps(record["incumbent"], indent=2))
    return 0 if record["state"] == "done" else 1


def _command_jobs(args: argparse.Namespace) -> int:
    """List, inspect, cancel jobs or print daemon stats."""
    import json as _json

    from .serve import ServeError

    with _make_client(args) as client:
        try:
            if args.stats:
                print(_json.dumps(client.stats(), indent=2))
            elif args.job:
                print(_json.dumps(client.job(args.job), indent=2))
            elif args.cancel:
                outcome = client.cancel(args.cancel)
                print(f"job {args.cancel}: {outcome.get('detail', outcome.get('state'))}")
            else:
                summaries = client.jobs()
                if not summaries:
                    print("no jobs")
                for summary in summaries:
                    score = summary.get("best_score")
                    shown = f"{score:.4f}" if isinstance(score, float) else "-"
                    print(f"{summary['job_id']}  {summary['state']:<9} "
                          f"{summary['tenant']:<12} {summary['dataset']:<12} "
                          f"{summary['method']:<6} trials {summary['trials_done']:>4}  "
                          f"best {shown}")
        except ServeError as exc:
            print(f"request failed: {exc}", file=sys.stderr)
            return 1
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    """``repro obs snapshot`` — Prometheus text from a daemon or trace files.

    ``--url`` scrapes a live daemon's ``/metrics``; ``--trace`` re-renders
    the final metrics snapshot a finished run left in its trace file(s),
    so non-daemon runs get the same diffable scrape format.
    """
    if args.url:
        import urllib.request

        url = args.url.rstrip("/") + "/metrics"
        with urllib.request.urlopen(url, timeout=30.0) as response:
            sys.stdout.write(response.read().decode("utf-8"))
        return 0

    from .obs.prom import render_registry
    from .telemetry import MetricsRegistry, TraceSink

    merged = MetricsRegistry()
    missing = 0
    for path in args.trace:
        try:
            _, records, _ = TraceSink.read(path)
        except (OSError, ValueError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
            missing += 1
            continue
        snapshot = next((r for r in records if r.get("type") == "metrics"), None)
        if snapshot is None:
            print(f"skipping {path}: no metrics record", file=sys.stderr)
            missing += 1
            continue
        merged.merge(MetricsRegistry.from_dict(snapshot))
    sys.stdout.write(render_registry(merged))
    return 0 if missing < len(args.trace) else 1


def _command_report(args: argparse.Namespace) -> int:
    from .experiments.run_all import main as run_all_main

    forwarded = ["--scale", str(args.scale), "--seeds", str(args.seeds),
                 "--configs", str(args.configs), "--max-iter", str(args.max_iter)]
    if args.out:
        forwarded += ["--out", args.out]
    run_all_main(forwarded)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _command_datasets,
        "tune": _command_tune,
        "report": _command_report,
        "serve": _command_serve,
        "submit": _command_submit,
        "jobs": _command_jobs,
        "obs": _command_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
