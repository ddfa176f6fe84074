"""The four bench workloads: what runs, on which inputs, and how it is checked.

Constructing a workload *is* its set-up: it generates the inputs from the
seed, starts whatever the workload needs (worker pool, daemon) and runs
one full untimed warm-up pass, including the workload's cross-check.
``run()`` is one timed repetition and returns whatever the program handed
back; ``summarise()`` digests that into a :class:`RunResult` outside the
timed region; ``after_run()`` is untimed clean-up between repetitions;
``close()`` releases everything.

How ``--seed`` makes inputs.  Each library workload draws its training
sample from a fixed population (generated once with a fixed structural
seed), so seeds give different rows of the *same* problem: the search
does comparable work and reaches comparable scores on every seed, and
the spread over seeds measures the machine, not the luck of the draw.
The search's own ``random_state`` is part of the workload definition,
not an input.  The serve workload cannot do this (a job names a registry
dataset and a seed, nothing else), so its jobs are small, a run averages
over many of them, and its score is that of one fixed canary job.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core import MLPModelFactory, make_searcher
from repro.datasets import load_dataset, make_classification
from repro.engine import (
    CheckpointStore,
    ParallelExecutor,
    RunJournal,
    SerialExecutor,
    TrialEngine,
)
from repro.experiments import paper_search_space
from repro.serve import JobSpec, ServeClient, ServeDaemon, incumbent_fingerprint, run_job_local
from repro.space import Categorical, SearchSpace

#: ``random_state`` of every library search: fixes which configurations
#: the brackets draw, hence the architecture mix and the work per search.
SEARCH_SEED = 0

#: Rows in a population per row of a training sample.
POPULATION_FACTOR = 8


class CheckFailed(Exception):
    """A workload's output check did not hold."""


@dataclass
class RunResult:
    """What one repetition produced.

    ``fingerprint`` is the timing-stripped digest of the search (for
    serve: of the round's job fingerprints); ``attempted``/``failed``
    count operations (settled trials, or jobs for serve); ``stats`` are
    the program's own counters for the per-layer report.
    """

    fingerprint: str
    score: float
    attempted: int
    failed: int
    trials: int
    stats: Dict[str, Any] = field(default_factory=dict)


def draw_sample(X: np.ndarray, y: np.ndarray, n: int, seed: int):
    """``n`` rows of the population, chosen by ``seed``."""
    index = np.random.default_rng(seed).choice(len(X), size=n, replace=False)
    return X[index], y[index]


def classification_sample(rows: int, seed: int):
    """``rows`` x 8 two-class sample of a fixed ``make_classification`` population."""
    X, y = make_classification(
        n_samples=POPULATION_FACTOR * rows,
        n_features=8,
        n_classes=2,
        class_sep=1.2,
        flip_y=0.05,
        random_state=0,
    )
    return draw_sample(X, y, rows, seed)


def single_arch_space() -> SearchSpace:
    """192 optimiser settings of one architecture: every fold fuses."""
    return SearchSpace(
        [
            Categorical("learning_rate_init", [1e-3, 2e-3, 3e-3, 5e-3, 1e-2, 2e-2, 3e-2, 5e-2]),
            Categorical("alpha", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]),
            Categorical("momentum", [0.3, 0.5, 0.7, 0.9]),
        ]
    )


def search_result(result, engine: TrialEngine, **extra: Any) -> RunResult:
    """Fold a :class:`~repro.bandit.SearchResult` and its engine stats."""
    stats = engine.stats.as_dict()
    stats["worker_busy_s"] = sum(trial.result.cost for trial in result.trials)
    stats.update(extra)
    return RunResult(
        fingerprint=incumbent_fingerprint(result),
        score=float(result.best_score),
        attempted=result.n_trials,
        failed=int(stats["failures"] + stats["non_finite"]),
        trials=result.n_trials,
        stats=stats,
    )


class Workload:
    """Common shape; subclasses set up in ``__init__`` and define ``run``."""

    name = ""
    #: Whether every repetition must reproduce ``reference.fingerprint``.
    repeats_bitwise = True
    #: Worker processes evaluating trials (0: the bench process does).
    workers = 0

    reference: RunResult

    @property
    def incumbent_score(self) -> float:
        """The workload's score: deterministic for a seed."""
        return self.reference.score

    def run(self) -> Any:
        raise NotImplementedError

    def summarise(self, raw: Any) -> RunResult:
        return search_result(*raw)

    def after_run(self) -> None:
        """Untimed clean-up between repetitions."""

    def close(self) -> None:
        """Release processes, sockets and files."""


class HbPlusPaper(Workload):
    """The paper's headline: HB+ over the Table III grid, serial, in memory.

    Grouping (k-means), general+special folds and the Eq. 3 score all run
    per search; architectures are heterogeneous and a third of the grid is
    ``lbfgs``, so ``core`` and un-fused ``learners`` do most of the work.
    """

    name = "hbplus_paper"

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        rows = 120 if quick else 552
        population = load_dataset(
            "australian", scale=POPULATION_FACTOR * rows / 552.0, random_state=0
        )
        self.X, self.y = draw_sample(population.X_train, population.y_train, rows, seed)
        self.metric = population.metric
        self.space = paper_search_space(4)
        self.pool = self.space.grid()
        self.max_iter = 4 if quick else 30
        self.reference = self.summarise(self.run())

    def run(self):
        engine = TrialEngine(executor=SerialExecutor(), cache=True)
        try:
            searcher = make_searcher(
                "hb+",
                self.space,
                self.X,
                self.y,
                metric=self.metric,
                model_factory=MLPModelFactory(task="classification", max_iter=self.max_iter),
                random_state=SEARCH_SEED,
                engine=engine,
            )
            result = searcher.fit(configurations=self.pool)
        finally:
            engine.shutdown()
        return result, engine


class ShaFusedWide(Workload):
    """The batched kernel's best case: SHA over 192 same-shape configs.

    Every trial of every rung fuses into shared lanes, so
    ``learners.batched`` does most of the work; grouping, special folds
    and the variance term do none; the cache is written and never read.
    """

    name = "sha_fused_wide"

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        rows = 120 if quick else 300
        self.X, self.y = classification_sample(rows, seed)
        self.space = single_arch_space()
        self.pool = self.space.grid()[:24] if quick else self.space.grid()
        self.max_iter = 6 if quick else 60
        self.reference = self.summarise(self.run())
        fused = self.reference.stats["megabatch_trials"]
        if fused != self.reference.trials:
            raise CheckFailed(
                f"{self.name}: {fused} of {self.reference.trials} trials fused, expected all"
            )

    def run(self):
        engine = TrialEngine(executor=SerialExecutor(), cache=True)
        try:
            searcher = make_searcher(
                "sha",
                self.space,
                self.X,
                self.y,
                model_factory=MLPModelFactory(
                    task="classification", max_iter=self.max_iter, hidden_layer_sizes=(8,)
                ),
                random_state=SEARCH_SEED,
                engine=engine,
            )
            result = searcher.fit(configurations=self.pool)
        finally:
            engine.shutdown()
        return result, engine


class HbDurable2w(Workload):
    """The engine's worst case: many short trials, two workers, all durable.

    Vanilla HyperBand with seven brackets of short warm-started trials on
    a two-process pool with arena transport, an fsync'd journal and a
    spilling checkpoint store in a fresh directory per repetition.  The
    kernel does little; dispatch, transport, fsync and spill are on the
    critical path.  The warm-up also *reads* what repetitions write: it
    reopens the journal and spill directory and must replay every trial
    to the same fingerprint.
    """

    name = "hb_durable_2w"
    workers = 2

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        rows = 200 if quick else 1200
        self.X, self.y = classification_sample(rows, seed)
        self.space = single_arch_space()
        self.pool = self.space.grid()
        self.max_iter = 4 if quick else 20
        self.min_budget_fraction = 1.0 / 8.0 if quick else 1.0 / 64.0
        self.workdir = Path(workdir)
        self._runs = 0
        self._run_dir: Optional[Path] = None

        self.reference = self.summarise(self.run())
        replayed = self.summarise(self._search(self._run_dir))
        self.after_run()
        if replayed.fingerprint != self.reference.fingerprint:
            raise CheckFailed(f"{self.name}: journal replay changed the incumbent fingerprint")
        if replayed.stats["resumed"] != self.reference.trials:
            raise CheckFailed(
                f"{self.name}: replay resumed {replayed.stats['resumed']} of "
                f"{self.reference.trials} trials"
            )
        self.replay_stats = replayed.stats

    def run(self):
        self._runs += 1
        self._run_dir = self.workdir / f"durable-{self._runs}"
        return self._search(self._run_dir)

    def _search(self, run_dir: Path):
        engine = TrialEngine(
            executor=ParallelExecutor(n_workers=self.workers, transport="arena"),
            cache=True,
            journal=RunJournal(run_dir / "run.wal"),
            checkpoints=CheckpointStore(spill_dir=run_dir / "checkpoints"),
        )
        try:
            searcher = make_searcher(
                "hb",
                self.space,
                self.X,
                self.y,
                model_factory=MLPModelFactory(
                    task="classification", max_iter=self.max_iter, hidden_layer_sizes=(8,)
                ),
                random_state=SEARCH_SEED,
                searcher_kwargs={"eta": 2.0, "min_budget_fraction": self.min_budget_fraction},
                engine=engine,
                warm_start=True,
            )
            result = searcher.fit(configurations=self.pool)
        finally:
            engine.shutdown()
        return result, engine, run_dir

    def summarise(self, raw) -> RunResult:
        result, engine, run_dir = raw
        spill = (run_dir / "checkpoints").iterdir()
        return search_result(
            result,
            engine,
            journal_bytes=(run_dir / "run.wal").stat().st_size,
            spill_bytes=sum(path.stat().st_size for path in spill),
        )

    def after_run(self) -> None:
        if self._run_dir is not None:
            shutil.rmtree(self._run_dir, ignore_errors=True)
            self._run_dir = None

    def close(self) -> None:
        self.after_run()


class ServeTwoTenant(Workload):
    """The service path: the same layers used differently.

    An in-process daemon with one job thread and one client connection in
    a closed loop.  Each round POSTs three jobs back to back — tenant
    alpha a fresh ``sha+`` (priority 2), tenant beta a duplicate of
    alpha's previous job (served from the shared cache) and a fresh
    ``hb+`` — then polls until all three are terminal.  Cache reads run
    beside writes, every job has its own journal, the registry persists
    each state change and everything crosses HTTP, so a library-path gain
    that taxes the service shows here.

    One job thread is deliberate: two threads convoy on the interpreter
    lock and identical pairs then vary by half their makespan, which no
    estimator repairs; that case is the ``serve.concurrent2_slowdown``
    probe.
    """

    name = "serve_two_tenant"
    repeats_bitwise = False
    #: Seed of the canary job, the same on every ``--seed``: a job's score
    #: depends on its seed far more than on the program (0.59-0.85 over ten
    #: seeds), so the workload's score is that of one fixed job.
    CANARY_SEED = 99

    #: Jobs are small so a run averages over many (a job's cost and score
    #: depend on its seed far more than on the machine).
    BASE = {"dataset": "australian", "hps": 2, "scale": 0.35, "max_iter": 12}

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        self.base = dict(self.BASE, scale=0.1, max_iter=3) if quick else dict(self.BASE)
        self.seed_base = 1000 * (seed + 1)
        self.round = 0
        self.daemon = ServeDaemon(root=Path(workdir) / "serve", port=0, n_workers=1).start()
        self.client = ServeClient(self.daemon.address)
        self.jobs: List[Dict[str, Any]] = []
        try:
            self._previous = dict(
                self.base, tenant="alpha", method="sha+", seed=self.CANARY_SEED, priority=2
            )
            record = self.client.submit(self._previous)
            final = self.client.wait(record["job_id"], poll=0.02)
            if final["state"] != "done":
                raise CheckFailed(f"{self.name}: canary job ended {final['state']}")
            start = time.perf_counter()
            local = run_job_local(JobSpec(**self._previous))
            local_wall = time.perf_counter() - start
            if final["incumbent"]["fingerprint"] != incumbent_fingerprint(local.result):
                raise CheckFailed(f"{self.name}: daemon job differs from run_job_local")
            #: What the service adds to one cold job: submit-to-terminal
            #: through the daemon minus the same spec run directly.
            self.job_overhead_ms = 1000.0 * (
                final["finished_at"] - final["created_at"] - local_wall
            )
            self._previous_fingerprint = final["incumbent"]["fingerprint"]
            self.canary_score = float(final["incumbent"]["best_score"])
            self.reference = self.summarise(self.run())
        except BaseException:
            self.close()
            raise

    @property
    def incumbent_score(self) -> float:
        return self.canary_score

    def _spec(self, tenant: str, method: str, offset: int, priority: int = 1) -> Dict[str, Any]:
        return dict(
            self.base, tenant=tenant, method=method, seed=self.seed_base + offset, priority=priority
        )

    def run(self):
        index = self.round
        self.round += 1
        fresh = self._spec("alpha", "sha+", 100 + index, priority=2)
        duplicate = dict(self._previous, tenant="beta", priority=1)
        other = dict(self._spec("beta", "hb+", 500 + index), trace=True)
        ids = [self.client.submit(spec)["job_id"] for spec in (fresh, duplicate, other)]
        finals = self.client.wait_all(ids, poll=0.02)
        return fresh, [finals[job_id] for job_id in ids]

    def summarise(self, raw) -> RunResult:
        fresh, records = raw
        done = [record for record in records if record["state"] == "done"]
        if len(done) == 3:
            if records[1]["incumbent"]["fingerprint"] != self._previous_fingerprint:
                raise CheckFailed(f"{self.name}: duplicate job differs from its original")
            self._previous = fresh
            self._previous_fingerprint = records[0]["incumbent"]["fingerprint"]
        self.jobs.extend(records)
        # The round's engine counters are the sum of its jobs' own.
        stats: Dict[str, Any] = {"records": records}
        for record in records:
            for key, value in record["engine_stats"].items():
                if key not in ("schema_version", "hit_rate"):
                    stats[key] = stats.get(key, 0) + value
        return RunResult(
            fingerprint="".join(record["incumbent"]["fingerprint"] for record in done),
            score=float(np.mean([record["incumbent"]["best_score"] for record in done])),
            attempted=3,
            failed=3 - len(done),
            trials=sum(record["incumbent"]["n_trials"] for record in done),
            stats=stats,
        )

    def close(self) -> None:
        self.client.close()
        self.daemon.stop()


WORKLOADS = {
    cls.name: cls for cls in (HbPlusPaper, ShaFusedWide, HbDurable2w, ServeTwoTenant)
}
