"""Parallel HPO: real parallel execution vs estimated worker scaling.

ASHA (Li et al., 2018) removes SHA's synchronisation barriers.  Every
search runs on a :class:`repro.engine.TrialEngine`; this example shows
the two questions it answers:

1. **Real execution**: trials are dispatched to a ``SerialExecutor`` or a
   process-pool ``ParallelExecutor``; per-trial derived seeds keep every
   evaluation reproducible, the engine memoizes repeated (config, budget)
   pairs, and ``measured_makespan_`` is actual wall-clock time.
2. **Estimated scaling** (default engine): ``n_workers`` trials are kept
   in flight and ``simulated_makespan_`` list-schedules the measured
   evaluation costs onto ``n_workers`` machines — useful to ask "how long
   would this search take on N machines?" without owning them.

PASHA's progressive rung unlocking is shown alongside: it spends less
total budget when cheap budgets already rank configurations consistently.

Run with::

    python examples/parallel_asha.py [--scale 0.4] [--workers 4]
"""

from __future__ import annotations

import argparse

from repro.bandit import ASHA, PASHA
from repro.core import MLPModelFactory, grouped_evaluator, vanilla_evaluator
from repro.datasets import load_dataset
from repro.engine import ParallelExecutor, SerialExecutor, TrialEngine
from repro.experiments import paper_search_space


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=15)
    parser.add_argument("--workers", type=int, default=4,
                        help="process-pool size for the real-executor run")
    args = parser.parse_args()

    dataset = load_dataset("NTICUSdroid", scale=args.scale, random_state=args.seed)
    space = paper_search_space(2)
    pool = space.grid()
    factory = MLPModelFactory(task="classification", max_iter=args.max_iter)
    print(f"{dataset.name}: {len(pool)} configurations, {dataset.n_train} rows\n")

    # -- real execution through the engine ---------------------------------
    print("engine-backed ASHA (real executors, memoized, fault-tolerant)")
    header = (f"{'executor':<22}{'best cfg acc':>14}{'measured (s)':>14}"
              f"{'cache hits':>12}")
    print(header)
    print("-" * len(header))
    for label, executor, n_workers in (
        ("serial", SerialExecutor(), 1),
        (f"process pool x{args.workers}", ParallelExecutor(n_workers=args.workers), args.workers),
    ):
        evaluator = vanilla_evaluator(dataset.X_train, dataset.y_train, factory,
                                      metric=dataset.metric)
        with TrialEngine(executor=executor) as engine:
            asha = ASHA(space, evaluator, random_state=args.seed,
                        n_workers=n_workers, engine=engine)
            result = asha.fit(configurations=pool)
            model = evaluator.fit_full(result.best_config, random_state=args.seed)
            accuracy = model.score(dataset.X_test, dataset.y_test)
            print(f"{label:<22}{accuracy:>14.4f}{asha.measured_makespan_:>14.2f}"
                  f"{engine.stats.cache_hits:>12}")

    # -- estimated worker scaling (default engine) -------------------------
    print("\nASHA worker scaling (list-schedule estimate over measured costs)")
    header = f"{'searcher':<10}{'workers':>8}{'best cfg acc':>14}{'work (s)':>10}{'est. span (s)':>14}"
    print(header)
    print("-" * len(header))
    for n_workers in (1, 4, 8):
        evaluator = vanilla_evaluator(dataset.X_train, dataset.y_train, factory, metric=dataset.metric)
        asha = ASHA(space, evaluator, random_state=args.seed, n_workers=n_workers)
        result = asha.fit(configurations=pool)
        model = evaluator.fit_full(result.best_config, random_state=args.seed)
        accuracy = model.score(dataset.X_test, dataset.y_test)
        print(f"{'ASHA':<10}{n_workers:>8}{accuracy:>14.4f}"
              f"{result.total_evaluation_cost:>10.1f}{asha.simulated_makespan_:>14.1f}")

    # PASHA / PASHA+ (sequential scheduling; the point is total budget).
    for label, make_evaluator in (
        ("PASHA", lambda: vanilla_evaluator(dataset.X_train, dataset.y_train, factory, metric=dataset.metric)),
        ("PASHA+", lambda: grouped_evaluator(dataset.X_train, dataset.y_train, factory,
                                             metric=dataset.metric, random_state=args.seed)),
    ):
        evaluator = make_evaluator()
        pasha = PASHA(space, evaluator, random_state=args.seed)
        result = pasha.fit(configurations=pool)
        model = evaluator.fit_full(result.best_config, random_state=args.seed)
        accuracy = model.score(dataset.X_test, dataset.y_test)
        budget = sum(t.budget_fraction for t in result.trials)
        print(f"{label:<10}{'-':>8}{accuracy:>14.4f}{result.total_evaluation_cost:>10.1f}"
              f"{'(budget ' + format(budget, '.1f') + ')':>14}")


if __name__ == "__main__":
    main()
