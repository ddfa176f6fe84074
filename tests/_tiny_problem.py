"""The tiny search problem the searcher pin and the determinism contract share.

A 48-row, 4-feature classification set, two small search spaces, the
per-searcher arguments that keep every run small and a ticking clock
that makes evaluation ``cost`` a pure function of the code.
:func:`tiny_searcher` builds one ``make_searcher`` run on it exactly as
``tests/bandit/test_searcher_pin.py`` pins it, and :func:`reference_run`
is the one serial run per method that the pin's ``<method>/grid`` record
and every leg of ``tests/test_determinism.py`` share.
"""

import functools
import hashlib
import json

from repro.core import MLPModelFactory
from repro.core.enhanced import make_searcher
from repro.datasets import make_classification
from repro.results import result_to_dict
from repro.space import Categorical, Float, SearchSpace

#: Root seed of every pinned run.
SEED = 11

GRID_SPACE = SearchSpace(
    [
        Categorical("hidden_layer_sizes", [(3,), (5,)]),
        Categorical("alpha", [1e-4, 1e-2]),
        Categorical("solver", ["adam", "sgd"]),
    ]
)
SAMPLED_SPACE = SearchSpace(
    [
        Categorical("hidden_layer_sizes", [(3,), (5,)]),
        Float("alpha", 0.0, 0.01),
        Float("learning_rate_init", 0.001, 0.1),
    ]
)

#: Searcher arguments that keep every run small; the budgets still give
#: HB-family runs three brackets and ASHA/PASHA four rungs.
SMALL = {
    "hb": {"min_budget_fraction": 1.0 / 9.0},
    "bohb": {"min_budget_fraction": 1.0 / 9.0, "n_candidates": 8},
    "dehb": {"min_budget_fraction": 1.0 / 9.0},
    "asha": {"max_started": 8},
    "pasha": {"max_started": 8},
    "random": {"n_configurations": 5},
    "tpe": {"n_trials": 7, "n_startup": 3, "n_candidates": 8},
    "smac": {"n_trials": 6, "n_startup": 3, "n_candidates": 8, "n_estimators": 3},
}


class TickingClock:
    """Deterministic stand-in for ``time.perf_counter``."""

    def __init__(self, step=0.0125):
        self.step = step
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        return self.ticks * self.step


def tiny_data():
    """The 48-row problem every pinned run searches."""
    return make_classification(n_samples=48, n_features=4, random_state=3)


def tiny_searcher(method, space, kwargs=None, **make_kwargs):
    """``make_searcher(method)`` on the tiny problem, seeded and clocked as pinned.

    ``kwargs`` defaults to the method's :data:`SMALL` entry;
    ``make_kwargs`` (``engine``, ``guard``, ``warm_start``) go to
    :func:`~repro.core.enhanced.make_searcher` unchanged.
    """
    X, y = tiny_data()
    if kwargs is None:
        kwargs = SMALL.get(method.rstrip("+"), {})
    return make_searcher(
        method, space, X, y,
        model_factory=MLPModelFactory(max_iter=3),
        random_state=SEED,
        evaluator_kwargs={"clock": TickingClock()},
        searcher_kwargs=kwargs,
        **make_kwargs,
    )


@functools.lru_cache(maxsize=None)
def reference_run(method, warm_start):
    """``(searcher, result)`` of the serial default-engine run over the grid pool.

    The searcher pin's ``<method>/grid`` record (``warm_start=False``) and
    the reference every leg of ``tests/test_determinism.py`` is held to;
    memoised, so one process runs each once.  Pass both arguments
    positionally: the memo keys on how they are passed.
    """
    searcher = tiny_searcher(method, GRID_SPACE, warm_start=warm_start)
    return searcher, searcher.fit(configurations=GRID_SPACE.grid())


def trials_sha256(result):
    """sha256 of the trial list of ``result_to_dict``, dumped with sorted keys."""
    canonical = json.dumps(result_to_dict(result)["trials"], sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()
