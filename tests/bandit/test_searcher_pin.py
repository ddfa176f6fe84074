"""Searcher pin: every searcher's seeded runs must reproduce the committed records.

``data/searchers.json`` holds, for every :data:`repro.core.METHODS` name
and a few non-default variants, what a seeded run on one tiny dataset
returned: ``n_trials``, ``best_config``, ``best_score`` and the sha256 of
the canonical trial list (``result_to_dict`` minus ``wall_time``, dumped
with sorted keys).  Each name runs on grid candidates (an explicit pool),
on sampled candidates (``n_configurations``) and with no candidates at
all (the searcher's own default); a run that raises pins its error text.
The evaluator's ``cost`` comes from an injected ticking clock, so the
trial list is a pure function of the code.  The ``ties/`` cases swap in
an evaluator whose scores take three values, so the tie-breaking orders
(promotion, survival and incumbent) are pinned too.  The file is never regenerated
to make this pass: a change to what a searcher evaluates, in what order,
or which incumbent it returns, must fail here.

``PYTHONPATH=src python -m tests.bandit.test_searcher_pin --write``
rewrites the file; that is for a deliberate change of behaviour, named
as such.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import bandit
from repro.core import METHODS
from repro.engine import EvaluationResult
from repro.results import result_to_dict

from .._tiny_problem import (
    GRID_SPACE,
    SAMPLED_SPACE,
    SEED,
    SMALL,
    reference_run,
    tiny_searcher,
    trials_sha256,
)

PINNED = Path(__file__).parent / "data" / "searchers.json"


#: name -> (method, searcher kwargs, candidates mode).
VARIANTS = {
    "sha-clamped": ("sha", {"min_budget_fraction": 0.5}, "grid"),
    "hb-eta2": ("hb", {"eta": 2.0, "min_budget_fraction": 1.0 / 16.0}, "sampled"),
    # eta 1.5 over six brackets: at bracket 5, rung 3 the budget HB
    # accumulates (``*= eta``) differs in the last bit from eta**-5 * eta**3.
    "hb-eta1.5": ("hb", {"eta": 1.5, "min_budget_fraction": 0.13}, "sampled"),
    "asha-1w": ("asha", {"n_workers": 1, "min_budget_fraction": 1.0 / 4.0}, "grid"),
    "asha-3w": ("asha", {"n_workers": 3, "min_budget_fraction": 1.0 / 4.0}, "grid"),
    "pasha-unlock": ("pasha", {"min_budget_fraction": 1.0 / 16.0}, "wide"),
    # Wide tie-heavy pools: ASHA breaks promotion ties by arrival, PASHA by
    # id.  Seed 2 puts tied configurations across a promotion cut whose
    # arrival and id orders differ (seed 11 does not).
    "ties/asha-wide": ("asha", {"random_state": 2}, "ties-wide"),
    "ties/pasha-wide": ("pasha", {"random_state": 2}, "ties-wide"),
}


class ThreeValueEvaluator:
    """Scores of 0, 0.5 or 1 drawn from the trial's own seed: ties everywhere."""

    def evaluate(self, config, budget_fraction, rng):
        score = float(rng.integers(3)) / 2
        return EvaluationResult(
            mean=score, std=0.0, score=score, gamma=100 * budget_fraction, cost=budget_fraction
        )


def _cases():
    cases = {}
    for method in METHODS:
        kwargs = SMALL.get(method.rstrip("+"), {})
        cases[f"{method}/grid"] = (method, None, "grid")  # the determinism reference
        for mode in ("sampled", "default"):
            cases[f"{method}/{mode}"] = (method, kwargs, mode)
        if not method.endswith("+"):
            cases[f"ties/{method}"] = (method, kwargs, "ties")
    for name, (method, kwargs, mode) in VARIANTS.items():
        cases[name] = (method, kwargs, mode)
    return cases


def _fit(method, kwargs, mode):
    """``(searcher, result)`` of one case; ``kwargs=None`` is the shared reference run."""
    if kwargs is None:
        return reference_run(method, False)
    space = GRID_SPACE if mode in ("grid", "ties") else SAMPLED_SPACE
    if mode.startswith("ties"):
        searcher_class = getattr(bandit, METHODS[method][0])
        kwargs = {"random_state": SEED, **kwargs}
        searcher = searcher_class(space, ThreeValueEvaluator(), **kwargs)
    else:
        searcher = tiny_searcher(method, space, kwargs)
    fit_kwargs = {
        "grid": {"configurations": GRID_SPACE.grid()},
        "ties": {"configurations": GRID_SPACE.grid()},
        "sampled": {"n_configurations": 6},
        "wide": {"n_configurations": 16},
        "ties-wide": {"n_configurations": 16},
        "default": {},
    }[mode]
    return searcher, searcher.fit(**fit_kwargs)


def pinned_run(method, kwargs, mode):
    """One pinned run; returns its record (or its error)."""
    try:
        searcher, result = _fit(method, kwargs, mode)
    except ValueError as exc:
        return {"error": str(exc)}
    record = result_to_dict(result)
    out = {
        "n_trials": result.n_trials,
        "best_config": record["best_config"],
        "best_score": record["best_score"],
        "trials_sha256": trials_sha256(result),
    }
    if hasattr(searcher, "final_ceiling_"):
        out["final_ceiling_"] = searcher.final_ceiling_
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_pin_covers_every_method(pinned):
    assert set(pinned) == set(_cases())
    assert pinned["pasha-unlock"]["final_ceiling_"] > 1  # the variant unlocks rungs


@pytest.mark.parametrize("case", sorted(_cases()))
def test_searcher_reproduces_the_pinned_run(case, pinned):
    assert pinned_run(*_cases()[case]) == pinned[case]


if __name__ == "__main__" and "--write" in sys.argv:
    PINNED.parent.mkdir(exist_ok=True)
    records = {case: pinned_run(*spec) for case, spec in sorted(_cases().items())}
    PINNED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
