"""Trace-format pin: a deterministic traced run must write the committed spans.

``data/pinned_run.trace.json`` holds the records of the traced run below,
minus what is wall-clock by nature: the header's ``created_unix`` and
``pid``, every span's ``t0``, ``dur`` and ``cpu_dur``, and the ``_s``
timing histograms of the final ``metrics`` line.  What is left — span
ids, parent links, names, kinds, attributes, annotations, counters,
gauges and the fold-score histogram — is a pure function of the run.
The run is a seeded grid HB+ on the serial executor with warm starting
on, over a small imbalanced problem whose tiny subsets leave single-class
training folds (guard annotations); the evaluator's ``cost`` comes from
an injected ticking clock.  The file is never regenerated to make this
pass: a change to what the trace records must fail here.
"""

import json
from pathlib import Path

from repro.core import MLPModelFactory
from repro.core.enhanced import make_searcher
from repro.datasets import make_classification
from repro.engine import SerialExecutor, TrialEngine
from repro.space import Categorical, SearchSpace
from repro.telemetry import Telemetry, TraceSink

from .._tiny_problem import TickingClock

PINNED = Path(__file__).parent / "data" / "pinned_run.trace.json"

SPACE = SearchSpace(
    [
        Categorical("hidden_layer_sizes", [(4,), (6,)]),
        Categorical("alpha", [1e-4, 1e-2]),
        Categorical("solver", ["adam", "lbfgs"]),
    ]
)


def traced_run(trace_path):
    """The pinned run; returns the trace file's records."""
    X, y = make_classification(
        n_samples=60, n_features=5, weights=[0.93, 0.07], random_state=4
    )
    telemetry = Telemetry(trace=trace_path)
    engine = TrialEngine(executor=SerialExecutor(), telemetry=telemetry)
    with engine:
        searcher = make_searcher(
            "hb+", SPACE, X, y,
            model_factory=MLPModelFactory(max_iter=4),
            random_state=5,
            evaluator_kwargs={"clock": TickingClock(), "guard_policy": "repair"},
            searcher_kwargs={"min_budget_fraction": 1.0 / 9.0},
            engine=engine,
            warm_start=True,
        )
        searcher.fit(configurations=SPACE.grid())
    telemetry.close()
    header, records, dropped = TraceSink.read(trace_path)
    assert dropped == 0
    return header, records


def strip(header, records):
    """Drop the wall-clock fields; keep everything the run determines."""
    out = [{k: v for k, v in header.items() if k not in ("created_unix", "pid")}]
    for record in records:
        record = dict(record)
        if record["type"] == "span":
            for key in ("t0", "dur", "cpu_dur"):
                record.pop(key)
        elif record["type"] == "metrics":
            record["histograms"] = {
                name: summary
                for name, summary in record["histograms"].items()
                if not name.endswith("_s")
            }
        out.append(record)
    return out


def test_traced_run_writes_the_pinned_records(tmp_path):
    records = strip(*traced_run(tmp_path / "run.trace.jsonl"))
    kinds = {record.get("name") for record in records}
    # The pin covers them.  No fold fits in the score phase here (every
    # trial's MLP folds, lbfgs too, train in the lane call), so no ``fit``.
    assert {"run", "rung", "trial", "fold", "megabatch"} <= kinds
    assert any(record.get("ann") for record in records)
    assert any("warm_source" in record.get("attrs", {}) for record in records)
    assert records == json.loads(PINNED.read_text())
