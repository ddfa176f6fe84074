"""Mega-batch accounting comes home on completions, telemetry or not.

An evaluator call that fuses two or more trials puts its summary on the
first completion it produces, so :class:`~repro.engine.EngineStats`
counts the fusion identically whether the call ran in the parent (serial
``flush_batch``) or in a pool worker, and whether a ``Telemetry`` is
attached.  A traced pool run gets the same ``megabatch`` spans under its
rung spans that a serial run gets.
"""

import pytest

from repro.core import MLPModelFactory
from repro.core.enhanced import make_searcher
from repro.datasets import make_classification
from repro.engine import ParallelExecutor, SerialExecutor, TrialEngine
from repro.space import Categorical, SearchSpace
from repro.telemetry import Telemetry, TraceSink

#: One architecture, sixteen optimiser settings: every fold can fuse.
SPACE = SearchSpace(
    [
        Categorical("learning_rate_init", [1e-3, 2e-3, 3e-3, 5e-3]),
        Categorical("alpha", [1e-6, 1e-5]),
        Categorical("momentum", [0.3, 0.5]),
    ]
)


def run_sha(executor, telemetry=None):
    """SHA over the 16 configurations; returns ``(result, stats)``."""
    X, y = make_classification(n_samples=120, n_features=6, random_state=0)
    with TrialEngine(executor=executor, telemetry=telemetry) as engine:
        searcher = make_searcher(
            "sha", SPACE, X, y,
            model_factory=MLPModelFactory(max_iter=4),
            random_state=0,
            engine=engine,
        )
        result = searcher.fit(configurations=SPACE.grid())
    if telemetry is not None:
        telemetry.close()
    return result, engine.stats


def fused(stats):
    return stats.megabatch_trials, stats.megabatch_folds


def fingerprint(result):
    return [(t.key, t.budget_fraction, t.result.score) for t in result.trials]


def test_pool_counts_fusion_without_telemetry(tmp_path):
    serial, serial_stats = run_sha(SerialExecutor())
    plain, plain_stats = run_sha(ParallelExecutor(n_workers=2))
    traced, traced_stats = run_sha(
        ParallelExecutor(n_workers=2), Telemetry(trace=tmp_path / "pool.trace.jsonl")
    )
    assert fingerprint(plain) == fingerprint(traced) == fingerprint(serial)
    assert fused(serial_stats)[0] > 0
    # Workers fuse their own shares, so a pool fuses no more than one call per rung.
    assert 0 < fused(plain_stats)[0] <= fused(serial_stats)[0]
    assert fused(plain_stats) == fused(traced_stats)


@pytest.mark.parametrize("pool", [False, True], ids=["serial", "pool"])
def test_traced_run_has_megabatch_spans_under_its_rungs(tmp_path, pool):
    trace = tmp_path / "run.trace.jsonl"
    executor = ParallelExecutor(n_workers=2) if pool else SerialExecutor()
    _, stats = run_sha(executor, Telemetry(trace=trace))
    _, records, _ = TraceSink.read(trace)
    spans = {record["id"]: record for record in records if record["type"] == "span"}
    megabatches = [span for span in spans.values() if span["name"] == "megabatch"]
    assert megabatches
    assert all(spans[span["parent"]]["name"] == "rung" for span in megabatches)
    assert sum(span["attrs"]["trials"] for span in megabatches) == stats.megabatch_trials
    assert sum(span["attrs"]["fused_folds"] for span in megabatches) == stats.megabatch_folds
