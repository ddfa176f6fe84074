"""Telemetry threaded through engine + searchers: the ISSUE acceptance criteria.

Fast invariants (neutrality, serial==parallel counters, journal_seq
references) run in tier-1; the full traced HyperBand run over a real MLP
problem is ``@pytest.mark.telemetry`` and the worker kill+respawn merge
test is ``@pytest.mark.faults``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bandit import HyperBand, SuccessiveHalving
from repro.bandit.base import EvaluationResult
from repro.core import MLPModelFactory, optimize, vanilla_evaluator
from repro.datasets import make_classification
from repro.engine import ParallelExecutor, SerialExecutor, TrialEngine
from repro.learners import LogisticRegression
from repro.space import Categorical, SearchSpace
from repro.telemetry import Telemetry, TraceSink, to_chrome_trace

TOOLS = Path(__file__).resolve().parents[2] / "tools"


class SeededQualityEvaluator:
    """Picklable synthetic evaluator: score = quality + seeded noise."""

    def evaluate(self, config, budget_fraction, rng):
        score = config["q"] / 10.0 + 0.01 * float(rng.standard_normal())
        return EvaluationResult(
            mean=score, std=0.0, score=score, gamma=100 * budget_fraction
        )


SPACE = SearchSpace([Categorical("q", list(range(6)))])


def run_sha(executor, telemetry=None, journal=None, trace=None):
    """One engine-backed SHA run; returns (result, engine_stats, telemetry)."""
    if telemetry is None and trace is not None:
        telemetry = Telemetry(trace=trace)
    with TrialEngine(executor=executor, journal=journal, telemetry=telemetry) as engine:
        searcher = SuccessiveHalving(
            SPACE, SeededQualityEvaluator(), random_state=11, engine=engine
        )
        result = searcher.fit(configurations=SPACE.grid())
    if telemetry is not None:
        telemetry.close()
    return result, engine.stats, telemetry


def fingerprint(result):
    return [
        (t.key, t.budget_fraction, t.result.score, tuple(t.result.fold_scores))
        for t in result.trials
    ]


class TestBitwiseNeutrality:
    def test_traced_run_matches_untraced(self, tmp_path):
        plain, _, _ = run_sha(SerialExecutor())
        traced, _, telemetry = run_sha(
            SerialExecutor(), trace=tmp_path / "run.trace.jsonl"
        )
        assert fingerprint(traced) == fingerprint(plain)
        assert traced.best_config == plain.best_config
        assert traced.best_score == plain.best_score
        assert telemetry.sink.spans_written > 0  # the trace actually recorded

    def test_journal_bytes_identical_with_telemetry_on(self, tmp_path):
        """Outcome records in the write-ahead log must be byte-identical."""
        run_sha(SerialExecutor(), journal=str(tmp_path / "plain.journal"))
        run_sha(
            SerialExecutor(),
            journal=str(tmp_path / "traced.journal"),
            trace=tmp_path / "run.trace.jsonl",
        )
        plain = (tmp_path / "plain.journal").read_text().splitlines()
        traced = (tmp_path / "traced.journal").read_text().splitlines()
        # skip line 0: the header carries a wall-clock creation time
        assert traced[1:] == plain[1:]
        assert len(plain) > 1

    def test_results_carry_no_telemetry_residue(self, tmp_path):
        traced, _, _ = run_sha(SerialExecutor(), trace=tmp_path / "t.jsonl")
        assert all("_telemetry" not in t.result.__dict__ for t in traced.trials)


class TestSerialParallelCounters:
    def test_merged_counters_identical(self):
        results = {}
        for name, executor in (
            ("serial", SerialExecutor()),
            ("parallel", ParallelExecutor(n_workers=3)),
        ):
            result, _, telemetry = run_sha(executor, telemetry=Telemetry())
            results[name] = (fingerprint(result), telemetry.registry.counters())
        assert results["serial"][0] == results["parallel"][0]
        assert results["serial"][1] == results["parallel"][1]
        assert results["serial"][1]["engine.submitted"] > 0


class TestJournalSpanCrossReference:
    def test_trial_spans_reference_journal_seq(self, tmp_path):
        journal = tmp_path / "run.journal"
        trace = tmp_path / "run.trace.jsonl"
        result, stats, _ = run_sha(SerialExecutor(), journal=str(journal), trace=trace)
        _, records, dropped = TraceSink.read(trace)
        assert dropped == 0
        trials = [r for r in records if r.get("kind") == "trial"]
        assert len(trials) == len(result.trials)
        journal_lines = journal.read_text().splitlines()[1:]
        seqs_in_journal = set(range(1, len(journal_lines) + 1))
        executed = [t for t in trials if not t["attrs"]["cache_hit"]]
        assert executed and all(
            t["attrs"]["journal_seq"] in seqs_in_journal for t in executed
        )
        # cache hits were never journaled, so they carry no seq
        assert all(
            "journal_seq" not in t["attrs"]
            for t in trials
            if t["attrs"]["cache_hit"]
        )
        # every durable outcome is referenced by exactly one span
        assert sorted(t["attrs"]["journal_seq"] for t in executed) == sorted(
            seqs_in_journal
        )


@pytest.mark.faults
class TestMetricsMergeUnderFaults:
    def test_worker_kill_respawn_does_not_double_count(self, tmp_path, arm_fault):
        """Satellite: resubmitted trials settle (and count) exactly once.

        The scheduled crash kills the worker mid-evaluation; its payload
        dies with it and the fault surfaces as an engine retry.
        """
        arm_fault("executor.evaluate", "crash")
        telemetry = Telemetry(trace=tmp_path / "faults.trace.jsonl")
        executor = ParallelExecutor(n_workers=2, trial_timeout=30.0)
        with TrialEngine(executor=executor, max_retries=3, telemetry=telemetry) as engine:
            searcher = SuccessiveHalving(
                SPACE, SeededQualityEvaluator(), random_state=11, engine=engine
            )
            result = searcher.fit(configurations=SPACE.grid())
        telemetry.close()
        counters = telemetry.registry.counters()
        assert counters.get("engine.retries", 0) == 1 and executor.respawns == 1
        # one settled outcome per trial the searcher saw, despite respawns
        assert telemetry.trials_seen == len(result.trials)
        assert (
            counters.get("engine.cache_hits", 0) + counters["engine.cache_misses"]
            == counters["engine.submitted"]
            == len(result.trials)
        )
        # executed counts attempts; the excess over misses is exactly the retries
        assert (
            counters["engine.executed"]
            == counters["engine.cache_misses"] + counters["engine.retries"]
        )
        # each trial span emitted once: no duplicate trial ids in the trace
        _, records, _ = TraceSink.read(telemetry.sink.path)
        trial_ids = [r["attrs"]["trial_id"] for r in records if r.get("kind") == "trial"]
        assert len(trial_ids) == len(set(trial_ids)) == len(result.trials)


@pytest.mark.telemetry
class TestFullTracedRun:
    @pytest.fixture(scope="class")
    def traced_hyperband(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("traced_hb")
        X, y = make_classification(n_samples=120, n_features=5, random_state=0)
        space = SearchSpace(
            [
                Categorical("hidden_layer_sizes", [(8,), (16,)]),
                Categorical("alpha", [1e-4, 1e-2]),
            ]
        )
        factory = MLPModelFactory(task="classification", max_iter=3)
        trace = tmp / "hb.trace.jsonl"
        telemetry = Telemetry(trace=trace)
        with TrialEngine(executor=SerialExecutor(), telemetry=telemetry) as engine:
            outcome = optimize(
                X,
                y,
                space,
                method="hb+",
                model_factory=factory,
                random_state=3,
                refit=False,
                engine=engine,
            )
        telemetry.close()
        return trace, telemetry, outcome.result

    @staticmethod
    def _spans(trace):
        _, records, dropped = TraceSink.read(trace)
        assert dropped == 0
        return {r["id"]: r for r in records if r.get("type") == "span"}

    @classmethod
    def _span_chains(cls, trace):
        spans = cls._spans(trace)

        def chain(span):
            names = []
            while span is not None:
                names.append(span["kind"])
                parent = span.get("parent")
                span = spans.get(parent) if parent is not None else None
            return names[::-1]

        return {tuple(chain(s)) for s in spans.values()}

    def test_spans_nest_run_bracket_rung_trial_fold(self, traced_hyperband):
        trace, _, _ = traced_hyperband
        chains = self._span_chains(trace)
        assert ("run", "bracket", "rung", "trial") in {c[:4] for c in chains if len(c) >= 4}
        assert ("run", "bracket", "rung", "trial", "fold") in chains
        assert ("run", "bracket", "rung", "megabatch") in chains
        # every span roots at the single run span
        assert all(c[0] == "run" for c in chains)
        # The fit phase is reported once per rung, not per trial: a rung that
        # executed two or more trials (every one here is stackable) has one
        # megabatch span; narrower rungs have trial > fold spans only.
        spans = self._spans(trace)
        children = {}
        for span in spans.values():
            children.setdefault(span.get("parent"), []).append(span)
        rungs = [span for span in spans.values() if span["kind"] == "rung"]
        assert rungs
        for rung in rungs:
            below = children.get(rung["id"], [])
            executed = [
                s for s in below if s["kind"] == "trial" and not s["attrs"]["cache_hit"]
            ]
            fused = [s for s in below if s["kind"] == "megabatch"]
            assert len(fused) == (1 if len(executed) >= 2 else 0)
            for trial in executed:
                assert {s["kind"] for s in children.get(trial["id"], [])} == {"fold"}

    def _hb_plus_chains(self, trace, factory):
        X, y = make_classification(n_samples=120, n_features=5, random_state=0)
        space = SearchSpace([Categorical("alpha", [1e-4, 1e-2])])
        telemetry = Telemetry(trace=trace)
        with TrialEngine(executor=SerialExecutor(), telemetry=telemetry) as engine:
            optimize(
                X, y, space, method="hb+", model_factory=factory,
                random_state=3, refit=False, engine=engine,
            )
        telemetry.close()
        return self._span_chains(trace)

    def test_lbfgs_folds_fit_in_the_lane_call(self, tmp_path):
        # L-BFGS folds do not stack, but they train inside the rung's lane
        # call with the rest: a megabatch span, no per-fold fit span.
        factory = MLPModelFactory(task="classification", max_iter=3, solver="lbfgs")
        chains = self._hb_plus_chains(tmp_path / "lbfgs.trace.jsonl", factory)
        assert ("run", "bracket", "rung", "megabatch") in chains
        assert not any(chain[-1] == "fit" for chain in chains)

    def test_sequential_path_keeps_per_fold_fit_spans(self, tmp_path):
        # What the lane call does not take (here: a non-MLP model) fits fold
        # by fold — a fit span nested in every fold.
        def factory(config, random_state=None):
            return LogisticRegression(C=1.0 / config["alpha"], max_iter=20)

        chains = self._hb_plus_chains(tmp_path / "seq.trace.jsonl", factory)
        assert ("run", "bracket", "rung", "trial", "fold", "fit") in chains

    def test_batched_folds_counted(self, traced_hyperband):
        _, telemetry, _ = traced_hyperband
        # batched trials dispatch through the lane kernels, not mlp.fit
        assert telemetry.registry.counters().get("evaluator.batched_folds", 0) > 0

    def test_trace_view_converts_cleanly(self, traced_hyperband, tmp_path):
        trace, _, _ = traced_hyperband
        out = tmp_path / "hb.chrome.json"
        proc = subprocess.run(
            [sys.executable, str(TOOLS / "trace_view.py"), str(trace), "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        chrome = json.loads(out.read_text())
        assert chrome["traceEvents"], "conversion produced no events"
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        assert chrome["metadata"]["metrics"]["counters"]  # final snapshot embedded

    def test_in_process_conversion_matches_reader(self, traced_hyperband):
        trace, _, result = traced_hyperband
        header, records, _ = TraceSink.read(trace)
        chrome = to_chrome_trace(header, records)
        trial_events = [e for e in chrome["traceEvents"] if e["cat"] == "trial"]
        assert len(trial_events) == result.n_trials
