"""TrialCollector / install_collector / payload transport units."""

import pickle

import numpy as np

from repro.engine.executors import _evaluate_tasks
from repro.engine.protocol import EvaluationResult
from repro.telemetry import (
    COLLECT_METRICS,
    COLLECT_SPANS,
    MetricsRegistry,
    TrialCollector,
    current_collector,
    install_collector,
)


class SpanningEvaluator:
    """Records one span and one counter into whatever collector is installed."""

    def evaluate(self, config, budget_fraction, rng):
        collector = current_collector()
        if collector is not None:
            with collector.tracer.span("fold", fold=0):
                collector.registry.inc("n")
        score = float(rng.random())
        return EvaluationResult(mean=score, std=0.0, score=score, gamma=100.0 * budget_fraction)


def task(flags):
    """One executor task tuple: token, trial id, config, budget, seed, flags, warm, capture."""
    return (0, 3, {"q": 1}, 0.5, 11, flags, None, False)


class TestTrialCollection:
    def test_zero_flags_installs_nothing(self):
        with install_collector(None) as collector:
            assert collector is None
            assert current_collector() is None

    def test_install_and_restore(self):
        assert current_collector() is None
        with install_collector(TrialCollector(flags=COLLECT_METRICS)) as collector:
            assert current_collector() is collector
        assert current_collector() is None

    def test_restores_previous_on_exception(self):
        try:
            with install_collector(TrialCollector(flags=COLLECT_METRICS)):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_collector() is None


class TestTrialCollector:
    def test_counters_collected_regardless_of_flags(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        collector.registry.inc("hits")
        collector.registry.inc("hits", 2)
        payload = collector.payload()
        assert payload["registry"].counters() == {"hits": 3}
        assert payload["spans"] == []

    def test_observe_lands_in_the_registry_histogram(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        for v in (0.2, 0.8, 0.5):
            collector.registry.observe("t.s", v)
        histogram = collector.payload()["registry"].histograms()["t.s"]
        assert histogram.count == 3
        assert histogram.total == 1.5
        assert histogram.minimum == 0.2 and histogram.maximum == 0.8

    def test_span_records_relative_offsets_and_nesting(self):
        clock = iter(range(100))
        collector = TrialCollector(
            flags=COLLECT_SPANS, clock=lambda: float(next(clock)), cpu_clock=lambda: 0.0
        )
        with collector.tracer.span("fold", fold=0) as fold:
            with collector.tracer.span("fit"):
                pass
            fold.attrs["score"] = 0.9
        spans = collector.payload()["spans"]
        # close order: fit first, then fold
        assert [s["name"] for s in spans] == ["fit", "fold"]
        fit, fold = spans
        assert fold["parent"] is None
        assert fit["parent"] == fold["id"]
        assert fold["attrs"] == {"fold": 0, "score": 0.9}
        assert "attrs" not in fit  # empty attrs dropped from the wire
        assert fold["t0"] == 1.0 and fit["t0"] == 2.0  # offsets from the collector's start

    def test_span_noop_when_spans_disabled(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        with collector.tracer.span("fold") as record:
            assert record is None
        assert collector.payload() is None

    def test_payload_none_when_nothing_recorded(self):
        assert TrialCollector(flags=COLLECT_SPANS).payload() is None

    def test_payload_pickles(self):
        collector = TrialCollector(flags=COLLECT_SPANS)
        with collector.tracer.span("fold"):
            collector.registry.inc("n")
            collector.registry.observe("t", 0.1)
        payload = collector.payload()
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["spans"] == payload["spans"]
        assert isinstance(clone["registry"], MetricsRegistry)
        assert clone["registry"].as_dict() == payload["registry"].as_dict()


class TestPayloadTransport:
    def test_payload_rides_the_completion(self):
        (completion,) = _evaluate_tasks(SpanningEvaluator(), [task(COLLECT_METRICS | COLLECT_SPANS)])
        assert completion.ok and completion.trial_id == 3
        payload = completion.telemetry
        assert payload["registry"].counters() == {"n": 1}
        assert payload["registry"].histograms()["trial.execute_s"].count == 1
        assert [span["name"] for span in payload["spans"]] == ["fold"]
        assert "origin" not in payload  # stamped in pool workers only

    def test_no_flags_means_no_payload(self):
        (completion,) = _evaluate_tasks(SpanningEvaluator(), [task(0)])
        assert completion.ok and completion.telemetry is None

    def test_detached_result_pickles_identically(self):
        """The bitwise-neutrality invariant at the object level."""
        (plain,) = _evaluate_tasks(SpanningEvaluator(), [task(0)])
        (traced,) = _evaluate_tasks(SpanningEvaluator(), [task(COLLECT_METRICS | COLLECT_SPANS)])
        assert traced.telemetry is not None
        assert pickle.dumps(traced.result) == pickle.dumps(plain.result)
        assert traced.result.score == plain.result.score == float(
            np.random.default_rng(11).random()
        )
