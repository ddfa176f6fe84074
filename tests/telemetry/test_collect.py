"""TrialCollector / install_collector / payload transport units."""

import pickle

from repro.telemetry import (
    COLLECT_METRICS,
    COLLECT_SPANS,
    TrialCollector,
    attach_payload,
    current_collector,
    detach_payload,
    install_collector,
)


class Result:
    """Stand-in for an EvaluationResult: plain object with a __dict__."""

    def __init__(self, score=0.5):
        self.score = score


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
        collector.inc("hits")
        collector.inc("hits", 2)
        assert collector.payload() == {"counters": {"hits": 3}}

    def test_observe_wire_shape(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        for v in (0.2, 0.8, 0.5):
            collector.observe("t.s", v)
        wire = collector.payload()["timings"]["t.s"]
        assert wire[0] == 3
        assert wire[1] == 1.5
        assert wire[2] == 0.2 and wire[3] == 0.8

    def test_span_records_relative_offsets_and_nesting(self):
        clock = iter(range(100))
        collector = TrialCollector(
            flags=COLLECT_SPANS, clock=lambda: float(next(clock)), cpu_clock=lambda: 0.0
        )
        with collector.span("fold", fold=0) as fold:
            with collector.span("fit"):
                pass
            fold["attrs"]["score"] = 0.9
        spans = collector.payload()["spans"]
        # close order: fit first, then fold
        assert [s["name"] for s in spans] == ["fit", "fold"]
        fit, fold = spans
        assert fold["parent"] is None
        assert fit["parent"] == fold["id"]
        assert fold["attrs"] == {"fold": 0, "score": 0.9}
        assert "attrs" not in fit  # empty attrs dropped from the wire
        assert fit["rel0"] >= fold["rel0"]

    def test_span_noop_when_spans_disabled(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        with collector.span("fold") as record:
            assert record is None
        assert collector.payload() is None

    def test_payload_none_when_nothing_recorded(self):
        assert TrialCollector(flags=COLLECT_SPANS).payload() is None

    def test_payload_pickles(self):
        collector = TrialCollector(flags=COLLECT_SPANS)
        with collector.span("fold"):
            collector.inc("n")
            collector.observe("t", 0.1)
        payload = collector.payload()
        assert pickle.loads(pickle.dumps(payload)) == payload


class TestPayloadTransport:
    def test_attach_detach_round_trip(self):
        collector = TrialCollector(flags=COLLECT_METRICS)
        collector.inc("n")
        result = Result()
        attach_payload(result, collector)
        assert "_telemetry" in result.__dict__
        payload = detach_payload(result)
        assert payload == {"counters": {"n": 1}}
        # detaching restores the untelemetered shape, and is idempotent
        assert "_telemetry" not in result.__dict__
        assert detach_payload(result) is None

    def test_attach_skips_empty_collector_and_none(self):
        result = Result()
        attach_payload(result, None)
        attach_payload(result, TrialCollector(flags=COLLECT_METRICS))
        assert "_telemetry" not in result.__dict__

    def test_detached_result_pickles_identically(self):
        """The bitwise-neutrality invariant at the object level."""
        plain = pickle.dumps(Result(0.7))
        traced = Result(0.7)
        collector = TrialCollector(flags=COLLECT_METRICS)
        collector.inc("n")
        attach_payload(traced, collector)
        detach_payload(traced)
        assert pickle.dumps(traced) == plain

