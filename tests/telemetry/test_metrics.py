"""MetricsRegistry / HistogramSummary units: recording, merging, export."""

import math

import pytest

from repro.telemetry import METRICS_SCHEMA_VERSION, HistogramSummary, MetricsRegistry


class TestHistogramSummary:
    def test_observe_accumulates(self):
        h = HistogramSummary()
        for v in (0.5, 0.1, 0.9):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(1.5)
        assert h.minimum == 0.1
        assert h.maximum == 0.9
        assert h.mean == pytest.approx(0.5)

    def test_empty_mean_is_zero(self):
        assert HistogramSummary().mean == 0.0

    def test_merge_matches_pooled_observation(self):
        left, right, pooled = HistogramSummary(), HistogramSummary(), HistogramSummary()
        for v in (1.0, 4.0):
            left.observe(v)
            pooled.observe(v)
        for v in (2.0, 0.5):
            right.observe(v)
            pooled.observe(v)
        left.merge(right)
        assert left.count == pooled.count
        assert left.minimum == pooled.minimum
        assert left.maximum == pooled.maximum
        assert left.total == pytest.approx(pooled.total)

    def test_as_dict_empty_has_finite_bounds(self):
        d = HistogramSummary().as_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["count"] == 0


class TestMetricsRegistry:
    def test_inc_and_counters_sorted(self):
        r = MetricsRegistry()
        r.inc("z.last")
        r.inc("a.first", 2)
        r.inc("z.last", 3)
        assert r.counters() == {"a.first": 2, "z.last": 4}
        assert list(r.counters()) == ["a.first", "z.last"]

    def test_gauge_last_write_wins(self):
        r = MetricsRegistry()
        r.set_gauge("queue.depth", 3)
        r.set_gauge("queue.depth", 1)
        assert r.as_dict()["gauges"]["queue.depth"] == 1.0

    def test_merge_of_an_empty_registry_is_a_no_op(self):
        r = MetricsRegistry()
        r.inc("hits", 2)
        r.observe("t.s", 0.5)
        before = r.as_dict()
        r.merge(MetricsRegistry())
        assert r.as_dict() == before

    def test_from_dict_round_trip(self):
        r = MetricsRegistry()
        r.inc("hits", 2)
        r.set_gauge("depth", 3.0)
        r.observe("t.s", 0.25)
        r.observe("t.s", 0.75)
        snapshot = r.as_dict()
        assert MetricsRegistry.from_dict(snapshot).as_dict() == snapshot

    def test_merge_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1)
        b.inc("n", 2)
        b.observe("s", 0.5)
        a.merge(b)
        assert a.counters()["n"] == 3
        assert a.histograms()["s"].count == 1

    def test_counter_merge_is_order_independent(self):
        """The serial==parallel comparator: integer counters commute."""
        registries = []
        for counts in ({"x": 1, "y": 2}, {"x": 4}, {"y": 1, "z": 7}):
            registry = MetricsRegistry()
            for name, value in counts.items():
                registry.inc(name, value)
            registries.append(registry)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for registry in registries:
            forward.merge(registry)
        for registry in reversed(registries):
            backward.merge(registry)
        assert forward.counters() == backward.counters() == {"x": 5, "y": 3, "z": 7}

    def test_as_dict_schema(self):
        r = MetricsRegistry()
        r.inc("c")
        r.observe("h", 1.0)
        d = r.as_dict()
        assert d["schema_version"] == METRICS_SCHEMA_VERSION
        assert set(d) == {"schema_version", "counters", "gauges", "histograms"}
        assert d["histograms"]["h"]["count"] == 1

    def test_len_counts_all_series(self):
        r = MetricsRegistry()
        assert len(r) == 0
        r.inc("a")
        r.set_gauge("b", 1.0)
        r.observe("c", 1.0)
        assert len(r) == 3

    def test_render_lines_mentions_every_metric(self):
        r = MetricsRegistry()
        r.inc("engine.cache_hits", 5)
        r.observe("trial.execute_s", 0.2)
        text = "\n".join(r.render_lines())
        assert "engine.cache_hits" in text
        assert "trial.execute_s" in text
