"""Prometheus exposition: rendering determinism and the strict parser."""

import pytest

from repro.obs.prom import (
    CONTENT_TYPE,
    Family,
    metric_name,
    parse_prometheus,
    registry_families,
    render,
    render_registry,
)
from repro.telemetry import MetricsRegistry


class TestMetricName:
    def test_dots_become_underscores(self):
        assert metric_name("engine.cache_hits") == "repro_engine_cache_hits"

    def test_prefix_optional(self):
        assert metric_name("engine.cache_hits", prefix="") == "engine_cache_hits"

    def test_hostile_characters_sanitized(self):
        name = metric_name("profile.mlp-v2/fit time")
        assert name == "repro_profile_mlp_v2_fit_time"


class TestFamily:
    def test_counter_renders_help_type_and_sample(self):
        family = Family("repro_jobs_total", "counter", "Finished jobs").add({}, 7)
        assert family.render_lines() == [
            "# HELP repro_jobs_total Finished jobs",
            "# TYPE repro_jobs_total counter",
            "repro_jobs_total 7",
        ]

    def test_labels_render_sorted(self):
        family = Family("repro_x", "gauge", "x").add({"b": "2", "a": "1"}, 1)
        assert family.render_lines()[-1] == 'repro_x{a="1",b="2"} 1'

    def test_label_values_escaped(self):
        family = Family("repro_x", "gauge", "x").add({"t": 'a"b\\c\nd'}, 1)
        line = family.render_lines()[-1]
        assert line == 'repro_x{t="a\\"b\\\\c\\nd"} 1'

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Family("0bad", "gauge", "x")

    def test_invalid_type_rejected(self):
        with pytest.raises(ValueError):
            Family("repro_x", "histogram2", "x")

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            Family("repro_x", "gauge", "x").add({"bad-label": 1}, 1)


class TestRender:
    def test_families_sorted_by_name(self):
        text = render([
            Family("repro_z", "gauge", "z").add({}, 1),
            Family("repro_a", "gauge", "a").add({}, 2),
        ])
        assert text.index("repro_a") < text.index("repro_z")

    def test_empty_families_skipped(self):
        text = render([Family("repro_empty", "gauge", "never sampled")])
        assert "repro_empty" not in text

    def test_byte_identical_for_equal_input(self):
        def families():
            return [
                Family("repro_x", "gauge", "x").add({"t": "a"}, 1.5).add({"t": "b"}, 2),
                Family("repro_y_total", "counter", "y").add({}, 3),
            ]

        assert render(families()) == render(families())

    def test_sample_order_independent(self):
        ab = Family("repro_x", "gauge", "x").add({"t": "a"}, 1).add({"t": "b"}, 2)
        ba = Family("repro_x", "gauge", "x").add({"t": "b"}, 2).add({"t": "a"}, 1)
        assert render([ab]) == render([ba])

    def test_content_type_is_version_0_0_4(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestRegistryFamilies:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.inc("engine.cache_hits", 5)
        registry.set_gauge("pool.workers", 4)
        registry.observe("trial.execute_s", 0.25)
        registry.observe("trial.execute_s", 0.75)
        return registry

    def test_counter_gets_total_suffix(self):
        names = [f.name for f in registry_families(self.make_registry())]
        assert "repro_engine_cache_hits_total" in names

    def test_histogram_becomes_summary_with_min_max(self):
        names = {f.name: f.type for f in registry_families(self.make_registry())}
        assert names["repro_trial_execute_s"] == "summary"
        assert names["repro_trial_execute_s_min"] == "gauge"
        assert names["repro_trial_execute_s_max"] == "gauge"

    def test_round_trip_through_parser(self):
        parsed = parse_prometheus(render_registry(self.make_registry()))
        assert parsed["repro_engine_cache_hits_total"] == [({}, 5.0)]
        assert parsed["repro_pool_workers"] == [({}, 4.0)]
        assert parsed["repro_trial_execute_s_count"] == [({}, 2.0)]
        assert parsed["repro_trial_execute_s_sum"] == [({}, 1.0)]
        assert parsed["repro_trial_execute_s_min"] == [({}, 0.25)]
        assert parsed["repro_trial_execute_s_max"] == [({}, 0.75)]


class TestParsePrometheus:
    def test_parses_labels_and_values(self):
        parsed = parse_prometheus(
            '# HELP repro_x x\n# TYPE repro_x gauge\nrepro_x{a="1",b="two"} 3.5\n'
        )
        assert parsed == {"repro_x": [({"a": "1", "b": "two"}, 3.5)]}

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{ 1\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_x notanumber\n")

    def test_rejects_unknown_comment(self):
        with pytest.raises(ValueError):
            parse_prometheus("# NOPE repro_x\n")

    def test_rejects_unquoted_labels(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_x{a=1} 2\n")


class TestServeFamiliesRungMetrics:
    """The live-jobs section maps engine rung metrics onto labelled gauges."""

    @staticmethod
    def _daemon(registry):
        from types import SimpleNamespace

        record = SimpleNamespace(
            job_id="job-1",
            trials_done=4,
            spec=SimpleNamespace(tenant="alice"),
        )
        telemetry = SimpleNamespace(registry=registry)
        return SimpleNamespace(
            draining=False,
            degraded_reason=None,
            n_workers=1,
            recovered_jobs=0,
            shed_jobs=0,
            deduped_jobs=0,
            registry=SimpleNamespace(all=lambda: [], tenants=lambda: {}, quarantined=0),
            scheduler=SimpleNamespace(max_queued=8, snapshot=lambda: {}),
            _active_connections=0,
            connections_peak=0,
            max_connections=4,
            connections_rejected=0,
            shared=SimpleNamespace(
                stats=lambda: {
                    "contexts": 0,
                    "entries": 0,
                    "hits": 0,
                    "misses": 0,
                    "hit_rate": 0.0,
                    "checkpoint_contexts": 0,
                    "checkpoints_stored": 0,
                }
            ),
            live_jobs=SimpleNamespace(snapshot=lambda: [(record, telemetry)]),
        )

    def test_rung_occupancy_gauge_from_engine_gauges(self):
        from repro.obs.prom import serve_families

        registry = MetricsRegistry()
        registry.inc("engine.rung_trials.b0.r1", 9)
        registry.set_gauge("engine.rung_occupancy.b0.r1", 0.75)
        registry.set_gauge("engine.rung_occupancy.b2.r0", 1.0)
        registry.set_gauge("engine.some_other_gauge", 5.0)  # must not leak in

        parsed = parse_prometheus(render(serve_families(self._daemon(registry))))
        want = {"job_id": "job-1", "tenant": "alice"}
        assert parsed["repro_job_rung_trials"] == [
            ({**want, "bracket": "0", "rung": "1"}, 9.0)
        ]
        occupancy = sorted(
            parsed["repro_job_rung_occupancy"],
            key=lambda sample: (sample[0]["bracket"], sample[0]["rung"]),
        )
        assert occupancy == [
            ({**want, "bracket": "0", "rung": "1"}, 0.75),
            ({**want, "bracket": "2", "rung": "0"}, 1.0),
        ]

    def test_no_rung_gauges_yields_no_occupancy_samples(self):
        from repro.obs.prom import serve_families

        parsed = parse_prometheus(render(serve_families(self._daemon(MetricsRegistry()))))
        assert "repro_job_rung_occupancy" not in parsed
