"""Tracer/TraceSink units plus hypothesis round-trip and torn-tail properties."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TRACE_VERSION, Telemetry, TraceSink, Tracer


class FakeClock:
    """Deterministic clock advancing one tick per call."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_tracer(tmp_path, name="t.jsonl"):
    sink = TraceSink(tmp_path / name)
    return Tracer(sink, clock=FakeClock(), cpu_clock=FakeClock(0.1)), sink


class TestTraceSink:
    def test_unopened_sink_leaves_no_file(self, tmp_path):
        sink = TraceSink(tmp_path / "never.jsonl")
        sink.close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_header_written_once_on_first_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceSink(path) as sink:
            sink.write({"type": "span", "id": 1, "parent": None, "name": "x",
                        "kind": "x", "t0": 0.0, "dur": 1.0, "cpu_dur": 0.0})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header" and header["version"] == TRACE_VERSION
        assert sink.spans_written == 1

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type":"span","id":1}\n')
        with pytest.raises(ValueError, match="header"):
            TraceSink.read(path)

    def test_read_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "header", "version": TRACE_VERSION + 1}) + "\n")
        with pytest.raises(ValueError, match="version"):
            TraceSink.read(path)

    def test_torn_tail_dropped_not_fatal(self, tmp_path):
        tracer, sink = make_tracer(tmp_path)
        with tracer.span("run"):
            with tracer.span("trial"):
                pass
        sink.close()
        path = sink.path
        torn = path.read_text()[:-7]  # cut mid-way through the last line
        path.write_text(torn)
        header, records, dropped = TraceSink.read(path)
        assert dropped == 1
        assert [r["name"] for r in records] == ["trial"]


class TestTraceIdHeader:
    @staticmethod
    def _header(path, **kwargs):
        with Telemetry(trace=path, **kwargs) as telemetry:
            with telemetry.span("run"):
                pass
        return TraceSink.read(path)[0]

    def test_trace_id_is_the_only_identity_key(self, tmp_path):
        header = self._header(tmp_path / "job.jsonl", trace_id="job-1")
        assert header["trace_id"] == "job-1"
        assert set(header) == {"type", "version", "created_unix", "pid", "trace_id"}

    def test_no_trace_id_no_key(self, tmp_path):
        header = self._header(tmp_path / "run.jsonl")
        assert "trace_id" not in header
        assert set(header) == {"type", "version", "created_unix", "pid"}


class TestTracer:
    def test_disabled_tracer_yields_none(self):
        tracer = Tracer(None)
        assert not tracer.enabled
        with tracer.span("run") as span:
            assert span is None
        assert tracer.emit("trial", "trial", 0.0, 1.0) is None

    def test_nesting_parent_ids(self, tmp_path):
        tracer, sink = make_tracer(tmp_path)
        with tracer.span("run") as run:
            with tracer.span("bracket") as bracket:
                with tracer.span("rung"):
                    pass
            assert tracer.current_id == run.span_id
        sink.close()
        _, records, _ = TraceSink.read(sink.path)
        by_name = {r["name"]: r for r in records}
        assert by_name["run"]["parent"] is None
        assert by_name["bracket"]["parent"] == by_name["run"]["id"]
        assert by_name["rung"]["parent"] == by_name["bracket"]["id"]
        # close order on disk: innermost first
        assert [r["name"] for r in records] == ["rung", "bracket", "run"]

    def test_span_attrs_mutable_until_close(self, tmp_path):
        tracer, sink = make_tracer(tmp_path)
        with tracer.span("run", fixed=1) as span:
            span.attrs["late"] = 2
            span.annotate({"kind": "guard"})
        sink.close()
        _, records, _ = TraceSink.read(sink.path)
        assert records[0]["attrs"] == {"fixed": 1, "late": 2}
        assert records[0]["ann"] == [{"kind": "guard"}]

    def test_emit_grafts_children_in_close_order(self, tmp_path):
        """Collector records arrive innermost-first; parents must resolve."""
        tracer, sink = make_tracer(tmp_path)
        children = [
            # close order: fit (child of fold 2) then fold (local id 2)
            {"id": 3, "parent": 2, "name": "fit", "kind": "fit",
             "t0": 0.2, "dur": 0.5, "cpu_dur": 0.1},
            {"id": 2, "parent": None, "name": "fold", "kind": "fold",
             "t0": 0.1, "dur": 0.7, "cpu_dur": 0.2},
        ]
        trial_id = tracer.emit("trial", "trial", 10.0, 2.0, children=children)
        sink.close()
        _, records, _ = TraceSink.read(sink.path)
        by_name = {r["name"]: r for r in records}
        assert by_name["fold"]["parent"] == trial_id
        assert by_name["fit"]["parent"] == by_name["fold"]["id"]

    def test_emit_lays_children_into_span_tail(self, tmp_path):
        tracer, sink = make_tracer(tmp_path)
        children = [{"id": 1, "parent": None, "name": "fold", "kind": "fold",
                     "t0": 0.0, "dur": 0.5, "cpu_dur": 0.0}]
        # trial spans 10.0..12.0; collection window is 0.5s -> child at 11.5
        tracer.emit("trial", "trial", 10.0, 2.0, children=children)
        sink.close()
        _, records, _ = TraceSink.read(sink.path)
        fold = next(r for r in records if r["name"] == "fold")
        trial = next(r for r in records if r["name"] == "trial")
        assert fold["t0"] == pytest.approx(11.5)
        assert fold["t0"] + fold["dur"] <= trial["t0"] + trial["dur"] + 1e-9

    def test_emit_unknown_child_parent_falls_back_to_span(self, tmp_path):
        tracer, sink = make_tracer(tmp_path)
        children = [{"id": 5, "parent": 99, "name": "orphan", "kind": "fold",
                     "t0": 0.0, "dur": 0.1, "cpu_dur": 0.0}]
        trial_id = tracer.emit("trial", "trial", 0.0, 1.0, children=children)
        sink.close()
        _, records, _ = TraceSink.read(sink.path)
        orphan = next(r for r in records if r["name"] == "orphan")
        assert orphan["parent"] == trial_id


# -- hypothesis properties ----------------------------------------------------

json_scalars = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)
attrs = st.dictionaries(st.text(min_size=1, max_size=12), json_scalars, max_size=4)
span_records = st.builds(
    lambda i, name, kind, t0, dur, cpu, a: {
        "type": "span", "id": i, "parent": None, "name": name, "kind": kind,
        "t0": round(t0, 6), "dur": round(dur, 6), "cpu_dur": round(cpu, 6),
        **({"attrs": a} if a else {}),
    },
    i=st.integers(1, 10**6),
    name=st.text(min_size=1, max_size=16),
    kind=st.sampled_from(["run", "bracket", "rung", "trial", "fold", "fit"]),
    t0=st.floats(0, 1e6, allow_nan=False),
    dur=st.floats(0, 1e3, allow_nan=False),
    cpu=st.floats(0, 1e3, allow_nan=False),
    a=attrs,
)


class TestSpanSerializationProperties:
    @given(records=st.lists(span_records, max_size=20))
    @settings(max_examples=50)
    def test_write_read_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("trace") / "rt.jsonl"
        with TraceSink(path) as sink:
            sink.write({"type": "noop"})  # force the header even when empty
            for record in records:
                sink.write(record)
        _, read_back, dropped = TraceSink.read(path)
        assert dropped == 0
        assert read_back[1:] == records

    @given(records=st.lists(span_records, min_size=1, max_size=10),
           cut=st.integers(1, 200))
    @settings(max_examples=50)
    def test_torn_tail_never_raises_and_keeps_prefix(self, tmp_path_factory, records, cut):
        """Truncating at any byte yields an intact prefix, like the journal."""
        path = tmp_path_factory.mktemp("trace") / "torn.jsonl"
        with TraceSink(path) as sink:
            for record in records:
                sink.write(record)
        raw = path.read_bytes()
        header_len = len(raw.split(b"\n", 1)[0]) + 1
        cut_at = min(len(raw), header_len + cut)
        path.write_bytes(raw[:cut_at])
        header, read_back, dropped = TraceSink.read(path)
        assert header["version"] == TRACE_VERSION
        # every surviving record is an exact prefix of what was written
        assert read_back == records[: len(read_back)]
        surviving_bytes = raw[header_len:cut_at]
        n_complete = surviving_bytes.count(b"\n")
        assert len(read_back) >= n_complete  # nothing intact is dropped
