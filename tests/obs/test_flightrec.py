"""Flight recorder: ring semantics, atomic dumps, the append-only live spill, hooks."""

import json
import os
import sys
import threading

import pytest

from repro.faults.points import FaultController, arm, disarm
from repro.faults.schedule import FaultSchedule
from repro.obs import flightrec
from repro.obs.flightrec import FLIGHTREC_SCHEMA_VERSION, FlightRecorder


@pytest.fixture(autouse=True)
def clean_install():
    """Every test starts and ends with no recorder installed."""
    flightrec.uninstall()
    yield
    flightrec.uninstall()
    disarm()


class TestRing:
    def test_records_in_order(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(3):
            recorder.record("tick", index=index)
        events = recorder.events()
        assert [event["kind"] for event in events] == ["tick"] * 3
        assert [event["index"] for event in events] == [0, 1, 2]
        assert [event["seq"] for event in events] == [0, 1, 2]

    def test_wraps_keeping_newest(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        events = recorder.events()
        assert len(events) == 4
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        assert len(recorder) == 4

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_events_are_copies(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record("tick")
        recorder.events()[0]["kind"] = "mutated"
        assert recorder.events()[0]["kind"] == "tick"


def _live_file(directory):
    spills = list(directory.glob("flightrec-*-live.jsonl"))
    assert len(spills) == 1
    return spills[0]


class TestDump:
    def test_dump_writes_schema_payload(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        recorder.record("job.start", job="j1")
        path = recorder.dump("sigterm")
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == FLIGHTREC_SCHEMA_VERSION
        assert payload["reason"] == "sigterm"
        assert payload["capacity"] == 4
        assert payload["events_recorded"] == 1
        assert payload["events_retained"] == 1
        assert payload["events"][0]["kind"] == "job.start"
        assert payload["events"][0]["job"] == "j1"

    def test_reason_sanitized_in_filename(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        path = recorder.dump("fault toy/step:mid")
        assert path.name.endswith("-fault-toy-step-mid.json")

    def test_dump_without_directory_is_none(self):
        assert FlightRecorder(capacity=4).dump("whatever") is None

    def test_no_tmp_litter(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        recorder.dump("x")
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_returns_a_dump_as_written(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path)
        recorder.record("job.start", job="j1")
        path = recorder.dump("sigterm")
        assert flightrec.load(path) == json.loads(path.read_text())

    def test_sticky_event_spills_live_snapshot(self, tmp_path):
        recorder = FlightRecorder(capacity=4, dump_dir=tmp_path, spill_every=1000)
        recorder.record("job.start", sticky=True, job="j1")
        payload = flightrec.load(_live_file(tmp_path))
        assert payload["schema_version"] == FLIGHTREC_SCHEMA_VERSION
        assert payload["pid"] == os.getpid()
        assert payload["reason"] == "live"
        assert payload["capacity"] == 4
        assert payload["events_recorded"] == payload["events_retained"] == 1
        assert payload["events"][0]["job"] == "j1"

    def test_periodic_spill_every_n(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path, spill_every=4)
        for _ in range(3):
            recorder.record("tick")
        assert not list(tmp_path.glob("flightrec-*-live.jsonl"))
        recorder.record("tick")
        assert len(flightrec.load(_live_file(tmp_path))["events"]) == 4


class TestLiveSpill:
    def test_sticky_between_periodic_spills_is_on_disk_at_once(self, tmp_path):
        recorder = FlightRecorder(capacity=64, dump_dir=tmp_path, spill_every=32)
        for _ in range(40):
            recorder.record("tick")
        recorder.record("job.start", sticky=True, job="j2")
        events = flightrec.load(_live_file(tmp_path))["events"]
        assert [event["seq"] for event in events] == list(range(41))
        assert events[-1]["job"] == "j2"

    def test_spilled_events_equal_the_ring(self, tmp_path):
        recorder = FlightRecorder(capacity=16, dump_dir=tmp_path, spill_every=4)
        for index in range(12):
            recorder.record("tick", index=index, nested={"a": [1, 2.5, None]})
        assert flightrec.load(_live_file(tmp_path))["events"] == recorder.events()
        assert not list(tmp_path.glob("*.tmp"))

    def test_torn_last_line_is_dropped_never_raised(self, tmp_path):
        recorder = FlightRecorder(capacity=8, dump_dir=tmp_path, spill_every=2)
        for index in range(6):
            recorder.record("tick", index=index, text="x" * index)
        path = _live_file(tmp_path)
        blob = path.read_bytes()
        last_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        torn = tmp_path / "torn.jsonl"
        for cut in range(last_start, len(blob)):
            torn.write_bytes(blob[:cut])
            events = flightrec.load(torn)["events"]
            # Every byte of the record but its newline makes it complete.
            expected = 6 if cut >= len(blob) - 1 else 5
            assert [event["index"] for event in events] == list(range(expected)), cut
            assert flightrec.load(torn)["events_retained"] == expected

    def test_ring_wrap_and_compaction_keep_the_last_capacity_events(self, tmp_path):
        capacity = 64
        recorder = FlightRecorder(capacity=capacity, dump_dir=tmp_path, spill_every=32)
        longest = 0
        for index in range(5 * capacity):
            recorder.record("tick", index=index)
            if (index + 1) % 32:
                continue
            events = flightrec.load(_live_file(tmp_path))["events"]
            seqs = [event["seq"] for event in events]
            assert seqs == list(range(seqs[0], index + 1)), "seq order, no gaps, no duplicates"
            assert len(seqs) >= min(index + 1, capacity)
            longest = max(longest, len(seqs))
        assert capacity < longest <= flightrec._COMPACT_FACTOR * capacity  # grew, then compacted
        assert flightrec.load(_live_file(tmp_path))["events_recorded"] == 5 * capacity

    def test_write_amplification_is_bounded(self, tmp_path, monkeypatch):
        """Bytes written to the live file <= 2x the size of the events themselves."""
        written = []
        real_write = os.write

        def counting_write(fd, data):
            written.append(len(data))
            return real_write(fd, data)

        monkeypatch.setattr(flightrec.os, "write", counting_write)
        recorder = FlightRecorder(
            capacity=512, dump_dir=tmp_path, spill_every=32, clock=lambda: 0.123456
        )
        n_events = 20 * 512
        for index in range(n_events):
            recorder.record("span.close", name="trial", span=index, dur=0.012345)
        monkeypatch.undo()
        serialised = sum(
            len(json.dumps({"seq": seq, "t": 0.123456, "kind": "span.close",
                            "name": "trial", "span": seq, "dur": 0.012345})) + 1
            for seq in range(n_events)
        )
        assert len(written) == n_events // 32  # one write per spill
        # (The whole-ring snapshot this replaced wrote capacity/spill_every = 16x.)
        assert serialised <= sum(written) <= 2 * serialised

    def test_concurrent_recorders_never_interleave_inside_a_line(self, tmp_path):
        recorder = FlightRecorder(capacity=256, dump_dir=tmp_path, spill_every=8)
        barrier = threading.Barrier(4)

        def hammer(worker):
            barrier.wait(timeout=10)
            for index in range(500):
                recorder.record("tick", sticky=index % 50 == 0, worker=worker, pad="p" * 40)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        recorder.record("last", sticky=True)
        lines = _live_file(tmp_path).read_text().split("\n")
        assert lines.pop() == ""  # the file ends on a newline
        parsed = [json.loads(line) for line in lines]  # every line is whole
        assert parsed[0]["reason"] == "live"
        seqs = [event["seq"] for event in parsed[1:]]
        assert seqs == sorted(set(seqs)), "seq order, no duplicates"
        assert parsed[-1]["kind"] == "last"
        assert len(seqs) >= 256

    def test_a_new_recorder_replaces_a_previous_live_file(self, tmp_path):
        old = FlightRecorder(capacity=4, dump_dir=tmp_path)
        old.record("job.start", sticky=True, job="old")
        old.close()
        new = FlightRecorder(capacity=4, dump_dir=tmp_path)
        new.record("job.start", sticky=True, job="new")
        events = flightrec.load(_live_file(tmp_path))["events"]
        assert [event["job"] for event in events] == ["new"]


class TestModuleInstall:
    def test_note_is_noop_until_installed(self):
        flightrec.note("tick")  # must not raise
        assert flightrec.installed() is None

    def test_install_note_dump_now(self, tmp_path):
        flightrec.install(dump_dir=tmp_path, hook_exceptions=False)
        flightrec.note("tick", index=1)
        path = flightrec.dump_now("test")
        assert json.loads(path.read_text())["events"][0]["index"] == 1

    def test_uninstall_returns_recorder(self, tmp_path):
        recorder = flightrec.install(dump_dir=tmp_path, hook_exceptions=False)
        assert flightrec.uninstall() is recorder
        assert flightrec.installed() is None
        assert flightrec.dump_now("after") is None

    def test_excepthook_dumps_and_chains(self, tmp_path):
        flightrec.install(dump_dir=tmp_path, hook_exceptions=False)
        seen = []
        flightrec._previous_excepthook = lambda *args: seen.append(args)
        try:
            flightrec._crash_excepthook(RuntimeError, RuntimeError("boom"), None)
        finally:
            flightrec._previous_excepthook = None
        dumps = list(tmp_path.glob("flightrec-*-exception.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["events"][-1]["kind"] == "crash.exception"
        assert "boom" in payload["events"][-1]["error"]
        assert len(seen) == 1  # the previous hook still ran


class TestFaultObserver:
    def test_armed_hits_recorded_and_fire_dumps(self, tmp_path):
        recorder = flightrec.install(dump_dir=tmp_path, hook_exceptions=False)
        schedule = FaultSchedule.single("x.mid", hit=1, action="delay:0")
        controller = arm(FaultController(schedule=schedule))
        try:
            controller.hit("x.mid", {})  # hit 0: recorded, no action
            controller.hit("x.mid", {})  # hit 1: fires (a harmless delay)
        finally:
            disarm()
        kinds = [event["kind"] for event in recorder.events()]
        assert kinds == ["fault.hit", "fault.fire"]
        fire = recorder.events()[-1]
        assert fire["site"] == "x.mid"
        assert fire["hit"] == 1
        assert fire["action"].startswith("delay")
        dumps = list(tmp_path.glob("flightrec-*-fault-x.mid.json"))
        assert len(dumps) == 1

    def test_unarmed_process_records_nothing(self, tmp_path):
        recorder = flightrec.install(dump_dir=tmp_path, hook_exceptions=False)
        controller = arm(FaultController())  # census-only, no schedule
        try:
            controller.hit("x.mid", {})
        finally:
            disarm()
        assert [event["kind"] for event in recorder.events()] == ["fault.hit"]
        assert not list(tmp_path.glob("flightrec-*-fault-*.json"))
