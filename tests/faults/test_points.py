"""Fault points: disarmed no-ops, census counting, action firing, arming.

Crash and truncate actions kill the process, so those fire in small
``python -c`` subprocesses armed through ``REPRO_FAULTS``; everything
else runs in-process.  Tier-1.
"""

import errno
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.engine import SerialExecutor, TrialEngine
from repro.faults import points
from repro.faults.schedule import CRASH_EXIT_CODE, FaultSchedule
from repro.telemetry import Telemetry

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _disarm_after():
    yield
    points.disarm()


def _child(code, env_spec=None, claims=None):
    env = {**os.environ, "PYTHONPATH": SRC_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")}
    env.pop(points.ENV_VAR, None)
    if env_spec is not None:
        if claims is not None:  # a crashing child cannot remove a claims dir it made
            env_spec = json.dumps({**json.loads(env_spec), "claims": str(claims)})
        env[points.ENV_VAR] = env_spec
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


class TestDisarmed:
    def test_fault_point_is_a_noop(self):
        assert points.active_controller() is None
        assert fault_point_many(1000) is None

    def test_context_is_not_touched(self):
        class Explosive:
            def __getattr__(self, name):  # pragma: no cover - must not run
                raise AssertionError("disarmed fault_point inspected its context")

        points.fault_point("x.y", handle=Explosive())


def fault_point_many(n):
    for _ in range(n):
        points.fault_point("hot.loop")


class TestCensus:
    def test_hits_are_counted_per_site(self):
        controller = points.arm(points.FaultController())
        points.fault_point("a.b")
        points.fault_point("a.b")
        points.fault_point("c.d")
        assert controller.snapshot() == {"a.b": 2, "c.d": 1}

    def test_flush_census_is_idempotent(self, tmp_path):
        census = tmp_path / "census.jsonl"
        controller = points.arm(points.FaultController(census_path=str(census)))
        points.fault_point("a.b")
        controller.flush_census()
        controller.flush_census()
        lines = census.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["hits"] == {"a.b": 1}
        assert entry["pid"] == os.getpid()

    def test_counting_is_thread_safe(self):
        controller = points.arm(points.FaultController())
        threads = [threading.Thread(target=fault_point_many, args=(200,))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert controller.snapshot() == {"hot.loop": 1600}


class TestActions:
    def test_ioerror_raises_at_the_scheduled_hit_only(self):
        points.arm(points.FaultController(schedule=FaultSchedule.single("a.b", 1, "ioerror")))
        points.fault_point("a.b")  # hit 0: below the trigger
        with pytest.raises(OSError) as excinfo:
            points.fault_point("a.b")  # hit 1: fires
        assert excinfo.value.errno == errno.EIO
        points.fault_point("a.b")  # hit 2: past the trigger

    def test_enospc_carries_the_errno(self):
        points.arm(points.FaultController(schedule=FaultSchedule.single("a.b", 0, "enospc")))
        with pytest.raises(OSError) as excinfo:
            points.fault_point("a.b")
        assert excinfo.value.errno == errno.ENOSPC

    def test_crash_exits_with_the_crash_code(self, tmp_path):
        proc = _child(
            "from repro.faults.points import fault_point; fault_point('x.y')",
            env_spec=FaultSchedule.single("x.y", 0).to_env(),
            claims=tmp_path,
        )
        assert proc.returncode == CRASH_EXIT_CODE

    def test_truncate_shears_the_handle_then_crashes(self, tmp_path):
        target = tmp_path / "data.bin"
        code = (
            "from repro.faults.points import fault_point\n"
            f"with open({str(target)!r}, 'w') as handle:\n"
            "    handle.write('0123456789')\n"
            "    handle.flush()\n"
            "    fault_point('x.y', handle=handle)\n"
        )
        proc = _child(
            code,
            env_spec=FaultSchedule.single("x.y", 0, "truncate:3").to_env(),
            claims=tmp_path,
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert target.read_text() == "0123456"


class TestEnvArming:
    def test_census_env_round_trip(self, tmp_path):
        census = tmp_path / "census.jsonl"
        spec = json.dumps({"census": str(census)})
        proc = _child(
            "from repro.faults.points import fault_point\n"
            "fault_point('a.b'); fault_point('a.b'); fault_point('c.d')",
            env_spec=spec,
        )
        assert proc.returncode == 0, proc.stderr
        entry = json.loads(census.read_text())
        assert entry["hits"] == {"a.b": 2, "c.d": 1}

    def test_crashed_child_reports_no_census(self, tmp_path):
        # A crash bypasses atexit, exactly like a real power cut.
        census = tmp_path / "census.jsonl"
        proc = _child(
            "from repro.faults.points import fault_point; fault_point('x.y')",
            env_spec=FaultSchedule.single("x.y", 0).to_env(census_path=str(census)),
            claims=tmp_path,
        )
        assert proc.returncode == CRASH_EXIT_CODE
        assert not census.exists()

    def test_invalid_env_is_a_loud_error(self):
        proc = _child("import repro.faults.points", env_spec="{not json")
        assert proc.returncode != 0
        assert "REPRO_FAULTS" in proc.stderr


class TestOncePerArming:
    def test_arm_exports_the_spec_and_disarm_withdraws_it(self):
        controller = points.arm(
            points.FaultController(schedule=FaultSchedule.single("a.b", 0, "ioerror"))
        )
        spec = json.loads(os.environ[points.ENV_VAR])
        assert spec["schedule"] == [{"site": "a.b", "hit": 0, "action": "ioerror"}]
        assert spec["claims"] == controller._claims and os.path.isdir(spec["claims"])
        points.disarm()
        assert points.ENV_VAR not in os.environ
        assert not os.path.exists(spec["claims"])

    def test_a_trigger_fires_once_across_the_processes_it_reaches(self):
        # Hit indices count per process: both children and this process
        # reach a.b#0, but only the first child to claim it raises.
        points.arm(points.FaultController(schedule=FaultSchedule.single("a.b", 0, "ioerror")))
        pythonpath = SRC_ROOT + os.pathsep + os.environ.get("PYTHONPATH", "")
        env = {**os.environ, "PYTHONPATH": pythonpath}  # carries the arming
        code = "from repro.faults.points import fault_point; fault_point('a.b')"
        exits = [
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60).returncode
            for _ in range(2)
        ]
        assert exits == [1, 0]
        points.fault_point("a.b")  # claimed already: passes through


class TestTelemetryMirror:
    def test_engine_shutdown_exports_hit_gauges(self):
        points.arm(points.FaultController())
        points.fault_point("a.b")
        points.fault_point("a.b")
        telemetry = Telemetry()
        engine = TrialEngine(executor=SerialExecutor(), telemetry=telemetry)
        engine.shutdown()
        assert telemetry.registry.as_dict()["gauges"]["faults.hits.a.b"] == 2

    def test_disarmed_engine_exports_nothing(self):
        telemetry = Telemetry()
        engine = TrialEngine(executor=SerialExecutor(), telemetry=telemetry)
        engine.shutdown()
        gauges = telemetry.registry.as_dict()["gauges"]
        assert not any(name.startswith("faults.") for name in gauges)
