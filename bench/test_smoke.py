"""Smoke test of the bench harness (outside ``testpaths``: run it by path).

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once at ``--quick`` size, untraced and traced, and
checks that what the harness prints matches what ``BENCHMARK.json``
declares: names, units and counts, and that no process it started is
still there when it has exited.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= SPEC["end_to_end"][0].items()
    assert all(len(entry["why"]) <= 200 for entry in SPEC["workloads"])


def processes_in_session(session: int):
    """Pids (zombies too) whose session id is ``session``, from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(fields[3]) == session:
            found.append(int(stat.parent.name))
    return found


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_reports_declared_metrics(workload, trace):
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--reps", "1", "--quick", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )  # fmt: skip
    stdout, stderr = child.communicate(timeout=300)
    # The run led a session of its own (session id == its pid), so whatever
    # it started and did not wait for is still in that session.
    assert processes_in_session(child.pid) == []
    assert child.returncode == 0, stderr
    result = json.loads(stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] != 0 for metric in result["metrics"].values())
    else:
        assert (BENCH / "out" / f"trace-{workload}.json").exists()
        assert (BENCH / "out" / f"waterfall-{workload}.md").exists()
