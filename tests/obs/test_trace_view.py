"""Trace stitching: merge_chrome_traces and the trace_view tool's tolerance."""

import json
import subprocess
import sys
from pathlib import Path

from repro.telemetry import TraceSink, merge_chrome_traces

TOOL = Path(__file__).resolve().parents[2] / "tools" / "trace_view.py"


def write_trace(path, trace_id, pid, spans, torn_tail=False):
    """A minimal valid trace file: header + span records (+ optional torn line)."""
    sink = TraceSink(path, trace_id=trace_id)
    for span in spans:
        sink.write({"type": "span", **span})
    sink.close()
    # The header stamps the real pid; tests want distinct pids per file.
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["pid"] = pid
    lines[0] = json.dumps(header, separators=(",", ":"))
    body = "\n".join(lines) + "\n"
    if torn_tail:
        body += '{"type":"span","id":99,"kind":"trial","na'  # crash mid-write
    path.write_text(body)
    return path


def spans_a():
    return [
        {"id": 1, "parent": None, "kind": "run", "name": "run", "t0": 10.0, "dur": 2.0},
        {"id": 2, "parent": 1, "kind": "trial", "name": "trial", "t0": 10.5, "dur": 1.0},
    ]


def spans_b():
    return [
        {"id": 1, "parent": None, "kind": "trial", "name": "trial", "t0": 11.0, "dur": 0.5},
    ]


class TestMergeChromeTraces:
    def test_merged_parts_share_one_timeline(self, tmp_path):
        a = write_trace(tmp_path / "a.trace", "job-1", 100, spans_a())
        b = write_trace(tmp_path / "b.trace", "job-1", 200, spans_b())
        parts = [TraceSink.read(a)[:2], TraceSink.read(b)[:2]]
        merged = merge_chrome_traces(parts)
        assert merged["metadata"]["trace_ids"] == ["job-1"]
        assert merged["metadata"]["n_spans"] == 3
        events = [e for e in merged["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in events} == {100, 200}
        # t0=10.0 is the global minimum: file A starts at ts=0, file B at +1s
        t0_by_pid = {pid: min(e["ts"] for e in events if e["pid"] == pid)
                     for pid in (100, 200)}
        assert t0_by_pid[100] == 0.0
        assert t0_by_pid[200] == 1_000_000.0

    def test_process_labels_carry_trace_id(self, tmp_path):
        a = write_trace(tmp_path / "a.trace", "job-1", 100, spans_a())
        merged = merge_chrome_traces([TraceSink.read(a)[:2]])
        names = [e for e in merged["traceEvents"] if e["name"] == "process_name"]
        assert names[0]["args"]["name"] == "pid 100 · trace job-1"


class TestTraceViewTool:
    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(TOOL), *map(str, args)],
            capture_output=True, text=True,
        )

    def test_single_file_unchanged_behavior(self, tmp_path):
        trace = write_trace(tmp_path / "run.trace", "job-1", 100, spans_a())
        proc = self.run_tool(trace)
        assert proc.returncode == 0, proc.stderr
        out = json.loads((tmp_path / "run.chrome.json").read_text())
        assert len(out["traceEvents"]) == 2

    def test_multiple_files_merge(self, tmp_path):
        a = write_trace(tmp_path / "a.trace", "job-1", 100, spans_a())
        b = write_trace(tmp_path / "b.trace", "job-1", 200, spans_b())
        out = tmp_path / "merged.json"
        proc = self.run_tool(a, b, "-o", out)
        assert proc.returncode == 0, proc.stderr
        merged = json.loads(out.read_text())
        assert merged["metadata"]["n_spans"] == 3
        assert "2 file(s)" in proc.stdout

    def test_torn_tail_tolerated(self, tmp_path):
        trace = write_trace(tmp_path / "run.trace", "job-1", 100, spans_a(),
                            torn_tail=True)
        proc = self.run_tool(trace)
        assert proc.returncode == 0, proc.stderr
        assert "torn line(s) dropped" in proc.stdout
        out = json.loads((tmp_path / "run.chrome.json").read_text())
        assert len(out["traceEvents"]) == 2  # the torn span never made it

    def test_unreadable_file_skipped_with_warning(self, tmp_path):
        good = write_trace(tmp_path / "good.trace", "job-1", 100, spans_a())
        bad = tmp_path / "bad.trace"
        bad.write_text("not json at all\n")
        missing = tmp_path / "never-existed.trace"
        out = tmp_path / "merged.json"
        proc = self.run_tool(good, bad, missing, "-o", out)
        assert proc.returncode == 0, proc.stderr
        assert "skipping" in proc.stderr
        assert json.loads(out.read_text())["traceEvents"]

    def test_all_unreadable_is_an_error(self, tmp_path):
        proc = self.run_tool(tmp_path / "nope.trace")
        assert proc.returncode == 1
        assert "no readable trace files" in proc.stderr

    def test_summary_of_multiple_files(self, tmp_path):
        a = write_trace(tmp_path / "a.trace", "job-1", 100, spans_a())
        b = write_trace(tmp_path / "b.trace", "job-1", 200, spans_b())
        proc = self.run_tool(a, b, "--summary")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("trace_id job-1") == 2
