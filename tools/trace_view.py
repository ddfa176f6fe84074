"""Convert repro telemetry traces (JSONL) to Chrome-trace/Perfetto JSON.

Reads span traces written by :class:`repro.telemetry.TraceSink` (the
``--trace`` CLI flag or ``Telemetry(trace=...)``), tolerating a torn tail
exactly like the run journal, and writes the Chrome trace-event format
that ``chrome://tracing`` and https://ui.perfetto.dev load directly:
structural spans (run/bracket/rung) on track 0, trials greedily packed
onto parallel tracks, fold/fit children on their trial's track.

Given several trace files — e.g. a serve daemon's job trace plus engine
and worker traces carrying the same ``trace_id`` — they are stitched
into one multi-process trace: every file keeps its own pid lane group,
all files share one timeline (``time.monotonic`` is system-wide on
Linux), and process labels show each file's trace id.  Files that are
missing, empty, or have an unreadable header are skipped with a warning
so a crashed process's torn trace never blocks viewing the others.

Usage::

    PYTHONPATH=src python tools/trace_view.py run.trace.jsonl [-o out.json]
    PYTHONPATH=src python tools/trace_view.py serve.trace worker-*.trace -o merged.json
    PYTHONPATH=src python tools/trace_view.py run.trace.jsonl --summary

``--summary`` prints span counts per file and the embedded metrics
snapshot instead of writing JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry import MetricsRegistry, TraceSink, merge_chrome_traces, to_chrome_trace
from repro.telemetry.formatting import format_seconds


def summarize(header, records, dropped) -> None:
    """Print a human-oriented digest of one trace file."""
    spans = [r for r in records if r.get("type") == "span"]
    line = f"trace v{header.get('version')} from pid {header.get('pid')}"
    if header.get("trace_id"):
        line += f", trace_id {header['trace_id']}"
    if dropped:
        line += f", {dropped} torn line(s) dropped"
    print(line)
    counts = Counter(s.get("kind", "?") for s in spans)
    for kind, count in counts.most_common():
        total = sum(s.get("dur", 0.0) for s in spans if s.get("kind") == kind)
        print(f"  {kind:<10} x{count:<5} total {format_seconds(total)}")
    metrics = [r for r in records if r.get("type") == "metrics"]
    if metrics:
        registry = MetricsRegistry.from_dict(metrics[-1])
        print("embedded metrics snapshot:")
        for line in registry.render_lines():
            print(f"  {line}")


def read_traces(paths):
    """Read every readable trace; returns ``(parts, total_dropped)``.

    ``parts`` is a list of ``(path, header, records, dropped)``.  Files
    that are missing, empty, or fail header validation are reported to
    stderr and skipped — a crashed worker's torn trace must not block
    viewing the survivors.
    """
    parts = []
    total_dropped = 0
    for path in paths:
        try:
            header, records, dropped = TraceSink.read(path)
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        parts.append((path, header, records, dropped))
        total_dropped += dropped
    return parts, total_dropped


def main(argv=None) -> int:
    """Convert (or summarize) trace files; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+",
                        help="JSONL trace file(s) written by --trace / Telemetry(trace=...)")
    parser.add_argument("-o", "--out", default=None,
                        help="output path (default: <first trace>.chrome.json)")
    parser.add_argument("--summary", action="store_true",
                        help="print span counts and metrics instead of converting")
    args = parser.parse_args(argv)

    parts, total_dropped = read_traces(args.traces)
    if not parts:
        print("error: no readable trace files", file=sys.stderr)
        return 1

    if args.summary:
        for index, (path, header, records, dropped) in enumerate(parts):
            if index:
                print()
            if len(parts) > 1:
                print(f"== {path}")
            summarize(header, records, dropped)
        return 0

    out = Path(args.out) if args.out else Path(parts[0][0]).with_suffix(".chrome.json")
    if len(parts) == 1:
        _, header, records, _ = parts[0]
        chrome = to_chrome_trace(header, records)
    else:
        chrome = merge_chrome_traces([(header, records) for _, header, records, _ in parts])
    out.write_text(json.dumps(chrome, indent=1) + "\n")
    n_events = len(chrome["traceEvents"])
    print(f"{n_events} events from {len(parts)} file(s) -> {out}"
          + (f" ({total_dropped} torn line(s) dropped)" if total_dropped else ""))
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
