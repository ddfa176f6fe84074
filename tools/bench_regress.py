"""Regression gate over every committed ``BENCH_*.json`` artifact.

Each bench tool writes its artifact once (on the machine that ran it);
this tool re-reads them all and re-judges the numbers against their
targets, printing a one-line-per-metric table::

    PYTHONPATH=src python tools/bench_regress.py

    artifact          metric                        value     target  status
    BENCH_engine      guard_overhead_pct            -4.73    <= 5.0   ok
    BENCH_telemetry   tracing_overhead_pct          0.91     <= 5.0   ok
    ...

Exit code is non-zero iff any gated metric is out of bounds or an
expected artifact is missing/unreadable — which makes this the natural
last tier of ``tools/run_checks.sh``: everything else re-validated the
code, this re-validates the committed performance claims.

Headline metrics without a hard target (e.g. the 4-worker HyperBand
speedup, the journal overhead) are printed as ``info`` rows so a human
diffing two runs sees them move, but they never fail the gate — they
measure the machine as much as the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: (artifact, metric, extractor, op, target) — ``op`` of None means
#: informational only.  Extractors take the parsed JSON payload.
GATES = [
    ("BENCH_engine", "dispatch_ms_per_trial_2w",
     lambda d: d["dispatch_overhead"]["workers"]["2"]["overhead_ms_per_trial"],
     "<=", lambda d: d["dispatch_overhead"]["ceiling_ms_per_trial"]),
    ("BENCH_engine", "dispatch_ms_per_trial_4w",
     lambda d: d["dispatch_overhead"]["workers"]["4"]["overhead_ms_per_trial"],
     "<=", lambda d: d["dispatch_overhead"]["ceiling_ms_per_trial"]),
    ("BENCH_engine", "guard_overhead_pct",
     lambda d: d["guard_overhead"]["overhead_pct"],
     "<=", lambda d: d["guard_overhead"]["target_pct"]),
    ("BENCH_engine", "hyperband_4worker_speedup",
     lambda d: d["headline"]["hyperband_4worker_speedup"], None, None),
    ("BENCH_engine", "journal_overhead_pct",
     lambda d: d["headline"]["journal_overhead_pct"], None, None),
    ("BENCH_telemetry", "tracing_overhead_pct",
     lambda d: d["telemetry_overhead"]["overhead_pct"],
     "<=", lambda d: d["telemetry_overhead"]["target_pct"]),
    ("BENCH_serve", "checks_all_pass",
     lambda d: all(d["checks"].values()), "is", lambda d: True),
    ("BENCH_serve", "overlap_hit_rate",
     lambda d: d["cache"]["overlap_hit_rate"], None, None),
    ("BENCH_obs", "obs_overhead_pct",
     lambda d: d["overhead_pct"],
     "<=", lambda d: d["target_pct"]),
    ("BENCH_obs", "checks_all_pass",
     lambda d: all(d["checks"].values()), "is", lambda d: True),
]


def judge(value, op, target):
    """True iff ``value op target`` holds (None op -> informational)."""
    if op is None:
        return None
    if op == "<=":
        return value <= target
    if op == ">=":
        return value >= target
    if op == "is":
        return value == target
    raise ValueError(f"unknown op {op!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="directory holding the BENCH_*.json files "
                             "(default: the repo root)")
    args = parser.parse_args(argv)
    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent

    payloads = {}
    failures = []
    rows = []
    for artifact, metric, extract, op, target_fn in GATES:
        if artifact not in payloads:
            path = root / f"{artifact}.json"
            try:
                payloads[artifact] = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                payloads[artifact] = None
                failures.append(f"{artifact}: unreadable ({exc})")
        payload = payloads[artifact]
        if payload is None:
            rows.append((artifact, metric, "-", "-", "MISSING"))
            continue
        try:
            value = extract(payload)
            target = target_fn(payload) if target_fn else None
        except (KeyError, TypeError) as exc:
            failures.append(f"{artifact}.{metric}: bad shape ({exc!r})")
            rows.append((artifact, metric, "-", "-", "BADSHAPE"))
            continue
        verdict = judge(value, op, target)
        if verdict is None:
            status = "info"
        elif verdict:
            status = "ok"
        else:
            status = "FAIL"
            failures.append(f"{artifact}.{metric}: {value} violates {op} {target}")
        shown_value = value if not isinstance(value, bool) else ("yes" if value else "NO")
        shown_target = f"{op} {target}" if op else "-"
        rows.append((artifact, metric, str(shown_value), shown_target, status))

    widths = [max(len(str(row[col])) for row in rows + [("artifact", "metric", "value", "target", "status")])
              for col in range(5)]
    header = ("artifact", "metric", "value", "target", "status")
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {sum(1 for r in rows if r[4] == 'ok')} gated metrics within targets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
