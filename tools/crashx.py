#!/usr/bin/env python
"""crashx — deterministic crash-schedule explorer CLI (``repro.faults``).

Enumerates crash schedules over the reference workloads and asserts the
bitwise resume contract at every point:

1. **census** a workload: run it once uninterrupted with every fault
   point counting its hits, and record the reference fingerprint;
2. **sweep** every ``(site, hit)`` single-fault crash schedule: the
   process is killed mid-operation, restarted over the same directory,
   and the resumed fingerprint must equal the reference bit for bit;
3. optionally sample **pairwise** schedules (crash, then crash the
   recovery) under ``--pairwise N``;
4. **shrink** any failing schedule to its shortest still-failing
   reproducer before reporting it.

Usage::

    PYTHONPATH=src python tools/crashx.py --census-only        # site census
    PYTHONPATH=src python tools/crashx.py --workload toy       # quick check
    PYTHONPATH=src python tools/crashx.py --max-hits-per-site 2  # bounded (CI)
    PYTHONPATH=src python tools/crashx.py --pairwise 40 \\
        --jobs 2 --out CRASHX_report.json                      # full report

Exit code 0 iff every explored schedule passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults.explore import (  # noqa: E402
    census_workload,
    explore_plans,
    pairwise_plans,
    run_plan,
    shrink_plan,
    single_fault_plans,
    summarize,
)
from repro.faults.workloads import WORKLOAD_NAMES  # noqa: E402


#: Site prefixes of the hb-par workloads that only ever fire in the parent.
HB_PAR_PARENT_LAYERS = ("arena.", "journal.", "checkpoint.", "executor.pool.")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOAD_NAMES), default=None,
        help="workload(s) to explore (default: hb, hb-par and serve; the "
             "hb-par sweep is restricted to parent-process sites unless --site "
             "is given)",
    )
    parser.add_argument(
        "--census-only", action="store_true",
        help="print each workload's fault-point census and exit",
    )
    parser.add_argument(
        "--site", action="append", default=None,
        help="restrict the sweep to these site names (repeatable)",
    )
    parser.add_argument(
        "--max-hits-per-site", type=int, default=None, metavar="N",
        help="bound the sweep to N hit indices per site, ends-first "
             "(default: every censused hit)",
    )
    parser.add_argument(
        "--action", default="crash",
        help="fault action for the single-fault sweep (default: crash)",
    )
    parser.add_argument(
        "--pairwise", type=int, default=0, metavar="N",
        help="additionally sample N two-leg crash-the-recovery schedules",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="pairwise sampling seed (default 0)"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run N schedules concurrently (default 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="per-leg subprocess timeout in seconds (default 300)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the coverage report JSON here",
    )
    parser.add_argument(
        "--base-dir", type=Path, default=None, metavar="DIR",
        help="working directory for run state (default: a fresh temp dir)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = args.workload or ["hb", "hb-par", "serve"]
    base_dir = args.base_dir or Path(tempfile.mkdtemp(prefix="crashx-"))
    base_dir.mkdir(parents=True, exist_ok=True)
    own_base = args.base_dir is None
    started = time.monotonic()
    sections = []
    any_failed = False
    distinct_sites = set()
    try:
        for name in workloads:
            print(f"== {name}: census ==", flush=True)
            reference = census_workload(name, base_dir, timeout=args.timeout)
            distinct_sites.update(reference.census)
            print(
                f"   {len(reference.census)} sites, {reference.total_hits} hits, "
                f"reference run {reference.elapsed:.2f}s"
            )
            if args.census_only:
                for site in reference.sites:
                    print(f"   {site:42s} {reference.census[site]:5d}")
                sections.append(summarize(reference, []))
                continue
            sites = args.site
            if name.startswith("hb-par") and sites is None:
                # hb-par's census includes sites hit inside pool workers
                # (executor.worker.*, executor.evaluate).  A crash there
                # kills a worker, not the run: the engine retries its trials
                # under a fresh attempt seed, so the result can never be
                # bitwise the reference.  The degrade table
                # (tests/engine/test_chaos.py) covers those sites under fork
                # and spawn.  Sweep only the layers that live in the parent
                # (the data plane, the rung's transport and its durable
                # commit) by default; --site overrides.
                sites = [s for s in reference.sites if s.startswith(HB_PAR_PARENT_LAYERS)]
                print(f"   (sweep restricted to {len(sites)} parent-process sites; "
                      f"pass --site to override)")
            plans = single_fault_plans(
                reference,
                sites=sites,
                max_hits_per_site=args.max_hits_per_site,
                action=args.action,
            )
            plans.extend(
                pairwise_plans(reference, args.pairwise, seed=args.seed, sites=sites)
            )
            print(f"== {name}: exploring {len(plans)} schedules ==", flush=True)

            def _progress(outcome, done, total):
                if not outcome.passed:
                    print(f"   FAIL [{outcome.plan.describe()}] {outcome.detail}", flush=True)
                if done % 50 == 0 or done == total:
                    print(f"   {done}/{total} explored", flush=True)

            outcomes = explore_plans(
                name, plans, reference.fingerprint, base_dir,
                jobs=args.jobs, timeout=args.timeout, progress=_progress,
            )
            failures = [o for o in outcomes if not o.passed]
            for failure in failures:
                def _still_fails(candidate):
                    return not run_plan(
                        name, candidate, reference.fingerprint, base_dir,
                        timeout=args.timeout, keep_failed=False,
                    ).passed

                shrunk = shrink_plan(failure.plan, _still_fails)
                failure.detail += f"\n[shrunk reproducer: {shrunk.describe()}]"
                print(f"   shrunk: {failure.plan.describe()} -> {shrunk.describe()}")
            section = summarize(reference, outcomes)
            sections.append(section)
            any_failed = any_failed or bool(failures)
            print(
                f"== {name}: {section['passed']}/{section['plans_explored']} passed, "
                f"{section['failed']} failed, "
                f"{section['not_reached_legs']} not-reached legs =="
            )
    finally:
        if own_base:
            shutil.rmtree(base_dir, ignore_errors=True)
    report = {
        "tool": "tools/crashx.py",
        "workloads": sections,
        "distinct_sites": len(distinct_sites),
        "total_plans": sum(s["plans_explored"] for s in sections),
        "total_failed": sum(s["failed"] for s in sections),
        "elapsed_seconds": round(time.monotonic() - started, 1),
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    print(
        f"crashx: {report['total_plans']} schedules over {report['distinct_sites']} "
        f"distinct sites, {report['total_failed']} failed, "
        f"{report['elapsed_seconds']}s"
    )
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
