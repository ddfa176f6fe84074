"""ScheduleExplorer: enumerate crash schedules, assert bitwise resume.

The explorer turns the crash-safety promise ("a journaled run resumed
after a crash is bitwise-identical to the uninterrupted run") from a
sampled property into an enumerated one:

1. **Census** — run a reference workload once with a census-armed
   controller; every fault point reports how many times it fired and the
   completed run records its fingerprint.
2. **Single-fault sweep** — for every censused ``(site, k)``, run the
   workload with ``site#k=crash`` armed.  The process dies mid-operation
   (exit :data:`~repro.faults.schedule.CRASH_EXIT_CODE`); a resume leg
   over the same directory must then complete and reproduce the
   reference fingerprint exactly.
3. **Pairwise schedules** — under a budget, crash once, then crash the
   *resume* at a second point before the final leg completes — the
   crash-during-recovery lattice.
4. **Shrinker** — any failing plan is greedily minimized (drop legs,
   drop triggers, lower hit indices, shrink truncate amounts) to its
   shortest still-failing reproducer before it is reported.

``tools/crashx.py`` is the CLI; its ``--out PATH`` writes the sweep's
coverage report (``CRASHX_report.json`` by convention), which is not
committed.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .points import ENV_VAR
from .schedule import CRASH_EXIT_CODE, FaultAction, FaultSchedule, FaultTrigger
from .workloads import WORKLOAD_NAMES

__all__ = [
    "CrashPlan",
    "PlanOutcome",
    "WorkloadReference",
    "census_workload",
    "explore_plans",
    "pairwise_plans",
    "run_plan",
    "shrink_plan",
    "single_fault_plans",
]

#: Default per-leg subprocess timeout (seconds).
LEG_TIMEOUT = 300.0

#: Action kinds that end the leg by killing the process.
_CRASHING = ("crash", "truncate")


@dataclass(frozen=True)
class CrashPlan:
    """A multi-leg crash scenario: leg ``i`` runs armed with ``legs[i]``.

    Each leg is expected to either crash at its scheduled trigger or —
    when the trigger's hit index is never reached (the resume executes
    less than the reference) — complete cleanly.  After the last armed
    leg, a final unarmed leg resumes to completion.
    """

    legs: Tuple[FaultSchedule, ...]

    def describe(self) -> str:
        """Compact form with legs joined by ``||``."""
        return " || ".join(leg.describe() for leg in self.legs)

    @classmethod
    def single(cls, site: str, hit: int, action: str = "crash") -> "CrashPlan":
        """The one-leg, one-fault plan ``site#hit=action``."""
        return cls(legs=(FaultSchedule.single(site, hit, action),))


@dataclass
class PlanOutcome:
    """What happened when one plan ran: pass/fail plus forensics."""

    plan: CrashPlan
    status: str  # "pass" | "fail"
    detail: str = ""
    #: Legs whose trigger never fired (leg completed with exit 0).
    not_reached: int = 0
    legs_run: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class WorkloadReference:
    """One censused reference run: per-site hit counts plus fingerprint."""

    workload: str
    census: Dict[str, int]
    fingerprint: Dict[str, Any]
    elapsed: float = 0.0

    @property
    def sites(self) -> List[str]:
        return sorted(self.census)

    @property
    def total_hits(self) -> int:
        return sum(self.census.values())


# -- subprocess legs ----------------------------------------------------------


def _child_env(
    schedule: Optional[FaultSchedule],
    census_path: Optional[Path],
    run_dir: Path,
    flightrec_dir: Optional[Path] = None,
) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    spec: Dict[str, Any] = {}
    if schedule is not None and len(schedule):
        spec["schedule"] = schedule.to_payload()
        # Every leg is a fresh arming; its claims live (and die) with the plan.
        spec["claims"] = tempfile.mkdtemp(prefix="claims-", dir=str(run_dir))
    if census_path is not None:
        spec["census"] = str(census_path)
    if flightrec_dir is not None:
        spec["flightrec"] = str(flightrec_dir)
    if spec:
        env[ENV_VAR] = json.dumps(spec, sort_keys=True)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    if existing is None or src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


def run_leg(
    workload: str,
    run_dir: Path,
    schedule: Optional[FaultSchedule] = None,
    census_path: Optional[Path] = None,
    timeout: float = LEG_TIMEOUT,
    flightrec_dir: Optional[Path] = None,
) -> subprocess.CompletedProcess:
    """Run one workload leg in a subprocess; never raises on bad exits."""
    command = [sys.executable, "-m", "repro.faults.workloads", workload, str(run_dir)]
    try:
        return subprocess.run(
            command,
            env=_child_env(schedule, census_path, run_dir, flightrec_dir),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(
            command, returncode=-1,
            stdout=str(exc.stdout or ""), stderr=f"leg timed out after {timeout:.0f}s",
        )


def _read_census(census_path: Path) -> Dict[str, int]:
    hits: Dict[str, int] = {}
    if not census_path.exists():
        return hits
    for line in census_path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        for site, count in (entry.get("hits") or {}).items():
            hits[site] = hits.get(site, 0) + int(count)
    return hits


def _read_fingerprint(run_dir: Path) -> Optional[Dict[str, Any]]:
    path = run_dir / "FINGERPRINT.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def census_workload(
    workload: str, base_dir: Path, timeout: float = LEG_TIMEOUT
) -> WorkloadReference:
    """Run the uninterrupted reference once, collecting hits + fingerprint."""
    run_dir = Path(base_dir) / f"census-{workload}"
    census_path = run_dir / "census.jsonl"
    run_dir.mkdir(parents=True, exist_ok=True)
    proc = run_leg(workload, run_dir, census_path=census_path, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"census run of {workload!r} failed (exit {proc.returncode}):\n"
            f"{_tail(proc.stderr)}"
        )
    fingerprint = _read_fingerprint(run_dir)
    if fingerprint is None:
        raise RuntimeError(f"census run of {workload!r} wrote no FINGERPRINT.json")
    elapsed = 0.0
    try:
        elapsed = float(json.loads(proc.stdout.splitlines()[-1]).get("elapsed", 0.0))
    except (ValueError, IndexError):
        pass
    return WorkloadReference(
        workload=workload,
        census=_read_census(census_path),
        fingerprint=fingerprint,
        elapsed=elapsed,
    )


def _tail(text: str, lines: int = 12) -> str:
    return "\n".join((text or "").strip().splitlines()[-lines:])


# -- plan execution -----------------------------------------------------------


def run_plan(
    workload: str,
    plan: CrashPlan,
    reference: Dict[str, Any],
    base_dir: Path,
    timeout: float = LEG_TIMEOUT,
    keep_failed: bool = True,
) -> PlanOutcome:
    """Execute one crash plan in a fresh directory and verify the resume.

    Leg protocol: exit ``CRASH_EXIT_CODE`` means the scheduled crash
    fired (continue to the next leg over the same directory); exit 0
    means the leg ran to completion without reaching its trigger (the
    plan degenerates — verify and stop); exit 1 is tolerated only for
    legs whose schedule contains raising actions (ioerror/enospc).  Any
    other exit, a timeout, or a fingerprint mismatch fails the plan.
    """
    run_dir = Path(tempfile.mkdtemp(prefix="plan-", dir=str(base_dir)))
    outcome = _run_plan_inner(workload, plan, reference, run_dir, timeout)
    if outcome.passed or not keep_failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        outcome.detail += f"\n[state kept at {run_dir}]"
    return outcome


def _run_plan_inner(
    workload: str,
    plan: CrashPlan,
    reference: Dict[str, Any],
    run_dir: Path,
    timeout: float,
) -> PlanOutcome:
    not_reached = 0
    legs_run = 0
    completed = False
    for index, leg in enumerate(plan.legs):
        # Crash legs arm the flight recorder so every injected fault leaves
        # a post-mortem dump next to the run state it interrupted.
        proc = run_leg(
            workload, run_dir, schedule=leg, timeout=timeout,
            flightrec_dir=run_dir / "obs",
        )
        legs_run += 1
        if proc.returncode == CRASH_EXIT_CODE:
            continue
        if proc.returncode == 0:
            if any(t.action.kind in _CRASHING for t in leg.triggers):
                not_reached += 1
            completed = True
            break
        raising = any(t.action.kind in ("ioerror", "enospc") for t in leg.triggers)
        if proc.returncode == 1 and raising:
            continue
        return PlanOutcome(
            plan=plan, status="fail", legs_run=legs_run, not_reached=not_reached,
            detail=f"leg {index} [{leg.describe()}] exited {proc.returncode}: "
                   f"{_tail(proc.stderr)}",
        )
    if not completed:
        proc = run_leg(workload, run_dir, schedule=None, timeout=timeout)
        legs_run += 1
        if proc.returncode != 0:
            return PlanOutcome(
                plan=plan, status="fail", legs_run=legs_run, not_reached=not_reached,
                detail=f"final resume leg exited {proc.returncode}: {_tail(proc.stderr)}",
            )
    fingerprint = _read_fingerprint(run_dir)
    if fingerprint != reference:
        return PlanOutcome(
            plan=plan, status="fail", legs_run=legs_run, not_reached=not_reached,
            detail=f"fingerprint mismatch: resumed {fingerprint!r} != reference {reference!r}",
        )
    return PlanOutcome(
        plan=plan, status="pass", legs_run=legs_run, not_reached=not_reached
    )


def explore_plans(
    workload: str,
    plans: Sequence[CrashPlan],
    reference: Dict[str, Any],
    base_dir: Path,
    jobs: int = 1,
    timeout: float = LEG_TIMEOUT,
    progress: Optional[Callable[[PlanOutcome, int, int], None]] = None,
) -> List[PlanOutcome]:
    """Run many plans (optionally in parallel); preserves input order."""
    total = len(plans)
    outcomes: List[Optional[PlanOutcome]] = [None] * total
    done = 0

    def _one(index: int) -> Tuple[int, PlanOutcome]:
        return index, run_plan(workload, plans[index], reference, base_dir, timeout=timeout)

    if jobs <= 1:
        iterator = map(_one, range(total))
    else:
        pool = ThreadPoolExecutor(max_workers=jobs)
        iterator = pool.map(_one, range(total))
    for index, outcome in iterator:
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)
    if jobs > 1:
        pool.shutdown()
    return [outcome for outcome in outcomes if outcome is not None]


# -- plan generators ----------------------------------------------------------


def single_fault_plans(
    reference: WorkloadReference,
    sites: Optional[Sequence[str]] = None,
    max_hits_per_site: Optional[int] = None,
    action: str = "crash",
) -> List[CrashPlan]:
    """Every ``(site, k)`` single-fault plan the census makes meaningful.

    ``max_hits_per_site`` bounds the sweep per site by sampling the hit
    range ends-first (first hit, last hit, then interior) — boundary
    arrivals are where off-by-one crash bugs live.
    """
    plans: List[CrashPlan] = []
    wanted = set(sites) if sites is not None else None
    for site in reference.sites:
        if wanted is not None and site not in wanted:
            continue
        count = reference.census[site]
        hit_indices = list(range(count))
        if max_hits_per_site is not None and count > max_hits_per_site:
            ordered = _ends_first(hit_indices)
            hit_indices = sorted(ordered[:max_hits_per_site])
        for hit in hit_indices:
            plans.append(CrashPlan.single(site, hit, action))
    return plans


def _ends_first(indices: List[int]) -> List[int]:
    """Reorder ``[0..n)`` as first, last, second, second-to-last, ..."""
    ordered: List[int] = []
    low, high = 0, len(indices) - 1
    while low <= high:
        ordered.append(indices[low])
        if high != low:
            ordered.append(indices[high])
        low += 1
        high -= 1
    return ordered


def pairwise_plans(
    reference: WorkloadReference,
    budget: int,
    seed: int = 0,
    sites: Optional[Sequence[str]] = None,
) -> List[CrashPlan]:
    """Sample ``budget`` two-leg plans: crash, then crash the recovery.

    The second leg's hit index is drawn against the *reference* census;
    a resume that executes fewer arrivals simply never reaches it and
    the leg completes (counted ``not_reached``, still verified).
    """
    rng = random.Random(seed)
    points: List[Tuple[str, int]] = []
    wanted = set(sites) if sites is not None else None
    for site in reference.sites:
        if wanted is not None and site not in wanted:
            continue
        points.extend((site, hit) for hit in range(reference.census[site]))
    plans: List[CrashPlan] = []
    seen = set()
    attempts = 0
    while len(plans) < budget and attempts < budget * 20 and len(points) >= 2:
        attempts += 1
        first = rng.choice(points)
        second = rng.choice(points)
        key = (first, second)
        if key in seen:
            continue
        seen.add(key)
        plans.append(
            CrashPlan(
                legs=(
                    FaultSchedule.single(*first),
                    FaultSchedule.single(*second),
                )
            )
        )
    return plans


# -- shrinker -----------------------------------------------------------------


def shrink_plan(
    plan: CrashPlan, still_fails: Callable[[CrashPlan], bool], max_checks: int = 64
) -> CrashPlan:
    """Greedily minimize a failing plan to a shorter still-failing one.

    Reduction moves, tried until a fixed point or ``max_checks`` runs:
    drop a whole leg, drop one trigger from a multi-trigger leg, halve or
    decrement a trigger's hit index, halve a truncate amount.  Every
    accepted candidate must still fail under ``still_fails`` (which
    re-runs the plan), so the result is a verified reproducer.
    """
    checks = 0

    def _check(candidate: CrashPlan) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        return still_fails(candidate)

    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in _reductions(plan):
            if _check(candidate):
                plan = candidate
                improved = True
                break
    return plan


def _reductions(plan: CrashPlan):
    """Candidate one-step reductions of a plan, simplest-first."""
    legs = plan.legs
    if len(legs) > 1:
        for index in range(len(legs)):
            yield CrashPlan(legs=legs[:index] + legs[index + 1:])
    for leg_index, leg in enumerate(legs):
        triggers = leg.triggers
        if len(triggers) > 1:
            for t_index in range(len(triggers)):
                reduced = triggers[:t_index] + triggers[t_index + 1:]
                yield _with_leg(plan, leg_index, FaultSchedule(reduced))
        for t_index, trigger in enumerate(triggers):
            for smaller_hit in _smaller(trigger.hit):
                replaced = list(triggers)
                replaced[t_index] = FaultTrigger(trigger.site, smaller_hit, trigger.action)
                yield _with_leg(plan, leg_index, FaultSchedule(replaced))
            if trigger.action.kind == "truncate" and trigger.action.amount > 1:
                replaced = list(triggers)
                replaced[t_index] = FaultTrigger(
                    trigger.site, trigger.hit,
                    FaultAction("truncate", max(1, int(trigger.action.amount // 2))),
                )
                yield _with_leg(plan, leg_index, FaultSchedule(replaced))


def _smaller(hit: int):
    if hit > 0:
        if hit // 2 != hit - 1:
            yield hit // 2
        yield hit - 1


def _with_leg(plan: CrashPlan, index: int, leg: FaultSchedule) -> CrashPlan:
    legs = list(plan.legs)
    legs[index] = leg
    return CrashPlan(legs=tuple(legs))


# -- reporting ----------------------------------------------------------------


def summarize(
    reference: WorkloadReference, outcomes: Sequence[PlanOutcome]
) -> Dict[str, Any]:
    """The per-workload section of the ``--out`` coverage report."""
    failures = [o for o in outcomes if not o.passed]
    return {
        "workload": reference.workload,
        "sites": len(reference.census),
        "census": dict(sorted(reference.census.items())),
        "reference_fingerprint": reference.fingerprint,
        "reference_elapsed_seconds": round(reference.elapsed, 3),
        "plans_explored": len(outcomes),
        "passed": sum(1 for o in outcomes if o.passed),
        "failed": len(failures),
        "not_reached_legs": sum(o.not_reached for o in outcomes),
        "failures": [
            {"plan": o.plan.describe(), "detail": o.detail} for o in failures
        ],
    }
