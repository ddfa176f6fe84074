"""Fault schedules: action parsing, plan generators, the shrinker.

Pure unit tests — no subprocesses, so these run in tier-1.
"""

import json

import pytest

from repro.faults.explore import (
    CrashPlan,
    pairwise_plans,
    shrink_plan,
    single_fault_plans,
    WorkloadReference,
)
from repro.faults.schedule import (
    CRASH_EXIT_CODE,
    FaultAction,
    FaultSchedule,
    FaultTrigger,
)


class TestFaultAction:
    @pytest.mark.parametrize("spec,kind,amount", [
        ("crash", "crash", 0.0),
        ("ioerror", "ioerror", 0.0),
        ("enospc", "enospc", 0.0),
        ("truncate:20", "truncate", 20.0),
        ("delay:0.05", "delay", 0.05),
    ])
    def test_parse(self, spec, kind, amount):
        action = FaultAction.parse(spec)
        assert (action.kind, action.amount) == (kind, amount)

    @pytest.mark.parametrize("spec", ["crash", "ioerror", "truncate:8", "delay:0.5"])
    def test_str_round_trips(self, spec):
        assert str(FaultAction.parse(spec)) == spec

    @pytest.mark.parametrize("spec", ["explode", "truncate", "delay", "truncate:-3"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultAction.parse(spec)

    def test_crash_exit_code_is_distinctive(self):
        # The explorer tells an injected crash from an ordinary failure
        # (exit 1) by this code; it must stay a valid 8-bit status.
        assert CRASH_EXIT_CODE not in (0, 1)
        assert 0 < CRASH_EXIT_CODE < 128


class TestFaultSchedule:
    def test_trigger_payload_round_trip(self):
        trigger = FaultTrigger("journal.commit.pre_fsync", 3, FaultAction.parse("truncate:8"))
        assert FaultTrigger.from_payload(trigger.to_payload()) == trigger

    def test_action_for(self):
        schedule = FaultSchedule.single("a.b", 2, "crash")
        assert schedule.action_for("a.b", 2).kind == "crash"
        assert schedule.action_for("a.b", 1) is None
        assert schedule.action_for("a.c", 2) is None

    def test_duplicate_triggers_rejected(self):
        trigger = FaultTrigger("a.b", 0, FaultAction.parse("crash"))
        with pytest.raises(ValueError):
            FaultSchedule([trigger, trigger])

    def test_describe(self):
        assert FaultSchedule().describe() == "<empty schedule>"
        assert FaultSchedule.single("a.b", 4).describe() == "a.b#4=crash"

    def test_json_round_trip(self):
        schedule = FaultSchedule([
            FaultTrigger("a.b", 0, FaultAction.parse("crash")),
            FaultTrigger("c.d", 7, FaultAction.parse("delay:0.1")),
        ])
        assert FaultSchedule.from_json(schedule.to_json()) == schedule

    def test_to_env_carries_schedule_and_census(self):
        schedule = FaultSchedule.single("a.b", 1)
        spec = json.loads(schedule.to_env(census_path="/tmp/census.jsonl"))
        assert spec["census"] == "/tmp/census.jsonl"
        assert spec["schedule"] == schedule.to_payload()


def _reference(census):
    return WorkloadReference(workload="toy", census=census, fingerprint={"fingerprint": "x"})


class TestPlanGenerators:
    def test_single_fault_plans_enumerate_census(self):
        plans = single_fault_plans(_reference({"a": 3, "b": 1}))
        assert [p.describe() for p in plans] == [
            "a#0=crash", "a#1=crash", "a#2=crash", "b#0=crash",
        ]

    def test_max_hits_per_site_samples_ends_first(self):
        plans = single_fault_plans(_reference({"a": 5, "b": 1}), max_hits_per_site=2)
        # Boundary arrivals (first and last hit) are kept; interior dropped.
        assert [p.describe() for p in plans] == ["a#0=crash", "a#4=crash", "b#0=crash"]

    def test_site_filter(self):
        plans = single_fault_plans(_reference({"a": 2, "b": 2}), sites=["b"])
        assert {t.site for p in plans for leg in p.legs for t in leg.triggers} == {"b"}

    def test_pairwise_plans_are_seeded_and_two_legged(self):
        reference = _reference({"a": 4, "b": 3})
        first = pairwise_plans(reference, budget=5, seed=3)
        second = pairwise_plans(reference, budget=5, seed=3)
        assert [p.describe() for p in first] == [p.describe() for p in second]
        assert len(first) == 5
        assert all(len(p.legs) == 2 for p in first)
        assert pairwise_plans(reference, budget=5, seed=4) != first


class TestShrinker:
    def test_shrinks_to_minimal_reproducer(self):
        # A plan "fails" iff some trigger hits the bad site; everything
        # else is noise the shrinker must strip.
        def still_fails(plan):
            return any(t.site == "toy.step.mid" for leg in plan.legs for t in leg.triggers)

        plan = CrashPlan(legs=(
            FaultSchedule.single("toy.step.mid", 9),
            FaultSchedule.single("toy.step.pre", 3),
        ))
        shrunk = shrink_plan(plan, still_fails)
        assert shrunk.describe() == "toy.step.mid#0=crash"

    def test_respects_check_budget(self):
        calls = []

        def still_fails(plan):
            calls.append(plan)
            return True

        shrink_plan(CrashPlan.single("a.b", 1 << 20), still_fails, max_checks=7)
        assert len(calls) <= 7

    def test_unshrinkable_plan_survives(self):
        plan = CrashPlan.single("a.b", 0)
        assert shrink_plan(plan, lambda candidate: False) == plan
