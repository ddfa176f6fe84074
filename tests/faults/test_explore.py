"""ScheduleExplorer end-to-end: census, sweep, fail path, shrinker.

Every test here spawns real subprocess legs that really die via
``os._exit``, so the module is gated behind the ``faults`` marker
(``pytest -m faults``); tier-1 never runs it.

The hypothesis properties are the satellite contract: *any* censused
single-fault crash schedule over the journal/registry sites — on the
direct HB+ run and on the serve-daemon burst — resumes to the bitwise
reference fingerprint.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.explore import (
    CrashPlan,
    FaultSchedule,
    census_workload,
    explore_plans,
    run_plan,
    shrink_plan,
    single_fault_plans,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("crashx")


@pytest.fixture(scope="module")
def toy_reference(base_dir):
    return census_workload("toy", base_dir)


@pytest.fixture(scope="module")
def buggy_reference(base_dir):
    return census_workload("toy-buggy", base_dir)


@pytest.fixture(scope="module")
def hb_reference(base_dir):
    return census_workload("hb", base_dir)


@pytest.fixture(scope="module")
def serve_reference(base_dir):
    return census_workload("serve", base_dir)


class TestToyWorkload:
    def test_census(self, toy_reference):
        assert toy_reference.census == {
            "toy.step.pre": 5, "toy.step.mid": 5, "toy.step.post": 5,
        }
        assert "fingerprint" in toy_reference.fingerprint

    def test_single_fault_sweep_passes(self, toy_reference, base_dir):
        plans = single_fault_plans(toy_reference, max_hits_per_site=2)
        assert len(plans) == 6
        outcomes = explore_plans(
            "toy", plans, toy_reference.fingerprint, base_dir, jobs=2
        )
        assert [o.status for o in outcomes] == ["pass"] * len(plans)

    def test_not_reached_second_leg_still_verifies(self, toy_reference, base_dir):
        # Crashing at the last step's mid-point leaves nothing to redo, so
        # the second leg's trigger never fires — the leg completes and the
        # fingerprint check still runs.
        plan = CrashPlan(legs=(
            FaultSchedule.single("toy.step.mid", 4),
            FaultSchedule.single("toy.step.pre", 4),
        ))
        outcome = run_plan("toy", plan, toy_reference.fingerprint, base_dir,
                           keep_failed=False)
        assert outcome.passed, outcome.detail
        assert outcome.not_reached == 1

    def test_ioerror_schedule_is_tolerated_and_resumed(self, toy_reference, base_dir):
        plan = CrashPlan(legs=(FaultSchedule.single("toy.step.pre", 2, "ioerror"),))
        outcome = run_plan("toy", plan, toy_reference.fingerprint, base_dir,
                           keep_failed=False)
        assert outcome.passed, outcome.detail

    def test_buggy_ordering_is_caught_and_shrunk(self, buggy_reference, base_dir):
        # The buggy variant advances state before the log write; the
        # explorer must catch the lost log line at every mid-point crash,
        # and the shrinker must walk the reproducer down to hit 0.
        failing = run_plan(
            "toy-buggy", CrashPlan.single("toy.step.mid", 3),
            buggy_reference.fingerprint, base_dir, keep_failed=False,
        )
        assert not failing.passed
        assert "fingerprint mismatch" in failing.detail

        def still_fails(candidate):
            return not run_plan(
                "toy-buggy", candidate, buggy_reference.fingerprint, base_dir,
                keep_failed=False,
            ).passed

        shrunk = shrink_plan(failing.plan, still_fails)
        assert shrunk.describe() == "toy.step.mid#0=crash"


class TestReferenceCensus:
    def test_hb_covers_the_engine_lattice(self, hb_reference):
        prefixes = {site.split(".")[0] for site in hb_reference.sites}
        assert {"journal", "checkpoint", "engine", "executor"} <= prefixes
        assert len(hb_reference.census) >= 12

    def test_serve_adds_the_service_lattice(self, serve_reference):
        prefixes = {site.split(".")[0] for site in serve_reference.sites}
        assert {"journal", "registry", "serve"} <= prefixes
        assert len(serve_reference.census) >= 20


def _draw_point(data, reference, prefixes):
    sites = [site for site in reference.sites if site.startswith(prefixes)]
    assert sites, f"no censused sites under {prefixes}"
    site = data.draw(st.sampled_from(sites))
    hit = data.draw(st.integers(min_value=0, max_value=reference.census[site] - 1))
    return site, hit


class TestSingleFaultProperty:
    """Crash anywhere in the durable-write lattice; resume stays bitwise."""

    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_hb_direct(self, hb_reference, base_dir, data):
        site, hit = _draw_point(data, hb_reference, ("journal.", "checkpoint."))
        outcome = run_plan("hb", CrashPlan.single(site, hit),
                           hb_reference.fingerprint, base_dir, keep_failed=False)
        assert outcome.passed, f"{site}#{hit}: {outcome.detail}"

    @settings(max_examples=6, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_serve_daemon(self, serve_reference, base_dir, data):
        site, hit = _draw_point(data, serve_reference, ("journal.", "registry."))
        outcome = run_plan("serve", CrashPlan.single(site, hit),
                           serve_reference.fingerprint, base_dir, keep_failed=False)
        assert outcome.passed, f"{site}#{hit}: {outcome.detail}"


@pytest.fixture(scope="module")
def hb_par_reference(base_dir):
    return census_workload("hb-par", base_dir)


class TestArenaLattice:
    """The parallel workload adds the shared-memory data plane to the sweep."""

    def test_census_covers_arena_and_pool_sites(self, hb_par_reference):
        census = hb_par_reference.census
        assert census.get("arena.attach", 0) >= 1
        assert census.get("arena.create", 0) >= 3  # probe + X + y
        assert census.get("arena.unlink", 0) >= 3
        prefixes = {site.split(".")[0] for site in hb_par_reference.sites}
        assert {"arena", "journal", "checkpoint", "engine", "executor"} <= prefixes

    def test_same_fingerprint_as_serial_workload(self, hb_reference, hb_par_reference):
        # The transport must never change the incumbent: parallel + arena
        # == serial, bit for bit.
        assert hb_par_reference.fingerprint == hb_reference.fingerprint

    def test_every_arena_crash_schedule_resumes_bitwise(self, hb_par_reference, base_dir):
        plans = single_fault_plans(
            hb_par_reference,
            sites=[s for s in hb_par_reference.sites if s.startswith("arena.")],
        )
        assert len(plans) >= 7
        for plan in plans:
            outcome = run_plan(
                "hb-par", plan, hb_par_reference.fingerprint, base_dir,
                keep_failed=False,
            )
            assert outcome.passed, f"{plan.describe()}: {outcome.detail}"


class TestRungProtocolLattice:
    """The rung's transport and durable commit are enumerable crash points."""

    COMMIT_SITES = [
        "checkpoint.segment.pre_write",
        "checkpoint.segment.pre_fsync",
        "checkpoint.segment.pre_replace",
        "checkpoint.segment.post_replace",
        "checkpoint.segment.post_dirsync",
        "journal.commit.pre_write",
        "journal.commit.pre_fsync",
        "journal.commit.post_fsync",
    ]

    def test_census_counts_one_commit_per_rung(self, hb_reference, hb_par_reference):
        for reference in (hb_reference, hb_par_reference):
            commits = {reference.census.get(site, 0) for site in self.COMMIT_SITES}
            assert len(commits) == 1 and commits != {0}, reference.census
            # ... far fewer than the records they make durable.
            assert commits.pop() < reference.census["checkpoint.put.pre"]
        # Dealing sends each of the two workers at most one message per rung.
        rungs = hb_par_reference.census["journal.commit.pre_write"]
        assert 0 < hb_par_reference.census["executor.pool.pre_send"] <= 2 * rungs

    def test_crashing_the_parallel_rung_protocol_resumes_bitwise(
        self, hb_par_reference, base_dir
    ):
        plans = single_fault_plans(
            hb_par_reference,
            sites=self.COMMIT_SITES + ["executor.pool.pre_send"],
            max_hits_per_site=2,
        )
        assert len(plans) == 2 * (len(self.COMMIT_SITES) + 1)
        for plan in plans:
            outcome = run_plan(
                "hb-par", plan, hb_par_reference.fingerprint, base_dir,
                keep_failed=False,
            )
            assert outcome.passed, f"{plan.describe()}: {outcome.detail}"
