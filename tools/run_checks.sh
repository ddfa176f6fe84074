#!/usr/bin/env bash
# Full verification ladder:
#   1. tier-1 test suite (fast; chaos + telemetry + kernels tests
#      deselected by pyproject addopts).  Every search in it runs on a
#      TrialEngine (engine=None is the serial default; no inline path):
#      tests/engine/test_engine.py pins no-engine == serial == parallel.
#      The cold-start budget (tests/test_import_budget.py: which modules a
#      fresh interpreter loads) is part of this tier, not one of its own.
#   2. bench smoke (bench/test_smoke.py: every bench/ workload once at
#      --quick size, untraced and traced — read-only use of bench/; a
#      change that breaks a name bench/layers.py patches, e.g.
#      RunJournal.append or ParallelExecutor.submit, fails here before
#      the benchmark does)
#   3. guard tier (data-integrity layer + corrupted-data chaos scenario)
#   4. kernels tier (exhaustive fit-kernel property sweeps: lean kernel
#      vs the test oracle, batched vs sequential; kernel *speed* is
#      bench/'s learners.probe.rung_*_ms and sha_fused_wide, not a gate here)
#   5. telemetry tier (trace-file tests; tracing overhead is bench/'s
#      telemetry.emit_ms on serve_two_tenant)
#   6. serve tier (service-daemon end-to-end tests, incl. the idle
#      keep-alive request bound and the long-poll semantics; latency is
#      bench/'s serve.job_overhead_ms / serve.submit_ms)
#   7. chaos-marked pytest tier (process kills, SIGKILL resume)
#   8. fault-injection harness smoke (tools/chaos_suite.py --quick,
#      per-scenario wall-clock printed by the harness itself)
#   9. crashx tier (faults-marked explorer tests + a bounded
#      crash-schedule sweep over the toy and HB+ workloads; the full
#      sweep that regenerates CRASHX_report.json is
#      `python tools/crashx.py --pairwise 40 --jobs 2 --out CRASHX_report.json`)
#  10. obs tier (obs-marked observability tests + the SIGKILL
#      flight-recorder chaos scenario, which reads the append-only live
#      spill back through flightrec.load)
#
# Usage: bash tools/run_checks.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1: pytest -x -q =="
python -m pytest -x -q

echo
echo "== bench smoke: pytest bench/test_smoke.py =="
python -m pytest bench/test_smoke.py -q

echo
echo "== guard tier: pytest tests/guard + corrupted-data scenario =="
python -m pytest -q tests/guard
python - <<'EOF'
import importlib.util
spec = importlib.util.spec_from_file_location("chaos_suite", "tools/chaos_suite.py")
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print("corrupted-data[sha+]:", module.scenario_corrupted_data("sha+"))
EOF

echo
echo "== kernels tier: pytest -m kernels =="
python -m pytest -q -m kernels

echo
echo "== telemetry tier: pytest -m telemetry =="
python -m pytest -q -m telemetry

echo
echo "== serve tier: pytest -m serve =="
python -m pytest -q -m serve

echo
echo "== chaos tier: pytest -m chaos =="
python -m pytest -q -m chaos

echo
echo "== chaos suite smoke: tools/chaos_suite.py --quick + arena SIGKILL leak check =="
python tools/chaos_suite.py --quick
python tools/chaos_suite.py --only arena-sigkill

echo
echo "== crashx tier: pytest -m faults + bounded schedule sweep =="
python -m pytest -q -m faults
python tools/crashx.py --workload toy --workload hb --workload hb-par \
    --max-hits-per-site 2 --jobs 2

echo
echo "== obs tier: pytest -m obs + SIGKILL flight-recorder scenario =="
python -m pytest -q -m obs
python tools/chaos_suite.py --only serve-sigkill-flightrec

echo
echo "all checks passed"
