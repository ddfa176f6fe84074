#!/usr/bin/env bash
# Full verification ladder:
#   1. tier-1 test suite (fast; chaos + telemetry + kernels tests
#      deselected by pyproject addopts)
#   2. bench smoke (bench/test_smoke.py: every bench/ workload once at
#      --quick size, untraced and traced — read-only use of bench/; a
#      change that breaks a name bench/layers.py patches, e.g.
#      RunJournal.append or ParallelExecutor.submit, fails here before
#      the benchmark does)
#   3. guard tier (data-integrity layer + corrupted-data chaos scenario)
#   4. kernels tier (exhaustive fit-kernel property sweeps: lean kernel
#      vs the test oracle, batched vs sequential; kernel *speed* is
#      bench/'s learners.probe.rung_*_ms and sha_fused_wide, not a gate here)
#   5. telemetry tier (trace-file tests + tracing/profiling overhead bench)
#   6. serve tier (service-daemon end-to-end tests + two-tenant burst
#      bench smoke)
#   7. elastic tier (elastic pool / speculative execution tests)
#   8. chaos-marked pytest tier (process kills, SIGKILL resume)
#   9. fault-injection harness smoke (tools/chaos_suite.py --quick,
#      per-scenario wall-clock printed by the harness itself)
#  10. crashx tier (faults-marked explorer tests + a bounded
#      crash-schedule sweep over the toy and HB+ workloads; the full
#      sweep that regenerates CRASHX_report.json is
#      `python tools/crashx.py --pairwise 40 --jobs 2 --out CRASHX_report.json`)
#  11. obs tier (obs-marked observability tests + the SIGKILL
#      flight-recorder chaos scenario + the obs overhead bench smoke)
#  12. bench regression gate (tools/bench_regress.py re-judges every
#      committed BENCH_*.json against its targets)
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
echo "== telemetry tier: pytest -m telemetry + overhead bench =="
python -m pytest -q -m telemetry
python tools/bench_engine.py --only telemetry --n-samples 400 --max-iter 8 \
    --telemetry-out "$(mktemp -t BENCH_telemetry_check.XXXXXX.json)"

echo
echo "== serve tier: pytest -m serve + burst bench smoke =="
python -m pytest -q -m serve
python tools/bench_serve.py --quick

echo
echo "== elastic tier: pytest -m elastic =="
python -m pytest -q -m elastic

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
echo "== obs tier: pytest -m obs + SIGKILL flight-recorder scenario + bench smoke =="
python -m pytest -q -m obs
python tools/chaos_suite.py --only serve-sigkill-flightrec
python tools/bench_obs.py --quick

echo
echo "== bench regression gate: tools/bench_regress.py =="
python tools/bench_regress.py

echo
echo "all checks passed"
