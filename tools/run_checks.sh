#!/usr/bin/env bash
# Full verification ladder, seven tiers:
#   1. tier-1 test suite (fast; telemetry, kernels, serve, faults and obs
#      tests deselected by pyproject addopts).  Every search in it runs on
#      a TrialEngine (engine=None is the serial default; no inline path):
#      tests/test_determinism.py holds every repro.core.METHODS name's
#      serial default-engine run (the searcher pin's <name>/grid record)
#      bitwise equal to the same run on a forked 2-worker pool and through
#      the cold crash chain (a run that dies after every journal commit
#      in turn and is resumed each time; its other legs run in the faults
#      tier), and its memory-only sha/sha+ rows of
#      test_cache_is_transparent_when_checkpoints_outgrow_memory hold a
#      warm search that commits more checkpoints than a spill-backed
#      store keeps in memory (256) equal with the cache on and off.
#      It includes tests/guard and the hostile-data guard tests, the
#      cold-start budget (tests/test_import_budget.py), the serial
#      rows of the degrade table (tests/engine/test_chaos.py) and two
#      pins: the trace pin (tests/telemetry/test_trace_pin.py, see tier 4)
#      and the searcher pin (tests/bandit/test_searcher_pin.py: every
#      repro.core.METHODS name's seeded runs -- trial-list sha256,
#      incumbent, PASHA's final ceiling -- against
#      tests/bandit/data/searchers.json, never regenerated to pass).
#   2. bench smoke (bench/test_smoke.py: every bench/ workload once at
#      --quick size, untraced and traced — read-only use of bench/; a
#      change that breaks a name bench/layers.py patches, e.g.
#      RunJournal.append or ParallelExecutor.submit, fails here before
#      the benchmark does; so does a lane-helper process that outlives
#      bench/run.py's teardown, through the smoke's no-process-left check)
#   3. kernels tier (exhaustive fit-kernel property sweeps: lean kernel
#      vs the test oracle, lanes vs the per-fold oracle loop, the mixed-stopping
#      lane sweep — trials differing in tol / n_iter_no_change /
#      learning_rate_init whose folds stall, early-stop, collapse the
#      adaptive schedule or diverge at different epochs, before, at and
#      after an 8-epoch order-block boundary, compacting out of one
#      lane, bitwise-equal to the _reference_kernel oracle — and the
#      shuffle-stream oracle sweep: .fit (a lane of one) and a wider
#      lane, which draw epoch orders eight epochs per
#      generator call, vs the per-epoch rng.permutation loop kept in
#      tests/learners/_reference_kernel.py, plus numpy's permuted ==
#      successive permutation contract; the stacked-scoring sweep:
#      predict_folds + the fold metric vs per-fold make_scorer(metric) on
#      binary, 3-class and regression heads, mixed architectures, widths
#      1..16, constant, guard-shrunk, diverged and non-finite folds
#      (tests/learners/test_stacked_scoring.py); the buffered lane
#      optimisers vs solvers.SGDOptimizer / AdamOptimizer slice by slice,
#      across compaction (tests/learners/test_lane_optimizers.py); and the
#      vectorised splitters vs their per-sample loops kept in
#      tests/model_selection/_reference_splitters.py; the lbfgs oracle
#      sweep: lbfgs lanes (one L-BFGS-B run per fold over scipy's setulb,
#      every fold that asks evaluated in one stacked pass), for any
#      grouping of folds into calls, inline or dealt to the lane helper,
#      bitwise-equal to the per-fold scipy.optimize.minimize oracle in
#      _reference_kernel.py on binary, multiclass and regressor heads,
#      max_iter 1, tol 0, warm starts, the max_fun stop and NaN iterates
#      (tests/learners/test_lbfgs_lanes.py; its bounded cases and the
#      hb+ lbfgs-grid fingerprint guard run in tier-1); the dealt-unit
#      sweep: a call's units (lanes, lbfgs lanes, lane halves) trained
#      half on the calling thread and half in the lane-helper process,
#      bitwise-equal to the inline fit and to the _reference_kernel
#      oracle (odd widths, sgd with nesterov, invscaling and adaptive
#      schedules, adam, early stopping, warm starts, folds stopping
#      either side of the 8-epoch order block; lbfgs with warm starts
#      and divergence rollback), plus the helper's lifecycle: SIGKILLed
#      mid-call the call finishes inline with the same bits, its
#      exceptions reach the caller and the per-rung retry, fork and
#      spawn pool workers and the helper itself never start a helper, a
#      forked child forgets it, a busy helper means inline, and 20
#      searches leave at most one helper
#      (tests/learners/test_split_lanes.py; its odd-lane case and two
#      exit-path cases run in tier-1); kernel *speed* is
#      bench/'s learners.probe.rung_*_ms and sha_fused_wide, not a gate here)
#   4. telemetry tier (trace-file tests: span nesting, Chrome-trace
#      conversion, serial == parallel counters; there is no in-tree
#      profiler — hot-path timing is bench/layers.py's traced run, and
#      tracing overhead is bench/'s telemetry.emit_ms on serve_two_tenant.
#      The trace pin — tests/telemetry/test_trace_pin.py, a deterministic
#      traced HB+ run against tests/telemetry/data/pinned_run.trace.json,
#      ids, parents, names, kinds, attrs, annotations and the final
#      metrics line bar timings — is fast and runs in tier-1)
#   5. serve tier (service-daemon end-to-end tests, incl. the idle
#      keep-alive request bound, the long-poll semantics and disk-full
#      degraded mode; latency is bench/'s serve.job_overhead_ms /
#      serve.submit_ms)
#   6. faults tier (every repro.faults-driven test: the degrade table's
#      fork and spawn pool rows, worker kills, SIGKILL resume, the crashx
#      explorer tests incl. the arena leak check, and the determinism
#      legs outside tier-1's wall: cache off, telemetry on, guard repair,
#      a forked 3-worker pool, the spawn legs (a spawned 2-worker pool,
#      cold and warm), warm with the cache off, warm on a forked 2-worker
#      pool, the warm crash chain, and the other rows of
#      test_cache_is_transparent_when_checkpoints_outgrow_memory: the
#      other HB-family names on a memory-only store, sha and sha+ on a
#      spill-backed store (which must reload an evicted checkpoint), and
#      sha+ behind a 4-entry cache, as `repro serve --cache-entries 4`
#      builds it; then
#      a bounded crash-schedule sweep over the toy, HB+, 2-worker HB+ on
#      fork and on spawn, and serve workloads; the pool publishes its
#      dataset to the arena, so hb-par and hb-par-spawn keep the arena.*
#      sites, and serve sweeps the daemon's durable
#      writes (registry records and spec sidecars, serve.result.*
#      result files published before their terminal record).
#      The full sweep is `python tools/crashx.py --pairwise 40 --jobs 2
#      --out CRASHX_report.json`; --out writes the report, which is not
#      committed)
#   7. obs tier (obs-marked observability tests, incl. the stitched
#      serve + engine trace whose engine half is claimed with
#      Telemetry(trace_id=job_id), and the SIGKILLed daemon whose
#      append-only flight-recorder spill is read back through
#      flightrec.load)
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
echo "== kernels tier: pytest -m kernels =="
python -m pytest -q -m kernels

echo
echo "== telemetry tier: pytest -m telemetry =="
python -m pytest -q -m telemetry

echo
echo "== serve tier: pytest -m serve =="
python -m pytest -q -m serve

echo
echo "== faults tier: pytest -m faults + bounded schedule sweep =="
python -m pytest -q -m faults
python tools/crashx.py --workload toy --workload hb --workload hb-par \
    --workload hb-par-spawn --workload serve --max-hits-per-site 2 --jobs 2

echo
echo "== obs tier: pytest -m obs =="
python -m pytest -q -m obs

echo
echo "all checks passed"
