#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, five end-to-end metrics, a layer waterfall.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload.  Prints the environment, every metric by
        name with its unit, and as the last line one JSON object
        {"correct", "attempted", "failed", "metrics"}: the end-to-end
        metrics with --trace 0, the per-layer metrics with --trace 1
        (which also writes out/trace-W.json and out/waterfall-W.md).
    python3 bench/run.py [--seed N] [--trace 0|1]
        Every workload, each in a process of its own, then a summary.
    python3 bench/run.py --selftest
        The calibration kernel's own run-to-run variation.
    python3 bench/run.py --aa 5
        A/A check: two interleaved sets of 5 passes of the same code;
        prints a markdown report, exits non-zero when the sets disagree.

--reps K measures exactly K repetitions instead of --seconds; --quick
shrinks every workload to a smoke test (no pinned outputs are checked).

Exit codes: 0 measured and correct, 1 an output check failed, 3 (only
--selftest) the machine was too disturbed to measure.  A workload run
whose calibrations disagree measures once more and then reports the
steadier of the two measurements with a warning: whoever runs it many
times takes medians, and a run that reports nothing would cost them all.
See README.md for what each metric means and why each workload is there.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

#: Spinning BLAS threads are pure contention on a 2-vCPU box: unpinned, a
#: search burned 1.5x the CPU for the same wall clock.  Must precede numpy.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse
import gc
import json
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import calibrate as cal  # noqa: E402 - after the thread pins: it imports numpy

if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]

#: Full set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Calibrations between repetitions.  Two, because the estimate is as
#: noisy as the less-sampled of its two sums and a repetition outlasts a
#: calibration seven times over.
CALS_PER_GAP = 2
#: Absolute tolerance of the pinned seed-0 scores.
SCORE_TOLERANCE = 0.002

EXIT_INCORRECT = 1
EXIT_DISTURBED = 3


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "start_method": multiprocessing.get_start_method(),
        "thread_pins": THREAD_PINS,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def platform_key(env: Dict[str, Any]) -> str:
    """What a bitwise pin depends on: the BLAS kernels are chosen per CPU."""
    return "|".join(str(env[key]) for key in ("cpu", "python", "numpy", "scipy"))


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process plus ``workers`` x the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    The spawned calibration helper and the arena's shared memory both
    start it; left alone it outlives this process (it exits only once its
    pipe closes at interpreter exit, and nobody waits for it), and whoever
    looks right after the run finds a process still there.  Call it once
    every worker and helper has ended: they hold the pipe open too.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


# -- one workload, one run ----------------------------------------------------------


def measure(args: argparse.Namespace) -> int:
    """Set up, repeat, check and report one workload; returns the exit code."""
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    # Nothing of repro is imported before this, so the elapsed time since
    # process start is what importing numpy, scipy and repro cost.
    import workloads

    import_wall = time.perf_counter() - _PROCESS_START

    tracer = None
    if args.trace:
        import layers
        from trace import Tracer

        tracer = Tracer()
        layers.install(tracer)

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = None
    calibrate = cal.Calibrator(max(1, workloads.WORKLOADS[args.workload].workers))
    try:
        calibrate()  # the helpers' first kernel pays their imports
        cals = [calibrate()]
        setup_walls = []
        setup_window = (0.0, 0.0)
        for index in range(SETUPS):
            if workload is not None:
                workload.close()
            gc.collect()
            start = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](
                args.seed, workdir / f"setup-{index}", args.quick
            )
            setup_window = (start, time.perf_counter())
            setup_walls.append(import_wall + setup_window[1] - start)
            cals.append(calibrate())
        setup_s = cal.normalised([statistics.median(setup_walls)], cals)

        run = Run(workload, tracer, calibrate, args)
        run.repeat()
        problems = run.check(env)
        if run.cal_cv_pct > cal.MAX_CAL_CV_PCT:
            print(
                f"calibration cv {run.cal_cv_pct:.1f}% within the run exceeds "
                f"{cal.MAX_CAL_CV_PCT:.0f}%; measuring once more",
                file=sys.stderr,
            )
            again = Run(workload, tracer, calibrate, args)
            again.repeat()
            problems += again.check(env)
            run = min(run, again, key=lambda each: each.cal_cv_pct)
            if run.cal_cv_pct > cal.MAX_CAL_CV_PCT:
                print(
                    f"WARNING machine disturbed: calibration cv {run.cal_cv_pct:.1f}% in the "
                    "steadier of two measurements; reported, but trust a median of runs only",
                    file=sys.stderr,
                )

        metrics: Dict[str, float] = {
            "setup_s": setup_s,
            "search_norm_s": run.search_norm_s,
            "peak_rss_mb": peak_rss_mb(workload.workers),
            "incumbent_score": workload.incumbent_score,
            "fingerprint_ok": 0 if problems else 1,
        }
        chosen = SPEC["end_to_end"]
        if tracer is not None:
            metrics = run.layer_report(setup_window, statistics.median(setup_walls))
            chosen = SPEC["per_layer"]
    except workloads.CheckFailed as error:
        print(f"CHECK FAILED {error}", file=sys.stderr)
        return EXIT_INCORRECT
    finally:
        try:
            if workload is not None:
                workload.close()
        finally:
            calibrate.close()
            stop_resource_tracker()
            shutil.rmtree(workdir, ignore_errors=True)

    reference = workload.reference
    print(
        f"run {args.workload} seed={args.seed} reps={len(run.reps)} trials={reference.trials} "
        f"fingerprint={reference.fingerprint} score={workload.incumbent_score!r} "
        f"cal_mean_s={statistics.fmean(run.cals):.4f} cal_cv_pct={run.cal_cv_pct:.1f}"
    )
    print("rep_wall_s " + " ".join(f"{rep.wall:.3f}" for rep in run.reps))
    print("cal_wall_s " + " ".join(f"{wall:.3f}" for wall in run.cals))
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    report = {}
    for entry in chosen:
        value = float(metrics[entry["name"]])
        print(f"{entry['name']:<34}{value:>16.6g} {entry['unit']}")
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(rep.result.attempted for rep in run.reps),
                "failed": sum(rep.result.failed for rep in run.reps),
                "metrics": report,
            }
        )
    )
    return EXIT_INCORRECT if problems else 0


class Rep(NamedTuple):
    """One timed repetition."""

    wall: float
    cpu: float
    result: Any
    span: Optional[Dict[str, Any]]  # the "rep" root span of a traced repetition


class Run:
    """The measured phase of one workload: repetitions bracketed by calibrations."""

    def __init__(self, workload, tracer, calibrate, args: argparse.Namespace) -> None:
        self.workload = workload
        self.tracer = tracer
        self.calibrate = calibrate
        self.args = args
        self.reps: List[Rep] = []  # untraced: every end-to-end number comes from these
        self.traced: List[Rep] = []
        self.cals: List[float] = []

    def repeat(self) -> None:
        """Untraced repetitions for --seconds (half of it when tracing follows)."""
        seconds, fixed = float(self.args.seconds), self.args.reps
        self.cals = [self.calibrate()]
        if self.tracer is None:
            self._repeat_into(self.reps, seconds, fixed)
        else:
            import layers

            self.tracer.remove()
            self._repeat_into(self.reps, seconds / 2.0, fixed)
            layers.install(self.tracer)
            try:
                self._repeat_into(self.traced, seconds / 2.0, min(fixed, 1))
            finally:
                self.tracer.remove()

    def _repeat_into(self, reps: List[Rep], seconds: float, fixed: int) -> None:
        """``fixed`` repetitions, or as many as fit in ``seconds`` (at least one)."""
        traced = reps is self.traced
        deadline = time.perf_counter() + seconds
        while not reps or (len(reps) < fixed if fixed else time.perf_counter() < deadline):
            gc.collect()
            context = self.tracer.span("rep") if traced else nullcontext()
            cpu = time.process_time()
            start = time.perf_counter()
            with context as span:
                raw = self.workload.run()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
            reps.append(Rep(wall, cpu, self.workload.summarise(raw), span))
            self.workload.after_run()
            self.cals.extend(self.calibrate() for _ in range(CALS_PER_GAP))

    # -- end-to-end ------------------------------------------------------------

    @property
    def cal_cv_pct(self) -> float:
        """How much the run's calibrations disagree: the machine's unrest."""
        return cal.cv_pct(self.cals)

    @property
    def search_norm_s(self) -> float:
        return cal.normalised([rep.wall for rep in self.reps], self.cals)

    def check(self, env: Dict[str, Any]) -> List[str]:
        """Every output check; returns what failed (empty: correct)."""
        workload, problems = self.workload, []
        results = [workload.reference] + [rep.result for rep in self.reps + self.traced]
        for index, result in enumerate(results):
            if result.failed:
                problems.append(f"repetition {index}: {result.failed} failed operation(s)")
            if workload.repeats_bitwise and result.fingerprint != workload.reference.fingerprint:
                problems.append(f"repetition {index}: fingerprint differs from the warm-up pass")
        if self.args.quick:
            return problems
        expected = json.loads((BENCH / "expected.json").read_text())
        pinned = expected["workloads"][workload.name]
        for index, result in enumerate(results):
            if result.trials != pinned["trials"]:
                problems.append(
                    f"repetition {index}: {result.trials} trials, expected {pinned['trials']}"
                )
        # Bitwise pins hold on the platform that recorded them (the BLAS
        # picks kernels per CPU); elsewhere the equalities above still do.
        if self.args.seed == 0 and expected["platform"] == platform_key(env):
            if workload.reference.fingerprint != pinned["fingerprint"]:
                problems.append("seed-0 fingerprint differs from expected.json")
            if abs(workload.incumbent_score - pinned["score"]) > SCORE_TOLERANCE:
                problems.append(
                    f"seed-0 score {workload.incumbent_score!r} differs from "
                    f"expected.json {pinned['score']!r}"
                )
        elif self.args.seed == 0:
            print("note: expected.json was recorded on another platform; pins skipped")
        return problems

    # -- per layer ---------------------------------------------------------------

    def layer_report(self, setup_window, setup_wall: float) -> Dict[str, float]:
        """Per-layer metrics, the span file and the waterfall of a traced run."""
        import layers
        import probes

        name = self.workload.name
        spans = self.tracer.spans
        # Between the first and the last traced repetition of *this*
        # measurement: the tracer may hold another measurement's spans too.
        window = (self.traced[0].span["start"], self.traced[-1].span["end"])
        rep_spans = [span for span in spans if window[0] <= span["start"] <= window[1]]
        setup_spans = [
            span for span in spans if setup_window[0] <= span["start"] <= setup_window[1]
        ]
        count = len(self.traced)
        traced_wall = statistics.fmean(rep.wall for rep in self.traced)
        metrics = layers.layer_metrics(
            rep_spans, setup_spans, count, traced_wall, self.traced[-1].result, self.workload
        )
        metrics.update(probes.learner_probes())
        if name == "serve_two_tenant":
            metrics["serve.concurrent2_slowdown"] = probes.concurrent2_slowdown(
                self.workload.daemon.root.parent, self.workload.base, self.workload.seed_base
            )

        # Traced and untraced repetitions share self.cals, so compare raw
        # means: both phases ran under the same machine state on average.
        plain_wall = statistics.fmean(rep.wall for rep in self.reps)
        rep_ids = [rep.span["id"] for rep in self.traced]
        metrics.update(
            {
                "raw.search_wall_s": statistics.median(rep.wall for rep in self.reps),
                "raw.setup_wall_s": setup_wall,
                "proc.cpu_norm_s": cal.normalised([rep.cpu for rep in self.reps], self.cals),
                "cal.mean_s": statistics.fmean(self.cals),
                "cal.cv_pct": self.cal_cv_pct,
                "trace.coverage_pct": layers.coverage_pct(
                    rep_spans, rep_ids, sum(rep.wall for rep in self.traced)
                ),
                "trace.overhead_pct": 100.0 * (traced_wall / plain_wall - 1.0),
            }
        )

        OUT.mkdir(exist_ok=True)
        keep = [span for span in rep_spans if span["start"] >= self.traced[-1].span["start"]]
        (OUT / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": self.args.seed, "spans": keep}) + "\n"
        )
        (OUT / f"waterfall-{name}.md").write_text(
            layers.waterfall(name, rep_spans, count, traced_wall)
        )
        print(f"wrote {OUT / f'trace-{name}.json'} ({len(keep)} spans of the last traced "
              f"repetition) and waterfall-{name}.md")
        return metrics


# -- every workload, the A/A check, the selftest -------------------------------------


def run_child(workload: str, seed: int, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One workload in a process of its own; returns its result object."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.reps:
        command += ["--reps", str(args.reps)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return {"stdout": done.stdout, **json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])}


def run_all(args: argparse.Namespace) -> int:
    for workload in WORKLOAD_NAMES:
        result = run_child(workload, args.seed, args, args.trace)
        print(f"== {workload}")
        sys.stdout.write(result["stdout"])
    return 0


def quartile_spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def run_aa(args: argparse.Namespace) -> int:
    """Two interleaved sets of passes of the same code must agree."""
    sets: Dict[str, Dict[tuple, List[float]]] = {"A": {}, "B": {}}
    for index in range(args.aa):
        for label in ("A", "B"):
            for workload in WORKLOAD_NAMES:
                result = run_child(workload, index, args, 0)
                for name, metric in result["metrics"].items():
                    sets[label].setdefault((workload, name), []).append(metric["value"])
                print(f"pass {index} set {label} {workload} done", file=sys.stderr)

    env = environment()
    lines = [
        "# A/A report",
        "",
        f"`python3 bench/run.py --aa {args.aa}`: two interleaved sets (ABAB...) of {args.aa} "
        f"passes of the same code, pass *i* of both sets at `--seed i`, {args.seconds} s per run. "
        "A delta is set B's median over set A's, signed so that positive is worse; a spread is "
        "the distance between a set's quartiles as a share of its median. The check fails when a "
        "delta exceeds half its bound or a spread exceeds its bound.",
        "",
        f"Machine: {env['cpu']}, {env['nproc']} vCPU, Python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}.",
        "",
        "| workload | metric | median A | median B | delta % | spread A % | spread B % | bound % | ok |",
        "|---|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    failed = False
    for workload in WORKLOAD_NAMES:
        for entry in SPEC["end_to_end"]:
            a, b = (sets[label][(workload, entry["name"])] for label in ("A", "B"))
            median_a, median_b = statistics.median(a), statistics.median(b)
            delta = (median_b - median_a) / median_a
            if entry["better"] == "higher":
                delta = -delta
            spreads = [quartile_spread(values) for values in (a, b)]
            ok = delta <= entry["bound"] / 2 and max(spreads) <= entry["bound"]
            failed = failed or not ok
            lines.append(
                f"| {workload} | {entry['name']} | {median_a:.6g} | {median_b:.6g} "
                f"| {100 * delta:+.2f} | {100 * spreads[0]:.2f} | {100 * spreads[1]:.2f} "
                f"| {100 * entry['bound']:.0f} | {'yes' if ok else 'NO'} |"
            )
    lines += ["", "Result: " + ("FAILED" if failed else "every delta and spread within bounds.")]
    print("\n".join(lines))
    return 1 if failed else 0


def run_selftest() -> int:
    walls = cal.selftest()
    cv = cal.cv_pct(walls)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"cal.mean_s {statistics.fmean(walls):.4f} s (reference {cal.CAL_REF_S} s)")
    print(f"cal.min_s  {min(walls):.4f} s")
    print(f"cal.cv_pct {cv:.2f} % over {len(walls)} back-to-back kernels")
    if cv > cal.MAX_CAL_CV_PCT:
        print(f"REFUSED: above {cal.MAX_CAL_CV_PCT:.0f} %, machine too disturbed to measure")
        return EXIT_DISTURBED
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0, help="measure exactly this many repetitions")
    parser.add_argument("--quick", action="store_true", help="tiny workloads, no pinned outputs")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--aa", type=int, default=0, metavar="PASSES")
    args = parser.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if args.aa:
        return run_aa(args)
    if args.workload is None:
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
