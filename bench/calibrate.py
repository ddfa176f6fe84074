"""Machine-speed calibration for the bench harness.

A fixed pure-numpy kernel (it never imports ``repro``) is timed next to
every measured region, and a timing is reported as the equivalent
seconds on a reference machine::

    CAL_REF_S * mean(region wall) / mean(calibration wall)

This box's speed drifts by tens of percent between and within processes
(host slowdown, not preemption: ``process_time`` drifts with the wall
clock), so a raw wall-clock median does not repeat; the ratio to a
kernel that drifts the same way does.  The sum-ratio form weights each
calibration by how long the machine stayed in that state, which
measured steadier here than a median of per-region ratios.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Wall seconds one :func:`kernel` call took on the machine the harness
#: was sized on; only fixes the scale of normalised metrics.
CAL_REF_S = 0.28

#: Calibrations within one run that disagree by more than this coefficient
#: of variation mean the machine is too disturbed: ``--selftest`` refuses
#: to report, a workload run measures once more and flags what it reports.
MAX_CAL_CV_PCT = 25.0


def _inputs():
    rng = np.random.default_rng(12345)
    return rng.standard_normal((40, 256, 24)), rng.standard_normal((40, 24, 16))


_A, _B = _inputs()


def kernel() -> float:
    """The fixed unit of work: the instruction mix of a bandit search.

    A little over half stacked small matmuls with elementwise maths
    between them (the fused MLP lanes), the rest interpreter work on
    Python objects (planning, bookkeeping, dispatch).  The split matters
    more than the size: a floating-point-heavy process on the other vCPU
    slowed matmuls by 50-120 %, a pure-Python loop by 0-70 % and the
    searches by 30-45 % (see README.md), so a kernel of matmuls alone
    over-corrects.  Returns a checksum so the work cannot be skipped.
    """
    total = 0.0
    for _ in range(210):
        hidden = np.tanh(_A @ _B)
        total += float(hidden[0, 0, 0])
        grad = np.matmul(_A.transpose(0, 2, 1), hidden)
        total += float(grad[0, 0, 0])
    table = {}
    for i in range(1_000_000):
        table[i & 1023] = total + (i % 7) * 0.5
    return total + len(table)


def calibrate() -> float:
    """Wall seconds of one :func:`kernel` call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _helper_main(conn) -> None:
    """Run one kernel per message until told to stop (``None``)."""
    while conn.recv() is not None:
        conn.send(calibrate())


class Calibrator:
    """Times the kernel at a workload's parallelism.

    A workload that keeps ``parallel`` processes busy loses more than a
    single-threaded kernel does when the host takes a core away (measured:
    the 2-worker search ran 2.0x slower while one kernel ran 1.5x slower),
    so its calibration runs ``parallel`` kernels at once — this process's
    plus ``parallel - 1`` helper processes' — and reports their mean wall.
    """

    def __init__(self, parallel: int = 1) -> None:
        context = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(parallel - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=_helper_main, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self._helpers.append((process, ours))

    def __call__(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        walls = [calibrate()]
        walls.extend(conn.recv() for _, conn in self._helpers)
        return sum(walls) / len(walls)

    def close(self) -> None:
        for process, conn in self._helpers:
            try:
                conn.send(None)
            except OSError:
                pass  # the helper is gone already; still wait for it below
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join()
            conn.close()
        self._helpers = []


def normalised(region_walls: Sequence[float], cal_walls: Sequence[float]) -> float:
    """Sum-ratio estimate of one region's reference-machine seconds.

    ``cal_walls`` holds the calibrations taken around the regions (before
    the first and after each), so every region is bracketed by them.
    """
    if not region_walls or not cal_walls:
        raise ValueError("normalised() needs at least one region and one calibration")
    per_cal = sum(cal_walls) / len(cal_walls)
    return CAL_REF_S * (sum(region_walls) / len(region_walls)) / per_cal


def cv_pct(values: Sequence[float]) -> float:
    """Coefficient of variation in percent (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    return 100.0 * statistics.stdev(values) / statistics.fmean(values)


def selftest(n: int = 12) -> List[float]:
    """``n`` back-to-back calibrations after one warm-up call."""
    calibrate()
    return [calibrate() for _ in range(n)]
