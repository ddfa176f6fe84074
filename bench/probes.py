"""Direct probes: fixed inputs pushed through one layer, outside any search.

Run only in a traced run.  Their timings are calibration-normalised like
the end-to-end ones; their operation counts are *computed* from the
shapes (labelled so in the report), not measured.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.datasets import make_classification
from repro.learners import MLPClassifier
from repro.learners.batched import fit_mlp_trials
from repro.serve import ServeClient, ServeDaemon

from calibrate import calibrate, normalised

#: One HyperBand opening rung at eta=3: 27 trials of 5 folds.
RUNG_TRIALS, RUNG_FOLDS, RUNG_ITERS = 27, 5, 6
#: (rows per fold, features, hidden width): where per-call overhead rules,
#: and where the arithmetic does (ROADMAP's size-sweep decay).
PROBE_SHAPES = {"small": (120, 8, 8), "large": (1600, 20, 32)}


def _rung_jobs(rows: int, features: int, hidden: int):
    X, y = make_classification(
        n_samples=2 * rows, n_features=features, n_classes=2, class_sep=1.2, random_state=3
    )
    rng = np.random.default_rng(4)
    rates = [1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2]
    jobs = []
    for trial in range(RUNG_TRIALS):
        folds = []
        for fold in range(RUNG_FOLDS):
            index = rng.choice(len(X), size=rows, replace=False)
            model = MLPClassifier(
                hidden_layer_sizes=(hidden,),
                solver="adam",
                max_iter=RUNG_ITERS,
                learning_rate_init=rates[trial % len(rates)],
                random_state=1000 * trial + fold,
            )
            folds.append((model, X[index], y[index]))
        jobs.append(folds)
    return jobs


def _rung_flops(rows: int, features: int, hidden: int) -> float:
    """Multiply-adds x2 of the forward and backward matmuls, every epoch.

    Forward is one matmul per layer (2 flops per weight per row), backward
    two (weight gradient and input gradient); elementwise work is ignored.
    An upper bound: a fit that stops early does fewer epochs.
    """
    weights = features * hidden + hidden * 1
    return 6.0 * weights * rows * RUNG_ITERS * RUNG_FOLDS * RUNG_TRIALS


def learner_probes() -> Dict[str, float]:
    """Fused-rung fit time at a small and a large shape, normalised."""
    metrics = {}
    for label, shape in PROBE_SHAPES.items():
        fit_mlp_trials(_rung_jobs(*shape))  # warm-up
        walls, cals = [], [calibrate()]
        for _ in range(2):
            jobs = _rung_jobs(*shape)
            start = time.perf_counter()
            fit_mlp_trials(jobs)
            walls.append(time.perf_counter() - start)
            cals.append(calibrate())
        metrics[f"learners.probe.rung_{label}_ms"] = 1000.0 * normalised(walls, cals)
        metrics[f"learners.probe.flops_{label}"] = _rung_flops(*shape)
    return metrics


def concurrent2_slowdown(workdir: Path, base: Dict, seed_base: int) -> float:
    """Makespan of two cold jobs on a 2-thread daemon over the sum of each alone.

    0.5 would be perfect overlap and 1.0 no gain from the second job
    thread; above 1.0 the threads convoy on the interpreter lock.  The
    same two specs run as a pair on one daemon and one after the other
    on a second (fresh root, so nothing is cached).
    """

    def makespan(client: ServeClient, offsets: Tuple[int, ...]) -> float:
        start = time.perf_counter()
        ids = [
            client.submit(dict(base, tenant=f"probe{offset}", method="sha+", seed=seed_base + offset))[
                "job_id"
            ]
            for offset in offsets
        ]
        finals = client.wait_all(ids, poll=0.02)
        if any(record["state"] != "done" for record in finals.values()):
            raise RuntimeError("concurrent2 probe job did not finish")
        return time.perf_counter() - start

    timings = {}
    for mode in ("pair", "solo"):
        with ServeDaemon(root=Path(workdir) / f"probe-{mode}", port=0, n_workers=2) as daemon:
            with ServeClient(daemon.address) as client:
                makespan(client, (900,))  # warm-up
                if mode == "pair":
                    timings[mode] = makespan(client, (901, 902))
                else:
                    timings[mode] = makespan(client, (901,)) + makespan(client, (902,))
    return timings["pair"] / timings["solo"]
