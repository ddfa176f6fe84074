"""The lane optimisers against the per-fold solvers, slice by slice.

``_LaneSGD`` and ``_LaneAdam`` update ``(A, ...)`` parameter stacks
through a scratch buffer rebuilt when the lane compacts and through the
gradient buffers once they are spent.  Each case steps a lane and one
:class:`~repro.learners.solvers.SGDOptimizer` /
:class:`~repro.learners.solvers.AdamOptimizer` per slice with the same
gradients (zeros of both signs included), with per-fold learning rates
and momenta, an adaptive-schedule stall and a compaction midway, and
requires every surviving slice to hold the solver's bytes after every
step.  Bounded in tier-1; the ``kernels`` tier sweeps it.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learners import MLPClassifier
from repro.learners.mlp import _LaneAdam, _LaneSGD
from repro.learners.solvers import make_optimizer

SHAPES = [(3, 4), (4, 1), (1, 4), (1, 1)]


def _check_lane_optimizer(solver, schedule, nesterov, width, steps, compact_at, stall_at, seed):
    rng = np.random.default_rng(seed)
    rates = rng.choice([1e-3, 1e-2, 0.5], size=width).tolist()
    momenta = rng.choice([0.3, 0.9], size=width).tolist()
    params = [rng.normal(size=(width, *shape)) for shape in SHAPES]
    fold_params = [[p[i].copy() for p in params] for i in range(width)]
    members = []
    for rate, momentum in zip(rates, momenta):
        model = MLPClassifier(
            solver=solver,
            learning_rate=schedule,
            learning_rate_init=rate,
            momentum=momentum,
            nesterovs_momentum=nesterov,
        )
        members.append(SimpleNamespace(model=model))
    lane = (_LaneSGD if solver == "sgd" else _LaneAdam)(params, members)
    solvers = [
        make_optimizer(
            solver,
            fold_params[i],
            learning_rate_init=rates[i],
            learning_rate=schedule,
            momentum=momenta[i],
            nesterov=nesterov,
        )
        for i in range(width)
    ]
    alive = list(range(width))
    for step in range(steps):
        grads = []
        for p in lane.params:
            grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
            grad[rng.random(p.shape) < 0.2] = 0.0
            grad[rng.random(p.shape) < 0.1] = -0.0
            grads.append(grad)
        for position, fold in enumerate(alive):
            solvers[fold].update([grad[position].copy() for grad in grads])
        lane.update(grads)  # spends the gradients: the lane reuses their buffers
        if step == stall_at:
            lane.notify_no_improvement(0)
            solvers[alive[0]].notify_no_improvement()
        for position, fold in enumerate(alive):
            for layer, (stacked, alone) in enumerate(zip(lane.params, solvers[fold].params)):
                assert stacked[position].tobytes() == alone.tobytes(), (
                    f"step {step}, fold {fold}, parameter {layer}"
                )
        if step == compact_at and len(alive) > 1:
            keep = [i for i in range(len(alive)) if i % 2 == 1 or i == len(alive) - 1]
            lane.params = [p[keep] for p in lane.params]
            lane.compact(keep)
            alive = [alive[i] for i in keep]


CASE = dict(
    solver=st.sampled_from(["sgd", "adam"]),
    schedule=st.sampled_from(["constant", "invscaling", "adaptive"]),
    nesterov=st.booleans(),
    width=st.integers(min_value=1, max_value=6),
    steps=st.integers(min_value=1, max_value=12),
    compact_at=st.integers(min_value=0, max_value=12),
    stall_at=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestLaneOptimizers:
    @pytest.mark.parametrize("solver", ["sgd", "adam"])
    @pytest.mark.parametrize("schedule", ["constant", "invscaling", "adaptive"])
    @pytest.mark.parametrize("nesterov", [True, False])
    def test_slices_equal_per_fold_solver(self, solver, schedule, nesterov):
        _check_lane_optimizer(solver, schedule, nesterov, 4, 8, 3, 2, seed=11)

    @pytest.mark.kernels
    @given(**CASE)
    @settings(max_examples=400, deadline=None)
    def test_slices_equal_per_fold_solver_sweep(self, **case):
        _check_lane_optimizer(**case)
