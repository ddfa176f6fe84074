"""PASHA — Progressive ASHA (Bohdal et al., 2023), simplified.

Listed in the paper's related work as a HyperBand improvement: instead of
fixing the maximum rung up front, PASHA starts with a *small* rung ceiling
and only unlocks the next rung when the ranking of the top configurations
at the two highest active rungs disagrees — i.e. more budget is spent only
when the cheap budgets have not yet stabilised the leaderboard.

This implementation follows the published stopping rule (soft rank
stability of the top ``1/eta`` configurations) on ASHA's promote-else-grow
scheduler and dispatch loop, one trial at a time: an :class:`ASHA` with one
worker whose scheduler starts with a low ceiling, ranks ties by
configuration id rather than arrival, and is offered another rung whenever
it runs dry with nothing in flight.
"""

from __future__ import annotations

from .asha import ASHA, _Scheduler

__all__ = ["PASHA"]


class PASHA(ASHA):
    """Progressive successive halving with dynamic rung unlocking.

    Parameters
    ----------
    space, evaluator, random_state:
        See :class:`~repro.bandit.base.BaseSearcher`.
    eta:
        Promotion rate.
    min_budget_fraction:
        Rung-0 instance fraction.
    initial_rungs:
        Active rungs at the start (the reference uses the two cheapest);
        at least 2, since the stability test compares two rungs.
    max_started:
        Configurations started at rung 0 when no pool is given.

    Attributes
    ----------
    final_ceiling_:
        The highest rung the last :meth:`fit` unlocked.
    """

    method_name = "PASHA"

    def __init__(
        self,
        space,
        evaluator,
        random_state=None,
        eta: float = 2.0,
        min_budget_fraction: float = 1.0 / 8.0,
        initial_rungs: int = 2,
        max_started: int = 32,
    ) -> None:
        super().__init__(
            space, evaluator, random_state, eta=eta, min_budget_fraction=min_budget_fraction,
            n_workers=1, max_started=max_started,
        )
        if initial_rungs < 2:
            raise ValueError(f"initial_rungs must be >= 2, got {initial_rungs}")
        self.initial_rungs = initial_rungs

    @staticmethod
    def _rank(item):
        """Promotion order within a rung: best score first, ties by config id."""
        return -item[0], item[1]

    def _scheduler(self, pool) -> _Scheduler:
        ceiling = min(self.initial_rungs - 1, self.max_rung)
        return _Scheduler(pool, self.eta, self.max_rung, ceiling, self._rank)

    def _unlock(self, scheduler: _Scheduler) -> bool:
        """Unlock the next rung when the top sets of the two highest active
        rungs disagree (the reference's ranking-stability test)."""
        ceiling = self.final_ceiling_ = scheduler.ceiling
        if ceiling >= self.max_rung:
            return False
        high, low = scheduler.rungs[ceiling].completed, scheduler.rungs[ceiling - 1].completed
        if len(high) < 2 or len(low) < 2:
            return False
        k = max(1, int(len(high) / self.eta))
        if set(scheduler.top(ceiling, k)) <= set(scheduler.top(ceiling - 1, k)):
            return False
        scheduler.ceiling = self.final_ceiling_ = ceiling + 1
        return True
