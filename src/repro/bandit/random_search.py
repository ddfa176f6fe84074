"""Random search baseline.

The paper's ``random`` baseline evaluates a fixed number of uniformly drawn
configurations at full budget and returns the best — the yardstick all
bandit methods are compared against in Table IV.
"""

from __future__ import annotations

from .base import BaseSearcher

__all__ = ["RandomSearch"]


class RandomSearch(BaseSearcher):
    """Evaluate ``n_configurations`` random configurations at full budget.

    Parameters
    ----------
    space, evaluator, random_state:
        See :class:`~repro.bandit.base.BaseSearcher`.
    n_configurations:
        Default sample size when :meth:`fit` is called without arguments
        (the paper uses 10).
    """

    method_name = "random"

    def __init__(self, space, evaluator, random_state=None, n_configurations: int = 10) -> None:
        super().__init__(space, evaluator, random_state)
        self.n_configurations = n_configurations

    def _schedule(self, configurations, n_configurations):
        """Each candidate as a full-budget rung of one."""
        pool = self._initial_configurations(configurations, n_configurations, self.n_configurations)
        for config in pool:
            yield [config], 1.0, 0, 0
