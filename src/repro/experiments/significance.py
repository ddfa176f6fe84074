"""Statistical comparison of HPO methods across seeds.

The paper reports mean ± std over 5 seeds; for claims like "SHA+ improves
on SHA" a paired test across seeds is the appropriate instrument.  Provides
a paired t-test and the Wilcoxon signed-rank test (both via scipy), plus a
small holm-correction helper for comparing one method against several
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["PairedComparison", "paired_t_test", "wilcoxon_test", "holm_correction"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of one paired test.

    Attributes
    ----------
    statistic, p_value:
        The test statistic and two-sided p-value.
    mean_difference:
        Mean of ``candidate - baseline`` (positive = candidate better when
        scores are higher-is-better).
    n:
        Number of pairs.
    """

    statistic: float
    p_value: float
    mean_difference: float
    n: int

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < alpha


def _validate(candidate, baseline):
    candidate = np.asarray(candidate, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if candidate.shape != baseline.shape or candidate.ndim != 1:
        raise ValueError(
            f"candidate and baseline must be 1-D with equal length, got {candidate.shape} vs {baseline.shape}"
        )
    if candidate.shape[0] < 2:
        raise ValueError("paired tests need at least 2 pairs")
    return candidate, baseline


def paired_t_test(candidate: Sequence[float], baseline: Sequence[float]) -> PairedComparison:
    """Two-sided paired t-test on per-seed scores."""
    candidate, baseline = _validate(candidate, baseline)
    differences = candidate - baseline
    if np.allclose(differences, 0.0):
        return PairedComparison(statistic=0.0, p_value=1.0, mean_difference=0.0, n=len(candidate))
    if np.isclose(differences.std(), 0.0):
        # A perfectly constant non-zero difference degenerates the t
        # statistic (division by zero); report it as maximally significant.
        sign = float(np.sign(differences.mean()))
        return PairedComparison(
            statistic=sign * float("inf"),
            p_value=0.0,
            mean_difference=float(differences.mean()),
            n=len(candidate),
        )
    from scipy.stats import ttest_rel

    result = ttest_rel(candidate, baseline)
    return PairedComparison(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        mean_difference=float(differences.mean()),
        n=len(candidate),
    )


def wilcoxon_test(candidate: Sequence[float], baseline: Sequence[float]) -> PairedComparison:
    """Two-sided Wilcoxon signed-rank test (non-parametric alternative)."""
    candidate, baseline = _validate(candidate, baseline)
    differences = candidate - baseline
    if np.allclose(differences, 0.0):
        return PairedComparison(statistic=0.0, p_value=1.0, mean_difference=0.0, n=len(candidate))
    from scipy.stats import wilcoxon

    result = wilcoxon(candidate, baseline)
    return PairedComparison(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        mean_difference=float(differences.mean()),
        n=len(candidate),
    )


def holm_correction(p_values: Dict[str, float]) -> Dict[str, float]:
    """Holm step-down correction for multiple comparisons.

    Parameters
    ----------
    p_values:
        Raw p-values keyed by comparison name.

    Returns
    -------
    dict
        Adjusted p-values (clipped at 1, monotone in the Holm ordering).
    """
    if not p_values:
        return {}
    names = sorted(p_values, key=lambda name: p_values[name])
    m = len(names)
    adjusted: Dict[str, float] = {}
    running_max = 0.0
    for rank, name in enumerate(names):
        value = min(1.0, (m - rank) * p_values[name])
        running_max = max(running_max, value)
        adjusted[name] = running_max
    return adjusted
