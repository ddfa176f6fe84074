"""General and special fold construction (paper Section III-B, Operation 2).

Cross-validation folds for a (sub)set of instances are built from the
pre-computed groups:

- **general folds** are group-stratified samples that mimic the overall
  distribution (like stratified k-fold, but stratifying on the feature+label
  groups instead of labels alone);
- **special folds** deliberately deviate: fold ``i`` draws a majority
  (default 80%) of its instances from group ``omega_i`` and the remainder
  group-stratified from the other groups, so the config is also scored under
  group-specific distributions.

The ``k_gen + k_spe`` validation folds form a partition of the subset; the
training side of each fold is the subset minus its validation block, giving
ordinary k-fold semantics.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..guard.events import GuardLog

__all__ = ["GeneralSpecialFolds"]


class GeneralSpecialFolds:
    """Splitter producing ``k_gen`` general plus ``k_spe`` special folds.

    Parameters
    ----------
    group_labels:
        Group index per instance of the *full* training set (from
        :func:`repro.core.grouping.generate_groups`).
    k_gen:
        Number of general (distribution-matching) folds; the paper uses 3.
    k_spe:
        Number of special (group-biased) folds; the paper sets this to the
        group count ``v`` and uses 2 in the main experiments.  Must not
        exceed the number of groups.
    special_majority:
        Fraction of a special fold drawn from its own group (paper: 0.8).
    random_state:
        Seed for all sampling.
    guard:
        Optional :class:`~repro.guard.events.GuardLog`.  With a guard,
        degenerate inputs degrade instead of raising: ``k_spe`` exceeding
        the group count shrinks to it (``folds.k_shrunk``), a subset too
        small for ``k_gen + k_spe`` folds shrinks the fold counts
        per-split (general folds first), and reusing groups for several
        special folds is recorded as ``folds.special_group_reused``.
    """

    def __init__(
        self,
        group_labels: np.ndarray,
        k_gen: int = 3,
        k_spe: int = 2,
        special_majority: float = 0.8,
        random_state: Optional[int] = None,
        guard: Optional[GuardLog] = None,
    ) -> None:
        group_labels = np.asarray(group_labels, dtype=int)
        if group_labels.ndim != 1:
            raise ValueError(f"group_labels must be 1-D, got shape {group_labels.shape}")
        if k_gen < 0 or k_spe < 0 or k_gen + k_spe < 2:
            raise ValueError(f"Need k_gen + k_spe >= 2 folds, got k_gen={k_gen}, k_spe={k_spe}")
        n_groups = int(group_labels.max()) + 1 if len(group_labels) else 0
        if k_spe > n_groups:
            if guard is None:
                raise ValueError(f"k_spe={k_spe} cannot exceed the number of groups ({n_groups})")
            shrunk_spe = n_groups
            shrunk_gen = max(k_gen, 2 - shrunk_spe)  # keep k_gen + k_spe >= 2
            guard.record(
                "folds.k_shrunk",
                f"k_spe={k_spe} exceeds {n_groups} group(s); "
                f"using k_gen={shrunk_gen}, k_spe={shrunk_spe}",
                k_gen_before=k_gen,
                k_spe_before=k_spe,
                k_gen=shrunk_gen,
                k_spe=shrunk_spe,
            )
            k_gen, k_spe = shrunk_gen, shrunk_spe
        if not 0.0 < special_majority <= 1.0:
            raise ValueError(f"special_majority must be in (0, 1], got {special_majority}")
        self.group_labels = group_labels
        self.k_gen = k_gen
        self.k_spe = k_spe
        self.special_majority = special_majority
        self.random_state = random_state
        self.n_groups = n_groups
        self.guard = guard

    def get_n_splits(self) -> int:
        """Total fold count ``k_gen + k_spe``."""
        return self.k_gen + self.k_spe

    def split(
        self, subset_indices: Optional[np.ndarray] = None
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train, validation)`` index pairs over the subset.

        Parameters
        ----------
        subset_indices:
            Indices (into the full training set) forming the evaluation
            subset; defaults to the entire set.  Returned indices refer to
            the same full-set coordinates.
        """
        if subset_indices is None:
            subset_indices = np.arange(len(self.group_labels))
        subset_indices = np.asarray(subset_indices, dtype=int)
        n = len(subset_indices)
        k_gen, k_spe = self._effective_counts(n)
        rng = np.random.default_rng(self.random_state)
        blocks = self._partition(subset_indices, k_gen, k_spe, rng)
        subset_set = subset_indices
        for block in blocks:
            mask = np.isin(subset_set, block, assume_unique=False)
            yield subset_set[~mask], block

    # -- internals ---------------------------------------------------------

    def _effective_counts(self, n: int) -> Tuple[int, int]:
        """Fold counts for an ``n``-instance subset, shrunk under a guard.

        Without a guard (legacy behaviour) a subset too small for
        ``k_gen + k_spe`` folds raises.  With one, general folds give way
        first — the special folds are the paper's novelty — down to one of
        each kind, bounded by ``n // 2`` total so every validation block
        keeps at least two instances.
        """
        k_gen, k_spe = self.k_gen, self.k_spe
        k_total = k_gen + k_spe
        if n >= 2 * k_total:
            return k_gen, k_spe
        if self.guard is None:
            raise ValueError(
                f"Subset of {n} instances is too small for {k_total} folds "
                f"(needs at least {2 * k_total})"
            )
        max_total = n // 2
        if max_total < 2:
            raise ValueError(
                f"Subset of {n} instances is too small for any 2-fold split "
                "(needs at least 4)"
            )
        k_total_eff = min(k_total, max_total)
        new_gen = min(k_gen, max(k_total_eff - k_spe, 1 if k_gen else 0))
        new_spe = k_total_eff - new_gen
        self.guard.record(
            "folds.k_shrunk",
            f"subset of {n} too small for {k_total} folds; "
            f"using k_gen={new_gen}, k_spe={new_spe}",
            n=n,
            k_gen_before=k_gen,
            k_spe_before=k_spe,
            k_gen=new_gen,
            k_spe=new_spe,
        )
        return new_gen, new_spe

    def _partition(
        self,
        subset_indices: np.ndarray,
        k_gen: int,
        k_spe: int,
        rng: np.random.Generator,
    ) -> List[np.ndarray]:
        """Partition the subset into special blocks then general blocks."""
        n = len(subset_indices)
        k_total = k_gen + k_spe
        block_size = n // k_total
        groups = self.group_labels[subset_indices]

        remaining = np.ones(n, dtype=bool)  # positions within subset_indices
        blocks: List[np.ndarray] = []

        # Special folds first: they need their own group's instances, which
        # general sampling would otherwise consume.
        special_groups = self._pick_special_groups(groups, k_spe, rng)
        for group in special_groups:
            own_positions = np.flatnonzero(remaining & (groups == group))
            n_own_target = int(round(self.special_majority * block_size))
            n_own = min(n_own_target, len(own_positions), block_size)
            chosen_own = rng.choice(own_positions, size=n_own, replace=False) if n_own else np.empty(0, dtype=int)
            remaining[chosen_own] = False
            n_other = block_size - n_own
            other_positions = np.flatnonzero(remaining & (groups != group))
            if len(other_positions) < n_other:
                # Not enough foreign instances left: top up from anywhere.
                other_positions = np.flatnonzero(remaining)
            chosen_other = self._stratified_pick(other_positions, groups, n_other, rng)
            remaining[chosen_other] = False
            blocks.append(subset_indices[np.concatenate([chosen_own, chosen_other])])

        # General folds: group-stratified split of everything left.
        leftover_positions = np.flatnonzero(remaining)
        # Without general folds the leftovers stay in every fold's training side.
        if k_gen:
            general = self._stratified_partition(leftover_positions, groups, k_gen, rng)
            blocks.extend(subset_indices[part] for part in general)
        return blocks

    def _pick_special_groups(
        self, groups: np.ndarray, k_spe: int, rng: np.random.Generator
    ) -> List[int]:
        """Choose which groups get a special fold (largest presence first)."""
        present, counts = np.unique(groups, return_counts=True)
        order = np.argsort(-counts, kind="stable")
        ranked = [int(present[i]) for i in order]
        if len(ranked) >= k_spe:
            return ranked[:k_spe]
        # Fewer distinct groups in the subset than requested special folds:
        # reuse groups cyclically (their samples will still differ).
        if self.guard is not None:
            self.guard.record(
                "folds.special_group_reused",
                f"subset holds {len(ranked)} distinct group(s) for "
                f"{k_spe} special folds; groups reused cyclically",
                n_distinct=len(ranked),
                k_spe=k_spe,
            )
        picks: List[int] = []
        while len(picks) < k_spe:
            picks.extend(ranked)
        return picks[:k_spe]

    @staticmethod
    def _stratified_pick(
        positions: np.ndarray, groups: np.ndarray, n_pick: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pick ``n_pick`` positions roughly proportional to group sizes."""
        if n_pick <= 0 or len(positions) == 0:
            return np.empty(0, dtype=int)
        n_pick = min(n_pick, len(positions))
        member_groups = groups[positions]
        present, counts = np.unique(member_groups, return_counts=True)
        exact = counts * (n_pick / counts.sum())
        allocation = np.floor(exact).astype(int)
        order = np.argsort(-(exact - allocation))
        shortfall = n_pick - int(allocation.sum())
        for i in order:
            if shortfall == 0:
                break
            if allocation[i] < counts[i]:
                allocation[i] += 1
                shortfall -= 1
        while shortfall > 0:
            candidates = np.flatnonzero(allocation < counts)
            allocation[rng.choice(candidates)] += 1
            shortfall -= 1
        picked = []
        for group, take in zip(present, allocation):
            if take == 0:
                continue
            pool = positions[member_groups == group]
            picked.append(rng.choice(pool, size=take, replace=False))
        result = np.concatenate(picked)
        rng.shuffle(result)
        return result

    @staticmethod
    def _stratified_partition(
        positions: np.ndarray, groups: np.ndarray, k: int, rng: np.random.Generator
    ) -> List[np.ndarray]:
        """Split positions into ``k`` group-stratified, size-balanced (sorted) parts."""
        member_groups = groups[positions]
        dealt = [positions[:0]]
        for group in np.unique(member_groups):
            members = positions[member_groups == group]
            rng.shuffle(members)
            dealt.append(members)
        order = np.concatenate(dealt).astype(int, copy=False)
        part_of = np.arange(len(order)) % k
        return [np.sort(order[part_of == part]) for part in range(k)]
