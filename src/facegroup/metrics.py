"""Partition distances and grouping quality metrics.

The operation cost between a hypothesis partition and a target partition is
the weighted number of add / remove / merge edits needed to turn one into
the other. ``op_cost`` is a fast deterministic plan-based upper bound used
as the training signal.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .core import CostModel, Partition


@dataclass(frozen=True)
class OpResult:
    """Edit plan summary: operation counts and their weighted total."""

    total_cost: float
    n_adds: int
    n_removes: int
    n_merges: int
    _plan: "_Plan | None" = field(default=None, compare=False, repr=False)

    def counts(self) -> tuple[int, int, int]:
        return (self.n_adds, self.n_removes, self.n_merges)

    def cost_after_merge(self, a: frozenset[int], b: frozenset[int], costs: CostModel) -> float:
        """For a result of ``op_cost``: the total ``op_cost`` gives for the
        same hypothesis with its groups ``a`` and ``b`` merged, from this
        result's plan."""
        return _total(costs, *self._plan.merged(a, b).counts())


@dataclass(frozen=True)
class BcubedScores:
    precision: float
    recall: float
    f1: float


def _check_same_items(h: Partition, g: Partition) -> None:
    if h.item_indices() != g.item_indices():
        raise ValueError("partitions cover different item sets")


def op_cost(h: Partition, g: Partition, costs: CostModel) -> OpResult:
    """Deterministic edit plan transforming ``h`` into ``g``.

    Plan: every hypothesis group keeps its largest overlap with some target
    group (ties to the smallest target index) and sheds the rest as removals.
    Groups aimed at the same target are merged, and still-missing members
    are added back one by one. The returned cost is an upper bound on the
    true minimum and is zero exactly when the partitions coincide.
    """
    _check_same_items(h, g)
    plan = _Plan(h, g)
    n_adds, n_removes, n_merges = plan.counts()
    return OpResult(
        total_cost=_total(costs, n_adds, n_removes, n_merges),
        n_adds=n_adds,
        n_removes=n_removes,
        n_merges=n_merges,
        _plan=plan,
    )


class _Plan:
    """``op_cost``'s plan for ``h`` against ``g``: the removals, and per
    target group how many hypothesis groups aim at it and how many of its
    members they keep."""

    def __init__(self, h: Partition, g: Partition):
        self.target_of: dict[int, int] = {}
        self.sizes: list[int] = []
        for j, (_, members) in enumerate(g.groups):
            self.sizes.append(len(members))
            for i in members:
                self.target_of[i] = j
        self.targeting = [0] * len(self.sizes)
        self.covered = [0] * len(self.sizes)
        self.n_removes = 0
        for _, members in h.groups:
            self.add(members)

    def add(self, members: frozenset[int], sign: int = 1) -> None:
        """Aim one hypothesis group at the target it overlaps most (ties to
        the smallest target index); ``sign=-1`` withdraws it."""
        overlap: dict[int, int] = {}
        for i in members:
            j = self.target_of[i]
            overlap[j] = overlap.get(j, 0) + 1
        best_j = min(overlap, key=lambda j: (-overlap[j], j))
        self.n_removes += sign * (len(members) - overlap[best_j])
        self.targeting[best_j] += sign
        self.covered[best_j] += sign * overlap[best_j]

    def merged(self, a: frozenset[int], b: frozenset[int]) -> _Plan:
        """The plan with groups ``a`` and ``b`` withdrawn and their union
        added. Every other group aims where it did, so this is exactly the
        plan of the merged hypothesis."""
        plan = copy.copy(self)
        plan.targeting, plan.covered = self.targeting[:], self.covered[:]
        plan.add(a, -1)
        plan.add(b, -1)
        plan.add(a | b)
        return plan

    def counts(self) -> tuple[int, int, int]:
        """(adds, removes, merges) of the plan."""
        n_adds = n_merges = 0
        for j, size in enumerate(self.sizes):
            if self.targeting[j] >= 1:
                n_merges += self.targeting[j] - 1
                n_adds += size - self.covered[j]
            else:
                n_adds += size - 1
        return n_adds, self.n_removes, n_merges


def _total(costs: CostModel, n_adds: int, n_removes: int, n_merges: int) -> float:
    return costs.c_add * n_adds + costs.c_remove * n_removes + costs.c_merge * n_merges


def bcubed(pred: Partition, gt: Partition) -> BcubedScores:
    """Per-item cluster purity and coverage, averaged over items.

    For each item the numerator is the number of items sharing both its
    predicted cluster and its ground-truth cluster (including itself);
    precision divides by the predicted cluster size, recall by the
    ground-truth cluster size.
    """
    _check_same_items(pred, gt)
    items = pred.item_indices()
    if not items:
        raise ValueError("cannot score an empty album")

    pred_of: dict[int, frozenset[int]] = {}
    for _, members in pred.groups:
        for i in members:
            pred_of[i] = members
    gt_of: dict[int, frozenset[int]] = {}
    for _, members in gt.groups:
        for i in members:
            gt_of[i] = members

    inter_size: dict[tuple[frozenset, frozenset], int] = {}
    p_sum = r_sum = 0.0
    for i in items:
        key = (pred_of[i], gt_of[i])
        inter = inter_size.get(key)
        if inter is None:
            inter = len(pred_of[i] & gt_of[i])
            inter_size[key] = inter
        p_sum += inter / len(pred_of[i])
        r_sum += inter / len(gt_of[i])

    n = len(items)
    precision = p_sum / n
    recall = r_sum / n
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return BcubedScores(precision=precision, recall=recall, f1=f1)


def normalized_op(h: Partition, g: Partition, costs: CostModel, n_items: int) -> float:
    """Operation cost divided by the album size."""
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    return op_cost(h, g, costs).total_cost / n_items
