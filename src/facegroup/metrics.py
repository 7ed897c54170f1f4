"""Partition distances and grouping quality metrics.

The operation cost between a hypothesis partition and a target partition is
the weighted number of add / remove / merge edits needed to turn one into
the other. ``op_cost`` is a fast deterministic plan-based upper bound used
as the training signal.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .core import Action, CostModel, Partition


class OpResult:
    """``op_cost``'s edit plan of a hypothesis against a target partition,
    with its operation counts and their weighted total.

    Every hypothesis group aims at the target group it overlaps most (ties
    to the smallest target index), keeps that overlap and sheds the rest as
    removals. Groups aimed at one target are merged and its members still
    missing are added one by one; a target nothing aims at is built from
    one of its members. A group's aim depends on its own members only, so
    ``merged`` advances the plan by one merge without replanning the rest.
    """

    def __init__(self, h: Partition, g: Partition, costs: CostModel):
        self.costs = costs
        self.target_of = {i: j for j, (_, members) in enumerate(g.groups) for i in members}
        self.targeting = [0] * g.n_groups  # hypothesis groups aimed at each target
        self.n_items, self.n_targets = g.n_items, g.n_groups
        self.n_groups = self.n_aimed = self.n_kept = self.n_removes = 0
        for _, members in h.groups:
            self._aim(members, 1)

    def _aim(self, members: frozenset[int], sign: int) -> None:
        """Aim one hypothesis group at its target; ``sign=-1`` withdraws it."""
        overlap: dict[int, int] = {}
        for i in members:
            j = self.target_of[i]
            overlap[j] = overlap.get(j, 0) + 1
        j = min(overlap, key=lambda t: (-overlap[t], t))
        self.n_aimed -= self.targeting[j] > 0
        self.targeting[j] += sign
        self.n_aimed += self.targeting[j] > 0
        self.n_groups += sign
        self.n_kept += sign * overlap[j]
        self.n_removes += sign * (len(members) - overlap[j])

    @property
    def n_adds(self) -> int:
        return self.n_items - self.n_kept - (self.n_targets - self.n_aimed)

    @property
    def n_merges(self) -> int:
        return self.n_groups - self.n_aimed

    @property
    def total_cost(self) -> float:
        c = self.costs
        return c.c_add * self.n_adds + c.c_remove * self.n_removes + c.c_merge * self.n_merges

    def merged(self, a: frozenset[int], b: frozenset[int]) -> OpResult:
        """The plan with the hypothesis groups ``a`` and ``b`` merged; this
        plan is left as it was."""
        plan = copy.copy(self)
        plan.targeting = self.targeting[:]
        plan._aim(a, -1)
        plan._aim(b, -1)
        plan._aim(a | b, 1)
        return plan

    def expert(self, a: frozenset[int], b: frozenset[int]) -> tuple[Action, OpResult]:
        """The expert's decision on merging groups ``a`` and ``b``, merge iff
        the merged plan's total is strictly lower, and the merged plan."""
        plan = self.merged(a, b)
        return (Action.MERGE if plan.total_cost < self.total_cost else Action.NOT_MERGE), plan


@dataclass(frozen=True)
class BcubedScores:
    precision: float
    recall: float
    f1: float


def _check_same_items(h: Partition, g: Partition) -> None:
    if h.item_indices() != g.item_indices():
        raise ValueError("partitions cover different item sets")


def op_cost(h: Partition, g: Partition, costs: CostModel) -> OpResult:
    """Deterministic edit plan transforming ``h`` into ``g`` (``OpResult``).
    Its cost is an upper bound on the true minimum and is zero exactly when
    the partitions coincide."""
    _check_same_items(h, g)
    return OpResult(h, g, costs)


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
