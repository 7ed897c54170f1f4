"""Partition distances and grouping quality metrics.

The operation cost between a hypothesis partition and a target partition is
the weighted number of add / remove / merge edits needed to turn one into
the other. ``op_cost`` is a fast deterministic plan-based upper bound used
as the training signal; ``op_cost_oracle`` is an exact shortest-path search
feasible for small albums, kept to audit the estimator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import CostModel, Partition


class CapacityError(ValueError):
    """Instance too large for an exact-search routine."""


@dataclass(frozen=True)
class OpResult:
    """Edit plan summary: operation counts, weighted total, and the
    hypothesis-group -> target-group assignment (None means dissolve)."""

    total_cost: float
    n_adds: int
    n_removes: int
    n_merges: int
    assignment: dict

    def counts(self) -> tuple[int, int, int]:
        return (self.n_adds, self.n_removes, self.n_merges)


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
    group (ties to the smallest target index) and sheds the rest as removals;
    groups made entirely of target singletons dissolve outright. Groups
    aimed at the same target are merged, and still-missing members are added
    back one by one. The returned cost is an upper bound on the true minimum
    and is zero exactly when the partitions coincide.
    """
    _check_same_items(h, g)

    g_groups = list(g.groups)
    item_to_gidx: dict[int, int] = {}
    for j, (_, members) in enumerate(g_groups):
        for i in members:
            item_to_gidx[i] = j
    g_singleton = [len(members) == 1 for _, members in g_groups]

    n_adds = n_removes = n_merges = 0
    targeting = [0] * len(g_groups)
    covered = [0] * len(g_groups)
    assignment: dict = {}

    for hid, members in h.groups:
        overlap: dict[int, int] = {}
        for i in members:
            j = item_to_gidx[i]
            overlap[j] = overlap.get(j, 0) + 1
        if len(members) >= 2 and all(g_singleton[item_to_gidx[i]] for i in members):
            assignment[hid] = None
            n_removes += len(members) - 1
            continue
        best_j = min(overlap, key=lambda j: (-overlap[j], j))
        assignment[hid] = g_groups[best_j][0]
        n_removes += len(members) - overlap[best_j]
        targeting[best_j] += 1
        covered[best_j] += overlap[best_j]

    for j, (_, members) in enumerate(g_groups):
        if targeting[j] >= 1:
            n_merges += targeting[j] - 1
            n_adds += len(members) - covered[j]
        else:
            n_adds += len(members) - 1

    total = costs.c_add * n_adds + costs.c_remove * n_removes + costs.c_merge * n_merges
    return OpResult(
        total_cost=total,
        n_adds=n_adds,
        n_removes=n_removes,
        n_merges=n_merges,
        assignment=assignment,
    )


def op_cost_oracle(
    h: Partition,
    g: Partition,
    costs: CostModel,
    max_items: int = 10,
) -> float:
    """Exact minimal edit cost via uniform-cost search over partition space.

    Moves: merge any two groups (c_merge); remove an item from a group of
    size >= 2, making it a singleton (c_remove); put a singleton into any
    other group (c_add). Exponential state space, so the album size is
    capped at ``max_items``.
    """
    _check_same_items(h, g)
    n = h.n_items
    if n > max_items:
        raise CapacityError(f"oracle limited to {max_items} items, got {n}")

    start = h.as_sets()
    goal = g.as_sets()
    if start == goal:
        return 0.0

    best: dict[frozenset, float] = {start: 0.0}
    heap: list[tuple[float, int, frozenset]] = [(0.0, 0, start)]
    tie = 0
    while heap:
        dist, _, part = heapq.heappop(heap)
        if part == goal:
            return dist
        if dist > best.get(part, float("inf")):
            continue
        groups = list(part)
        moves: list[tuple[float, frozenset]] = []
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                union = groups[a] | groups[b]
                nxt = (part - {groups[a], groups[b]}) | {union}
                cost = costs.c_merge
                if len(groups[a]) == 1 or len(groups[b]) == 1:
                    cost = min(cost, costs.c_add)
                moves.append((cost, nxt))
        for grp in groups:
            if len(grp) >= 2:
                for x in grp:
                    nxt = (part - {grp}) | {grp - {x}, frozenset((x,))}
                    moves.append((costs.c_remove, nxt))
        for cost, nxt in moves:
            cand = dist + cost
            if cand < best.get(nxt, float("inf")):
                best[nxt] = cand
                tie += 1
                heapq.heappush(heap, (cand, tie, nxt))
    raise RuntimeError("goal partition unreachable")  # cannot happen


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
