"""Slow references that the tests audit fast paths against.

``op_cost_oracle`` searches partition space for the cheapest edit sequence,
so it is exponential in the album size; it audits ``metrics.op_cost``.
``forest_predict_reference`` descends a forest one tree at a time; it
audits the packed ``ForestModel.predict_many``.
"""

from __future__ import annotations

import heapq

import numpy as np

from facegroup.core import CostModel, Partition
from facegroup.learn import ForestModel


class CapacityError(ValueError):
    """Instance too large for an exact-search routine."""


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
    if h.item_indices() != g.item_indices():
        raise ValueError("partitions cover different item sets")
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


def forest_predict_reference(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Forest mean from the serialized trees, one tree at a time: a running
    sum from +0.0 in tree order, divided by the tree count."""
    X = np.asarray(X, dtype=np.float64)
    trees = model.to_dict()["trees"]
    acc = np.zeros(X.shape[0])
    for tree in trees:
        acc += _tree_apply({key: np.asarray(v) for key, v in tree.items()}, X)
    return acc / len(trees)


def _tree_apply(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value of each row in one tree whose leaves have feature -1."""
    feature, threshold = tree["feature"], tree["threshold"]
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = feature[node] >= 0
    while active.any():
        idx = np.where(active)[0]
        cur = node[idx]
        go_left = X[idx, feature[cur]] <= threshold[cur]
        node[idx] = np.where(go_left, tree["left"][cur], tree["right"][cur])
        active = feature[node] >= 0
    return tree["value"][node]
