"""Candidate-pair proposal strategies.

A recommender turns the O(N^2) pair space into one candidate per step. A
pair is eligible when both its groups are live, it has not been proposed
before and its inter-group distance is at or below the threshold ``tau``;
when no eligible pair remains the episode ends.

The eligible pairs are kept incrementally (the generic heap-based
agglomerative algorithm of Muellner, arXiv:1109.2378). A pair's distance
depends only on its two groups' members, which never change under a group
id, so each pair is measured once, when the newer of its two groups
appears, and stays valid while both ids are live. A proposed pair leaves
the queue, so each pair is proposed at most once per episode.
"""

from __future__ import annotations

import heapq
from enum import Enum

import numpy as np

from .core import Partition, State
from .features import AlbumContext, consistency, median_column, pair_distance, quality_block


class Strategy(Enum):
    HIERARCHICAL_NEAREST = "hc"
    RANDOM = "random"


class PairQueue:
    """The per-group quantities of one episode and a heap of
    ``(distance, gid_a, gid_b)``, gid_a < gid_b, over the pairs within ``tau``.

    Each group sits in a slot: a row of ``cols`` (its median column),
    ``cons`` (its consistency) and ``qual`` (its quality block), all set
    once when the group appears; ``label`` maps every item to its group's
    slot. ``extract_features`` reads a pair's features from these slots.
    A new group's distances to all older live groups are computed in one
    ``pair_distance`` batch. A pair handed out leaves the heap, and entries
    of retired ids are dropped lazily. A queue follows one episode forward;
    it rejects a partition that does not descend from the last one it saw.
    """

    def __init__(self, ctx: AlbumContext, eta: int, tau: float):
        n = len(ctx)
        self.ctx, self.eta, self.tau = ctx, eta, tau
        self.cols = np.empty((n, n))
        self.cons = np.empty(n)
        self.qual = np.empty((n, eta))
        self.label = np.empty(n, dtype=np.intp)
        self.slot_gid = np.full(n, -1)  # -1 marks a free slot
        self.slot: dict[int, int] = {}  # live group id -> slot
        self.free = list(range(n - 1, -1, -1))
        self.next_gid = 0
        self.heap: list[tuple[float, int, int]] = []

    def sync(self, partition: Partition) -> None:
        """Retire the groups gone from ``partition`` and add its new ones."""
        if partition.next_group_id == self.next_gid:
            return  # ids only grow, so no group appeared or left
        live = set(partition.group_ids())
        new = sorted(live - self.slot.keys())
        if new and new[0] < self.next_gid:
            raise ValueError("partition does not follow this queue's episode")
        for gid in self.slot.keys() - live:
            slot = self.slot.pop(gid)
            self.slot_gid[slot] = -1
            self.free.append(slot)
        for gid in new:
            slot = self.free.pop()
            idx = sorted(partition.members(gid))
            self.slot[gid] = slot
            self.slot_gid[slot] = gid
            self.label[idx] = slot
            self.cols[slot] = median_column(self.ctx, idx)
            self.cons[slot] = consistency(self.ctx, idx)
            self.qual[slot] = quality_block(self.ctx.qualities[idx], self.eta)
        for gid in new:  # every label is set, so each pair is measured once
            older = np.flatnonzero((self.slot_gid >= 0) & (self.slot_gid < gid))
            if older.size == 0:
                continue
            dist = pair_distance(self.cols, self.label, self.slot[gid], older, self.eta)
            close = dist <= self.tau
            for d, h in zip(dist[close].tolist(), self.slot_gid[older[close]].tolist()):
                heapq.heappush(self.heap, (d, h, gid))
        self.next_gid = partition.next_group_id

    def nearest(self, state: State) -> tuple[int, int] | None:
        """Pop the closest eligible pair, ties to the smallest group-id pair."""
        self.sync(state.partition)
        while self.heap:
            _, gid_a, gid_b = heapq.heappop(self.heap)
            if gid_a in self.slot and gid_b in self.slot:
                return gid_a, gid_b
        return None

    def eligible(self, state: State) -> list[tuple[int, int]]:
        """All eligible pairs in ascending (gid_a, gid_b) order."""
        self.sync(state.partition)
        self.heap = [e for e in self.heap if e[1] in self.slot and e[2] in self.slot]
        heapq.heapify(self.heap)
        return sorted(e[1:] for e in self.heap)

    def draw(self, state: State, rng: np.random.Generator | None) -> tuple[int, int] | None:
        """Pop a uniform draw over the ``eligible`` list."""
        pairs = self.eligible(state)
        if not pairs:
            return None
        if rng is None:
            raise ValueError("random strategy requires a seeded generator")
        pair = pairs[int(rng.integers(len(pairs)))]
        self.heap = [e for e in self.heap if e[1:] != pair]
        heapq.heapify(self.heap)
        return pair


def recommend(
    state: State,
    queue: PairQueue,
    strategy: Strategy,
    rng: np.random.Generator | None = None,
) -> tuple[int, int] | None:
    """Propose the next candidate pair, or None when the episode is over.

    HIERARCHICAL_NEAREST picks the closest eligible pair (ties to the
    smallest group-id pair); RANDOM picks uniformly among eligible pairs
    using the caller's generator. ``queue`` holds the episode's album, eta
    and tau and carries the pair distances from step to step; the pair
    proposed leaves it, so the next call proposes another one.
    """
    if strategy is Strategy.RANDOM:
        return queue.draw(state, rng)
    return queue.nearest(state)
