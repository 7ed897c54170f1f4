"""Candidate-pair proposal strategies.

A recommender turns the O(N^2) pair space into one candidate per step. A
pair is eligible when both its groups are live, it has not been proposed
before and its inter-group distance is at or below the threshold ``tau``;
when no eligible pair remains the episode ends.

The eligible pairs are kept incrementally (the generic heap-based
agglomerative algorithm of Muellner, arXiv:1109.2378). A pair's distance
depends only on its two groups' members, which never change under a group
id, so each pair is measured once, when the newer of its two groups
appears, and stays valid while both ids are live. The all-singleton start
is measured in one batch; later groups are measured as they appear. A
pair within ``tau`` keeps the two sorted similarity blocks its distance
averages, so its features are not measured again. A proposed pair leaves
the queue, so each pair is proposed at most once per episode.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum

import numpy as np

from .core import Partition, State
from .features import AlbumContext, consistency, median_column, pair_distance, quality_block

# Singleton pairs (and column entries) handled per batch of the start,
# which bounds its scratch memory on large albums.
_START_PAIRS = 1 << 16


class Strategy(Enum):
    HIERARCHICAL_NEAREST = "hc"
    RANDOM = "random"


class PairQueue:
    """The per-group quantities of one episode and the pairs within ``tau``.

    Each group sits in a slot: a row of ``cols`` (its median column),
    ``cons`` (its consistency) and ``qual`` (its quality block), all set
    once when the group appears; ``label`` maps every item to its group's
    slot. A new group's distances to all older live groups are computed in
    one ``pair_distance`` batch; the first partition, when all its groups
    are singletons, is set up in one step without it.

    A pair within tau keeps its A->B block, then its B->A block, as
    ``extract_features`` lays them out: row ``row`` of ``kept[gid_b]``,
    the blocks measured when its newer group gid_b appeared, which are
    dropped when gid_b retires. A pair of the start keeps row -1 instead:
    both its groups are singletons, so each block is the distance of their
    two items (``start_items``, by slot), repeated. HC keeps the pairs in a
    heap of ``(distance, gid_a, gid_b, row)``, gid_a < gid_b, and drops entries of
    retired ids lazily, or all at once when the heap outgrows twice the
    pairs of live groups. RANDOM moves them, at its first draw, to
    ``order``: an (n, 3) array of ``(gid_a, gid_b, row)``, the heap entries
    without their distances, in (gid_a, gid_b) order. A pair handed out
    leaves the queue. A queue follows one episode forward; it rejects a partition
    that does not descend from the last one it saw.
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
        self.heap: list[tuple[float, int, int, int]] = []
        self.kept: dict[int, np.ndarray] = {}
        self.start_items = np.empty(0, dtype=np.intp)  # the item of each slot of the start
        self.handed: tuple[int, int, int] | None = None  # (gid_a, gid_b, row)
        self.order: np.ndarray | None = None

    def sync(self, partition: Partition) -> None:
        """Retire the groups gone from ``partition`` and add its new ones."""
        if partition.next_group_id == self.next_gid:
            return  # ids only grow, so no group appeared or left
        if not self.slot and partition.groups and all(len(m) == 1 for _, m in partition.groups):
            self._start(partition)
        else:
            self._update(partition)
        self.next_gid = partition.next_group_id

    def _start(self, partition: Partition) -> None:
        """Add an all-singleton partition to an empty queue as the per-group
        path would: slots in group-id order, a singleton's median column is
        its column of D, its consistency 0 and its quality block its quality
        repeated. Both blocks of a singleton pair hold the one item-item
        distance eta times (D is exactly symmetric), and the pair's distance
        sums them as C-contiguous rows, as ``pair_distance`` does."""
        gids = sorted(partition.group_ids())
        items = np.array([next(iter(partition.members(g))) for g in gids], dtype=np.intp)
        m, eta, D = len(gids), self.eta, self.ctx.D
        self.start_items = items
        self.slot = dict(zip(gids, range(m)))
        self.slot_gid[:m] = gids
        del self.free[len(self.free) - m :]
        self.label[items] = np.arange(m)
        self.cons[:m] = 0.0
        self.qual[:m] = self.ctx.qualities[items, None]
        gid_of = np.array(gids, dtype=object)  # entries share the gids' int objects
        step = max(1, _START_PAIRS // m)
        for j0 in range(0, m, step):  # slots j0 .. j0 + step and their pairs (j, k), j < k
            self.cols[j0 : j0 + step] = D[:, items[j0 : j0 + step]].T
            j, k = np.nonzero(self.ctx.upper[j0 : j0 + step, :m])
            j += j0
            half = np.repeat(D[items[j], items[k]][:, None], eta, axis=1).sum(axis=1)
            dist = (half + half) / (2 * eta)
            close = dist <= self.tau
            self.heap += zip(
                dist[close].tolist(), gid_of[j[close]].tolist(), gid_of[k[close]].tolist(),
                itertools.repeat(-1),
            )
        heapq.heapify(self.heap)

    def _update(self, partition: Partition) -> None:
        """Add the groups new since the last sync (ids from ``next_gid`` on)
        and retire the groups their items were labelled with. A partition
        whose group count does not balance is not of this queue's episode."""
        gids = sorted(gid for gid, _ in partition.groups if gid >= self.next_gid)
        new = {gid: np.array(sorted(partition.members(gid))) for gid in gids}
        retired = set()
        if self.slot and new:
            moved = np.concatenate(list(new.values()))
            retired = set(self.slot_gid[self.label[moved]].tolist())
        if len(self.slot) - len(retired) + len(new) != partition.n_groups:
            raise ValueError("partition does not follow this queue's episode")
        for gid in retired:
            slot = self.slot.pop(gid)
            self.slot_gid[slot] = -1
            self.free.append(slot)
            self.kept.pop(gid, None)
        if retired and self.order is not None:
            live = ~np.isin(self.order[:, :2], list(retired)).any(axis=1)
            self.order = self.order[live]
        for gid, idx in new.items():
            slot = self.free.pop()
            self.slot[gid] = slot
            self.slot_gid[slot] = gid
            self.label[idx] = slot
            self.cols[slot] = median_column(self.ctx, idx)
            self.cons[slot] = consistency(self.ctx, idx)
            self.qual[slot] = quality_block(self.ctx.qualities[idx], self.eta)
        for gid in new:  # every label is set, so each pair is measured once
            older = ((self.slot_gid >= 0) & (self.slot_gid < gid)).nonzero()[0]
            if older.size == 0:
                continue
            dist, block_g, block_b = pair_distance(
                self.cols, self.label, self.slot[gid], older, self.eta
            )
            close = (dist <= self.tau).nonzero()[0]
            self.kept[gid] = np.concatenate([block_g[close], block_b[close]], axis=1)
            partners = self.slot_gid[older[close]]
            if self.order is None:
                for d, h, row in zip(dist[close].tolist(), partners.tolist(), range(close.size)):
                    heapq.heappush(self.heap, (d, h, gid, row))
            elif close.size:
                # every held pair's gid_b is older than gid, so (h, gid)
                # goes right after the pairs (h, .)
                rows = partners.argsort()
                pairs = np.column_stack([partners[rows], np.full(rows.size, gid), rows])
                at = np.searchsorted(self.order[:, 0], pairs[:, 0], side="right")
                self.order = np.insert(self.order, at, pairs, axis=0)
        if len(self.heap) > len(self.slot) * (len(self.slot) - 1):
            self._rebuild()

    def _rebuild(self) -> None:
        """Keep the heap's live entries: unique tuples, which pop as they did."""
        self.heap = [e for e in self.heap if e[1] in self.slot and e[2] in self.slot]
        heapq.heapify(self.heap)

    def held_blocks(self, gid_a: int, gid_b: int, row: int) -> np.ndarray:
        """The A->B and B->A blocks kept for a held pair of live groups."""
        if row >= 0:
            return self.kept[gid_b][row]
        item_a, item_b = self.start_items[[self.slot[gid_a], self.slot[gid_b]]]
        return np.full(2 * self.eta, self.ctx.D[item_a, item_b])

    def kept_blocks(self, candidate: tuple[int, int]) -> np.ndarray | None:
        """The blocks kept for the pair last handed out; None for any
        other pair or order."""
        if self.handed is None or candidate != self.handed[:2]:
            return None
        return self.held_blocks(*self.handed)

    def nearest(self, state: State) -> tuple[int, int] | None:
        """Pop the closest eligible pair, ties to the smallest group-id pair."""
        self.sync(state.partition)
        if self.order is not None:
            raise ValueError("this queue serves the random strategy")
        while self.heap:
            _, gid_a, gid_b, row = heapq.heappop(self.heap)
            if gid_a in self.slot and gid_b in self.slot:
                self.handed = (gid_a, gid_b, row)
                return gid_a, gid_b
        return None

    def upcoming(self, k: int) -> list[tuple[int, int, int]]:
        """The next ``k`` live pairs ``nearest`` would hand out while the
        partition last synced stands, as ``(gid_a, gid_b, row)``; they stay
        in the queue. Empty under the random strategy, which holds no heap."""
        entries = []
        while self.heap and len(entries) < k:
            entry = heapq.heappop(self.heap)
            if entry[1] in self.slot and entry[2] in self.slot:
                entries.append(entry)
        for entry in entries:
            heapq.heappush(self.heap, entry)
        return [entry[1:] for entry in entries]

    def _sync_order(self, state: State) -> np.ndarray:
        """Sync, and return ``order``; the first call moves the heap's live
        pairs into it."""
        self.sync(state.partition)
        if self.order is None:
            live = [(a, b, row) for _, a, b, row in self.heap
                    if a in self.slot and b in self.slot]
            self.order = np.array(sorted(live), dtype=np.int64).reshape(-1, 3)
            self.heap = []
        return self.order

    def draw(self, state: State, rng: np.random.Generator | None) -> tuple[int, int] | None:
        """Pop a uniform draw over the eligible pairs in ascending (gid_a,
        gid_b) order; the order is part of the seeded behaviour."""
        pairs = self._sync_order(state)
        if not len(pairs):
            return None
        if rng is None:
            raise ValueError("random strategy requires a seeded generator")
        at = int(rng.integers(len(pairs)))
        self.handed = tuple(pairs[at].tolist())
        self.order = np.delete(pairs, at, axis=0)
        return self.handed[:2]


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
