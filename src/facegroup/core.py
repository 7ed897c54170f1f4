"""Domain types for album grouping episodes.

An episode walks a chain of immutable states: a partition of the album's
items plus the history of group pairs already recommended. Groups are
addressed by integer ids that are never reused within an episode, and a
group's members never change under its id, so the history keys pairs by
id: a group whose composition changed has a new id and counts as a new
pair partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

NOISE = "NOISE"

UNIT_NORM_TOL = 1e-9


class Action(Enum):
    MERGE = "merge"
    NOT_MERGE = "not_merge"


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs for editing a partition (add, remove, merge)."""

    c_add: float = 1.0
    c_remove: float = 6.0
    c_merge: float = 1.0

    def __post_init__(self):
        for name in ("c_add", "c_remove", "c_merge"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class FaceItem:
    """One item to be grouped: unit-norm embedding, quality score, optional label.

    ``label`` is an identity id, the NOISE marker, or None for unlabeled
    (unknown) items.
    """

    item_id: str
    embedding: np.ndarray
    quality: float
    label: str | None = None

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1:
            raise ValueError(f"item {self.item_id}: embedding must be 1-d")
        norm = float(np.linalg.norm(emb))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"item {self.item_id}: embedding norm {norm!r} is not 1 "
                f"(tolerance {UNIT_NORM_TOL})"
            )
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"item {self.item_id}: quality {self.quality} outside [0, 1]")
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)


@dataclass(frozen=True)
class Album:
    """An ordered collection of items sharing one embedding dimension."""

    album_id: str
    items: tuple[FaceItem, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        ids = [it.item_id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError(f"album {self.album_id}: duplicate item ids")
        dims = {it.embedding.shape[0] for it in self.items}
        if len(dims) > 1:
            raise ValueError(f"album {self.album_id}: mixed embedding dimensions {sorted(dims)}")
        if dims and next(iter(dims)) < 2:
            raise ValueError(f"album {self.album_id}: embedding dimension must be >= 2")

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class History:
    """Set of group-id pairs already recommended, each stored as (low, high)."""

    pairs: frozenset[tuple[int, int]] = frozenset()

    def contains(self, gid_a: int, gid_b: int) -> bool:
        return (min(gid_a, gid_b), max(gid_a, gid_b)) in self.pairs

    def with_pair(self, gid_a: int, gid_b: int) -> "History":
        key = (min(gid_a, gid_b), max(gid_a, gid_b))
        if key in self.pairs:
            raise ValueError(f"pair {key} already present in history")
        return History(pairs=self.pairs | {key})

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of item indices by non-empty groups.

    Group ids grow monotonically; merging two groups retires both ids and
    assigns ``next_group_id`` to the union.
    """

    groups: tuple[tuple[int, frozenset[int]], ...]
    next_group_id: int
    _by_id: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        by_id = {}
        seen: set[int] = set()
        total = 0
        for gid, members in self.groups:
            if not members:
                raise ValueError(f"group {gid} is empty")
            if gid in by_id:
                raise ValueError(f"duplicate group id {gid}")
            if gid >= self.next_group_id:
                raise ValueError(f"group id {gid} >= next_group_id {self.next_group_id}")
            if not seen.isdisjoint(members):
                raise ValueError(f"group {gid} overlaps another group")
            seen.update(members)
            total += len(members)
            by_id[gid] = members
        if total != len(seen):
            raise ValueError("groups are not disjoint")
        object.__setattr__(self, "_by_id", by_id)

    @staticmethod
    def from_singletons(n_items: int) -> "Partition":
        groups = tuple((i, frozenset((i,))) for i in range(n_items))
        return Partition(groups=groups, next_group_id=n_items)

    @staticmethod
    def from_groups(member_sets: Iterable[Iterable[int]]) -> "Partition":
        groups = tuple(
            (gid, frozenset(members)) for gid, members in enumerate(member_sets)
        )
        return Partition(groups=groups, next_group_id=len(groups))

    def group_ids(self) -> tuple[int, ...]:
        return tuple(gid for gid, _ in self.groups)

    def members(self, gid: int) -> frozenset[int]:
        try:
            return self._by_id[gid]
        except KeyError:
            raise ValueError(f"unknown group id {gid}") from None

    def item_indices(self) -> frozenset[int]:
        return frozenset().union(*(m for _, m in self.groups)) if self.groups else frozenset()

    @property
    def n_items(self) -> int:
        return sum(len(m) for _, m in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def as_sets(self) -> frozenset[frozenset[int]]:
        """Partition as a set of member sets (group ids stripped)."""
        return frozenset(m for _, m in self.groups)

    def merged(self, gid_a: int, gid_b: int) -> tuple["Partition", int]:
        """New partition with the two groups unioned under a fresh id."""
        if gid_a == gid_b:
            raise ValueError("cannot merge a group with itself")
        union = self.members(gid_a) | self.members(gid_b)
        new_gid = self.next_group_id
        kept = tuple((g, m) for g, m in self.groups if g not in (gid_a, gid_b))
        return (
            Partition(groups=kept + ((new_gid, union),), next_group_id=new_gid + 1),
            new_gid,
        )


@dataclass(frozen=True)
class State:
    """MDP state: current partition plus recommendation history at step ``step``."""

    partition: Partition
    history: History
    step: int = 0

    @staticmethod
    def initial(n_items: int) -> "State":
        return State(partition=Partition.from_singletons(n_items), history=History())


def transition(state: State, candidate: tuple[int, int], action: Action) -> State:
    """Apply one merge / not-merge decision, returning the successor state.

    The input state is untouched. The candidate pair is appended to the
    history either way; a merge replaces the two groups with their union
    under a fresh group id.
    """
    gid_a, gid_b = candidate
    state.partition.members(gid_a)  # rejects unknown ids
    state.partition.members(gid_b)
    if gid_a == gid_b:
        raise ValueError("candidate pair must name two distinct groups")
    history = state.history.with_pair(gid_a, gid_b)
    if action is Action.MERGE:
        partition, _ = state.partition.merged(gid_a, gid_b)
    else:
        partition = state.partition
    return State(partition=partition, history=history, step=state.step + 1)


def ground_truth_partition(album: Album) -> Partition:
    """Target partition from item labels: one group per identity, noise as singletons.

    Unlabeled items are rejected; callers must filter them out first.
    """
    by_label: dict[str, list[int]] = {}
    noise: list[int] = []
    for idx, item in enumerate(album.items):
        if item.label is None:
            raise ValueError(
                f"album {album.album_id}: item {item.item_id} has no label; "
                "ground truth requires complete labels"
            )
        if item.label == NOISE:
            noise.append(idx)
        else:
            by_label.setdefault(item.label, []).append(idx)
    member_sets = sorted(by_label.values(), key=min)
    member_sets.extend([i] for i in noise)
    member_sets.sort(key=min)
    return Partition.from_groups(member_sets)


def ground_truth_action(
    state: State,
    candidate: tuple[int, int],
    gt: Partition,
    costs: CostModel,
) -> Action:
    """Expert decision for a candidate pair: merge iff it strictly lowers the
    remaining operation cost toward the ground-truth partition."""
    from .metrics import op_cost

    if gt.item_indices() != state.partition.item_indices():
        raise ValueError("ground truth covers a different item set")
    gid_a, gid_b = candidate
    merged, _ = state.partition.merged(gid_a, gid_b)
    cost_now = op_cost(state.partition, gt, costs).total_cost
    cost_merged = op_cost(merged, gt, costs).total_cost
    return Action.MERGE if cost_merged < cost_now else Action.NOT_MERGE
