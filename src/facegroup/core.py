"""Domain types for album grouping episodes.

An episode walks a chain of immutable states: a partition of the album's
items and the step count. Groups are addressed by integer ids that are
never reused within an episode, and a group's members never change under
its id, so a group whose composition changed has a new id and is a new
pair partner. Which pairs were already recommended is the recommender's
business: its queue consumes each pair it hands out.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

NOISE = "NOISE"

UNIT_NORM_TOL = 1e-9


class SchemaError(ValueError):
    """Malformed or incompatible file content, or a config key that does not exist."""


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
            if not 0 < getattr(self, name) < math.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


# The JSON values each scalar field type of a config takes, by type() and not
# isinstance(), so that a JSON true is neither an integer nor a number.
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          bool: ((bool,), "true or false"), str: ((str,), "a string")}


def config_dict(cfg) -> dict:
    """A config dataclass as JSON values: a tuple as a list, an Enum as its
    value and a ``CostModel`` as [add, remove, merge]."""

    def plain(v):
        if isinstance(v, CostModel):
            return [v.c_add, v.c_remove, v.c_merge]
        if isinstance(v, Enum):
            return v.value
        return list(v) if isinstance(v, tuple) else v

    return {f.name: plain(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def config_from_dict(cls, d):
    """Inverse of ``config_dict``: the config dataclass ``cls`` from a JSON
    object, with defaults for missing keys and every value as it was given.

    A value must fit its field's type: an integer field takes a JSON
    integer, a number field any number, neither takes a boolean, and a
    tuple or ``CostModel`` field takes a list of the right length. A value
    of the wrong type or out of range raises ValueError; an unknown key,
    or ``d`` not being an object, raises SchemaError.
    """
    if not isinstance(d, dict):
        raise SchemaError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise SchemaError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: field_value(name, hints[name], v) for name, v in d.items()})


def field_value(name: str, hint, value):
    """``value`` as the config field ``name`` of type ``hint`` takes it from
    JSON; ValueError if it does not fit."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            choices = [m.value for m in hint]
            raise ValueError(f"{name} must be one of {choices}, got {value!r}") from None
    if hint is CostModel:
        return CostModel(*field_value(name, tuple[float, float, float], value))
    if typing.get_origin(hint) is not tuple:
        if type(value) not in _KINDS[hint][0]:
            raise ValueError(f"{name} must be {_KINDS[hint][1]}, got {value!r}")
        return value
    kind, *rest = typing.get_args(hint)  # (int, int) or (int, ...)
    length = None if rest == [Ellipsis] else 1 + len(rest)
    if not (isinstance(value, list) and length in (None, len(value))
            and all(type(v) in _KINDS[kind][0] for v in value)):
        raise ValueError(f"{name} must be a list of {length or 'any number of'} values, "
                         f"each {_KINDS[kind][1]}, got {value!r}")
    return tuple(value)


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
        # a NaN norm would pass the tolerance test below: NaN > tol is False
        if not math.isfinite(norm):
            raise ValueError(f"item {self.item_id}: embedding is not finite (norm {norm!r})")
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
class Partition:
    """Disjoint cover of item indices by non-empty groups.

    Group ids grow monotonically; merging two groups retires both ids and
    assigns ``next_group_id`` to the union, so the item set never changes
    and ``merged`` hands it on.
    """

    groups: tuple[tuple[int, frozenset[int]], ...]
    next_group_id: int
    _by_id: dict = field(default_factory=dict, compare=False, repr=False)
    _items: frozenset = field(default_factory=frozenset, compare=False, repr=False)

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
        object.__setattr__(self, "_items", frozenset(seen))

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
        return tuple(self._by_id)  # in the order of ``groups``

    def members(self, gid: int) -> frozenset[int]:
        try:
            return self._by_id[gid]
        except KeyError:
            raise ValueError(f"unknown group id {gid}") from None

    def item_indices(self) -> frozenset[int]:
        return self._items

    @property
    def n_items(self) -> int:
        return len(self._items)

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
        by_id = dict(self._by_id)
        del by_id[gid_a], by_id[gid_b]
        by_id[new_gid] = union
        # valid by construction, so __post_init__'s whole-partition check is skipped
        merged = object.__new__(Partition)
        object.__setattr__(merged, "groups", tuple(by_id.items()))
        object.__setattr__(merged, "next_group_id", new_gid + 1)
        object.__setattr__(merged, "_by_id", by_id)
        object.__setattr__(merged, "_items", self._items)
        return merged, new_gid


@dataclass(frozen=True)
class State:
    """MDP state: the current partition at step ``step``."""

    partition: Partition
    step: int = 0

    @staticmethod
    def initial(n_items: int) -> "State":
        return State(partition=Partition.from_singletons(n_items))


def transition(state: State, candidate: tuple[int, int], action: Action) -> State:
    """Apply one merge / not-merge decision, returning the successor state.

    The input state is untouched; a merge replaces the two groups with
    their union under a fresh group id.
    """
    gid_a, gid_b = candidate
    state.partition.members(gid_a)  # rejects unknown ids
    state.partition.members(gid_b)
    if gid_a == gid_b:
        raise ValueError("candidate pair must name two distinct groups")
    if action is Action.MERGE:
        partition, _ = state.partition.merged(gid_a, gid_b)
    else:
        partition = state.partition
    return State(partition=partition, step=state.step + 1)


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
    member_sets = list(by_label.values())
    member_sets.extend([i] for i in noise)
    member_sets.sort(key=min)
    return Partition.from_groups(member_sets)


def ground_truth_action(
    state: State,
    candidate: tuple[int, int],
    gt: Partition,
    costs: CostModel,
) -> Action:
    """Expert decision for a candidate pair from a fresh ``op_cost`` plan
    (``OpResult.expert``): merge iff it strictly lowers the remaining
    operation cost toward the ground-truth partition."""
    from .metrics import op_cost

    gid_a, gid_b = candidate
    if gid_a == gid_b:
        raise ValueError("cannot merge a group with itself")
    a, b = state.partition.members(gid_a), state.partition.members(gid_b)
    return op_cost(state.partition, gt, costs).expert(a, b)[0]  # op_cost checks the items
