"""Candidate-pair proposal strategies.

A recommender turns the O(N^2) pair space into one candidate per step. A
pair is eligible when its group-id pair has not been recommended before
and its inter-group distance is at or below the threshold ``tau``; when no
eligible pair remains the episode ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import State
from .features import AlbumContext, pair_distance


class Strategy(Enum):
    HIERARCHICAL_NEAREST = "hc"
    RANDOM = "random"


@dataclass(frozen=True)
class RecommenderConfig:
    strategy: Strategy = Strategy.HIERARCHICAL_NEAREST
    tau: float = 0.45

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")


def eligible_pairs(
    state: State,
    ctx: AlbumContext,
    config: RecommenderConfig,
    eta: int,
    cache: dict | None = None,
) -> list[tuple[int, int, float]]:
    """All candidate pairs passing the history and distance filters,
    as (gid_a, gid_b, distance) in ascending (gid_a, gid_b) order.

    ``cache`` memoizes pair distances by group-id pair. A group's members
    never change under its id, so a cache shared across the steps of one
    episode stays valid; episodes never share one.
    """
    if cache is None:
        cache = {}
    part = state.partition
    seen = state.history.pairs
    gids = sorted(part.group_ids())
    out: list[tuple[int, int, float]] = []
    for i, gid_a in enumerate(gids):
        for gid_b in gids[i + 1 :]:
            key = (gid_a, gid_b)
            if key in seen:
                continue
            dist = cache.get(key)
            if dist is None:
                dist = pair_distance(
                    ctx, sorted(part.members(gid_a)), sorted(part.members(gid_b)), eta
                )
                cache[key] = dist
            if dist <= config.tau:
                out.append((gid_a, gid_b, dist))
    return out


def recommend(
    state: State,
    ctx: AlbumContext,
    config: RecommenderConfig,
    eta: int,
    rng: np.random.Generator | None = None,
    cache: dict | None = None,
) -> tuple[int, int] | None:
    """Propose the next candidate pair, or None when the episode is over.

    HIERARCHICAL_NEAREST picks the closest eligible pair (ties to the
    smallest group-id pair); RANDOM picks uniformly among eligible pairs
    using the caller's generator.
    """
    pairs = eligible_pairs(state, ctx, config, eta, cache)
    if not pairs:
        return None
    if config.strategy is Strategy.RANDOM:
        if rng is None:
            raise ValueError("random strategy requires a seeded generator")
        gid_a, gid_b, _ = pairs[int(rng.integers(len(pairs)))]
    else:
        gid_a, gid_b, _ = min(pairs, key=lambda p: (p[2], p[0], p[1]))
    return (gid_a, gid_b)
