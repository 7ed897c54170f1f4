"""The episode kernel, rewards and action selection.

An episode starts from the all-singleton partition and repeatedly asks the
recommender for a candidate pair, extracts its features, lets an actor
decide, and applies the transition until no eligible pair remains.
``episode`` is the only place that loop is written: inference
(``run_episode``, which reads no label), the expert path and epsilon-greedy
play (``train``) and the threshold baseline (``bench``) are actors on it.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

# ground_truth_action is not called here; perfbench's tracer looks it up
# on this module, so the import stays.
from .core import (  # noqa: F401
    Action,
    Album,
    CostModel,
    Partition,
    State,
    ground_truth_action,
    transition,
)
from .features import AlbumContext, extract_features
from .learn import ForestModel, SvmModel
from .metrics import op_cost
from .recommend import RecommenderConfig, Strategy, recommend

Policy = SvmModel | ForestModel


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs of the grouping policy and its training dynamics."""

    beta: float = 0.8  # weight of the long-term reward
    gamma: float = 0.9  # discount factor of the action-value target
    eta: int = 5  # faces per similarity / quality block
    k_steps: int = 1  # window of the long-term cost delta
    epsilon0: float = 0.3
    epsilon_decay_episodes: int = 40  # episodes over which epsilon reaches 0
    costs: CostModel = field(default_factory=CostModel)
    tau: float = 0.45
    strategy: Strategy = Strategy.HIERARCHICAL_NEAREST
    use_quality: bool = True

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.eta < 1 or self.k_steps < 1:
            raise ValueError("eta and k_steps must be positive")

    def recommender(self) -> RecommenderConfig:
        return RecommenderConfig(strategy=self.strategy, tau=self.tau)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["costs"] = [self.costs.c_add, self.costs.c_remove, self.costs.c_merge]
        d["strategy"] = self.strategy.value
        return d

    @staticmethod
    def from_dict(d: dict) -> "PolicyConfig":
        """Inverse of ``to_dict``, defaults for missing keys. Unknown keys, a
        ``costs`` list other than [add, remove, merge] and bad values raise ValueError."""
        d = dict(d)
        unknown = set(d) - {f.name for f in dataclasses.fields(PolicyConfig)}
        if unknown:
            raise ValueError(f"unknown PolicyConfig keys: {sorted(unknown)}")
        if "costs" in d:
            if len(d["costs"]) != 3:
                raise ValueError(f"costs must be [add, remove, merge], got {d['costs']!r}")
            d["costs"] = CostModel(*d["costs"])
        if "strategy" in d:
            d["strategy"] = Strategy(d["strategy"])
        return PolicyConfig(**d)


def action_flag(action: Action) -> float:
    return 1.0 if action is Action.MERGE else -1.0


def reward_short(model: SvmModel, phi: np.ndarray, action: Action) -> float:
    """Signed SVM margin: positive for merging when the model favors it."""
    return action_flag(action) * model.decision(phi)


def reward_total(r_short: float, r_long: float, beta: float) -> float:
    return r_short + beta * r_long


def q_values(model: ForestModel, phi: np.ndarray) -> tuple[float, float]:
    """(merge, not-merge) values in one batched prediction; the action is
    appended to the feature vector as a +/-1 flag."""
    X = np.stack([np.concatenate([phi, [1.0]]), np.concatenate([phi, [-1.0]])])
    out = model.predict_many(X)
    return float(out[0]), float(out[1])


def choose_action(
    model: ForestModel,
    phi: np.ndarray,
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> Action:
    """Greedy action under the Q model, random with probability epsilon.

    Ties go to NOT_MERGE: declining costs one cheap merge at worst while a
    wrong merge costs expensive removals.
    """
    if epsilon > 0:
        if rng is None:
            raise ValueError("epsilon > 0 requires a generator")
        if rng.random() < epsilon:
            return Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE
    q_merge, q_not = q_values(model, phi)
    return Action.MERGE if q_merge > q_not else Action.NOT_MERGE


def greedy_action(policy: Policy, phi: np.ndarray) -> Action:
    if isinstance(policy, SvmModel):
        return Action.MERGE if policy.decision(phi) > 0 else Action.NOT_MERGE
    return choose_action(policy, phi, epsilon=0.0)


@dataclass(frozen=True)
class Step:
    """One decision of an episode: the transition (state, action, next_state)."""

    state: State  # the state the decision was taken in
    candidate: tuple[int, int]
    phi: np.ndarray
    action: Action
    next_state: State
    r_long: float  # op-cost decrease over the last k_steps transitions; 0 without gt
    elapsed: float  # seconds from the recommend call to the end of the transition


def episode(
    ctx: AlbumContext,
    config: PolicyConfig,
    act: Callable[[State, tuple[int, int], np.ndarray], Action],
    gt: Partition | None = None,
    rng: np.random.Generator | None = None,
) -> Iterator[Step]:
    """Play one episode on the album of ``ctx``, yielding every decision;
    ``act(state, candidate, phi)`` decides each recommended pair.

    With a ground-truth partition each step carries the long-term reward:
    op_cost(partition k_steps transitions back) - op_cost(now), with the
    window cut at the initial partition. Without one no label is read.
    ``rng`` feeds the RANDOM recommender; an actor that draws from the same
    generator, as epsilon-greedy play does, draws after its step's recommend.
    """
    rec_cfg = config.recommender()
    state = State.initial(len(ctx))
    cache: dict = {}
    if gt is not None:
        recent_ops = deque(
            [op_cost(state.partition, gt, config.costs).total_cost],
            maxlen=config.k_steps + 1,
        )
    while True:
        t0 = time.perf_counter()
        candidate = recommend(state, ctx, rec_cfg, config.eta, rng=rng, cache=cache)
        if candidate is None:
            return
        phi = extract_features(state, candidate, ctx, config.eta, config.use_quality)
        action = act(state, candidate, phi)
        next_state = transition(state, candidate, action)
        r_long = 0.0
        if gt is not None:
            recent_ops.append(op_cost(next_state.partition, gt, config.costs).total_cost)
            r_long = recent_ops[0] - recent_ops[-1]
        yield Step(state, candidate, phi, action, next_state, r_long, time.perf_counter() - t0)
        state = next_state


@dataclass
class StepRecord:
    step: int
    candidate: tuple[int, int]
    action: Action
    phi: np.ndarray
    r_short: float  # SVM margin of the action; 0 for a forest policy
    elapsed: float


@dataclass
class EpisodeTrace:
    album_id: str
    steps: list[StepRecord]
    final_partition: Partition


def album_rng(seed: int, album_id: str) -> np.random.Generator:
    """Per-album generator stream, stable across runs and album order."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, zlib.crc32(album_id.encode())]))
    )


def run_episode(
    album: Album,
    policy: Policy,
    config: PolicyConfig,
    rng: np.random.Generator | None = None,
    ctx: AlbumContext | None = None,
) -> EpisodeTrace:
    """Group one album with the policy's greedy actions, returning the
    per-step trace and the final partition. No label is read."""
    steps: list[StepRecord] = []
    partition = Partition.from_singletons(len(album))

    def act(state, candidate, phi):
        return greedy_action(policy, phi)

    for step in episode(ctx or AlbumContext(album), config, act, rng=rng):
        r_short = 0.0
        if isinstance(policy, SvmModel):
            r_short = reward_short(policy, step.phi, step.action)
        steps.append(
            StepRecord(
                step=step.state.step,
                candidate=step.candidate,
                action=step.action,
                phi=step.phi,
                r_short=r_short,
                elapsed=step.elapsed,
            )
        )
        partition = step.next_state.partition
    return EpisodeTrace(album_id=album.album_id, steps=steps, final_partition=partition)
