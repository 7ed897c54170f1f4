"""The episode kernel, rewards and action selection.

An episode starts from the all-singleton partition and repeatedly asks the
recommender for a candidate pair, extracts its features, lets an actor
decide, and applies the transition until no eligible pair remains.
``episode`` is the only place that loop is written: inference
(``run_episode``, which reads no label), epsilon-greedy play (``train``)
and the threshold baseline (``bench``) are actors on it; given a ground
truth, the episode itself is the expert.
"""

from __future__ import annotations

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
from .features import AlbumContext, extract_features, pair_features
from .learn import ForestModel, SvmModel
from .metrics import op_cost
from .recommend import PairQueue, Strategy, recommend

Policy = SvmModel | ForestModel

# Pairs beyond the proposed one that a forest scores with it under HC.
LOOKAHEAD = 8


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
        if not 0.0 <= self.beta < float("inf"):  # NaN fails both
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError(f"epsilon0 must be in [0, 1], got {self.epsilon0}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        for name in ("eta", "k_steps", "epsilon_decay_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")


def action_flag(action: Action) -> float:
    return 1.0 if action is Action.MERGE else -1.0


def reward_short(model: SvmModel, phi: np.ndarray, action: Action) -> float:
    """Signed SVM margin: positive for merging when the model favors it."""
    return action_flag(action) * model.decision(phi)


def reward_total(r_short: float, r_long: float, beta: float) -> float:
    return r_short + beta * r_long


class QMemo:
    """A forest's (merge, not-merge) values for the pairs of one episode,
    the action appended to the features as a +/-1 flag.

    A pair's features depend only on its two groups, which never change
    under a live id, and ``predict_many`` descends each row on its own, so
    a value scored early is the value the pair would get when proposed. A
    miss scores the proposed pair together with the next ``LOOKAHEAD``
    pairs the HC queue would hand out (the random strategy has none), in
    one ``predict_many``; a later proposal of one takes its values and features from here.
    """

    def __init__(self, model: ForestModel, queue: PairQueue, use_quality: bool):
        self.model, self.queue, self.use_quality = model, queue, use_quality
        self.memo: dict[tuple[int, int], tuple[float, float, np.ndarray]] = {}

    def features(self, candidate: tuple[int, int]) -> np.ndarray | None:
        """The feature row scored ahead for ``candidate``; None on a miss."""
        hit = self.memo.get(candidate)
        return None if hit is None else hit[2]

    def values(self, candidate: tuple[int, int], phi: np.ndarray) -> tuple[float, float]:
        hit = self.memo.pop(candidate, None)
        if hit is not None:
            return hit[:2]
        queue = self.queue
        held = [e for e in queue.upcoming(LOOKAHEAD) if e[:2] not in self.memo]
        m = 1 + len(held)
        X = np.empty((2 * m, phi.shape[0] + 1))
        X[0, :-1] = phi
        if held:
            blocks = [queue.held_blocks(*e) for e in held]
            X[1:m, :-1] = pair_features(queue, [e[:2] for e in held], blocks, self.use_quality)
        X[m:, :-1] = X[:m, :-1]
        X[:m, -1], X[m:, -1] = 1.0, -1.0
        q = self.model.predict_many(X).tolist()
        for r, e in enumerate(held, 1):
            self.memo[e[:2]] = (q[r], q[m + r], X[r, :-1].copy())
        return q[0], q[m]


def choose_action(
    memo: QMemo,
    candidate: tuple[int, int],
    phi: np.ndarray,
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> Action:
    """Greedy action on the memo's values of the pair ``candidate`` whose
    features are ``phi``; random with probability epsilon.

    Ties go to NOT_MERGE: declining costs one cheap merge at worst while a
    wrong merge costs expensive removals.
    """
    if epsilon > 0:
        if rng is None:
            raise ValueError("epsilon > 0 requires a generator")
        if rng.random() < epsilon:
            return Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE
    q_merge, q_not = memo.values(candidate, phi)
    return Action.MERGE if q_merge > q_not else Action.NOT_MERGE


@dataclass(frozen=True)
class Step:
    """One decision of an episode: the transition (state, action, next_state)."""

    state: State  # the state the decision was taken in
    candidate: tuple[int, int]
    phi: np.ndarray
    action: Action
    expert: Action | None  # the ground truth's action; None without gt
    next_state: State
    r_long: float  # op-cost decrease over the last k_steps transitions; 0 without gt
    elapsed: float  # seconds from the recommend call to the end of the transition


def episode(
    ctx: AlbumContext,
    config: PolicyConfig,
    act: Callable[[State, tuple[int, int], np.ndarray], Action] | None,
    gt: Partition | None = None,
    rng: np.random.Generator | None = None,
    memo: QMemo | None = None,
) -> Iterator[Step]:
    """Play one episode on the album of ``ctx``, yielding every decision;
    ``act(state, candidate, phi)`` decides each recommended pair.

    With a ground-truth partition the episode plans the edits toward it once
    (``op_cost``) and advances the plan by each merge. Each step carries the
    expert's action (``OpResult.expert``), which ``act=None`` plays, and the
    long-term reward: the plan's total k_steps transitions back (cut at the
    initial partition) minus its total now. Without one no label is read.
    ``rng`` feeds the RANDOM recommender; an actor that draws from the same
    generator, as epsilon-greedy play does, draws after its step's recommend.
    ``memo``, a forest actor's ``QMemo`` over a fresh ``PairQueue`` of ``ctx``
    and ``config``, lends the episode its queue and the feature rows it scored ahead.
    """
    state = State.initial(len(ctx))
    queue = PairQueue(ctx, config.eta, config.tau) if memo is None else memo.queue
    plan = expert = None
    if gt is not None:
        plan = op_cost(state.partition, gt, config.costs)
        recent_ops = deque([plan.total_cost], maxlen=config.k_steps + 1)
    elif act is None:
        raise ValueError("teacher forcing requires a ground truth")
    while True:
        t0 = time.perf_counter()
        candidate = recommend(state, queue, config.strategy, rng=rng)
        if candidate is None:
            return
        phi = None if memo is None else memo.features(candidate)
        if phi is None:
            phi = extract_features(state, candidate, queue, config.use_quality)
        if plan is not None:
            expert, merged = plan.expert(*map(state.partition.members, candidate))
        action = expert if act is None else act(state, candidate, phi)
        next_state = transition(state, candidate, action)
        r_long = 0.0
        if plan is not None:
            if action is Action.MERGE:
                plan = merged
            recent_ops.append(plan.total_cost)
            r_long = recent_ops[0] - recent_ops[-1]
        yield Step(
            state, candidate, phi, action, expert, next_state, r_long, time.perf_counter() - t0
        )
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
) -> EpisodeTrace:
    """Group one album with the policy's greedy actions, returning the
    per-step trace and the final partition. No label is read.

    An SVM is asked once per step: the actor keeps the margin it acted on,
    and the step's ``r_short`` is that margin signed by the action. A
    forest answers through a ``QMemo``, so the step that scores a batch
    carries the batch's time in its ``elapsed``."""
    steps: list[StepRecord] = []
    partition = Partition.from_singletons(len(album))
    margin = 0.0
    ctx = AlbumContext(album)
    memo = None
    if isinstance(policy, ForestModel):
        memo = QMemo(policy, PairQueue(ctx, config.eta, config.tau), config.use_quality)

    def act(state, candidate, phi):
        nonlocal margin
        if memo is not None:
            return choose_action(memo, candidate, phi, 0.0)
        margin = policy.decision(phi)
        return Action.MERGE if margin > 0 else Action.NOT_MERGE

    for step in episode(ctx, config, act, rng=rng, memo=memo):
        # a literal for the forest: -1.0 * 0.0 would write -0.0 to the trace
        r_short = 0.0 if isinstance(policy, ForestModel) else action_flag(step.action) * margin
        steps.append(StepRecord(step.state.step, step.candidate, step.action, step.phi,
                                r_short, step.elapsed))
        partition = step.next_state.partition
    return EpisodeTrace(album_id=album.album_id, steps=steps, final_partition=partition)
