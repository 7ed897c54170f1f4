"""Two-stage policy learning.

Stage one recovers the short-term reward by imitation: the myopic agent
plays teacher-forced episodes on labeled albums, every disagreement with
the expert action lands in an accumulated mistake set, and the SVM is
retrained on it until a whole epoch passes with zero mistakes.

Stage two fixes that reward and fits an action-value forest by epsilon-
greedy play: each step is a Q row (its features, then the action flag)
with the combined short- plus long-term reward, and the forest is refit
periodically on one-step bootstrapped targets whose successor is the
next row of the same episode.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

# The episode kernel calls recommend, extract_features, transition and op_cost, and is
# the expert; perfbench's tracer still looks them up on this module, so the imports stay.
from .core import (  # noqa: F401
    Album,
    Partition,
    ground_truth_action,
    ground_truth_partition,
    transition,
)
from .engine import (
    PolicyConfig,
    QMemo,
    action_flag,
    album_rng,
    choose_action,
    episode,
    reward_short,
    reward_total,
)
from .features import AlbumContext, extract_features, feature_dim  # noqa: F401
from .learn import (
    ForestHyper,
    ForestModel,
    SvmHyper,
    SvmModel,
    constant_svm,
    forest_fit,
    random_svm,
    svm_fit,
)
from .metrics import op_cost  # noqa: F401
from .recommend import PairQueue, recommend  # noqa: F401

logger = logging.getLogger(__name__)

# Stage two keeps at most this many of the latest Q rows.
BUFFER_CAPACITY = 100_000


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    refit_every: int = 10  # episodes between forest refits
    seed: int = 0
    reward_mode: str = "svm"  # "svm" uses the learned margin, "pm1" a +/-1 agreement loss

    def __post_init__(self):
        for name in ("max_epochs", "refit_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.reward_mode not in ("svm", "pm1"):
            raise ValueError(f"reward_mode must be 'svm' or 'pm1', got {self.reward_mode!r}")


@dataclass
class IrlResult:
    model: SvmModel
    converged: bool
    epochs_run: int
    mistakes_per_epoch: list[int]
    mistake_set_size: int
    training_accuracy: float
    # album id -> the expert trajectory (features, actions as +/-1) played
    # with the training seed; q_train takes it instead of replaying
    demonstrations: dict[str, tuple[np.ndarray, np.ndarray]]


def _labeled_pairs(albums: list[Album]) -> list[tuple[Album, Partition]]:
    """(album, ground truth) pairs in album-id order, so that training does
    not depend on the order of ``albums``."""
    if len({a.album_id for a in albums}) != len(albums):
        raise ValueError("album ids must be unique")
    pairs = [(a, ground_truth_partition(a)) for a in albums]
    return sorted(pairs, key=lambda pair: pair[0].album_id)


def expert_trajectory(
    album: Album,
    gt: Partition,
    config: PolicyConfig,
    ctx: AlbumContext | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decision sequence of the expert path through one album.

    Returns the per-step feature matrix and the expert actions as +/-1.
    Under teacher forcing the visited states depend only on the ground
    truth and the recommender, never on the learner, so this sequence can
    be computed once and re-scored cheaply every epoch.
    """
    phis, labels = [], []
    for step in episode(ctx or AlbumContext(album), config, None, gt=gt, rng=rng):
        phis.append(step.phi)
        labels.append(action_flag(step.action))
    return np.reshape(phis, (len(labels), feature_dim(config.eta))), np.array(labels)


def _demonstrations(pairs, config: PolicyConfig, seed: int, contexts=None) -> dict:
    """The expert trajectory of each (album, ground truth) pair by album id, in order."""
    contexts = contexts or [None] * len(pairs)
    return {
        album.album_id: expert_trajectory(album, gt, config, ctx, album_rng(seed, album.album_id))
        for (album, gt), ctx in zip(pairs, contexts)
    }


def irl_train(
    albums: list[Album],
    config: PolicyConfig,
    svm_hyper: SvmHyper = SvmHyper(),
    train_cfg: TrainConfig = TrainConfig(),
) -> IrlResult:
    """Learn the short-term reward via iterative mistake mining.

    Every album is played teacher-forced each epoch; wherever the myopic
    policy disagrees with the expert, the pair's features and the expert
    action join the mistake set and the SVM is retrained after each album
    that had mistakes. Converges when a full epoch produces no mistakes;
    otherwise stops at ``max_epochs`` with the last model and a warning.
    """
    if not albums:
        raise ValueError("album set must not be empty")
    pairs = _labeled_pairs(albums)
    dim = feature_dim(config.eta)
    model: SvmModel = random_svm(dim, seed=train_cfg.seed)
    # the mistake set: features and expert actions (+/-1), kept across epochs
    X, y = np.empty((0, dim)), np.empty(0)
    demonstrations = _demonstrations(pairs, config, train_cfg.seed)

    mistakes_per_epoch: list[int] = []
    converged = False
    for epoch in range(1, train_cfg.max_epochs + 1):
        epoch_mistakes = 0
        albums_solved = 0
        for phis, labels in demonstrations.values():
            if len(labels) == 0:
                albums_solved += 1
                continue
            # the model merges where its decision is positive
            wrong = np.flatnonzero((model.decision_many(phis) > 0) != (labels > 0))
            epoch_mistakes += len(wrong)
            if len(wrong) == 0:
                albums_solved += 1
                continue
            X, y = np.vstack([X, phis[wrong]]), np.concatenate([y, labels[wrong]])
            if y.min() == y.max():
                model = constant_svm(dim, bias=float(y[0]))
            else:
                model = svm_fit(X, y, svm_hyper)
        mistakes_per_epoch.append(epoch_mistakes)
        logger.info(
            "irl epoch=%d mistakes=%d |L|=%d albums_solved=%d/%d",
            epoch, epoch_mistakes, len(y), albums_solved, len(pairs),
        )
        converged = epoch_mistakes == 0
        if converged:
            break
    if not converged:
        logger.warning(
            "irl_train did not reach zero mistakes within %d epochs", train_cfg.max_epochs
        )
    return IrlResult(
        model=model,
        converged=converged,
        epochs_run=len(mistakes_per_epoch),
        mistakes_per_epoch=mistakes_per_epoch,
        mistake_set_size=len(y),
        training_accuracy=float(np.mean((model.decision_many(X) > 0) == (y > 0)) if len(y) else 1),
        demonstrations=demonstrations,
    )


@dataclass
class QTrainResult:
    model: ForestModel
    n_experiences: int


def _epsilon_at(episode: int, config: PolicyConfig) -> float:
    span = config.epsilon_decay_episodes - 1
    if span <= 0:
        return 0.0
    return config.epsilon0 * max(0.0, 1.0 - episode / span)


def q_train(
    albums: list[Album],
    svm: SvmModel,
    config: PolicyConfig,
    forest_hyper: ForestHyper | None = None,
    train_cfg: TrainConfig = TrainConfig(),
    demonstrations: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> QTrainResult:
    """Fit the action-value forest by epsilon-greedy play on labeled albums.

    The forest is bootstrapped from the myopic stage's states and rewards,
    then refit every ``refit_every`` episodes on targets
    reward + gamma * max_a' Q(next candidate, a'). Epsilon decays linearly
    to zero across ``epsilon_decay_episodes`` episodes. ``demonstrations``
    are ``IrlResult.demonstrations`` of an ``irl_train`` run on these
    albums with the same config and seed; without them the expert
    trajectories are played again.
    """
    if not albums:
        raise ValueError("album set must not be empty")
    pairs = _labeled_pairs(albums)
    q_dim = feature_dim(config.eta) + 1
    # the action flag, the last feature, is offered at every split unless the hyper names others
    forest_hyper = forest_hyper or ForestHyper(seed=train_cfg.seed)
    forest_hyper = dataclasses.replace(
        forest_hyper, always_include=forest_hyper.always_include or (q_dim - 1,))
    if not all(0 <= f < q_dim for f in forest_hyper.always_include):
        raise ValueError(f"always_include must hold feature indices in [0, {q_dim})")
    contexts = [AlbumContext(a) for a, _ in pairs]
    use_pm1 = train_cfg.reward_mode == "pm1"

    # Bootstrap targets from the myopic stage: both actions of every state
    # visited on the expert path, valued by the stage-one reward.
    boot_X: list[np.ndarray] = []
    boot_y: list[np.ndarray] = []
    if demonstrations is None:
        demonstrations = _demonstrations(pairs, config, train_cfg.seed, contexts)
    for album, _ in pairs:
        phis, labels = demonstrations[album.album_id]
        if len(labels) == 0:
            continue
        values = labels if use_pm1 else svm.decision_many(phis)
        for flag in (1.0, -1.0):
            boot_X.append(np.hstack([phis, np.full((len(phis), 1), flag)]))
            boot_y.append(flag * values)
    if not boot_X:
        raise ValueError("no decision states found; every album is below two groups "
                         "or all pairs sit beyond tau")
    forest = forest_fit(np.vstack(boot_X), np.concatenate(boot_y), forest_hyper)

    # The replay memory: Q rows, their rewards, and whether a row ends its
    # episode; the latest BUFFER_CAPACITY rows are kept.
    memory = (np.empty((0, q_dim)), np.empty(0), np.empty(0, dtype=bool))
    episodes = config.epsilon_decay_episodes
    for i in range(episodes):
        album, gt = pairs[i % len(pairs)]
        ctx = contexts[i % len(pairs)]
        rng = album_rng(train_cfg.seed + 1 + i, album.album_id)
        epsilon = _epsilon_at(i, config)
        rows, rewards = _play_episode(gt, ctx, forest, svm, config, epsilon, rng, use_pm1)
        ends = np.arange(len(rewards)) == len(rewards) - 1
        memory = tuple(
            np.concatenate([kept, new])[-BUFFER_CAPACITY:]
            for kept, new in zip(memory, (rows, rewards, ends))
        )
        if (i + 1) % train_cfg.refit_every == 0 or i == episodes - 1:
            forest = _refit(forest, *memory, config, forest_hyper)
        logger.info(
            "q episode=%d album=%s epsilon=%.3f experiences=%d",
            i, album.album_id, epsilon, len(memory[1]),
        )
    return QTrainResult(model=forest, n_experiences=len(memory[1]))


def _play_episode(gt, ctx, forest, svm, config, epsilon, rng, use_pm1) -> tuple[np.ndarray, ...]:
    """One epsilon-greedy episode: its Q rows (features, then the action
    flag) and their rewards, in step order."""

    memo = QMemo(forest, PairQueue(ctx, config.eta, config.tau), config.use_quality)

    def act(state, candidate, phi):
        return choose_action(memo, candidate, phi, epsilon, rng)

    rows, rewards = [], []
    for step in episode(ctx, config, act, gt=gt, rng=rng, memo=memo):
        if use_pm1:
            r_short = 1.0 if step.action is step.expert else -1.0
        else:
            r_short = reward_short(svm, step.phi, step.action)
        rows.append(np.append(step.phi, action_flag(step.action)))
        rewards.append(reward_total(r_short, step.r_long, config.beta))
    return np.reshape(rows, (len(rewards), feature_dim(config.eta) + 1)), np.array(rewards)


def _refit(forest: ForestModel, rows: np.ndarray, rewards: np.ndarray, ends: np.ndarray,
           config: PolicyConfig, hyper: ForestHyper) -> ForestModel:
    """Refit on targets reward + gamma * max_a' Q(next row's features, a');
    a row that ends its episode has no successor."""
    if len(rewards) == 0:
        return forest
    targets = rewards.copy()
    if config.gamma > 0:
        live = np.flatnonzero(~ends)
        if len(live):
            next_phis = rows[live + 1, :-1]
            m = len(live)
            # merge rows then not-merge rows, in one batched prediction
            flags = np.concatenate([np.ones(m), -np.ones(m)])[:, None]
            q = forest.predict_many(np.hstack([np.vstack([next_phis, next_phis]), flags]))
            targets[live] += config.gamma * np.maximum(q[:m], q[m:])
    return forest_fit(rows, targets, hyper)
