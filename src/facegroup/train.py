"""Two-stage policy learning.

Stage one recovers the short-term reward by imitation: the myopic agent
plays teacher-forced episodes on labeled albums, every disagreement with
the expert action lands in an accumulated mistake set, and the SVM is
retrained on it until a whole epoch passes with zero mistakes.

Stage two fixes that reward and fits an action-value forest by epsilon-
greedy play: experiences carry the combined short- plus long-term reward,
and the forest is refit periodically on one-step bootstrapped targets.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

# The episode kernel calls recommend, extract_features, transition and op_cost;
# perfbench's tracer still looks them up on this module, so the imports stay.
from .core import (  # noqa: F401
    Action,
    Album,
    Partition,
    ground_truth_action,
    ground_truth_partition,
    transition,
)
from .engine import (
    PolicyConfig,
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
    svm_accuracy,
    svm_fit,
)
from .metrics import op_cost  # noqa: F401
from .recommend import recommend  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 50
    retrain_per_album: bool = True  # False retrains once per epoch instead
    refit_every: int = 10  # episodes between forest refits
    buffer_capacity: int = 100_000
    seed: int = 0
    reward_mode: str = "svm"  # "svm" uses the learned margin, "pm1" a +/-1 agreement loss


class MistakeSet:
    """Append-only pool of (features, expert action) pairs across all epochs."""

    def __init__(self, dim: int):
        self._phis: list[np.ndarray] = []
        self._labels: list[float] = []
        self.dim = dim

    def add(self, phi: np.ndarray, expert: Action) -> None:
        self._phis.append(phi)
        self._labels.append(action_flag(expert))

    def __len__(self) -> int:
        return len(self._phis)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self._phis), np.asarray(self._labels)

    def has_both_classes(self) -> bool:
        labels = set(self._labels)
        return 1.0 in labels and -1.0 in labels


@dataclass
class Experience:
    phi: np.ndarray
    action: Action
    reward: float
    next_phi: np.ndarray | None  # features of the next recommended candidate
    terminal: bool


class ExperienceBuffer:
    """Bounded FIFO of transition samples."""

    def __init__(self, capacity: int):
        self._items: deque[Experience] = deque(maxlen=capacity)

    def add(self, exp: Experience) -> None:
        self._items.append(exp)

    def __len__(self) -> int:
        return len(self._items)

    def items(self) -> list[Experience]:
        return list(self._items)


@dataclass
class IrlResult:
    model: SvmModel
    converged: bool
    epochs_run: int
    mistakes_per_epoch: list[int]
    mistake_set_size: int
    training_accuracy: float


def _labeled_pairs(albums: list[Album], gts: list[Partition] | None):
    if gts is None:
        gts = [ground_truth_partition(a) for a in albums]
    if len(gts) != len(albums):
        raise ValueError("one ground-truth partition per album required")
    return list(zip(albums, gts))


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

    def expert(state, candidate, phi):
        return ground_truth_action(state, candidate, gt, config.costs)

    phis: list[np.ndarray] = []
    labels: list[float] = []
    for step in episode(ctx or AlbumContext(album), config, expert, rng=rng):
        phis.append(step.phi)
        labels.append(action_flag(step.action))
    dim = feature_dim(config.eta)
    if not phis:
        return np.empty((0, dim)), np.empty(0)
    return np.asarray(phis), np.asarray(labels)


def _fit_on_mistakes(mistakes: MistakeSet, hyper: SvmHyper) -> SvmModel:
    X, y = mistakes.arrays()
    if not mistakes.has_both_classes():
        return constant_svm(mistakes.dim, bias=float(y[0]))
    return svm_fit(X, y, hyper)


def irl_train(
    albums: list[Album],
    config: PolicyConfig,
    svm_hyper: SvmHyper = SvmHyper(),
    train_cfg: TrainConfig = TrainConfig(),
    gts: list[Partition] | None = None,
) -> IrlResult:
    """Learn the short-term reward via iterative mistake mining.

    Every album is played teacher-forced each epoch; wherever the myopic
    policy disagrees with the expert, the pair's features and the expert
    action join the mistake set and the SVM is retrained (per album by
    default). Converges when a full epoch produces no mistakes; otherwise
    stops at ``max_epochs`` with the last model and a warning.
    """
    if not albums:
        raise ValueError("album set must not be empty")
    pairs = _labeled_pairs(albums, gts)
    dim = feature_dim(config.eta)
    model: SvmModel = random_svm(dim, seed=train_cfg.seed)
    mistakes = MistakeSet(dim)
    trajectories = [
        (
            album.album_id,
            *expert_trajectory(
                album, gt, config, rng=album_rng(train_cfg.seed, album.album_id)
            ),
        )
        for album, gt in pairs
    ]

    mistakes_per_epoch: list[int] = []
    converged = False
    epochs_run = 0
    for epoch in range(1, train_cfg.max_epochs + 1):
        epochs_run = epoch
        epoch_mistakes = 0
        albums_solved = 0
        for album_id, phis, labels in trajectories:
            if len(labels) == 0:
                albums_solved += 1
                continue
            decisions = model.decision_many(phis)
            predicted = np.where(decisions > 0, 1.0, -1.0)
            wrong = np.flatnonzero(predicted != labels)
            for k in wrong:
                mistakes.add(phis[k], Action.MERGE if labels[k] > 0 else Action.NOT_MERGE)
            epoch_mistakes += len(wrong)
            if len(wrong) == 0:
                albums_solved += 1
            elif train_cfg.retrain_per_album:
                model = _fit_on_mistakes(mistakes, svm_hyper)
        if not train_cfg.retrain_per_album and epoch_mistakes:
            model = _fit_on_mistakes(mistakes, svm_hyper)
        mistakes_per_epoch.append(epoch_mistakes)
        accuracy = _mistake_accuracy(model, mistakes)
        logger.info(
            "irl epoch=%d mistakes=%d |L|=%d albums_solved=%d/%d svm_acc=%.3f",
            epoch, epoch_mistakes, len(mistakes), albums_solved, len(pairs), accuracy,
        )
        if epoch_mistakes == 0:
            converged = True
            break
    if not converged:
        logger.warning(
            "irl_train did not reach zero mistakes within %d epochs", train_cfg.max_epochs
        )
    return IrlResult(
        model=model,
        converged=converged,
        epochs_run=epochs_run,
        mistakes_per_epoch=mistakes_per_epoch,
        mistake_set_size=len(mistakes),
        training_accuracy=_mistake_accuracy(model, mistakes),
    )


def _mistake_accuracy(model: SvmModel, mistakes: MistakeSet) -> float:
    if len(mistakes) == 0:
        return 1.0
    X, y = mistakes.arrays()
    return svm_accuracy(model, X, y)


@dataclass
class QTrainResult:
    model: ForestModel
    episodes_run: int
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
    gts: list[Partition] | None = None,
) -> QTrainResult:
    """Fit the action-value forest by epsilon-greedy play on labeled albums.

    The forest is bootstrapped from the myopic stage's states and rewards,
    then refit every ``refit_every`` episodes on targets
    reward + gamma * max_a' Q(next candidate, a'). Epsilon decays linearly
    to zero across ``epsilon_decay_episodes`` episodes.
    """
    if not albums:
        raise ValueError("album set must not be empty")
    pairs = _labeled_pairs(albums, gts)
    q_dim = feature_dim(config.eta) + 1
    if forest_hyper is None:
        forest_hyper = ForestHyper(always_include=(q_dim - 1,), seed=train_cfg.seed)
    elif not forest_hyper.always_include:
        forest_hyper = dataclasses.replace(forest_hyper, always_include=(q_dim - 1,))
    contexts = {a.album_id: AlbumContext(a) for a in albums}
    use_pm1 = train_cfg.reward_mode == "pm1"

    # Bootstrap targets from the myopic stage: both actions of every state
    # visited on the expert path, valued by the stage-one reward.
    boot_X: list[np.ndarray] = []
    boot_y: list[np.ndarray] = []
    for album, gt in pairs:
        phis, labels = expert_trajectory(
            album,
            gt,
            config,
            ctx=contexts[album.album_id],
            rng=album_rng(train_cfg.seed, album.album_id),
        )
        if len(labels) == 0:
            continue
        values = labels if use_pm1 else svm.decision_many(phis)
        n = phis.shape[0]
        boot_X.append(np.hstack([phis, np.ones((n, 1))]))
        boot_X.append(np.hstack([phis, -np.ones((n, 1))]))
        boot_y.append(values)
        boot_y.append(-values)
    if not boot_X:
        raise ValueError("no decision states found; every album is below two groups "
                         "or all pairs sit beyond tau")
    forest = forest_fit(np.vstack(boot_X), np.concatenate(boot_y), forest_hyper)

    buffer = ExperienceBuffer(train_cfg.buffer_capacity)
    episodes = config.epsilon_decay_episodes
    for i in range(episodes):
        album, gt = pairs[i % len(pairs)]
        ctx = contexts[album.album_id]
        rng = album_rng(train_cfg.seed + 1 + i, album.album_id)
        epsilon = _epsilon_at(i, config)
        _play_episode(gt, ctx, forest, svm, config, epsilon, rng, buffer, use_pm1)
        if (i + 1) % train_cfg.refit_every == 0 or i == episodes - 1:
            forest = _refit(forest, buffer, config, forest_hyper)
        logger.info(
            "q episode=%d album=%s epsilon=%.3f experiences=%d",
            i, album.album_id, epsilon, len(buffer),
        )
    return QTrainResult(model=forest, episodes_run=episodes, n_experiences=len(buffer))


def _play_episode(gt, ctx, forest, svm, config, epsilon, rng, buffer, use_pm1) -> None:
    """One epsilon-greedy episode; experience i takes step i+1's features
    as its successor, and the last one is terminal."""

    def act(state, candidate, phi):
        return choose_action(forest, phi, epsilon, rng)

    pending = None  # (phi, action, reward) of the step awaiting its successor
    for step in episode(ctx, config, act, gt=gt, rng=rng):
        if pending is not None:
            buffer.add(Experience(*pending, next_phi=step.phi, terminal=False))
        if use_pm1:
            expert = ground_truth_action(step.state, step.candidate, gt, config.costs)
            r_short = 1.0 if step.action is expert else -1.0
        else:
            r_short = reward_short(svm, step.phi, step.action)
        pending = (step.phi, step.action, reward_total(r_short, step.r_long, config.beta))
    if pending is not None:
        buffer.add(Experience(*pending, next_phi=None, terminal=True))


def _refit(
    forest: ForestModel,
    buffer: ExperienceBuffer,
    config: PolicyConfig,
    hyper: ForestHyper,
) -> ForestModel:
    items = buffer.items()
    if not items:
        return forest
    X = np.stack(
        [np.concatenate([e.phi, [action_flag(e.action)]]) for e in items]
    )
    targets = np.array([e.reward for e in items])
    if config.gamma > 0:
        non_terminal = [k for k, e in enumerate(items) if not e.terminal]
        if non_terminal:
            next_phis = np.stack([items[k].next_phi for k in non_terminal])
            merged = np.hstack([next_phis, np.ones((len(non_terminal), 1))])
            declined = np.hstack([next_phis, -np.ones((len(non_terminal), 1))])
            best_next = np.maximum(
                forest.predict_many(merged), forest.predict_many(declined)
            )
            targets[non_terminal] += config.gamma * best_next
    return forest_fit(X, targets, hyper)
