"""Slow references that the tests audit fast paths against.

``op_cost_oracle`` searches partition space for the cheapest edit sequence,
so it is exponential in the album size; it audits ``metrics.op_cost``.
``forest_predict_reference`` descends a forest one tree at a time; it
audits the packed ``ForestModel.predict_many``. ``svm_fit_reference``
(SMO that rebuilds its index sets and ranks the whole low set on every
step), ``forest_fit_reference`` (a tree grower that argsorts the candidate
columns at every node) and ``ground_truth_action_reference`` (two whole
``op_cost`` plans) are the training paths that ``learn.svm_fit``,
``learn.forest_fit`` and ``core.ground_truth_action`` must reproduce bit
for bit. ``median_column_reference`` and ``consistency_reference`` (the
``np.median`` forms), ``extract_features_reference`` (blocks re-sorted
from the queue's median columns) and ``RandomQueueReference`` (a queue
that filters, heapifies and sorts its heap on every draw) are the
recommender paths that ``features`` and ``PairQueue`` must reproduce bit
for bit; ``LazyHeapQueue`` keeps every stale heap entry until it
surfaces, and the queue that rebuilds its heap must hand out what it
does. ``q_values_reference`` scores one proposed pair on its own, in
a two-row ``predict_many``; ``forest_steps_reference`` and
``play_episode_reference`` play with it and with the one-shot
``ground_truth_action_reference`` as the expert. They audit the forest
actors' Q memo, which scores pairs ahead in batches, and the plan that an
episode with a ground truth carries from step to step.
``q_train_reference`` is stage two as it kept its replay memory: one
``Experience`` per step, holding its successor's features, in a
``deque(maxlen=capacity)``, with refit targets built experience by
experience; it audits ``train.q_train``'s replay memory of rows.
``symmetric_distances_reference`` mirrors the distance matrix through
whole-matrix triangle indices; it audits ``AlbumContext``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from facegroup import learn, train
from facegroup.core import Action, CostModel, Partition, State
from facegroup.engine import Step, action_flag, album_rng, episode, reward_short, reward_total
from facegroup.features import AlbumContext, feature_dim
from facegroup.learn import ForestHyper, ForestModel, SvmHyper, SvmModel
from facegroup.metrics import op_cost
from facegroup.recommend import PairQueue


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


def svm_fit_reference(X: np.ndarray, y: np.ndarray, hyper: SvmHyper) -> SvmModel:
    """SMO with maximal-violating-pair selection, recomputing the index sets
    and ranking every low-set candidate on each iteration. Takes the full
    kernel or the on-demand row path by ``learn._KERNEL_CACHE_LIMIT``, as
    ``svm_fit`` does."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    n_pos = int(np.sum(y > 0))
    n_neg = n - n_pos
    c_pos = c_neg = hyper.c_reg
    if n_pos > n_neg:
        c_pos = hyper.c_reg * n_neg / n_pos
    elif n_neg > n_pos:
        c_neg = hyper.c_reg * n_pos / n_neg
    C = np.where(y > 0, c_pos, c_neg)

    sq = (X**2).sum(axis=1)
    K = None
    if n <= learn._KERNEL_CACHE_LIMIT:
        K = np.exp(-hyper.gamma * np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0))

    def krow(i: int) -> np.ndarray:
        return K[i] if K is not None else learn._kernel_rows(X, sq, hyper.gamma, i)

    alpha = np.zeros(n)
    E = -y.copy()
    pos = y > 0
    eps = 1e-12
    for _ in range(hyper.max_passes * max(n, 1)):
        up = (pos & (alpha < C - eps)) | (~pos & (alpha > eps))
        low = (pos & (alpha > eps)) | (~pos & (alpha < C - eps))
        if not up.any() or not low.any():
            break
        neg_e = -E
        i = int(np.where(up)[0][np.argmax(neg_e[up])])
        low_idx = np.where(low)[0]
        order = low_idx[np.argsort(neg_e[low_idx], kind="stable")]
        if neg_e[i] - neg_e[order[0]] <= hyper.tol:
            break
        progressed = False
        for j in order:
            j = int(j)
            if j == i:
                continue
            if neg_e[i] - neg_e[j] <= hyper.tol:
                break
            if _smo_step_reference(i, j, alpha, y, C, E, krow, eps):
                progressed = True
                break
        if not progressed:
            break

    up = (pos & (alpha < C - eps)) | (~pos & (alpha > eps))
    low = (pos & (alpha > eps)) | (~pos & (alpha < C - eps))
    non_bound = (alpha > eps) & (alpha < C - eps)
    if non_bound.any():
        bias = float(np.mean(-E[non_bound]))
    elif up.any() and low.any():
        bias = float((np.max(-E[up]) + np.min(-E[low])) / 2.0)
    else:
        bias = 0.0
    keep = alpha > 1e-8
    if not keep.any():
        keep = np.zeros(n, dtype=bool)
        keep[0] = True
        coef = np.zeros(1)
    else:
        coef = (alpha * y)[keep]
    return SvmModel(support_vectors=X[keep].copy(), coef=np.asarray(coef, dtype=np.float64),
                    bias=bias, gamma=hyper.gamma, c_reg=hyper.c_reg)


def _smo_step_reference(i, j, alpha, y, C, E, krow, eps) -> bool:
    a_i, a_j = alpha[i], alpha[j]
    y_i, y_j = y[i], y[j]
    s = y_i * y_j
    if s < 0:
        L = max(0.0, a_j - a_i)
        H = min(C[j], C[i] + a_j - a_i)
    else:
        L = max(0.0, a_i + a_j - C[i])
        H = min(C[j], a_i + a_j)
    if H - L < eps:
        return False
    row_i = krow(i)
    row_j = krow(j)
    quad = row_i[i] + row_j[j] - 2.0 * row_i[j]
    if quad <= eps:
        return False
    a_j_new = a_j + y_j * (E[i] - E[j]) / quad
    a_j_new = min(H, max(L, a_j_new))
    if abs(a_j_new - a_j) < eps * (a_j_new + a_j + eps):
        return False
    a_i_new = a_i + s * (a_j - a_j_new)
    alpha[i], alpha[j] = a_i_new, a_j_new
    E += y_i * (a_i_new - a_i) * row_i + y_j * (a_j_new - a_j) * row_j
    return True


def forest_fit_reference(X: np.ndarray, y: np.ndarray, hyper: ForestHyper) -> ForestModel:
    """Bootstrap trees grown by stable-argsorting the candidate columns of
    every node's own rows, with the per-tree generators ``forest_fit`` uses."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    seeds = np.random.SeedSequence(hyper.seed).spawn(hyper.n_trees)
    trees = [_grow_tree_reference(X, y, hyper, np.random.Generator(np.random.PCG64(s)))
             for s in seeds]
    return learn._pack(trees, X.shape[1], hyper)


def _grow_tree_reference(X, y, hyper: ForestHyper, rng: np.random.Generator) -> dict:
    n, d = X.shape
    rows = rng.integers(0, n, size=n)
    pool = np.array([f for f in range(d) if f not in hyper.always_include])
    k_sub = max(1, int(round(hyper.feature_frac * len(pool)))) if len(pool) else 0
    tree = {key: [] for key in ("feature", "threshold", "left", "right", "value")}

    def new_node():
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0)):
            tree[key].append(blank)
        return len(tree["feature"]) - 1

    stack = [(new_node(), rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        tree["value"][node] = float(yn.mean())
        if depth >= hyper.max_depth or idx.shape[0] < 2 * hyper.min_leaf or np.all(yn == yn[0]):
            continue
        if k_sub:
            feats = np.sort(rng.choice(pool, size=k_sub, replace=False))
            if hyper.always_include:
                feats = np.concatenate([feats, np.array(hyper.always_include)])
        else:
            feats = np.array(hyper.always_include, dtype=np.int64)
        split = _best_split_reference(X[idx], yn, feats.astype(np.int64), hyper.min_leaf)
        if split is None:
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        tree["feature"][node] = f
        tree["threshold"][node] = thr
        l_id, r_id = new_node(), new_node()
        tree["left"][node], tree["right"][node] = l_id, r_id
        stack.append((r_id, idx[~go_left], depth + 1))
        stack.append((l_id, idx[go_left], depth + 1))
    return {key: np.asarray(v, dtype=np.float64 if key in ("threshold", "value") else np.int64)
            for key, v in tree.items()}


def _best_split_reference(Xn, yn, feats, min_leaf):
    m = Xn.shape[0]
    cols = Xn[:, feats]
    order = np.argsort(cols, axis=0, kind="stable")
    ys = yn[order]
    xs = np.take_along_axis(cols, order, axis=0)
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total, total_sq = csum[-1], csq[-1]
    k = np.arange(1, m, dtype=np.float64)[:, None]
    left_sum, left_sq = csum[:-1], csq[:-1]
    sse = (left_sq - left_sum**2 / k) + (
        (total_sq - left_sq) - (total - left_sum) ** 2 / (m - k)
    )
    invalid = xs[:-1] >= xs[1:]
    ki = np.arange(1, m)
    invalid |= (ki < min_leaf)[:, None] | (ki > m - min_leaf)[:, None]
    sse = np.where(invalid, np.inf, sse)
    flat = int(np.argmin(sse))
    if not np.isfinite(sse.flat[flat]):
        return None
    pos, fi = divmod(flat, len(feats))
    lo, hi = xs[pos, fi], xs[pos + 1, fi]
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:
        threshold = lo
    return int(feats[fi]), float(threshold)


def merge_costs_reference(h: Partition, g: Partition, costs: CostModel,
                          candidate: tuple[int, int]) -> tuple[float, float]:
    """Whole ``op_cost`` totals before and after merging the candidate pair."""
    merged, _ = h.merged(*candidate)
    return op_cost(h, g, costs).total_cost, op_cost(merged, g, costs).total_cost


def ground_truth_action_reference(state: State, candidate: tuple[int, int], gt: Partition,
                                  costs: CostModel) -> Action:
    cost_now, cost_merged = merge_costs_reference(state.partition, gt, costs, candidate)
    return Action.MERGE if cost_merged < cost_now else Action.NOT_MERGE


def median_column_reference(ctx: AlbumContext, idx) -> np.ndarray:
    return np.median(ctx.D[:, idx], axis=1)


def consistency_reference(ctx: AlbumContext, idx) -> float:
    if len(idx) < 2:
        return 0.0
    sub = ctx.D[np.ix_(idx, idx)]
    return float(np.median(sub[np.triu_indices(len(idx), k=1)]))


def _first_eta(values: np.ndarray, eta: int) -> np.ndarray:
    if values.shape[0] >= eta:
        return values[:eta]
    return np.concatenate([values, np.full(eta - values.shape[0], values[-1])])


def extract_features_reference(state: State, candidate: tuple[int, int], queue: PairQueue,
                               use_quality: bool = True) -> np.ndarray:
    """Features whose similarity blocks are re-sorted from the queue's
    median columns on every call."""
    queue.sync(state.partition)
    slot_a, slot_b = (queue.slot[gid] for gid in candidate)
    cols, label, eta = queue.cols, queue.label, queue.eta
    block_ab = _first_eta(np.sort(cols[slot_b][label == slot_a]), eta)
    block_ba = _first_eta(np.sort(cols[slot_a][label == slot_b]), eta)
    qual = queue.qual[[slot_a, slot_b]].ravel() if use_quality else np.zeros(2 * eta)
    return np.concatenate([block_ab, block_ba, queue.cons[[slot_a, slot_b]], qual])


class LazyHeapQueue(PairQueue):
    """HC over a heap that never drops its stale entries at once: each one
    waits until it surfaces, as in the lazy deletion of a plain heap."""

    def _rebuild(self) -> None:
        pass


class RandomQueueReference(PairQueue):
    """RANDOM over the heap itself: every draw filters the heap to live
    pairs, heapifies and sorts it, then removes the drawn pair."""

    def eligible(self, state: State) -> list[tuple[int, int]]:
        self.sync(state.partition)
        self.heap = [e for e in self.heap if e[1] in self.slot and e[2] in self.slot]
        heapq.heapify(self.heap)
        return sorted(e[1:3] for e in self.heap)

    def draw(self, state: State, rng) -> tuple[int, int] | None:
        pairs = self.eligible(state)
        if not pairs:
            return None
        if rng is None:
            raise ValueError("random strategy requires a seeded generator")
        pair = pairs[int(rng.integers(len(pairs)))]
        self.heap = [e for e in self.heap if e[1:3] != pair]
        heapq.heapify(self.heap)
        return pair


def q_values_reference(model: ForestModel, phi: np.ndarray) -> tuple[float, float]:
    """(merge, not-merge) values of one pair in a two-row ``predict_many``."""
    out = model.predict_many(np.stack([np.append(phi, 1.0), np.append(phi, -1.0)]))
    return float(out[0]), float(out[1])


def forest_steps_reference(
    ctx: AlbumContext, forest: ForestModel, config, epsilon: float = 0.0, rng=None, gt=None
) -> list[Step]:
    """Every step of an episode whose forest actor values each proposed
    pair on its own, with ``engine.choose_action``'s generator draws."""

    def act(state, candidate, phi):
        if epsilon > 0 and rng.random() < epsilon:
            return Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE
        q_merge, q_not = q_values_reference(forest, phi)
        return Action.MERGE if q_merge > q_not else Action.NOT_MERGE

    return list(episode(ctx, config, act, gt=gt, rng=rng))


def play_episode_reference(gt, ctx, forest, svm, config, epsilon, rng, use_pm1):
    """``train._play_episode`` with each proposed pair valued on its own."""
    rows, rewards = [], []
    for step in forest_steps_reference(ctx, forest, config, epsilon, rng, gt):
        if use_pm1:
            expert = ground_truth_action_reference(step.state, step.candidate, gt, config.costs)
            r_short = 1.0 if step.action is expert else -1.0
        else:
            r_short = reward_short(svm, step.phi, step.action)
        rows.append(np.append(step.phi, action_flag(step.action)))
        rewards.append(reward_total(r_short, step.r_long, config.beta))
    return np.reshape(rows, (len(rewards), feature_dim(config.eta) + 1)), np.array(rewards)


@dataclass
class Experience:
    phi: np.ndarray
    action: Action
    reward: float
    next_phi: np.ndarray | None  # features of the next recommended candidate
    terminal: bool


def _refit_reference(forest, buffer, config, hyper) -> ForestModel:
    items = list(buffer)
    if not items:
        return forest
    X = np.stack([np.concatenate([e.phi, [action_flag(e.action)]]) for e in items])
    targets = np.array([e.reward for e in items])
    if config.gamma > 0:
        non_terminal = [k for k, e in enumerate(items) if not e.terminal]
        if non_terminal:
            next_phis = np.stack([items[k].next_phi for k in non_terminal])
            m = len(non_terminal)
            flags = np.concatenate([np.ones(m), -np.ones(m)])[:, None]
            q = forest.predict_many(np.hstack([np.vstack([next_phis, next_phis]), flags]))
            targets[non_terminal] += config.gamma * np.maximum(q[:m], q[m:])
    return learn.forest_fit(X, targets, hyper)


def q_train_reference(albums, gts, svm, config, hyper, train_cfg, capacity):
    """(forest, experiences kept) of ``train.q_train`` from its replay of
    ``Experience`` objects; ``hyper`` must already hold the action flag."""
    pairs = sorted(zip(albums, gts), key=lambda pair: pair[0].album_id)
    contexts = {a.album_id: AlbumContext(a) for a, _ in pairs}
    use_pm1 = train_cfg.reward_mode == "pm1"
    boot_X, boot_y = [], []
    for album, gt in pairs:
        phis, labels = train.expert_trajectory(
            album, gt, config, contexts[album.album_id], album_rng(train_cfg.seed, album.album_id)
        )
        if len(labels) == 0:
            continue
        values = labels if use_pm1 else svm.decision_many(phis)
        boot_X += [np.hstack([phis, np.ones((len(phis), 1))]),
                   np.hstack([phis, -np.ones((len(phis), 1))])]
        boot_y += [values, -values]
    forest = learn.forest_fit(np.vstack(boot_X), np.concatenate(boot_y), hyper)

    buffer = deque(maxlen=capacity)
    episodes = config.epsilon_decay_episodes
    for i in range(episodes):
        album, gt = pairs[i % len(pairs)]
        rng = album_rng(train_cfg.seed + 1 + i, album.album_id)
        epsilon = train._epsilon_at(i, config)
        ctx = contexts[album.album_id]
        pending = None  # (phi, action, reward) of the step awaiting its successor
        for step in forest_steps_reference(ctx, forest, config, epsilon, rng, gt):
            if pending is not None:
                buffer.append(Experience(*pending, next_phi=step.phi, terminal=False))
            if use_pm1:
                r_short = 1.0 if step.action is step.expert else -1.0
            else:
                r_short = reward_short(svm, step.phi, step.action)
            pending = (step.phi, step.action, reward_total(r_short, step.r_long, config.beta))
        if pending is not None:
            buffer.append(Experience(*pending, next_phi=None, terminal=True))
        if (i + 1) % train_cfg.refit_every == 0 or i == episodes - 1:
            forest = _refit_reference(forest, buffer, config, hyper)
    return forest, len(buffer)


def symmetric_distances_reference(X: np.ndarray) -> np.ndarray:
    """The angular distance matrix from out-of-place numpy calls, its lower
    triangle copied from the upper one through whole-matrix index arrays."""
    D = np.arccos(np.clip(X @ X.T, -1.0, 1.0)) / math.pi
    lower = np.tril_indices(len(D), -1)
    D[lower] = D.T[lower]
    return D
