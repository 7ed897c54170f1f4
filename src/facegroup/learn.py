"""Self-contained learners: an RBF-kernel SVM solved by sequential minimal
optimization, and a bagged regression forest for action-value approximation.

Both are deterministic given their seed and serialize to plain dicts (the
file format lives in ``bench``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Full kernel matrix is cached below this many samples; above it, rows are
# recomputed on demand (O(n*d) each, negligible next to the cache memory).
_KERNEL_CACHE_LIMIT = 3000


@dataclass(frozen=True)
class SvmHyper:
    c_reg: float = 10.0
    gamma: float | None = None  # None -> 1 / feature dimension
    tol: float = 1e-3
    max_passes: int = 50  # pair updates allowed per training sample
    seed: int = 0
    balanced: bool = True  # scale the majority class box down by inverse frequency


@dataclass
class SvmModel:
    """Kernelized decision function: sum_i coef_i * exp(-gamma ||sv_i - x||^2) + bias."""

    support_vectors: np.ndarray
    coef: np.ndarray  # alpha_i * y_i, label-folded
    bias: float
    gamma: float
    c_reg: float

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]

    def decision(self, x: np.ndarray) -> float:
        return float(self.decision_many(np.asarray(x, dtype=np.float64)[None, :])[0])

    def decision_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {X.shape[1]}")
        sq = (
            (X**2).sum(axis=1)[:, None]
            + (self.support_vectors**2).sum(axis=1)[None, :]
            - 2.0 * X @ self.support_vectors.T
        )
        K = np.exp(-self.gamma * np.maximum(sq, 0.0))
        return K @ self.coef + self.bias

    def to_dict(self) -> dict:
        return {
            "support_vectors": self.support_vectors.tolist(),
            "coef": self.coef.tolist(),
            "bias": self.bias,
            "gamma": self.gamma,
            "c_reg": self.c_reg,
        }

    @staticmethod
    def from_dict(d: dict) -> "SvmModel":
        return SvmModel(
            support_vectors=np.asarray(d["support_vectors"], dtype=np.float64),
            coef=np.asarray(d["coef"], dtype=np.float64),
            bias=float(d["bias"]),
            gamma=float(d["gamma"]),
            c_reg=float(d["c_reg"]),
        )


def random_svm(dim: int, seed: int, n_anchors: int = 8, scale: float = 2.0) -> SvmModel:
    """Randomly initialized decision function used before any mistakes exist.

    Anchors are drawn inside the unit cube where feature vectors live, so
    the decision surface actually varies over inputs.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    anchors = rng.uniform(0.0, 1.0, size=(n_anchors, dim))
    coef = rng.normal(0.0, scale, size=n_anchors)
    return SvmModel(
        support_vectors=anchors,
        coef=coef,
        bias=float(rng.normal(0.0, 0.1)),
        gamma=2.0 / dim,
        c_reg=0.0,
    )


def constant_svm(dim: int, bias: float) -> SvmModel:
    """Decision function with a fixed sign; the best fit to one-class data."""
    return SvmModel(
        support_vectors=np.zeros((1, dim)),
        coef=np.zeros(1),
        bias=bias,
        gamma=1.0 / dim,
        c_reg=0.0,
    )


def _kernel_rows(X: np.ndarray, sq: np.ndarray, gamma: float, i: int) -> np.ndarray:
    d = sq[i] + sq - 2.0 * (X @ X[i])
    return np.exp(-gamma * np.maximum(d, 0.0))


def svm_fit(X: np.ndarray, y: np.ndarray, hyper: SvmHyper = SvmHyper()) -> SvmModel:
    """Train a soft-margin RBF SVM by SMO with maximal-violating-pair selection.

    ``y`` holds +/-1 labels. Optimization stops when the KKT violation gap
    falls below ``tol`` or the pair-update budget runs out. With
    ``balanced`` the majority class box constraint is scaled by the inverse
    class frequency ratio, so the minority class keeps the full ``c_reg``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-d with one label per row")
    if np.isnan(X).any():
        raise ValueError("features contain NaN")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training set must contain both classes")
    n, dim = X.shape
    gamma = hyper.gamma if hyper.gamma is not None else 1.0 / dim

    n_pos = int(np.sum(y > 0))
    n_neg = n - n_pos
    c_pos = c_neg = hyper.c_reg
    if hyper.balanced:
        if n_pos > n_neg:
            c_pos = hyper.c_reg * n_neg / n_pos
        elif n_neg > n_pos:
            c_neg = hyper.c_reg * n_pos / n_neg
    C = np.where(y > 0, c_pos, c_neg)

    sq = (X**2).sum(axis=1)
    K = None
    if n <= _KERNEL_CACHE_LIMIT:
        K = np.exp(-gamma * np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0))

    def krow(i: int) -> np.ndarray:
        return K[i] if K is not None else _kernel_rows(X, sq, gamma, i)

    alpha = np.zeros(n)
    E = -y.copy()  # f(x_i) - y_i with f = 0 initially (bias excluded from f)
    pos = y > 0

    max_iter = hyper.max_passes * max(n, 1)
    eps = 1e-12
    for _ in range(max_iter):
        up = (pos & (alpha < C - eps)) | (~pos & (alpha > eps))
        low = (pos & (alpha > eps)) | (~pos & (alpha < C - eps))
        if not up.any() or not low.any():
            break
        neg_e = -E
        i = int(np.where(up)[0][np.argmax(neg_e[up])])
        # candidate js from most to least violating; skip degenerate pairs
        low_idx = np.where(low)[0]
        order = low_idx[np.argsort(neg_e[low_idx], kind="stable")]
        gap = neg_e[i] - neg_e[order[0]]
        if gap <= hyper.tol:
            break
        progressed = False
        for j in order:
            j = int(j)
            if j == i:
                continue
            if neg_e[i] - neg_e[j] <= hyper.tol:
                break
            if _smo_step(i, j, alpha, y, C, E, krow, eps):
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
    if not keep.any():  # degenerate but legal: decision is the bare bias
        keep = np.zeros(n, dtype=bool)
        keep[0] = True
        coef = np.zeros(1)
    else:
        coef = (alpha * y)[keep]
    return SvmModel(
        support_vectors=X[keep].copy(),
        coef=np.asarray(coef, dtype=np.float64),
        bias=bias,
        gamma=gamma,
        c_reg=hyper.c_reg,
    )


def _smo_step(i, j, alpha, y, C, E, krow, eps) -> bool:
    """Joint update of one alpha pair; returns False when no progress is possible."""
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
    k_ii, k_jj, k_ij = row_i[i], row_j[j], row_i[j]
    quad = k_ii + k_jj - 2.0 * k_ij
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


def svm_accuracy(model: SvmModel, X: np.ndarray, y: np.ndarray) -> float:
    pred = np.sign(model.decision_many(X))
    pred[pred == 0] = -1.0
    return float(np.mean(pred == np.sign(y)))


@dataclass(frozen=True)
class ForestHyper:
    n_trees: int = 40
    max_depth: int = 12
    min_leaf: int = 4
    feature_frac: float = 0.7
    seed: int = 0
    # feature indices offered at every split regardless of subsampling (the
    # action flag of a Q-feature layout goes here)
    always_include: tuple[int, ...] = field(default_factory=tuple)
    # twin mode roots every tree on the flag column (always_include[0]),
    # effectively growing one forest per action over shared bootstraps
    twin: bool = False


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.where(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]


@dataclass
class ForestModel:
    """Mean of independently grown regression trees."""

    trees: list
    dim: int
    hyper: ForestHyper

    def predict(self, x: np.ndarray) -> float:
        return float(self.predict_many(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {X.shape[1]}")
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.apply(X)
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_trees": self.hyper.n_trees,
            "max_depth": self.hyper.max_depth,
            "min_leaf": self.hyper.min_leaf,
            "feature_frac": self.hyper.feature_frac,
            "seed": self.hyper.seed,
            "always_include": list(self.hyper.always_include),
            "twin": self.hyper.twin,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in self.trees
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "ForestModel":
        hyper = ForestHyper(
            n_trees=int(d["n_trees"]),
            max_depth=int(d["max_depth"]),
            min_leaf=int(d["min_leaf"]),
            feature_frac=float(d["feature_frac"]),
            seed=int(d["seed"]),
            always_include=tuple(d["always_include"]),
            twin=bool(d.get("twin", False)),
        )
        trees = [
            _Tree(
                feature=np.asarray(t["feature"], dtype=np.int64),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int64),
                right=np.asarray(t["right"], dtype=np.int64),
                value=np.asarray(t["value"], dtype=np.float64),
            )
            for t in d["trees"]
        ]
        return ForestModel(trees=trees, dim=int(d["dim"]), hyper=hyper)


def _best_split(Xn, yn, feats, min_leaf):
    """Vectorized exhaustive split search over the candidate features.

    Returns (feature, threshold) or None when no split satisfies min_leaf.
    """
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
    if not lo <= threshold < hi:  # float rounding must not empty a child
        threshold = lo
    return int(feats[fi]), float(threshold)


def _grow_tree(X, y, hyper: ForestHyper, rng: np.random.Generator) -> _Tree:
    n, d = X.shape
    rows = rng.integers(0, n, size=n)  # bootstrap sample
    pool = np.array([f for f in range(d) if f not in hyper.always_include])
    k_sub = max(1, int(round(hyper.feature_frac * len(pool)))) if len(pool) else 0

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, rows, 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        value[node] = float(yn.mean())
        if node == root and hyper.twin and hyper.always_include:
            flag = hyper.always_include[0]
            go_left = X[idx, flag] <= 0.0
            if go_left.any() and (~go_left).any():
                feature[node] = flag
                threshold[node] = 0.0
                l_id, r_id = new_node(), new_node()
                left[node], right[node] = l_id, r_id
                stack.append((r_id, idx[~go_left], depth + 1))
                stack.append((l_id, idx[go_left], depth + 1))
                continue
        if (
            depth >= hyper.max_depth
            or idx.shape[0] < 2 * hyper.min_leaf
            or np.all(yn == yn[0])
        ):
            continue
        if k_sub:
            feats = np.sort(rng.choice(pool, size=k_sub, replace=False))
            if hyper.always_include:
                feats = np.concatenate([feats, np.array(hyper.always_include)])
        else:
            feats = np.array(hyper.always_include, dtype=np.int64)
        split = _best_split(X[idx], yn, feats.astype(np.int64), hyper.min_leaf)
        if split is None:
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        l_id, r_id = new_node(), new_node()
        left[node], right[node] = l_id, r_id
        stack.append((r_id, idx[~go_left], depth + 1))
        stack.append((l_id, idx[go_left], depth + 1))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def forest_fit(X: np.ndarray, y: np.ndarray, hyper: ForestHyper = ForestHyper()) -> ForestModel:
    """Grow ``n_trees`` bootstrap trees with per-split feature subsampling."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a non-empty 2-d array")
    if X.shape[0] != y.shape[0]:
        raise ValueError("one target per row required")
    seeds = np.random.SeedSequence(hyper.seed).spawn(hyper.n_trees)
    trees = [
        _grow_tree(X, y, hyper, np.random.Generator(np.random.PCG64(s))) for s in seeds
    ]
    return ForestModel(trees=trees, dim=X.shape[1], hyper=hyper)
