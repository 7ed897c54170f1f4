"""Self-contained learners: an RBF-kernel SVM solved by sequential minimal
optimization, and a bagged regression forest for action-value approximation.

Both are deterministic given their seed and serialize to plain dicts (the
file format lives in ``bench``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .core import config_dict, config_from_dict, field_value

# Full kernel matrix is cached below this many samples; above it, rows are
# recomputed on demand (O(n*d) each, negligible next to the cache memory).
_KERNEL_CACHE_LIMIT = 3000


@dataclass(frozen=True)
class SvmHyper:
    c_reg: float = 10.0
    gamma: float = 3.0
    tol: float = 1e-3
    max_passes: int = 50  # pair updates allowed per training sample

    def __post_init__(self):
        for name in ("c_reg", "gamma", "tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


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

    @cached_property
    def _sv_sq(self) -> np.ndarray:
        return (self.support_vectors**2).sum(axis=1)

    def decision(self, x: np.ndarray) -> float:
        return float(self.decision_many(np.asarray(x, dtype=np.float64)[None, :])[0])

    def decision_many(self, X: np.ndarray) -> np.ndarray:
        """Decision values of the rows of ``X``.

        Inference scores one row per step and is not batched ahead like
        the forest: a row's value depends on the rows beside it in the last
        bits, because BLAS computes ``X @ support_vectors.T`` as a matrix
        product (gemm) for a batch and as a matrix-vector product (gemv)
        for one row, and sums in another order. On 500 feature rows of a
        141-item album under a 29-vector SVM, 472 batch values differed
        from the one-row values, by up to 3.7e-13, so a batched episode
        could decide a pair near the margin otherwise.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {X.shape[1]}")
        sq = (
            (X**2).sum(axis=1)[:, None]
            + self._sv_sq[None, :]
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
        """Inverse of ``to_dict``; a missing key raises KeyError, malformed
        arrays or a scalar that is not a JSON number ValueError."""
        model = SvmModel(
            support_vectors=np.asarray(d["support_vectors"], dtype=np.float64),
            coef=np.asarray(d["coef"], dtype=np.float64),
            **{key: float(field_value(key, float, d[key])) for key in ("bias", "gamma", "c_reg")},
        )
        sv = model.support_vectors
        if sv.ndim != 2 or sv.shape[0] == 0 or model.coef.shape != (sv.shape[0],):
            raise ValueError("support_vectors must be (n, dim) with one coef per row, n >= 1")
        if not all(np.isfinite(a).all() for a in (sv, model.coef, model.bias, model.gamma)):
            raise ValueError("support vectors, coef, bias and gamma must be finite")
        return model


def random_svm(dim: int, seed: int) -> SvmModel:
    """Randomly initialized decision function used before any mistakes exist.

    Eight anchors are drawn inside the unit cube where feature vectors
    live, with N(0, 2) weights, so the decision surface actually varies
    over inputs.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    anchors = rng.uniform(0.0, 1.0, size=(8, dim))
    coef = rng.normal(0.0, 2.0, size=8)
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
    falls below ``tol`` or the pair-update budget runs out. The majority
    class box constraint is scaled by the inverse class frequency ratio, so
    the minority class keeps the full ``c_reg``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-d with one label per row")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and labels must be finite, not NaN or inf")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("training set must contain both classes")
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
    if n <= _KERNEL_CACHE_LIMIT:
        K = np.exp(-hyper.gamma * np.maximum(sq[:, None] + sq[None, :] - 2.0 * X @ X.T, 0.0))
        krow = list(K).__getitem__  # the row views, made once
    else:
        def krow(i: int) -> np.ndarray:
            return _kernel_rows(X, sq, hyper.gamma, i)

    # The pair step reads Python floats, which are cheaper than numpy
    # scalars. F is the negated error -(f(x_i) - y_i), f = 0 initially (bias
    # excluded from f); negation rounds symmetrically, so updating F
    # directly gives every value the error form would.
    eps = 1e-12
    is_pos = y > 0
    pos, y_l, C_l = is_pos.tolist(), y.tolist(), C.tolist()
    alpha = [0.0] * n
    F = y.copy()
    # The index sets I_up and I_low of Keerthi et al. as penalties added to
    # F before the argmax and argmin: 0 inside a set, -inf (up) or +inf
    # (low) outside it. F + 0 is F, so the picks are those of F masked to
    # each set. A pair step rewrites only entries i and j.
    up = np.where(is_pos & (C > eps), 0.0, -np.inf)
    low = np.where(~is_pos & (C > eps), 0.0, np.inf)
    picked = np.empty(n)
    work = (np.empty(n), np.empty(n))  # the pair step's update of F

    max_iter = hyper.max_passes * max(n, 1)
    for _ in range(max_iter):
        i = int(np.add(F, up, picked).argmax())
        j = int(np.add(F, low, picked).argmin())  # first of low in stable F order
        if up.item(i) or low.item(j):  # an index set is empty
            break
        f_i = F.item(i)
        if f_i - F.item(j) <= hyper.tol:
            break
        progressed = _smo_step(i, j, alpha, y_l, C_l, F, krow, work, eps)
        if not progressed:
            # only then rank the rest of the low set, most violating first,
            # and take the first pair that moves
            low_idx = np.flatnonzero(low == 0.0)
            for j in low_idx[np.argsort(F[low_idx], kind="stable")[1:]].tolist():
                if j == i:
                    continue
                if f_i - F.item(j) <= hyper.tol:
                    break
                if _smo_step(i, j, alpha, y_l, C_l, F, krow, work, eps):
                    progressed = True
                    break
        if not progressed:
            break
        for k in (i, j):
            inside, above = alpha[k] < C_l[k] - eps, alpha[k] > eps
            in_up, in_low = (inside, above) if pos[k] else (above, inside)
            up[k] = 0.0 if in_up else -np.inf
            low[k] = 0.0 if in_low else np.inf

    up, low = up == 0.0, low == 0.0
    alpha = np.asarray(alpha)
    non_bound = (alpha > eps) & (alpha < C - eps)
    if non_bound.any():
        bias = float(np.mean(F[non_bound]))
    elif up.any() and low.any():
        bias = float((np.max(F[up]) + np.min(F[low])) / 2.0)
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
        gamma=hyper.gamma,
        c_reg=hyper.c_reg,
    )


def _smo_step(i, j, alpha, y, C, F, krow, work, eps) -> bool:
    """Joint update of one alpha pair, with ``work`` two scratch rows;
    returns False when no progress is possible."""
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
    quad = row_i.item(i) + row_j.item(j) - 2.0 * row_i.item(j)
    if quad <= eps:
        return False
    a_j_new = a_j + y_j * (F.item(j) - F.item(i)) / quad
    a_j_new = min(H, max(L, a_j_new))
    if abs(a_j_new - a_j) < eps * (a_j_new + a_j + eps):
        return False
    a_i_new = a_i + s * (a_j - a_j_new)
    alpha[i], alpha[j] = a_i_new, a_j_new
    # F -= y_i * (a_i_new - a_i) * row_i + y_j * (a_j_new - a_j) * row_j,
    # rounded alike, without temporaries
    d_i, d_j = work
    np.multiply(row_i, y_i * (a_i_new - a_i), d_i)
    np.multiply(row_j, y_j * (a_j_new - a_j), d_j)
    np.subtract(F, np.add(d_i, d_j, d_i), F)
    return True


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

    def __post_init__(self):
        for name in ("n_trees", "max_depth", "min_leaf"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.feature_frac <= 1:
            raise ValueError(f"feature_frac must be in (0, 1], got {self.feature_frac}")


@dataclass
class ForestModel:
    """Mean of independently grown regression trees, packed into one node
    table so that every tree descends at once.

    Tree t owns nodes ``roots[t]:roots[t + 1]`` and its child indices are
    shifted by ``roots[t]``. A leaf is its own left and right child and
    reads column 0, so a row that reaches one stays there while the other
    trees go on descending.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    leaf: np.ndarray
    roots: np.ndarray  # n_trees + 1 node offsets
    dim: int
    hyper: ForestHyper

    @cached_property
    def _descent(self) -> tuple[np.ndarray, int]:
        """The (2, nodes) child table, row 0 where ``x <= threshold``, and
        the number of levels after which every descent is at a leaf."""
        children = np.stack([self.left, self.right])
        level, depth = self.roots[:-1], 0
        while not self.leaf[level].all():
            reached = np.zeros(self.leaf.shape, dtype=bool)  # each node once
            reached[children[:, level]] = True
            level, depth = reached.nonzero()[0], depth + 1
        return children, depth

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {X.shape[1]}")
        children, depth = self._descent
        flat, start = X.ravel(), np.arange(X.shape[0]) * self.dim
        node = np.repeat(self.roots[:-1, None], X.shape[0], axis=1)  # (tree, row)
        for _ in range(depth):
            # not `x > threshold`: a NaN goes right
            go_right = ~(flat[start + self.feature[node]] <= self.threshold[node])
            node = children.ravel()[node + children.shape[1] * go_right]
        # a running sum from +0.0 in tree order (accumulate adds one row at a
        # time), so each mean rounds, and signs a zero, as it always has
        values = np.vstack([np.zeros(X.shape[0]), self.value[node]])
        return np.add.accumulate(values)[-1] / (values.shape[0] - 1)

    def to_dict(self) -> dict:
        trees = []
        for t in range(self.roots.shape[0] - 1):
            lo, hi = self.roots[t], self.roots[t + 1]
            leaf = self.leaf[lo:hi]
            trees.append({
                "feature": np.where(leaf, -1, self.feature[lo:hi]).tolist(),
                "threshold": self.threshold[lo:hi].tolist(),
                "left": np.where(leaf, -1, self.left[lo:hi] - lo).tolist(),
                "right": np.where(leaf, -1, self.right[lo:hi] - lo).tolist(),
                "value": self.value[lo:hi].tolist(),
            })
        return {"dim": self.dim, **config_dict(self.hyper), "trees": trees}

    @staticmethod
    def from_dict(d: dict) -> "ForestModel":
        """Inverse of ``to_dict``; a missing key raises KeyError, a malformed
        hyperparameter or tree ValueError."""
        hyper = config_from_dict(ForestHyper, {f.name: d[f.name] for f in fields(ForestHyper)})
        dim = field_value("dim", int, d["dim"])
        trees = [_tree_from_dict(t, dim) for t in d["trees"]]
        if not trees:
            raise ValueError("forest has no trees")
        return _pack(trees, dim, hyper)


def _pack(trees: list[dict], dim: int, hyper: ForestHyper) -> ForestModel:
    """One node table from per-tree arrays laid out as ``_grow_tree`` writes
    them (a leaf has feature, left and right -1)."""
    sizes = [t["feature"].shape[0] for t in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)])
    shift = np.repeat(roots[:-1], sizes)
    node = np.arange(roots[-1])

    def cat(key):
        return np.concatenate([t[key] for t in trees])

    leaf = cat("feature") < 0
    return ForestModel(
        feature=np.where(leaf, 0, cat("feature")),
        threshold=cat("threshold"),
        left=np.where(leaf, node, cat("left") + shift),
        right=np.where(leaf, node, cat("right") + shift),
        value=cat("value"),
        leaf=leaf,
        roots=roots,
        dim=dim,
        hyper=hyper,
    )


def _tree_from_dict(t: dict, dim: int) -> dict:
    """One serialized tree, checked before packing so that a descent
    terminates and reads only real columns: every split node's children
    come after it inside its own tree (as ``_grow_tree`` lays them out), so
    a descent only moves forward and ends at a leaf of that tree."""
    tree = {
        "feature": _node_indices(t["feature"]),
        "threshold": np.asarray(t["threshold"], dtype=np.float64),
        "left": _node_indices(t["left"]),
        "right": _node_indices(t["right"]),
        "value": np.asarray(t["value"], dtype=np.float64),
    }
    n = tree["feature"].shape[0] if tree["feature"].ndim == 1 else 0
    if n == 0 or any(a.shape != (n,) for a in tree.values()):
        raise ValueError("tree arrays must be 1-d, non-empty and of one length")
    feature = tree["feature"]
    if ((feature < -1) | (feature >= dim)).any():
        raise ValueError(f"tree feature index outside [0, {dim}) and not -1 (leaf)")
    split = np.flatnonzero(feature >= 0)
    for child in (tree["left"][split], tree["right"][split]):
        if ((child <= split) | (child >= n)).any():
            raise ValueError("tree child index must come after its parent, inside the tree")
    if not (np.isfinite(tree["threshold"]).all() and np.isfinite(tree["value"]).all()):
        raise ValueError("tree thresholds and values must be finite")
    return tree


def _node_indices(values) -> np.ndarray:
    """A list of integers as int64; converting it directly would truncate
    1.9 to 1 and read true as 1."""
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ValueError("tree feature, left and right must be lists of integers")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("tree index does not fit in 64 bits") from None


def _best_split(xs, ys, min_leaf, counts):
    """Vectorized exhaustive split search over presorted candidate features.

    Column c of ``xs`` holds one candidate feature's values over the node's
    rows in stable ascending order, and column c of ``ys`` the targets in
    that order. ``counts`` is the column min_leaf, min_leaf + 1, ... as
    floats, at least as long as the node has admissible cuts. Returns
    (column, threshold), or None when no cut between two distinct values
    leaves ``min_leaf`` rows on each side.
    """
    m = xs.shape[0]
    csum = ys.cumsum(axis=0)
    csq = (ys * ys).cumsum(axis=0)
    total, total_sq = csum[-1], csq[-1]

    # a cut after position p leaves k = p + 1 rows on the left; only
    # min_leaf <= k <= m - min_leaf is admissible, and the m - k rows on
    # the right run through the same counts backwards
    cut = slice(min_leaf - 1, m - min_leaf)
    n_cuts = m - 2 * min_leaf + 1
    k, rest = counts[:n_cuts], counts[n_cuts - 1 :: -1]
    left_sum, left_sq = csum[cut], csq[cut]
    sse = (left_sq - left_sum**2 / k) + (
        (total_sq - left_sq) - (total - left_sum) ** 2 / rest
    )
    sse[xs[cut] >= xs[min_leaf : m - min_leaf + 1]] = np.inf

    # position-major: ties go to the smallest cut, then the smallest column
    pos, col = divmod(int(sse.argmin()), xs.shape[1])
    if not math.isfinite(sse.item(pos, col)):
        return None
    pos += min_leaf - 1
    lo, hi = xs.item(pos, col), xs.item(pos + 1, col)
    threshold = 0.5 * (lo + hi)
    if not lo <= threshold < hi:  # float rounding must not empty a child
        threshold = lo
    return col, threshold


def _grow_tree(X, y, hyper: ForestHyper, rng: np.random.Generator) -> dict:
    """One bootstrap tree as per-tree arrays; leaves have feature, left and
    right -1, and children come after their parent.

    The sample is sorted once per column (presorted CART, as in SLIQ). A
    node that may split holds its sample positions in sample order and, per
    column, in stable value order; filtering both by the split keeps each
    the order that sorting the child's own rows stably would give. A node
    gets its value when it is made, and a leaf gets nothing more.
    """
    n, d = X.shape
    rows = rng.integers(0, n, size=n)  # bootstrap sample
    Xs, ys = X[rows], y[rows]
    pool = np.array([f for f in range(d) if f not in hyper.always_include], dtype=np.int64)
    k_sub = max(1, int(round(hyper.feature_frac * len(pool)))) if len(pool) else 0
    # the columns offered at a split: a sorted draw from the pool, then always_include
    feats = np.empty(k_sub + len(hyper.always_include), dtype=np.int64)
    feats[k_sub:] = hyper.always_include
    drawn = feats[:k_sub]
    counts = np.arange(hyper.min_leaf, n + 1, dtype=np.float64)[:, None]

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(at, depth):
        """A node over sample positions ``at``, with its mean; whether it may split."""
        yn = ys[at]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.add.reduce(yn) / yn.shape[0]))  # as yn.mean() rounds
        splits = (
            depth < hyper.max_depth
            and yn.shape[0] >= 2 * hyper.min_leaf
            and not (yn == yn[0]).all()
        )
        return len(feature) - 1, splits

    goes_left = np.empty(n, dtype=bool)  # by sample position, for the node being split
    at = np.arange(n)
    root, splits = new_node(at, 0)
    stack = [(root, at, Xs.T.argsort(axis=1, kind="stable"), 0)] if splits else []
    while stack:
        node, at, ranked, depth = stack.pop()
        if k_sub:  # the draw rng.choice(pool, ...) makes, as positions in the pool
            pool.take(rng.choice(pool.shape[0], size=k_sub, replace=False), out=drawn)
            drawn.sort()
        order = ranked[feats].T
        split = _best_split(Xs[order, feats], ys[order], hyper.min_leaf, counts)
        if split is None:
            continue
        col, thr = split
        f = int(feats[col])
        go_left = Xs[at, f] <= thr
        feature[node] = f
        threshold[node] = thr
        at_left, at_right = at[go_left], at[~go_left]
        l_id, l_splits = new_node(at_left, depth + 1)
        r_id, r_splits = new_node(at_right, depth + 1)
        left[node], right[node] = l_id, r_id
        if not (l_splits or r_splits):
            continue
        goes_left[at] = go_left
        ranked_left = goes_left[ranked]
        if r_splits:
            stack.append((r_id, at_right, ranked[~ranked_left].reshape(d, -1), depth + 1))
        if l_splits:
            stack.append((l_id, at_left, ranked[ranked_left].reshape(d, -1), depth + 1))

    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.asarray(value, dtype=np.float64),
    }


def forest_fit(X: np.ndarray, y: np.ndarray, hyper: ForestHyper = ForestHyper()) -> ForestModel:
    """Grow ``n_trees`` bootstrap trees with per-split feature subsampling."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a non-empty 2-d array")
    if X.shape[0] != y.shape[0]:
        raise ValueError("one target per row required")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("features and targets must be finite, not NaN or inf")
    seeds = np.random.SeedSequence(hyper.seed).spawn(hyper.n_trees)
    trees = [
        _grow_tree(X, y, hyper, np.random.Generator(np.random.PCG64(s))) for s in seeds
    ]
    return _pack(trees, X.shape[1], hyper)
