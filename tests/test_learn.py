import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup import learn
from facegroup.core import config_dict
from facegroup.learn import (
    ForestHyper,
    ForestModel,
    SvmHyper,
    SvmModel,
    forest_fit,
    random_svm,
    svm_fit,
)
from oracle import forest_fit_reference, forest_predict_reference, svm_fit_reference


class TestSvmFit:
    def test_two_separable_points(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0])
        model = svm_fit(X, y, SvmHyper(c_reg=10.0))
        assert np.sign(model.decision_many(X)).tolist() == [-1.0, 1.0]

    def test_xor_with_rbf_kernel(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        model = svm_fit(X, y, SvmHyper(c_reg=10.0, gamma=1.0))
        assert np.all(np.sign(model.decision_many(X)) == y)

    def test_duplicated_dataset_same_decision(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(40, 5))
        y = np.sign(X[:, 0] + 0.2 * rng.normal(size=40))
        y[y == 0] = 1
        hyper = SvmHyper(c_reg=100.0)
        base = svm_fit(X, y, hyper)
        doubled = svm_fit(np.vstack([X, X]), np.concatenate([y, y]), hyper)
        probe = rng.normal(size=(100, 5))
        assert np.abs(base.decision_many(probe) - doubled.decision_many(probe)).max() < 1e-6

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="both classes"):
            svm_fit(X, np.ones(3))

    def test_nan_rejected(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="NaN"):
            svm_fit(X, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("column, label", [(np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_rejected(self, column, label):
        # an inf feature once gave "invalid value encountered in subtract"
        # and a NaN model
        X = np.array([[column, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            svm_fit(X, np.array([label, -1.0, 1.0]))

    def test_alphas_bounded_by_c_reg(self):
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.normal(size=(60, 4))
        y = np.where(rng.random(60) < 0.7, 1.0, -1.0)  # imbalanced
        hyper = SvmHyper(c_reg=5.0)
        model = svm_fit(X, y, hyper)
        assert np.all(np.abs(model.coef) <= hyper.c_reg + 1e-9)

    def test_reproducible(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(50, 6))
        y = np.sign(X[:, 1])
        y[y == 0] = 1
        a = svm_fit(X, y, SvmHyper())
        b = svm_fit(X, y, SvmHyper())
        assert a.to_dict() == b.to_dict()


class TestSvmDecision:
    def make_model(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        return svm_fit(X, np.array([-1.0, 1.0]), SvmHyper(c_reg=10.0, gamma=0.5))

    def test_positive_class_support_vector_scores_positive(self):
        model = self.make_model()
        assert model.decision(np.array([2.0, 2.0])) > 0

    def test_decision_is_continuous(self):
        model = self.make_model()
        x = np.array([1.0, 1.0])
        base = model.decision(x)
        for eps in (1e-3, 1e-5):
            assert abs(model.decision(x + eps) - base) < 0.01

    def test_dimension_mismatch(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="dimension"):
            model.decision(np.array([1.0, 1.0, 1.0]))

    def test_round_trip_serialization(self):
        model = self.make_model()
        clone = SvmModel.from_dict(model.to_dict())
        probe = np.array([[0.3, 1.7], [1.2, 0.1]])
        assert np.allclose(model.decision_many(probe), clone.decision_many(probe))


def test_random_svm_varies_over_inputs():
    model = random_svm(dim=22, seed=0)
    rng = np.random.Generator(np.random.PCG64(1))
    decisions = model.decision_many(rng.uniform(0, 1, size=(200, 22)))
    assert decisions.std() > 1e-3


class TestForest:
    def test_constant_target(self):
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.normal(size=(30, 3))
        y = np.full(30, 2.5)
        model = forest_fit(X, y, ForestHyper(n_trees=5))
        assert np.allclose(model.predict_many(X), 2.5, atol=1e-9)

    def test_single_training_point(self):
        model = forest_fit(np.array([[1.0, 2.0]]), np.array([3.0]), ForestHyper(n_trees=3))
        assert model.predict_many(np.array([[9.9, -4.0]]))[0] == pytest.approx(3.0)

    def test_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        model = forest_fit(
            X, y, ForestHyper(n_trees=20, max_depth=4, min_leaf=2, feature_frac=1.0)
        )
        mse = float(np.mean((model.predict_many(X) - y) ** 2))
        assert mse < 0.01

    def test_prediction_bounded_by_targets(self):
        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.normal(size=(120, 5))
        y = rng.uniform(-3.0, 7.0, size=120)
        model = forest_fit(X, y, ForestHyper(n_trees=15))
        preds = model.predict_many(rng.normal(size=(300, 5)))
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    def test_min_leaf_controls_splitting(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        # min_leaf larger than half the sample: no split is admissible
        stumps = forest_fit(X, y, ForestHyper(n_trees=5, min_leaf=25))
        assert all(max(t["feature"]) == -1 for t in stumps.to_dict()["trees"])
        grown = forest_fit(X, y, ForestHyper(n_trees=5, min_leaf=1))
        assert any(max(t["feature"]) >= 0 for t in grown.to_dict()["trees"])

    @pytest.mark.parametrize("column, target", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_rejected(self, column, target):
        # a NaN target once gave a forest that predicts NaN and whose
        # to_dict() from_dict refuses
        X = np.array([[column, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            forest_fit(X, np.array([target, 0.0, 1.0, 2.0]), ForestHyper(n_trees=2, min_leaf=1))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            forest_fit(np.empty((0, 3)), np.empty(0))

    def test_dimension_mismatch_on_predict(self):
        model = forest_fit(np.zeros((4, 3)), np.arange(4.0), ForestHyper(n_trees=2))
        with pytest.raises(ValueError, match="dimension"):
            model.predict_many(np.zeros(5)[None])

    def test_reproducible_and_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(6))
        X = rng.normal(size=(80, 6))
        y = X[:, 0] * 2 + rng.normal(size=80) * 0.1
        a = forest_fit(X, y, ForestHyper(seed=11))
        b = forest_fit(X, y, ForestHyper(seed=11))
        assert a.to_dict() == b.to_dict()
        # model files written while the format still had a "twin" key load too
        clone = ForestModel.from_dict({**a.to_dict(), "twin": False})
        probe = rng.normal(size=(50, 6))
        assert np.allclose(a.predict_many(probe), clone.predict_many(probe))

    def test_always_include_feature_used(self):
        # target depends only on the flag column; tiny feature_frac would
        # rarely offer it unless always_include forces it into every split
        rng = np.random.Generator(np.random.PCG64(7))
        X = rng.normal(size=(200, 10))
        X[:, 9] = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        y = X[:, 9]
        hyper = ForestHyper(n_trees=10, feature_frac=0.12, always_include=(9,))
        model = forest_fit(X, y, hyper)
        mse = float(np.mean((model.predict_many(X) - y) ** 2))
        assert mse < 0.05


def assert_same_bits(fast, reference):
    assert np.array_equal(fast, reference)
    assert np.array_equal(np.signbit(fast), np.signbit(reference))


# Half-integer grid: a split between two integer training values sits on a
# half-integer, so probe rows land exactly on thresholds.
GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])


@given(
    data=st.data(),
    dim=st.integers(1, 4),
    n_train=st.integers(1, 40),
    n_probe=st.sampled_from([1, 2, 57]),
    hyper=st.builds(
        ForestHyper,
        n_trees=st.integers(1, 16),  # over 8 trees, a numpy sum would go pairwise
        max_depth=st.integers(1, 6),
        min_leaf=st.integers(1, 3),
        feature_frac=st.sampled_from([0.5, 1.0]),
        seed=st.integers(0, 2**16),
    ),
)
@settings(max_examples=80, deadline=None)
def test_packed_forest_matches_tree_by_tree_reference(data, dim, n_train, n_probe, hyper):
    X = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=dim, max_size=dim),
        min_size=n_train, max_size=n_train)))
    y = np.array(data.draw(st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, -2.5, 4.25]), min_size=n_train, max_size=n_train)))
    probe = np.array(data.draw(st.lists(
        st.lists(GRID, min_size=dim, max_size=dim), min_size=n_probe, max_size=n_probe)))
    model = forest_fit(X, y, hyper)
    assert_same_bits(model.predict_many(probe), forest_predict_reference(model, probe))
    loaded = ForestModel.from_dict(model.to_dict())
    assert_same_bits(loaded.predict_many(probe), forest_predict_reference(model, probe))


def draw_tree(data, dim: int, depth: int) -> dict:
    """A serialized tree of at most ``depth`` levels whose nodes sit in a
    random order that keeps each child after its parent: a right child may
    come before its left one, siblings need not be adjacent, and a split
    may send both sides to one child."""
    depth_of, children = [0], [None]  # by shape id
    pending, placed = [0], []
    while pending:
        node = pending.pop(data.draw(st.integers(0, len(pending) - 1)))
        placed.append(node)
        if depth_of[node] < depth and len(depth_of) < 120 and data.draw(st.integers(0, 3)):
            kids = [len(depth_of), len(depth_of) + 1]
            if data.draw(st.integers(0, 7)) == 0:
                kids = kids[:1]
            for _ in kids:
                depth_of.append(depth_of[node] + 1)
                children.append(None)
            children[node] = (kids[0], kids[-1])
            pending += kids
    at = {node: i for i, node in enumerate(placed)}
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
    for node in placed:
        split = children[node] is not None
        tree["feature"].append(data.draw(st.integers(0, dim - 1)) if split else -1)
        tree["threshold"].append(data.draw(GRID))
        tree["left"].append(at[children[node][0]] if split else -1)
        tree["right"].append(at[children[node][1]] if split else -1)
        tree["value"].append(data.draw(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.1, 1 / 3])))
    return tree


@given(
    data=st.data(),
    dim=st.integers(1, 4),
    depths=st.lists(st.sampled_from([0, 1, 2, 5, 12]), min_size=1, max_size=12),
    n_probe=st.sampled_from([1, 3, 40]),
)
@settings(max_examples=120, deadline=None)
def test_descent_of_loaded_trees_matches_tree_by_tree_reference(data, dim, depths, n_probe):
    """Trees written by hand, not by ``_grow_tree``: children in any order
    after their parent, trees of very different depths in one forest, and
    probes on the thresholds or NaN, which goes right."""
    trees = [draw_tree(data, dim, depth) for depth in depths]
    model = ForestModel.from_dict(
        {"dim": dim, **config_dict(ForestHyper(n_trees=len(trees))), "trees": trees})
    probe = np.array(data.draw(st.lists(
        st.lists(GRID | st.just(np.nan), min_size=dim, max_size=dim),
        min_size=n_probe, max_size=n_probe)))
    assert_same_bits(model.predict_many(probe), forest_predict_reference(model, probe))


def test_negative_zero_leaves_average_to_positive_zero():
    split = {"feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
             "left": [1, -1, -1], "right": [2, -1, -1], "value": [-0.0, -0.0, -0.0]}
    stump = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
             "value": [-0.0]}
    model = ForestModel.from_dict({
        "dim": 2, "n_trees": 3, "max_depth": 1, "min_leaf": 1, "feature_frac": 1.0,
        "seed": 0, "always_include": [], "trees": [split, stump, split],
    })
    probe = np.array([[0.0, 0.5], [0.0, 1.0], [3.0, -1.0]])
    out = model.predict_many(probe)
    assert_same_bits(out, forest_predict_reference(model, probe))
    assert not np.signbit(out).any()


@given(
    data=st.data(),
    dim=st.integers(1, 3),
    n=st.integers(2, 24),
    hyper=st.builds(
        SvmHyper,
        c_reg=st.sampled_from([0.05, 1.0, 10.0, 1e3]),
        gamma=st.sampled_from([0.5, 3.0]),
        tol=st.sampled_from([1e-12, 1e-3, 0.3]),
        max_passes=st.sampled_from([1, 2, 50]),  # 1 and 2 can run out of budget
    ),
    kernel_limit=st.sampled_from([0, learn._KERNEL_CACHE_LIMIT]),  # 0: on-demand rows
)
@settings(max_examples=150, deadline=None)
def test_svm_fit_matches_reference(data, dim, n, hyper, kernel_limit):
    # a coarse grid repeats rows, some with both labels, so pairs stall and
    # the rest of the low set gets ranked
    X = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2).map(lambda v: 0.5 * v), min_size=dim, max_size=dim),
        min_size=n, max_size=n)))
    labels = data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n - 2, max_size=n - 2))
    y = np.array([1.0, -1.0] + labels)  # both classes, often imbalanced
    with mock.patch.object(learn, "_KERNEL_CACHE_LIMIT", kernel_limit):
        assert svm_fit(X, y, hyper).to_dict() == svm_fit_reference(X, y, hyper).to_dict()


# monotone and reversing maps of one integer column: candidate cuts on
# different features often split a node's rows alike, so their errors tie
# exactly in real arithmetic and the order of each cumulative sum decides
COLUMN_MAPS = [
    lambda b: b,
    lambda b: b // 2,
    lambda b: np.minimum(b, 1),
    lambda b: np.maximum(b, 2),
    lambda b: 3 - b,
]


@given(
    data=st.data(),
    n=st.integers(1, 80),
    maps=st.lists(st.sampled_from(COLUMN_MAPS), min_size=1, max_size=4),
    hyper=st.builds(
        ForestHyper,
        n_trees=st.integers(1, 12),
        max_depth=st.integers(1, 5),
        min_leaf=st.integers(1, 5),
        feature_frac=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**16),
    ),
    include_last=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_forest_fit_matches_reference(data, n, maps, hyper, include_last):
    base = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    X = np.stack([f(base) for f in maps], axis=1).astype(np.float64)
    # targets such as 0.1 make the order of a cumulative sum show in its bits
    y = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0, -2.5, 0.1, 0.7, 1 / 3]), min_size=n, max_size=n)))
    if include_last:
        hyper = dataclasses.replace(hyper, always_include=(len(maps) - 1,))
    assert forest_fit(X, y, hyper).to_dict() == forest_fit_reference(X, y, hyper).to_dict()
