import numpy as np
import pytest

from facegroup.learn import (
    ForestHyper,
    ForestModel,
    SvmHyper,
    SvmModel,
    forest_fit,
    random_svm,
    svm_fit,
)


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
        a = svm_fit(X, y, SvmHyper(seed=9))
        b = svm_fit(X, y, SvmHyper(seed=9))
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
        assert model.predict(np.array([9.9, -4.0])) == pytest.approx(3.0)

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
        assert all(t.feature.max() == -1 for t in stumps.trees)
        grown = forest_fit(X, y, ForestHyper(n_trees=5, min_leaf=1))
        assert any(t.feature.max() >= 0 for t in grown.trees)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            forest_fit(np.empty((0, 3)), np.empty(0))

    def test_dimension_mismatch_on_predict(self):
        model = forest_fit(np.zeros((4, 3)), np.arange(4.0), ForestHyper(n_trees=2))
        with pytest.raises(ValueError, match="dimension"):
            model.predict(np.zeros(5))

    def test_reproducible_and_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(6))
        X = rng.normal(size=(80, 6))
        y = X[:, 0] * 2 + rng.normal(size=80) * 0.1
        a = forest_fit(X, y, ForestHyper(seed=11))
        b = forest_fit(X, y, ForestHyper(seed=11))
        assert a.to_dict() == b.to_dict()
        clone = ForestModel.from_dict(a.to_dict())
        probe = rng.normal(size=(50, 6))
        assert np.allclose(a.predict_many(probe), clone.predict_many(probe))

    def test_twin_mode_roots_on_flag(self):
        rng = np.random.Generator(np.random.PCG64(8))
        X = rng.normal(size=(150, 6))
        X[:, 5] = np.where(rng.random(150) < 0.5, 1.0, -1.0)
        y = X[:, 5] * (X[:, 0] > 0)
        model = forest_fit(
            X, y, ForestHyper(n_trees=6, always_include=(5,), twin=True)
        )
        for tree in model.trees:
            assert tree.feature[0] == 5 and tree.threshold[0] == 0.0
        clone = ForestModel.from_dict(model.to_dict())
        assert clone.hyper.twin

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
