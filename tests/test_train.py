import numpy as np
import pytest

from facegroup.bench import SimConfig, evaluate, simulate
from facegroup.core import Action, Album, ground_truth_partition
from facegroup.engine import PolicyConfig
from facegroup.learn import SvmHyper
from facegroup.train import (
    ExperienceBuffer,
    Experience,
    MistakeSet,
    TrainConfig,
    expert_trajectory,
    irl_train,
    q_train,
)

from conftest import make_item

SVM_HYPER = SvmHyper(c_reg=10.0, gamma=3.0)


def easy_sim(n_albums=3, seed=21):
    """Well-separated identities, no profiles or noise."""
    return simulate(
        SimConfig(
            n_albums=n_albums,
            identities=(3, 4),
            items_per_identity=(4, 6),
            profile_fraction=0.0,
            noise_fraction=0.0,
            frontal_spread=0.2,
            seed=seed,
        )
    )


class TestMistakeSet:
    def test_accumulates(self):
        ms = MistakeSet(dim=3)
        ms.add(np.zeros(3), Action.MERGE)
        ms.add(np.ones(3), Action.NOT_MERGE)
        assert len(ms) == 2
        X, y = ms.arrays()
        assert X.shape == (2, 3)
        assert y.tolist() == [1.0, -1.0]
        assert ms.has_both_classes()


class TestExperienceBuffer:
    def test_fifo_eviction(self):
        buf = ExperienceBuffer(capacity=2)
        for k in range(3):
            buf.add(Experience(np.array([k]), Action.MERGE, 0.0, None, True))
        assert len(buf) == 2
        assert [int(e.phi[0]) for e in buf.items()] == [1, 2]


class TestExpertTrajectory:
    def test_trajectory_matches_ground_truth_labels(self):
        album = easy_sim(n_albums=1)[0]
        gt = ground_truth_partition(album)
        config = PolicyConfig()
        phis, labels = expert_trajectory(album, gt, config)
        assert phis.shape[0] == labels.shape[0] > 0
        assert set(np.unique(labels)) <= {-1.0, 1.0}
        assert phis.shape[1] == 22

    def test_trajectory_is_model_free_and_deterministic(self):
        album = easy_sim(n_albums=1)[0]
        gt = ground_truth_partition(album)
        config = PolicyConfig()
        a_phis, a_labels = expert_trajectory(album, gt, config)
        b_phis, b_labels = expert_trajectory(album, gt, config)
        assert np.array_equal(a_phis, b_phis)
        assert np.array_equal(a_labels, b_labels)


class TestIrlTrain:
    def test_rejects_empty_album_set(self):
        with pytest.raises(ValueError):
            irl_train([], PolicyConfig())

    def test_rejects_unlabeled_album(self):
        album = Album(album_id="u", items=(make_item("a", [1, 0]), make_item("b", [0, 1])))
        with pytest.raises(ValueError, match="label"):
            irl_train([album], PolicyConfig())

    def test_easy_albums_converge_quickly(self):
        albums = easy_sim()
        result = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        assert result.converged
        assert result.epochs_run <= 3
        assert result.mistakes_per_epoch[-1] == 0

    def test_first_epoch_makes_mistakes_on_nontrivial_data(self):
        albums = simulate(SimConfig(n_albums=2, seed=31))  # profiles and noise present
        result = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        assert result.mistakes_per_epoch[0] > 0

    def test_single_identity_album_merges_everything(self):
        albums = simulate(
            SimConfig(
                n_albums=1,
                identities=(1, 1),
                items_per_identity=(6, 6),
                profile_fraction=0.0,
                noise_fraction=0.0,
                seed=5,
            )
        )
        result = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        report = evaluate(albums, result.model, PolicyConfig())
        assert report["per_album"][0]["f1"] == pytest.approx(1.0)

    def test_reproducible_model(self):
        albums = easy_sim()
        a = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        b = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        assert a.model.to_dict() == b.model.to_dict()

    def test_mistake_set_monotone(self):
        albums = easy_sim()
        result = irl_train(albums, PolicyConfig(), SVM_HYPER, TrainConfig(seed=3))
        assert result.mistake_set_size == sum(result.mistakes_per_epoch)


class TestQTrain:
    def setup_method(self):
        self.albums = easy_sim()
        self.config = PolicyConfig(epsilon_decay_episodes=8)
        irl = irl_train(self.albums, self.config, SVM_HYPER, TrainConfig(seed=3))
        self.svm = irl.model

    def test_rejects_empty_album_set(self):
        with pytest.raises(ValueError):
            q_train([], self.svm, self.config)

    def test_trains_and_groups(self):
        result = q_train(
            self.albums, self.svm, self.config, train_cfg=TrainConfig(seed=3, refit_every=4)
        )
        assert result.episodes_run == 8
        assert result.n_experiences > 0
        report = evaluate(self.albums, result.model, self.config)
        assert report["macro"]["f1"] > 0.9

    def test_step_cost_delta_bounded_by_reassignment_cost(self):
        # |R_long| for one step can never exceed fully reassigning the album
        from facegroup.core import CostModel, Partition
        from facegroup.engine import episode
        from facegroup.features import AlbumContext
        from facegroup.recommend import Strategy

        costs = CostModel()
        rng = np.random.Generator(np.random.PCG64(9))
        n = 8
        album = Album(
            album_id="r", items=tuple(make_item(f"i{k}", rng.normal(size=6)) for k in range(n))
        )
        gt = Partition.from_groups([{0, 1, 2}, {3, 4}, {5, 6, 7}])
        config = PolicyConfig(tau=1.0, strategy=Strategy.RANDOM, costs=costs)
        bound = n * (costs.c_remove + costs.c_add)

        def coin(state, candidate, phi):
            return Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE

        steps = list(episode(AlbumContext(album), config, coin, gt=gt, rng=rng))
        assert steps
        for step in steps:
            assert np.isfinite(step.r_long)
            assert abs(step.r_long) <= bound

    def test_reproducible(self):
        a = q_train(self.albums, self.svm, self.config, train_cfg=TrainConfig(seed=3))
        b = q_train(self.albums, self.svm, self.config, train_cfg=TrainConfig(seed=3))
        assert a.model.to_dict() == b.model.to_dict()
