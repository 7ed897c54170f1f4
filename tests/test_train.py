import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup import train
from facegroup.bench import SimConfig, evaluate, simulate
from facegroup.core import Action, Album, ground_truth_partition
from facegroup.engine import PolicyConfig
from facegroup.learn import ForestHyper, SvmHyper, constant_svm, random_svm
from facegroup.train import TrainConfig, expert_trajectory, irl_train, q_train

from conftest import make_item
from oracle import q_train_reference

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

    def test_trains_and_groups(self, monkeypatch):
        played = []
        play = train._play_episode
        monkeypatch.setattr(train, "_play_episode", lambda *a: played.append(a) or play(*a))
        result = q_train(
            self.albums, self.svm, self.config, train_cfg=TrainConfig(seed=3, refit_every=4)
        )
        assert len(played) == self.config.epsilon_decay_episodes == 8
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


def test_q_train_takes_the_demonstrations_of_irl_train():
    # facegroup train --stage both hands stage one's expert trajectories on
    albums = easy_sim()
    config = PolicyConfig(epsilon_decay_episodes=4)
    hyper, train_cfg = ForestHyper(n_trees=5, seed=3), TrainConfig(seed=3, refit_every=2)
    irl = irl_train(albums, config, SVM_HYPER, train_cfg)
    replayed = q_train(albums, irl.model, config, hyper, train_cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "expert_trajectory", None)  # a replay would fail
        handed = q_train(albums, irl.model, config, hyper, train_cfg,
                         demonstrations=irl.demonstrations)
    assert handed.model.to_dict() == replayed.model.to_dict()
    assert sorted(irl.demonstrations) == sorted(a.album_id for a in albums)


@functools.cache
def trained_in_order(order: tuple[int, ...]) -> tuple[dict, dict]:
    """Both stages' models, trained on easy_sim()'s albums in ``order``."""
    albums = [easy_sim()[i] for i in order]
    config = PolicyConfig(epsilon_decay_episodes=6)
    irl = irl_train(albums, config, SVM_HYPER, TrainConfig(seed=3))
    q = q_train(albums, irl.model, config, ForestHyper(n_trees=5, seed=3),
                TrainConfig(seed=3, refit_every=3))
    return irl.model.to_dict(), q.model.to_dict()


@settings(max_examples=6, deadline=None)
@given(st.permutations(range(3)))
def test_training_does_not_depend_on_album_order(order):
    assert trained_in_order(tuple(order)) == trained_in_order((0, 1, 2))


def test_duplicate_album_ids_are_rejected():
    first, second = easy_sim(n_albums=2)
    twin = Album(album_id=first.album_id, items=second.items)
    with pytest.raises(ValueError, match="unique"):
        irl_train([first, twin], PolicyConfig(), SVM_HYPER)
    with pytest.raises(ValueError, match="unique"):
        q_train([first, twin], constant_svm(22, 1.0), PolicyConfig())


@pytest.mark.parametrize("capacity", ["one", "episode", "default"])
@pytest.mark.parametrize("reward_mode", ["svm", "pm1"])
@pytest.mark.parametrize("gamma", [0.0, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_q_train_matches_experience_replay(seed, gamma, reward_mode, capacity):
    """The replay memory of rows refits the forest an ``Experience`` deque
    of the same capacity refits, byte for byte, and keeps as many rows:
    a capacity of one row, of one expert episode's length, and the default."""
    albums = easy_sim(n_albums=2, seed=seed)
    gts = [ground_truth_partition(a) for a in albums]
    config = PolicyConfig(epsilon_decay_episodes=5, gamma=gamma)
    cap = {
        "one": 1,
        "episode": len(expert_trajectory(albums[0], gts[0], config)[1]),
        "default": train.BUFFER_CAPACITY,
    }[capacity]
    svm = random_svm(22, seed=seed)
    hyper = ForestHyper(n_trees=3, max_depth=6, always_include=(22,), seed=seed)
    train_cfg = TrainConfig(seed=seed, refit_every=2, reward_mode=reward_mode)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "BUFFER_CAPACITY", cap)
        result = q_train(albums, svm, config, hyper, train_cfg)
    forest, kept = q_train_reference(albums, gts, svm, config, hyper, train_cfg, cap)
    assert result.model.to_dict() == forest.to_dict()
    assert result.n_experiences == kept
