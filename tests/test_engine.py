import numpy as np
import pytest

from facegroup.core import (
    Action,
    Album,
    CostModel,
    ground_truth_action,
    ground_truth_partition,
)
from facegroup.engine import (
    PolicyConfig,
    action_flag,
    choose_action,
    episode,
    q_values,
    reward_short,
    reward_total,
    run_episode,
)
from facegroup.features import AlbumContext
from facegroup.learn import ForestHyper, constant_svm, forest_fit
from facegroup.recommend import Strategy

from conftest import make_item


def fixed_svm(dim, value):
    return constant_svm(dim, bias=value)


class TestRewards:
    def test_zero_decision_rewards_zero(self):
        model = fixed_svm(22, 0.0)
        phi = np.zeros(22)
        assert reward_short(model, phi, Action.MERGE) == 0.0
        assert reward_short(model, phi, Action.NOT_MERGE) == 0.0

    def test_sign_rule(self):
        model = fixed_svm(22, 2.0)
        phi = np.zeros(22)
        assert reward_short(model, phi, Action.MERGE) == pytest.approx(2.0)
        assert reward_short(model, phi, Action.NOT_MERGE) == pytest.approx(-2.0)

    def test_rewards_are_antisymmetric_over_actions(self):
        rng = np.random.Generator(np.random.PCG64(0))
        from facegroup.learn import random_svm

        model = random_svm(10, seed=4)
        for _ in range(20):
            phi = rng.uniform(0, 1, size=10)
            assert reward_short(model, phi, Action.MERGE) == pytest.approx(
                -reward_short(model, phi, Action.NOT_MERGE)
            )

    def test_argmax_matches_svm_sign(self):
        from facegroup.learn import random_svm

        model = random_svm(8, seed=5)
        rng = np.random.Generator(np.random.PCG64(1))
        for _ in range(50):
            phi = rng.uniform(0, 1, size=8)
            best = max(
                (Action.MERGE, Action.NOT_MERGE), key=lambda a: reward_short(model, phi, a)
            )
            expected = Action.MERGE if model.decision(phi) > 0 else Action.NOT_MERGE
            if model.decision(phi) != 0:
                assert best is expected

    def test_reward_total(self):
        assert reward_total(1.0, 1.0, beta=0.8) == pytest.approx(1.8)
        assert reward_total(3.0, 9.9, beta=0.0) == 3.0


class TestChooseAction:
    def make_forest(self):
        # Q(merge) > Q(not) iff feature 0 > 0.5
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.uniform(0, 1, size=(400, 3))
        X[:, 2] = np.where(rng.random(400) < 0.5, 1.0, -1.0)
        y = X[:, 2] * np.where(X[:, 0] > 0.5, 1.0, -1.0)
        return forest_fit(X, y, ForestHyper(n_trees=20, always_include=(2,), seed=0))

    def test_greedy_when_epsilon_zero(self):
        forest = self.make_forest()
        assert choose_action(forest, np.array([0.9, 0.5]), 0.0) is Action.MERGE
        assert choose_action(forest, np.array([0.1, 0.5]), 0.0) is Action.NOT_MERGE

    def test_epsilon_one_is_uniform(self):
        forest = self.make_forest()
        rng = np.random.Generator(np.random.PCG64(3))
        actions = [
            choose_action(forest, np.array([0.9, 0.5]), 1.0, rng) for _ in range(300)
        ]
        frac = np.mean([a is Action.MERGE for a in actions])
        assert 0.4 < frac < 0.6

    def test_epsilon_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            choose_action(self.make_forest(), np.array([0.9, 0.5]), 0.5)

    def test_q_value_consistency(self):
        forest = self.make_forest()
        phi = np.array([0.7, 0.3])
        qm, qn = q_values(forest, phi)
        assert forest.predict(np.append(phi, 1.0)) == pytest.approx(qm)
        assert forest.predict(np.append(phi, -1.0)) == pytest.approx(qn)


def two_cluster_album(n_per=3, labeled=True):
    rng = np.random.Generator(np.random.PCG64(7))
    items = []
    for c, center in enumerate((np.eye(8)[0], np.eye(8)[3])):
        for k in range(n_per):
            v = center + 0.05 * rng.normal(size=8)
            items.append(
                make_item(
                    f"c{c}k{k}", v, quality=0.9, label=(f"p{c}" if labeled else None)
                )
            )
    return Album(album_id="two", items=tuple(items))


class TestRunEpisode:
    config = PolicyConfig(tau=0.45)

    def test_single_item_album_yields_empty_trace(self):
        album = Album(album_id="one", items=(make_item("a", [1.0, 0.0]),))
        trace = run_episode(album, fixed_svm(22, 1.0), self.config)
        assert trace.steps == []
        assert trace.final_partition.n_groups == 1

    def test_merge_everything_policy(self):
        album = two_cluster_album(labeled=False)
        trace = run_episode(album, fixed_svm(22, 1.0), self.config)
        # constant-positive margin merges every recommended pair; the two
        # clusters sit at distance 0.5, beyond tau
        assert trace.final_partition.n_groups == 2

    def test_all_pairs_beyond_tau_leaves_singletons(self):
        album = two_cluster_album(labeled=False)
        config = PolicyConfig(tau=0.01)
        trace = run_episode(album, fixed_svm(22, 1.0), config)
        assert trace.final_partition.n_groups == len(album)
        assert trace.steps == []

    def expert_steps(self, album):
        gt = ground_truth_partition(album)

        def expert(state, candidate, phi):
            return ground_truth_action(state, candidate, gt, self.config.costs)

        return gt, list(episode(AlbumContext(album), self.config, expert, gt=gt))

    def test_teacher_forced_executes_expert_actions(self):
        # the expert actor drives the episode to the ground truth
        gt, steps = self.expert_steps(two_cluster_album())
        assert steps[-1].next_state.partition.as_sets() == gt.as_sets()

    def test_long_term_reward_positive_on_expert_merges(self):
        _, steps = self.expert_steps(two_cluster_album())
        for step in steps:
            if step.action is Action.MERGE:
                assert step.r_long == pytest.approx(self.config.costs.c_merge)
            else:
                assert step.r_long == 0.0

    def test_trace_replay_is_identical(self):
        album = two_cluster_album(labeled=False)
        a = run_episode(album, fixed_svm(22, 1.0), self.config)
        b = run_episode(album, fixed_svm(22, 1.0), self.config)
        assert [(s.candidate, s.action) for s in a.steps] == [
            (s.candidate, s.action) for s in b.steps
        ]
        assert np.allclose(
            np.stack([s.phi for s in a.steps]), np.stack([s.phi for s in b.steps])
        )

    def test_episode_bounded_by_pair_count(self):
        album = two_cluster_album(labeled=False)
        n = len(album)
        config = PolicyConfig(tau=1.0)
        trace = run_episode(album, fixed_svm(22, -1.0), config)
        assert len(trace.steps) <= (2 * n - 1) * (2 * n - 2) / 2


def test_action_flag():
    assert action_flag(Action.MERGE) == 1.0
    assert action_flag(Action.NOT_MERGE) == -1.0


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(gamma=1.0)
    with pytest.raises(ValueError):
        PolicyConfig(beta=-0.1)
    with pytest.raises(ValueError, match="unknown"):
        PolicyConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="costs"):
        PolicyConfig.from_dict({"costs": [1, 6]})


def test_policy_config_round_trip():
    cfg = PolicyConfig(
        beta=0.5, gamma=0.0, eta=3, costs=CostModel(1, 2, 3), strategy=Strategy.RANDOM
    )
    assert PolicyConfig.from_dict(cfg.to_dict()) == cfg
