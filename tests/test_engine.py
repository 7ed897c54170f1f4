import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import (
    Action,
    Album,
    CostModel,
    Partition,
    SchemaError,
    config_dict,
    config_from_dict,
    ground_truth_action,
    ground_truth_partition,
)
from facegroup.engine import (
    LOOKAHEAD,
    PolicyConfig,
    QMemo,
    action_flag,
    album_rng,
    choose_action,
    episode,
    reward_short,
    reward_total,
    run_episode,
)
from facegroup.features import AlbumContext
from facegroup.learn import ForestHyper, ForestModel, constant_svm, forest_fit, random_svm
from facegroup.metrics import op_cost
from facegroup.recommend import PairQueue, Strategy
from facegroup.train import _play_episode, expert_trajectory

from conftest import make_item
from oracle import (
    forest_steps_reference,
    ground_truth_action_reference,
    play_episode_reference,
)


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

    def make_memo(self, forest=None):
        """A memo on a queue never synced: it holds no pairs to look ahead
        to, so each miss scores the proposed pair alone."""
        items = (make_item("a", [1.0, 0.0]), make_item("b", [0.0, 1.0]))
        queue = PairQueue(AlbumContext(Album(album_id="ab", items=items)), eta=1, tau=1.0)
        return QMemo(forest or self.make_forest(), queue, use_quality=True)

    def test_greedy_when_epsilon_zero(self):
        memo = self.make_memo()
        assert choose_action(memo, (0, 1), np.array([0.9, 0.5]), 0.0) is Action.MERGE
        assert choose_action(memo, (0, 1), np.array([0.1, 0.5]), 0.0) is Action.NOT_MERGE

    def test_epsilon_one_is_uniform(self):
        memo = self.make_memo()
        rng = np.random.Generator(np.random.PCG64(3))
        actions = [
            choose_action(memo, (0, 1), np.array([0.9, 0.5]), 1.0, rng) for _ in range(300)
        ]
        frac = np.mean([a is Action.MERGE for a in actions])
        assert 0.4 < frac < 0.6

    def test_epsilon_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            choose_action(self.make_memo(), (0, 1), np.array([0.9, 0.5]), 0.5)

    def test_q_value_consistency(self):
        forest = self.make_forest()
        memo = self.make_memo(forest)
        for phi in (np.array([0.7, 0.3]), np.array([0.2, 0.9])):
            two_rows = forest.predict_many(np.stack([np.append(phi, 1.0), np.append(phi, -1.0)]))
            assert memo.values((0, 1), phi) == (two_rows[0], two_rows[1])


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

        steps = list(episode(AlbumContext(album), self.config, expert, gt=gt))
        # the episode's own teacher forcing takes the same steps
        forced = list(episode(AlbumContext(album), self.config, None, gt=gt))
        assert [(s.candidate, s.action, s.expert) for s in steps] == [
            (s.candidate, s.action, s.action) for s in forced
        ]
        return gt, steps

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

    def test_svm_scores_each_step_once(self, monkeypatch):
        from facegroup.learn import SvmModel, random_svm

        calls = []
        decision_many = SvmModel.decision_many

        def counted(model, X):
            calls.append(len(X))
            return decision_many(model, X)

        monkeypatch.setattr(SvmModel, "decision_many", counted)
        model = random_svm(22, seed=4)
        trace = run_episode(two_cluster_album(labeled=False), model, PolicyConfig(tau=1.0))
        assert trace.steps and calls == [1] * len(trace.steps)
        for step in trace.steps:
            margin = decision_many(model, step.phi[None])[0]
            assert step.r_short == action_flag(step.action) * margin

    def test_forest_r_short_is_positive_zero(self):
        rng = np.random.Generator(np.random.PCG64(0))
        forest = forest_fit(rng.random((40, 23)), rng.normal(size=40), ForestHyper(n_trees=3))
        trace = run_episode(two_cluster_album(labeled=False), forest, PolicyConfig(tau=1.0))
        assert Action.NOT_MERGE in {s.action for s in trace.steps}
        assert all(str(s.r_short) == "0.0" for s in trace.steps)  # never -0.0

    def test_episode_bounded_by_pair_count(self):
        album = two_cluster_album(labeled=False)
        n = len(album)
        config = PolicyConfig(tau=1.0)
        trace = run_episode(album, fixed_svm(22, -1.0), config)
        assert len(trace.steps) <= (2 * n - 1) * (2 * n - 2) / 2


def clustered_album(seed, n, labeled):
    """n items around one to three centers, some tight and some loose, so an
    episode meets both close and distant pairs."""
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.normal(size=(int(rng.integers(1, 4)), 6))
    items = []
    for k in range(n):
        c = int(rng.integers(len(centers)))
        v = centers[c] + rng.normal(size=6) * rng.choice([0.05, 0.3, 1.0])
        items.append(make_item(f"i{k}", v, quality=float(rng.uniform(0.1, 1.0)),
                               label=(f"p{c}" if labeled else None)))
    return Album(album_id="memo", items=tuple(items))


def threshold_forest(eta, cut, seed):
    """A small Q forest that favours merging a pair whose first A->B
    distance is below ``cut``, with noise, so actions mix."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = 4 * eta + 2
    X = rng.uniform(0, 1, size=(300, dim + 1))
    X[:, dim] = np.where(rng.random(300) < 0.5, 1.0, -1.0)
    y = X[:, dim] * (cut - X[:, 0]) + 0.05 * rng.normal(size=300)
    hyper = ForestHyper(n_trees=5, max_depth=6, always_include=(dim,), seed=seed)
    return forest_fit(X, y, hyper)


def step_record(candidate, action, phi):
    return candidate, action, phi.tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    eta=st.integers(1, 6),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
    use_quality=st.booleans(),
    cut=st.sampled_from([0.0, 0.15, 0.3, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_q_memo_inference_matches_one_pair_at_a_time(
    seed, n, eta, tau, strategy, use_quality, cut
):
    """Greedy forest inference, whose Q memo scores HC pairs ahead in
    batches, takes the steps (candidate, action, feature bytes) and reaches
    the partition of an actor that scores each proposed pair on its own."""
    album = clustered_album(seed, n, labeled=False)
    forest = threshold_forest(eta, cut, seed)
    config = PolicyConfig(eta=eta, tau=tau, strategy=strategy, use_quality=use_quality)
    trace = run_episode(album, forest, config, rng=album_rng(seed, album.album_id))
    ref = forest_steps_reference(
        AlbumContext(album), forest, config, rng=album_rng(seed, album.album_id)
    )
    assert [step_record(s.candidate, s.action, s.phi) for s in trace.steps] == [
        step_record(s.candidate, s.action, s.phi) for s in ref
    ]
    final = ref[-1].next_state.partition if ref else Partition.from_singletons(n)
    assert trace.final_partition == final


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    eta=st.integers(1, 6),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
    epsilon=st.sampled_from([0.0, 0.3, 1.0]),
    use_pm1=st.booleans(),
    cut=st.sampled_from([0.0, 0.15, 0.3, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_q_memo_play_matches_one_pair_at_a_time(
    seed, n, eta, tau, strategy, epsilon, use_pm1, cut
):
    """Epsilon-greedy play through the Q memo returns the Q rows and rewards
    of play that scores each proposed pair on its own, and leaves the
    generator in the same state: the memo moves no draw."""
    album = clustered_album(seed, n, labeled=True)
    gt = ground_truth_partition(album)
    ctx = AlbumContext(album)
    forest = threshold_forest(eta, cut, seed)
    svm = random_svm(4 * eta + 2, seed=seed % 1000)
    config = PolicyConfig(eta=eta, tau=tau, strategy=strategy)
    played = []
    for play in (_play_episode, play_episode_reference):
        rng = album_rng(seed, album.album_id)
        rows, rewards = play(gt, ctx, forest, svm, config, epsilon, rng, use_pm1)
        played.append((rows.shape, rows.tobytes(), rewards.tobytes(), rng.bit_generator.state))
    assert played[0] == played[1]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    k_steps=st.integers(1, 3),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
    costs=st.sampled_from([CostModel(), CostModel(1.0, 1.0, 1.0), CostModel(3.0, 0.5, 2.0)]),
    merge_rate=st.sampled_from([None, 0.2, 0.7]),
)
@settings(max_examples=60, deadline=None)
def test_carried_plan_matches_one_shot_op_cost(
    seed, n, k_steps, tau, strategy, costs, merge_rate
):
    """The plan an episode carries gives every step the expert action of two
    whole ``op_cost`` plans and the brute-force k-step ``r_long``; with no
    actor (``merge_rate`` None) the episode plays the expert. A coin actor
    draws from its own generator, so the RANDOM recommender's draws stay."""
    album = clustered_album(seed, n, labeled=True)
    gt = ground_truth_partition(album)
    config = PolicyConfig(k_steps=k_steps, tau=tau, strategy=strategy, costs=costs)
    coin = np.random.Generator(np.random.PCG64(seed))
    act = None
    if merge_rate is not None:
        def act(state, candidate, phi):
            return Action.MERGE if coin.random() < merge_rate else Action.NOT_MERGE

    ctx = AlbumContext(album)
    steps = list(episode(ctx, config, act, gt=gt, rng=album_rng(seed, album.album_id)))
    totals = [op_cost(Partition.from_singletons(n), gt, costs).total_cost]
    for step in steps:
        assert step.expert is ground_truth_action_reference(step.state, step.candidate, gt, costs)
        if act is None:
            assert step.action is step.expert
        totals.append(op_cost(step.next_state.partition, gt, costs).total_cost)
        i = len(totals) - 1
        assert step.r_long == totals[max(0, i - k_steps)] - totals[i]

    def reference_expert(state, candidate, phi):
        return ground_truth_action_reference(state, candidate, gt, costs)

    ref = list(episode(ctx, config, reference_expert, rng=album_rng(seed, album.album_id)))
    phis, labels = expert_trajectory(album, gt, config, ctx, album_rng(seed, album.album_id))
    assert labels.tolist() == [action_flag(s.action) for s in ref]
    assert phis.tobytes() == b"".join(s.phi.tobytes() for s in ref)


def test_hc_declines_are_scored_in_batches(monkeypatch):
    """An always-declining forest under HC meets every pair of the album in
    one long run of declines; the memo scores them LOOKAHEAD + 1 at a time."""
    rng = np.random.Generator(np.random.PCG64(0))
    X = rng.uniform(0, 1, size=(100, 23))
    X[:, 22] = np.where(rng.random(100) < 0.5, 1.0, -1.0)
    forest = forest_fit(X, -X[:, 22], ForestHyper(n_trees=3, always_include=(22,)))
    calls = []
    predict_many = ForestModel.predict_many

    def counted(model, rows):
        calls.append(len(rows))
        return predict_many(model, rows)

    monkeypatch.setattr(ForestModel, "predict_many", counted)
    album = two_cluster_album(n_per=5, labeled=False)
    trace = run_episode(album, forest, PolicyConfig(tau=1.0))
    steps = len(trace.steps)
    assert steps == 45 and {s.action for s in trace.steps} == {Action.NOT_MERGE}
    assert len(calls) < steps
    assert len(calls) == -(-steps // (LOOKAHEAD + 1))


def test_action_flag():
    assert action_flag(Action.MERGE) == 1.0
    assert action_flag(Action.NOT_MERGE) == -1.0


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(gamma=1.0)
    with pytest.raises(ValueError):
        PolicyConfig(beta=-0.1)
    with pytest.raises(SchemaError, match="unknown"):
        config_from_dict(PolicyConfig, {"bogus": 1})
    with pytest.raises(ValueError, match="costs"):
        config_from_dict(PolicyConfig, {"costs": [1, 6]})


def test_policy_config_round_trip():
    cfg = PolicyConfig(
        beta=0.5, gamma=0.0, eta=3, costs=CostModel(1, 2, 3), strategy=Strategy.RANDOM
    )
    assert config_from_dict(PolicyConfig, config_dict(cfg)) == cfg
