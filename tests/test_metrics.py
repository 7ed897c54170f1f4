import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import Action, Album, CostModel, Partition
from facegroup.engine import PolicyConfig, episode
from facegroup.features import AlbumContext
from facegroup.metrics import (
    CapacityError,
    bcubed,
    normalized_op,
    op_cost,
    op_cost_oracle,
)

from conftest import make_item

COSTS = CostModel()


def bcubed_bruteforce(pred: Partition, gt: Partition):
    """Independent O(n^2) pairwise implementation used as the test oracle."""
    items = sorted(pred.item_indices())
    pred_of = {i: gid for gid, members in pred.groups for i in members}
    gt_of = {i: gid for gid, members in gt.groups for i in members}
    p_vals, r_vals = [], []
    for i in items:
        same_pred = [j for j in items if pred_of[j] == pred_of[i]]
        same_gt = [j for j in items if gt_of[j] == gt_of[i]]
        both = sum(1 for j in same_pred if gt_of[j] == gt_of[i])
        p_vals.append(both / len(same_pred))
        r_vals.append(both / len(same_gt))
    p, r = np.mean(p_vals), np.mean(r_vals)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def random_partition_pair(rng, max_items=8, max_gt_groups=4):
    n = int(rng.integers(2, max_items + 1))
    gt_assign = rng.integers(0, int(rng.integers(1, max_gt_groups + 1)), size=n)
    h_assign = rng.integers(0, int(rng.integers(1, n + 1)), size=n)

    def to_partition(assign):
        sets = {}
        for i, g in enumerate(assign):
            sets.setdefault(int(g), set()).add(i)
        return Partition.from_groups(sorted(sets.values(), key=min))

    return to_partition(h_assign), to_partition(gt_assign)


class TestOpCost:
    def test_identical_partitions_cost_zero(self):
        p = Partition.from_groups([{0, 1}, {2}])
        res = op_cost(p, p, COSTS)
        assert res.total_cost == 0
        assert res.counts() == (0, 0, 0)

    def test_singletons_to_one_group_is_merges_only(self):
        h = Partition.from_singletons(5)
        g = Partition.from_groups([set(range(5))])
        res = op_cost(h, g, COSTS)
        assert res.n_merges == 4
        assert res.counts() == (0, 0, 4)
        assert res.total_cost == 4
        assert op_cost_oracle(h, g, COSTS) == 4

    def test_split_pair_is_one_removal(self):
        h = Partition.from_groups([{0, 1}, {2}])
        g = Partition.from_singletons(3)
        res = op_cost(h, g, COSTS)
        assert res.counts() == (0, 1, 0)
        assert res.total_cost == 6
        assert op_cost_oracle(h, g, COSTS) == 6

    def test_misplaced_item_costs_remove_plus_add(self):
        # one item sits in the wrong group: remove (6) then add (1)
        h = Partition.from_groups([{0, 1, 2}, {3}])
        g = Partition.from_groups([{0, 1}, {2, 3}])
        res = op_cost(h, g, COSTS)
        assert res.total_cost == 7
        assert op_cost_oracle(h, g, COSTS) == 7

    def test_all_noise_group_dissolves(self):
        h = Partition.from_groups([{0, 1, 2}])
        g = Partition.from_singletons(3)
        res = op_cost(h, g, COSTS)
        assert res.assignment[0] is None
        assert res.n_removes == 2

    def test_invariant_total_matches_counts(self):
        rng = np.random.Generator(np.random.PCG64(3))
        costs = CostModel(c_add=1.5, c_remove=4.0, c_merge=2.5)
        for _ in range(50):
            h, g = random_partition_pair(rng)
            res = op_cost(h, g, costs)
            expected = (
                costs.c_add * res.n_adds
                + costs.c_remove * res.n_removes
                + costs.c_merge * res.n_merges
            )
            assert res.total_cost == pytest.approx(expected)

    def test_zero_iff_equal(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(200):
            h, g = random_partition_pair(rng)
            cost = op_cost(h, g, COSTS).total_cost
            assert (cost == 0) == (h.as_sets() == g.as_sets())

    def test_permutation_invariance(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(30):
            h, g = random_partition_pair(rng)
            n = h.n_items
            perm = rng.permutation(n)

            def relabel(p):
                return Partition.from_groups(
                    sorted(({int(perm[i]) for i in m} for _, m in p.groups), key=min)
                )

            assert op_cost(h, g, COSTS).total_cost == pytest.approx(
                op_cost(relabel(h), relabel(g), COSTS).total_cost
            )

    def test_mismatched_item_sets_rejected(self):
        with pytest.raises(ValueError, match="item set"):
            op_cost(Partition.from_singletons(3), Partition.from_singletons(4), COSTS)


class TestOracle:
    def test_size_cap(self):
        p = Partition.from_singletons(11)
        with pytest.raises(CapacityError):
            op_cost_oracle(p, p, COSTS)

    def test_estimator_upper_bounds_oracle(self):
        rng = np.random.Generator(np.random.PCG64(7))
        equal = 0
        total = 120
        for _ in range(total):
            h, g = random_partition_pair(rng)
            est = op_cost(h, g, COSTS).total_cost
            exact = op_cost_oracle(h, g, COSTS)
            assert est >= exact - 1e-9
            equal += abs(est - exact) < 1e-9
        assert equal / total >= 0.95

    def test_estimator_upper_bounds_oracle_under_other_costs(self):
        rng = np.random.Generator(np.random.PCG64(8))
        costs = CostModel(c_add=2.0, c_remove=3.0, c_merge=5.0)
        for _ in range(60):
            h, g = random_partition_pair(rng, max_items=6)
            assert op_cost(h, g, costs).total_cost >= op_cost_oracle(h, g, costs) - 1e-9


def near(axis, jitter=0.0, dim=4):
    v = np.zeros(dim)
    v[axis] = 1.0
    v[(axis + 1) % dim] = jitter
    return v


def ctx_of(*vectors):
    items = tuple(make_item(f"i{k}", v) for k, v in enumerate(vectors))
    return AlbumContext(Album(album_id="a", items=items))


def always(action):
    return lambda state, candidate, phi: action


class TestDeltaOp:
    """The k-step op-cost delta is the episode kernel's ``r_long``."""

    gt = Partition.from_groups([{0, 1}, {2, 3}])
    # items 0, 1 near one axis and 2, 3 near another, a quarter turn apart
    ctx = ctx_of(near(0), near(0, 0.05), near(1), near(1, 0.05))

    def test_no_change_is_zero(self):
        steps = list(episode(self.ctx, PolicyConfig(), always(Action.NOT_MERGE), gt=self.gt))
        assert steps and all(step.r_long == 0 for step in steps)

    def test_correct_merge_gains_merge_cost(self):
        steps = list(episode(self.ctx, PolicyConfig(), always(Action.MERGE), gt=self.gt))
        assert [step.candidate for step in steps] == [(0, 1), (2, 3)]
        assert all(step.r_long == pytest.approx(COSTS.c_merge) for step in steps)

    def test_wrong_merge_is_strictly_negative(self):
        # the recommender's nearest pair, (0, 2), spans two target groups
        ctx = ctx_of(near(0), near(1), near(0, 0.05), near(1, 0.1))
        step = next(episode(ctx, PolicyConfig(), always(Action.MERGE), gt=self.gt))
        assert step.candidate == (0, 2)
        assert step.r_long < 0

    def test_k_step_window_matches_bruteforce(self):
        gt = Partition.from_groups([{0, 1, 2}, {3, 4}, {5}, {6}])
        config = PolicyConfig(k_steps=3, tau=1.0)
        for seed in range(5):
            rng = np.random.Generator(np.random.PCG64(seed))
            ctx = ctx_of(*rng.normal(size=(7, 5)))

            def coin(state, candidate, phi):
                return Action.MERGE if rng.random() < 0.3 else Action.NOT_MERGE

            partitions = []
            r_longs = []
            for step in episode(ctx, config, coin, gt=gt):
                if not partitions:
                    partitions.append(step.state.partition)
                partitions.append(step.next_state.partition)
                r_longs.append(step.r_long)
            assert len(r_longs) > 3
            for i, r_long in enumerate(r_longs, start=1):
                # the window reaches back 3 steps, or to the initial partition
                back = op_cost(partitions[max(0, i - 3)], gt, COSTS).total_cost
                assert r_long == back - op_cost(partitions[i], gt, COSTS).total_cost


class TestBcubed:
    def test_perfect_prediction(self):
        p = Partition.from_groups([{0, 1}, {2, 3}])
        scores = bcubed(p, p)
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_worked_example(self):
        # items {a,b,c,d}: gt {a,b},{c,d}; pred {a,b,c},{d}
        gt = Partition.from_groups([{0, 1}, {2, 3}])
        pred = Partition.from_groups([{0, 1, 2}, {3}])
        scores = bcubed(pred, gt)
        assert scores.precision == pytest.approx(2 / 3, abs=1e-15)
        assert scores.recall == pytest.approx(3 / 4, abs=1e-15)
        assert scores.f1 == pytest.approx(12 / 17, abs=1e-15)

    def test_singleton_prediction_has_perfect_precision(self):
        n = 6
        pred = Partition.from_singletons(n)
        gt = Partition.from_groups([set(range(n))])
        scores = bcubed(pred, gt)
        assert scores.precision == 1.0
        assert scores.recall == pytest.approx(1 / n)

    def test_single_cluster_prediction_has_perfect_recall(self):
        n = 6
        pred = Partition.from_groups([set(range(n))])
        gt = Partition.from_groups([{0, 1, 2}, {3, 4, 5}])
        assert bcubed(pred, gt).recall == 1.0

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(100):
            pred, gt = random_partition_pair(rng, max_items=12, max_gt_groups=5)
            scores = bcubed(pred, gt)
            p, r, f1 = bcubed_bruteforce(pred, gt)
            assert scores.precision == pytest.approx(p, abs=1e-12)
            assert scores.recall == pytest.approx(r, abs=1e-12)
            assert scores.f1 == pytest.approx(f1, abs=1e-12)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=20, deadline=None)
def test_normalized_op_scales_by_item_count(n_items):
    h = Partition.from_singletons(n_items)
    g = Partition.from_groups([set(range(n_items))])
    expected = (n_items - 1) * COSTS.c_merge / n_items
    assert normalized_op(h, g, COSTS, n_items) == pytest.approx(expected)


def test_normalized_op_rejects_zero_items():
    p = Partition.from_singletons(2)
    with pytest.raises(ValueError):
        normalized_op(p, p, COSTS, 0)
