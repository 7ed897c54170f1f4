import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import (
    NOISE,
    Action,
    Album,
    CostModel,
    FaceItem,
    History,
    Partition,
    State,
    ground_truth_action,
    ground_truth_partition,
    transition,
)

from conftest import make_item


class TestFaceItem:
    def test_rejects_unnormalized_embedding(self):
        with pytest.raises(ValueError, match="norm"):
            FaceItem(item_id="x", embedding=np.array([0.5, 0.0]), quality=0.5)

    def test_rejects_quality_outside_range(self):
        with pytest.raises(ValueError, match="quality"):
            FaceItem(item_id="x", embedding=np.array([1.0, 0.0]), quality=1.5)

    def test_embedding_is_read_only(self):
        item = make_item("x", [1.0, 0.0])
        with pytest.raises(ValueError):
            item.embedding[0] = 0.0


class TestAlbum:
    def test_duplicate_item_ids_rejected(self):
        items = (make_item("x", [1, 0]), make_item("x", [0, 1]))
        with pytest.raises(ValueError, match="duplicate"):
            Album(album_id="a", items=items)

    def test_mixed_dimensions_rejected(self):
        items = (make_item("x", [1, 0]), make_item("y", [0, 1, 0]))
        with pytest.raises(ValueError, match="dimension"):
            Album(album_id="a", items=items)


class TestCostModel:
    def test_defaults_are_one_six_one(self):
        costs = CostModel()
        assert (costs.c_add, costs.c_remove, costs.c_merge) == (1.0, 6.0, 1.0)

    @pytest.mark.parametrize("field", ["c_add", "c_remove", "c_merge"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValueError):
            CostModel(**{field: 0.0})


class TestPartition:
    def test_singletons(self):
        part = Partition.from_singletons(3)
        assert part.n_groups == 3
        assert part.n_items == 3
        assert part.as_sets() == frozenset(
            {frozenset({0}), frozenset({1}), frozenset({2})}
        )

    def test_merge_decreases_group_count_and_assigns_fresh_id(self):
        part = Partition.from_singletons(3)
        merged, new_gid = part.merged(0, 1)
        assert merged.n_groups == part.n_groups - 1
        assert new_gid == 3
        assert merged.members(3) == frozenset({0, 1})
        assert 0 not in merged.group_ids()
        # original untouched
        assert part.n_groups == 3

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_groups([{0, 1}, {1, 2}])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_groups([{0}, set()])

    def test_unknown_group_id(self):
        part = Partition.from_singletons(2)
        with pytest.raises(ValueError, match="unknown group id"):
            part.members(9)


class TestHistory:
    def test_pair_symmetry(self):
        h = History().with_pair(0, 1)
        assert h.contains(0, 1)
        assert h.contains(1, 0)

    def test_duplicate_entry_rejected(self):
        h = History().with_pair(0, 1)
        with pytest.raises(ValueError):
            h.with_pair(1, 0)


class TestTransition:
    def test_merge_example(self):
        state = State.initial(3)
        nxt = transition(state, (0, 1), Action.MERGE)
        assert nxt.partition.as_sets() == frozenset({frozenset({0, 1}), frozenset({2})})
        assert len(nxt.history) == 1
        assert nxt.step == 1

    def test_not_merge_keeps_partition(self):
        state = State.initial(3)
        nxt = transition(state, (0, 1), Action.NOT_MERGE)
        assert nxt.partition.as_sets() == state.partition.as_sets()
        assert len(nxt.history) == 1

    def test_merging_all_singletons_yields_one_group(self):
        n = 6
        state = State.initial(n)
        for _ in range(n - 1):
            gids = sorted(state.partition.group_ids())
            state = transition(state, (gids[0], gids[1]), Action.MERGE)
        assert state.partition.n_groups == 1
        assert state.step == n - 1
        assert state.partition.members(state.partition.group_ids()[0]) == frozenset(range(n))

    def test_input_state_not_mutated(self):
        state = State.initial(3)
        transition(state, (0, 1), Action.MERGE)
        assert state.partition.n_groups == 3
        assert len(state.history) == 0

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown group"):
            transition(State.initial(3), (0, 7), Action.MERGE)

    def test_duplicate_candidate_rejected(self):
        state = transition(State.initial(3), (0, 1), Action.NOT_MERGE)
        with pytest.raises(ValueError, match="already"):
            transition(state, (0, 1), Action.MERGE)

    def test_repeat_allowed_after_composition_changes(self):
        # declining (a, b) then merging b elsewhere creates a group with a
        # new id, so a can be recommended against it
        state = State.initial(3)
        state = transition(state, (0, 1), Action.NOT_MERGE)
        state = transition(state, (1, 2), Action.MERGE)
        nxt = transition(state, (0, 3), Action.MERGE)
        assert nxt.partition.as_sets() == frozenset({frozenset({0, 1, 2})})

    def test_deterministic(self):
        a = transition(State.initial(4), (1, 2), Action.MERGE)
        b = transition(State.initial(4), (1, 2), Action.MERGE)
        assert a.partition.as_sets() == b.partition.as_sets()
        assert a.history == b.history


@given(
    n=st.integers(min_value=2, max_value=8),
    merges=st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_items_conserved_across_transitions(n, merges):
    state = State.initial(n)
    expected = frozenset(range(n))
    seen_ids = set(state.partition.group_ids())
    for a, b in merges:
        gids = sorted(state.partition.group_ids())
        if len(gids) < 2:
            break
        cand = (gids[a % len(gids)], gids[b % len(gids)])
        if cand[0] == cand[1]:
            continue
        if state.history.contains(*cand):
            continue
        state = transition(state, cand, Action.MERGE)
        new_ids = set(state.partition.group_ids()) - seen_ids
        assert all(g not in seen_ids for g in new_ids)  # ids never reused
        seen_ids |= new_ids
        assert state.partition.item_indices() == expected


@given(
    n=st.integers(min_value=2, max_value=8),
    moves=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100), st.booleans()), max_size=20
    ),
)
@settings(max_examples=100, deadline=None)
def test_history_id_key_matches_member_sets(n, moves):
    """An id pair is in the history exactly when the pair of member sets it
    names was recommended before: ids are never reused and a group's
    members never change under its id."""
    state = State.initial(n)
    recommended: set[frozenset[frozenset[int]]] = set()  # reference, keyed by content

    def by_content(a, b):
        return frozenset({state.partition.members(a), state.partition.members(b)})

    for a, b, merge in moves:
        gids = sorted(state.partition.group_ids())
        if len(gids) < 2:
            break
        for i, x in enumerate(gids):
            for y in gids[i + 1 :]:
                assert state.history.contains(x, y) == (by_content(x, y) in recommended)
        cand = (gids[a % len(gids)], gids[b % len(gids)])
        if cand[0] == cand[1]:
            continue
        if by_content(*cand) in recommended:
            with pytest.raises(ValueError, match="already"):
                transition(state, cand, Action.MERGE)
            continue
        recommended.add(by_content(*cand))
        state = transition(state, cand, Action.MERGE if merge else Action.NOT_MERGE)


class TestGroundTruthPartition:
    def test_noise_items_become_singletons(self):
        album = Album(
            album_id="a",
            items=(
                make_item("x", [1, 0, 0], label="p1"),
                make_item("y", [0.99, 0.1, 0], label="p1"),
                make_item("n1", [0, 1, 0], label=NOISE),
                make_item("n2", [0, 0, 1], label=NOISE),
            ),
        )
        gt = ground_truth_partition(album)
        assert gt.as_sets() == frozenset(
            {frozenset({0, 1}), frozenset({2}), frozenset({3})}
        )

    def test_unlabeled_item_rejected(self):
        album = Album(album_id="a", items=(make_item("x", [1, 0]),))
        with pytest.raises(ValueError, match="label"):
            ground_truth_partition(album)


class TestGroundTruthAction:
    costs = CostModel()

    def gt_two_pairs(self):
        # items 0,1 belong together; 2,3 belong together
        return Partition.from_groups([{0, 1}, {2, 3}])

    def test_same_identity_singletons_merge(self):
        state = State.initial(4)
        assert ground_truth_action(state, (0, 1), self.gt_two_pairs(), self.costs) is Action.MERGE

    def test_different_identity_singletons_do_not_merge(self):
        state = State.initial(4)
        assert (
            ground_truth_action(state, (0, 2), self.gt_two_pairs(), self.costs)
            is Action.NOT_MERGE
        )

    def test_pure_group_vs_noise_group_not_merged(self):
        # 0,1 same identity; 2,3 noise singletons in gt
        gt = Partition.from_groups([{0, 1}, {2}, {3}])
        state = State.initial(4)
        state = transition(state, (0, 1), Action.MERGE)
        state = transition(state, (2, 3), Action.MERGE)
        gids = sorted(state.partition.group_ids())[-2:]
        assert ground_truth_action(state, tuple(gids), gt, self.costs) is Action.NOT_MERGE

    def test_candidate_order_irrelevant(self):
        state = State.initial(4)
        gt = self.gt_two_pairs()
        assert ground_truth_action(state, (0, 1), gt, self.costs) == ground_truth_action(
            state, (1, 0), gt, self.costs
        )
        assert ground_truth_action(state, (0, 2), gt, self.costs) == ground_truth_action(
            state, (2, 0), gt, self.costs
        )

    def test_mismatched_item_set_rejected(self):
        with pytest.raises(ValueError, match="item set"):
            ground_truth_action(
                State.initial(3), (0, 1), Partition.from_singletons(4), self.costs
            )
