import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import Action, Album, State, transition
from facegroup.features import (
    AlbumContext,
    distance_matrix,
    extract_features,
    feature_dim,
    pair_distance,
    quality_block,
)

from conftest import make_item, unit


def reference_features(X, qualities, idx_a, idx_b, eta):
    """Brute-force feature vector: per-member arccos and np.median, no
    cached distance matrix."""

    def dist(i, j):
        return math.acos(min(1.0, max(-1.0, float(X[i] @ X[j])))) / math.pi

    def directed(src, dst):
        med = sorted(float(np.median([dist(i, j) for j in dst])) for i in src)
        return (med + [med[-1]] * eta)[:eta]  # padded with the largest

    def consistency(group):
        if len(group) < 2:
            return 0.0
        return float(np.median([dist(i, j) for i, j in itertools.combinations(group, 2)]))

    def top_qualities(group):
        q = sorted((qualities[i] for i in group), reverse=True)
        return (q + [q[-1]] * eta)[:eta]  # padded with the minimum

    return np.array(
        directed(idx_a, idx_b)
        + directed(idx_b, idx_a)
        + [consistency(idx_a), consistency(idx_b)]
        + top_qualities(idx_a)
        + top_qualities(idx_b)
    )


def album_of(vectors, qualities=None):
    qualities = qualities or [0.9] * len(vectors)
    items = tuple(
        make_item(f"i{k}", v, quality=q) for k, (v, q) in enumerate(zip(vectors, qualities))
    )
    return AlbumContext(Album(album_id="a", items=items))


def grouped(n, *groups):
    """State whose partition holds the given item groups (as merges of
    singletons) and singletons elsewhere; returns it and the new group ids."""
    state = State.initial(n)
    gids = []
    for members in groups:
        gid = members[0]
        for item in members[1:]:
            state = transition(state, (gid, item), Action.MERGE)
            gid = state.partition.next_group_id - 1
        gids.append(gid)
    return state, gids


def singleton_distance(x, y):
    """Angular distance of two items through the cached path: with singleton
    groups every block value is the one item-item distance."""
    ctx = album_of([x, y])
    return pair_distance(ctx, [0], [1], eta=3)


def test_angular_distance_identical_vectors():
    x = unit([1.0, 2.0, 3.0])
    assert singleton_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_angular_distance_antipodal():
    x = unit([0.3, -0.7, 0.1])
    assert singleton_distance(x, -x) == pytest.approx(1.0)


def test_angular_distance_orthogonal():
    assert singleton_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_angular_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        distance_matrix(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))


@given(st.lists(st.floats(-1, 1), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_angular_distance_range(values):
    v = np.asarray(values)
    if np.linalg.norm(v) < 1e-6 or np.linalg.norm(np.roll(v, 1) + 0.1) < 1e-6:
        return
    d = singleton_distance(unit(v), unit(np.roll(v, 1) + 0.1))
    assert 0.0 <= d <= 1.0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    eta=st.integers(1, 6),
    use_quality=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_cached_features_match_bruteforce(seed, n, eta, use_quality):
    rng = np.random.Generator(np.random.PCG64(seed))
    ctx = album_of(list(rng.normal(size=(n, 8))), list(rng.uniform(0.05, 0.95, size=n)))
    state = State.initial(n)
    for _ in range(int(rng.integers(0, n))):
        gids = sorted(state.partition.group_ids())
        a, b = rng.choice(len(gids), size=2, replace=False)
        state = transition(state, (gids[int(a)], gids[int(b)]), Action.MERGE)
    gids = sorted(state.partition.group_ids())
    if len(gids) < 2:
        return
    for gid_a, gid_b in itertools.permutations(gids, 2):
        idx_a = sorted(state.partition.members(gid_a))
        idx_b = sorted(state.partition.members(gid_b))
        ref = reference_features(ctx.X, ctx.qualities, idx_a, idx_b, eta)
        if not use_quality:
            ref[2 * eta + 2 :] = 0.0
        phi = extract_features(state, (gid_a, gid_b), ctx, eta, use_quality)
        assert phi.shape == ref.shape
        assert np.max(np.abs(phi - ref)) <= 1e-12
        assert abs(pair_distance(ctx, idx_a, idx_b, eta) - ref[: 2 * eta].mean()) <= 1e-12


def on_circle(*angles):
    """Unit vectors in the plane at the given angles (fractions of pi)."""
    return [[math.cos(a * math.pi), math.sin(a * math.pi)] for a in angles]


class TestMedianDistance:
    # the first A->B value for a singleton A is its median distance to B

    def test_singleton_group_with_itself(self):
        x = unit([1.0, 0.0, 0.0])
        phi = extract_features(State.initial(2), (0, 1), album_of([x, x]), eta=1)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)

    def test_odd_median(self):
        # three group members at angular distances 0.1, 0.3, 0.9 from x
        ctx = album_of(on_circle(0.0, 0.1, 0.3, 0.9))
        state, (gid,) = grouped(4, [1, 2, 3])
        assert extract_features(state, (0, gid), ctx, eta=1)[0] == pytest.approx(0.3)

    def test_even_median_averages_central_values(self):
        ctx = album_of(on_circle(0.0, 0.1, 0.3))
        state, (gid,) = grouped(3, [1, 2])
        assert extract_features(state, (0, gid), ctx, eta=1)[0] == pytest.approx(0.2)


class TestSimilarityBlock:
    def test_identical_singletons_all_zero(self):
        x = unit([1.0, 1.0, 0.0])
        phi = extract_features(State.initial(2), (0, 1), album_of([x, x]), eta=5)
        # arccos is ill-conditioned at 1, so "zero" means ~sqrt(eps)
        assert np.allclose(phi[:10], 0.0, atol=1e-7)

    def test_small_group_padded_with_largest(self):
        rng = np.random.Generator(np.random.PCG64(0))
        ctx = album_of(list(rng.normal(size=(5, 4))))
        state, (gid_a, gid_b) = grouped(5, [0, 1, 2], [3, 4])
        ab = extract_features(state, (gid_a, gid_b), ctx, eta=5)[:5]
        assert np.all(np.diff(ab[:3]) >= 0)  # ascending
        assert ab[3] == ab[2] and ab[4] == ab[2]  # padded with the largest computed

    def test_blocks_are_asymmetric(self):
        # 1-vs-3: medians from the singleton side differ from the group side
        rng = np.random.Generator(np.random.PCG64(1))
        ctx = album_of(list(rng.normal(size=(4, 6))))
        state, (gid,) = grouped(4, [1, 2, 3])
        phi = extract_features(state, (0, gid), ctx, eta=2)
        assert not np.allclose(phi[:2], phi[2:4])


class TestConsistency:
    # consistency(A) sits at index 2 * eta of the feature vector

    def test_singleton_is_zero(self):
        phi = extract_features(State.initial(2), (0, 1), album_of([[1.0, 0.0], [0.0, 1.0]]), eta=1)
        assert phi[2] == 0.0

    def test_identical_pair_is_zero(self):
        x = unit([1.0, 2.0])
        state, (gid,) = grouped(3, [0, 1])
        phi = extract_features(state, (gid, 2), album_of([x, x, [0.0, 1.0]]), eta=1)
        assert phi[2] == pytest.approx(0.0, abs=1e-7)

    def test_three_orthogonal_embeddings(self):
        ctx = album_of(list(np.eye(4)))
        state, (gid,) = grouped(4, [0, 1, 2])
        assert extract_features(state, (gid, 3), ctx, eta=1)[2] == pytest.approx(0.5)


class TestQualityBlock:
    def test_all_ones(self):
        assert np.allclose(quality_block(np.ones(7), eta=5), 1.0)

    def test_padding_with_minimum(self):
        block = quality_block(np.array([0.9, 0.2]), eta=5)
        assert np.allclose(block, [0.9, 0.2, 0.2, 0.2, 0.2])

    def test_singleton(self):
        assert np.allclose(quality_block(np.array([0.5]), eta=5), 0.5)


class TestExtractFeatures:
    def make_ctx(self):
        rng = np.random.Generator(np.random.PCG64(5))
        items = tuple(
            make_item(f"i{k}", rng.normal(size=8), quality=float(rng.uniform(0.1, 0.9)))
            for k in range(6)
        )
        album = Album(album_id="a", items=items)
        return AlbumContext(album)

    def test_dimension_and_layout(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        state = transition(state, (0, 1), Action.MERGE)
        phi = extract_features(state, (6, 2), ctx, eta=5)
        assert phi.shape == (feature_dim(5),)
        assert np.all(np.isfinite(phi))
        assert np.all(phi[:10] >= 0) and np.all(phi[:10] <= 1)  # distance blocks
        assert np.all(phi[12:] >= 0) and np.all(phi[12:] <= 1)  # quality blocks
        assert np.all(np.diff(phi[:5]) >= 0)  # ascending distance block
        assert np.all(np.diff(phi[12:17]) <= 0)  # descending quality block

    def test_swapping_candidate_swaps_blocks(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        state = transition(state, (0, 1), Action.MERGE)
        ab = extract_features(state, (6, 2), ctx, eta=3)
        ba = extract_features(state, (2, 6), ctx, eta=3)
        eta = 3
        assert np.allclose(ab[:eta], ba[eta : 2 * eta])
        assert np.allclose(ab[eta : 2 * eta], ba[:eta])
        assert ab[2 * eta] == ba[2 * eta + 1] and ab[2 * eta + 1] == ba[2 * eta]
        assert np.allclose(ab[2 * eta + 2 : 3 * eta + 2], ba[3 * eta + 2 :])
        assert sorted(ab.tolist()) == pytest.approx(sorted(ba.tolist()))

    def test_quality_ablation_zeroes_blocks(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        phi = extract_features(state, (0, 1), ctx, eta=5, use_quality=False)
        assert np.allclose(phi[12:], 0.0)
        assert phi.shape == (22,)

    def test_dimension_constant_across_states(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        dims = set()
        for pair in [(0, 1), (2, 3)]:
            dims.add(extract_features(state, pair, ctx, eta=4).shape[0])
        state = transition(state, (0, 1), Action.MERGE)
        dims.add(extract_features(state, (6, 2), ctx, eta=4).shape[0])
        assert dims == {feature_dim(4)}
