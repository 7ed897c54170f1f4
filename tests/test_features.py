import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import Action, Album, State, transition
from facegroup.features import (
    AlbumContext,
    consistency,
    extract_features,
    feature_dim,
    median,
    median_column,
    quality_block,
)
from facegroup.recommend import PairQueue, Strategy, recommend

from conftest import make_item, unit
from oracle import (
    consistency_reference,
    extract_features_reference,
    median_column_reference,
    symmetric_distances_reference,
)


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


def features_of(state, candidate, ctx, eta, use_quality=True):
    """``extract_features`` on a fresh queue for the album of ``ctx``."""
    return extract_features(state, candidate, PairQueue(ctx, eta, 1.0), use_quality)


def pair_distances(ctx, state, eta):
    """Every live pair's distance as the recommender computes it (batched
    ``pair_distance`` over median columns), keyed by (gid_a, gid_b)."""
    queue = PairQueue(ctx, eta, tau=1.0)  # distances are at most 1: all kept
    queue.sync(state.partition)
    return {(a, b): d for d, a, b, _ in queue.heap}


def singleton_distance(x, y):
    """Angular distance of two items through the recommender: with
    singleton groups every block value is the one item-item distance."""
    return pair_distances(album_of([x, y]), State.initial(2), eta=3)[(0, 1)]


def test_angular_distance_identical_vectors():
    x = unit([1.0, 2.0, 3.0])
    assert singleton_distance(x, x) == pytest.approx(0.0, abs=1e-12)


def test_angular_distance_antipodal():
    x = unit([0.3, -0.7, 0.1])
    assert singleton_distance(x, -x) == pytest.approx(1.0)


def test_angular_distance_orthogonal():
    assert singleton_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_angular_distance_dimension_mismatch():
    # distances are taken within one album, which holds one dimension
    with pytest.raises(ValueError, match="dimension"):
        album_of([[1.0, 0.0], [1.0, 0.0, 0.0]])


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
    distances = pair_distances(ctx, state, eta)
    for gid_a, gid_b in itertools.permutations(gids, 2):
        idx_a = sorted(state.partition.members(gid_a))
        idx_b = sorted(state.partition.members(gid_b))
        ref = reference_features(ctx.X, ctx.qualities, idx_a, idx_b, eta)
        if not use_quality:
            ref[2 * eta + 2 :] = 0.0
        phi = features_of(state, (gid_a, gid_b), ctx, eta, use_quality)
        assert phi.shape == ref.shape
        assert np.max(np.abs(phi - ref)) <= 1e-12
        dist = distances[min(gid_a, gid_b), max(gid_a, gid_b)]
        assert abs(dist - ref[: 2 * eta].mean()) <= 1e-12


def on_circle(*angles):
    """Unit vectors in the plane at the given angles (fractions of pi)."""
    return [[math.cos(a * math.pi), math.sin(a * math.pi)] for a in angles]


class TestMedianDistance:
    # the first A->B value for a singleton A is its median distance to B

    def test_singleton_group_with_itself(self):
        x = unit([1.0, 0.0, 0.0])
        phi = features_of(State.initial(2), (0, 1), album_of([x, x]), eta=1)
        assert phi[0] == pytest.approx(0.0, abs=1e-12)

    def test_odd_median(self):
        # three group members at angular distances 0.1, 0.3, 0.9 from x
        ctx = album_of(on_circle(0.0, 0.1, 0.3, 0.9))
        state, (gid,) = grouped(4, [1, 2, 3])
        assert features_of(state, (0, gid), ctx, eta=1)[0] == pytest.approx(0.3)

    def test_even_median_averages_central_values(self):
        ctx = album_of(on_circle(0.0, 0.1, 0.3))
        state, (gid,) = grouped(3, [1, 2])
        assert features_of(state, (0, gid), ctx, eta=1)[0] == pytest.approx(0.2)


class TestSimilarityBlock:
    def test_identical_singletons_all_zero(self):
        x = unit([1.0, 1.0, 0.0])
        phi = features_of(State.initial(2), (0, 1), album_of([x, x]), eta=5)
        # arccos is ill-conditioned at 1, so "zero" means ~sqrt(eps)
        assert np.allclose(phi[:10], 0.0, atol=1e-7)

    def test_small_group_padded_with_largest(self):
        rng = np.random.Generator(np.random.PCG64(0))
        ctx = album_of(list(rng.normal(size=(5, 4))))
        state, (gid_a, gid_b) = grouped(5, [0, 1, 2], [3, 4])
        ab = features_of(state, (gid_a, gid_b), ctx, eta=5)[:5]
        assert np.all(np.diff(ab[:3]) >= 0)  # ascending
        assert ab[3] == ab[2] and ab[4] == ab[2]  # padded with the largest computed

    def test_blocks_are_asymmetric(self):
        # 1-vs-3: medians from the singleton side differ from the group side
        rng = np.random.Generator(np.random.PCG64(1))
        ctx = album_of(list(rng.normal(size=(4, 6))))
        state, (gid,) = grouped(4, [1, 2, 3])
        phi = features_of(state, (0, gid), ctx, eta=2)
        assert not np.allclose(phi[:2], phi[2:4])


class TestConsistency:
    # consistency(A) sits at index 2 * eta of the feature vector

    def test_singleton_is_zero(self):
        phi = features_of(State.initial(2), (0, 1), album_of([[1.0, 0.0], [0.0, 1.0]]), eta=1)
        assert phi[2] == 0.0

    def test_identical_pair_is_zero(self):
        x = unit([1.0, 2.0])
        state, (gid,) = grouped(3, [0, 1])
        phi = features_of(state, (gid, 2), album_of([x, x, [0.0, 1.0]]), eta=1)
        assert phi[2] == pytest.approx(0.0, abs=1e-7)

    def test_three_orthogonal_embeddings(self):
        ctx = album_of(list(np.eye(4)))
        state, (gid,) = grouped(4, [0, 1, 2])
        assert features_of(state, (gid, 3), ctx, eta=1)[2] == pytest.approx(0.5)


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
        phi = features_of(state, (6, 2), ctx, eta=5)
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
        ab = features_of(state, (6, 2), ctx, eta=3)
        ba = features_of(state, (2, 6), ctx, eta=3)
        eta = 3
        assert np.allclose(ab[:eta], ba[eta : 2 * eta])
        assert np.allclose(ab[eta : 2 * eta], ba[:eta])
        assert ab[2 * eta] == ba[2 * eta + 1] and ab[2 * eta + 1] == ba[2 * eta]
        assert np.allclose(ab[2 * eta + 2 : 3 * eta + 2], ba[3 * eta + 2 :])
        assert sorted(ab.tolist()) == pytest.approx(sorted(ba.tolist()))

    def test_quality_ablation_zeroes_blocks(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        phi = features_of(state, (0, 1), ctx, eta=5, use_quality=False)
        assert np.allclose(phi[12:], 0.0)
        assert phi.shape == (22,)

    def test_dimension_constant_across_states(self):
        ctx = self.make_ctx()
        state = State.initial(6)
        dims = set()
        for pair in [(0, 1), (2, 3)]:
            dims.add(features_of(state, pair, ctx, eta=4).shape[0])
        state = transition(state, (0, 1), Action.MERGE)
        dims.add(features_of(state, (6, 2), ctx, eta=4).shape[0])
        assert dims == {feature_dim(4)}


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@given(
    data=st.data(),
    rows=st.one_of(st.none(), st.integers(1, 4)),
    k=st.integers(1, 12),
    pool=st.sampled_from(["ties", "wide"]),
)
@settings(max_examples=300, deadline=None)
def test_median_matches_np_median_bit_for_bit(data, rows, k, pool):
    """One column up to twelve, odd and even counts, 1-d and 2-d input;
    "ties" draws from a handful of values, signed zeros among them."""
    if pool == "ties":
        values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0 / 3.0, 1e-300, 7.0])
    else:
        values = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    shape = (k,) if rows is None else (rows, k)
    flat = data.draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    x = np.array(flat, dtype=np.float64).reshape(shape)
    assert same_bits(median(x), np.median(x, axis=-1))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), dirs=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_group_medians_match_np_median_forms(seed, n, dirs):
    """``median_column`` and ``consistency`` equal their ``np.median`` forms
    on every subset drawn, duplicate embeddings giving tied distances."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.normal(size=(dirs, 4))
    ctx = album_of([directions[i] for i in rng.integers(dirs, size=n)])
    for _ in range(6):
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert same_bits(median_column(ctx, idx), median_column_reference(ctx, idx))
        assert same_bits(consistency(ctx, idx), consistency_reference(ctx, idx))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    eta=st.integers(1, 9),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    p_merge=st.sampled_from([0.3, 0.7]),
)
@settings(max_examples=80, deadline=None)
def test_kept_blocks_give_the_resorted_features(seed, n, eta, tau, p_merge):
    """Along an HC episode the features of each handed-out pair, read from
    the blocks kept when it was measured, equal features re-sorted from the
    median columns; so do those of any other live pair, measured on the spot."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.normal(size=(3, 5))
    ctx = album_of(
        [directions[rng.integers(3)] + rng.normal(size=5) * 0.3 for _ in range(n)],
        list(rng.uniform(0.05, 0.95, size=n)),
    )
    queue = PairQueue(ctx, eta, tau)
    state = State.initial(n)
    while (cand := recommend(state, queue, Strategy.HIERARCHICAL_NEAREST)) is not None:
        for use_quality in (True, False):
            assert same_bits(
                extract_features(state, cand, queue, use_quality),
                extract_features_reference(state, cand, queue, use_quality),
            )
        gids = sorted(state.partition.group_ids())
        other = tuple(int(g) for g in rng.choice(gids, size=2, replace=False))
        assert same_bits(
            extract_features(state, other, queue), extract_features_reference(state, other, queue)
        )
        action = Action.MERGE if rng.random() < p_merge else Action.NOT_MERGE
        state = transition(state, cand, action)


def random_album(n, seed=0, dim=16):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Album(album_id="rand", items=tuple(
        make_item(f"i{k}", rng.normal(size=dim)) for k in range(n)
    ))


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 600])
def test_context_distances_match_whole_matrix_mirror(n):
    """D mirrored band by band is byte-identical to D mirrored through
    whole-matrix triangle indices, on both sides of a band edge."""
    ctx = AlbumContext(random_album(n, seed=n))
    expected = symmetric_distances_reference(ctx.X)
    assert ctx.D.tobytes() == expected.tobytes()
    assert np.array_equal(ctx.D, ctx.D.T)


def test_context_peak_memory_is_near_what_it_keeps():
    """Building the context of a 1,600-item album needs little scratch
    memory beyond the distance matrix and mask it keeps."""
    album = random_album(1600)
    tracemalloc.start()
    try:
        ctx = AlbumContext(album)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= ctx.D.nbytes + ctx.upper.nbytes
    assert peak <= 1.5 * kept
