import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facegroup.core import Action, Album, Partition, State, transition
from facegroup.features import AlbumContext, consistency, extract_features, quality_block
from facegroup.engine import PolicyConfig
from facegroup.recommend import PairQueue, Strategy, recommend

from conftest import make_item
from oracle import LazyHeapQueue, RandomQueueReference, extract_features_reference


def reference_blocks(state, ctx, gid_a, gid_b, eta):
    """The pair's two similarity blocks gathered straight from the distance
    matrix: the sorted row and column medians of the A x B submatrix."""
    idx_a, idx_b = (sorted(state.partition.members(gid)) for gid in (gid_a, gid_b))
    sub = ctx.D[np.ix_(idx_a, idx_b)]

    def first_eta(values):
        return np.concatenate([values, np.full(eta, values[-1])])[:eta]

    return first_eta(np.sort(np.median(sub, axis=1))), first_eta(np.sort(np.median(sub, axis=0)))


def reference_features(state, ctx, gid_a, gid_b, eta, use_quality):
    """The pair's feature vector around the reference blocks."""
    idx = [sorted(state.partition.members(gid)) for gid in (gid_a, gid_b)]
    cons = [consistency(ctx, i) for i in idx]
    qual = [quality_block(ctx.qualities[i], eta) if use_quality else np.zeros(eta) for i in idx]
    return np.concatenate([*reference_blocks(state, ctx, gid_a, gid_b, eta), cons, *qual])


def reference_distance(state, ctx, gid_a, gid_b, eta):
    """Scalar pair distance: the mean of the pair's 2*eta similarity-block values."""
    block_ab, block_ba = reference_blocks(state, ctx, gid_a, gid_b, eta)
    return float((block_ab.sum() + block_ba.sum()) / (2 * eta))


def by_content(state, gid_a, gid_b):
    """A pair keyed by its two member sets instead of its group ids."""
    return frozenset({state.partition.members(gid_a), state.partition.members(gid_b)})


def reference_pairs(state, ctx, tau, eta, consumed):
    """Brute-force scan of every live pair: those within tau whose pair of
    member sets is not in ``consumed``, as (gid_a, gid_b, distance) in
    ascending (gid_a, gid_b) order."""
    gids = sorted(state.partition.group_ids())
    out = []
    for i, gid_a in enumerate(gids):
        for gid_b in gids[i + 1 :]:
            if by_content(state, gid_a, gid_b) in consumed:
                continue
            dist = reference_distance(state, ctx, gid_a, gid_b, eta)
            if dist <= tau:
                out.append((gid_a, gid_b, dist))
    return out


def reference_pick(pairs, strategy, rng):
    """The scanned pair the strategy proposes: the closest (ties to the
    smallest ids), or for RANDOM one draw over the scan's order."""
    if not pairs:
        return None
    if strategy is Strategy.RANDOM:
        gid_a, gid_b, _ = pairs[int(rng.integers(len(pairs)))]
    else:
        gid_a, gid_b, _ = min(pairs, key=lambda p: (p[2], p[0], p[1]))
    return (gid_a, gid_b)


def held_pairs(queue, live):
    """The live pairs the queue still holds, as (gid_a, gid_b) -> (distance,
    kept blocks): its heap under HC, its ordered list, which keeps no
    distance, under RANDOM."""
    if queue.order is None:
        entries = [(a, b, d, row) for d, a, b, row in queue.heap]
    else:
        entries = [(a, b, None, row) for a, b, row in queue.order.tolist()]
    return {
        (a, b): (d, queue.held_blocks(a, b, row))
        for a, b, d, row in entries
        if a in live and b in live
    }


def planar_album(angles, qualities=None):
    """Items on the unit circle at the given angles (fractions of pi)."""
    qualities = qualities or [0.9] * len(angles)
    items = tuple(
        make_item(
            f"i{k}",
            [math.cos(a * math.pi), math.sin(a * math.pi)],
            quality=q,
        )
        for k, (a, q) in enumerate(zip(angles, qualities))
    )
    return Album(album_id="planar", items=items)


@pytest.fixture
def three_singletons():
    # pairwise angular distances: (0,1)=0.1, (0,2)=0.5, (1,2)=0.4
    album = planar_album([0.0, 0.1, 0.5])
    return album, AlbumContext(album)


HC = Strategy.HIERARCHICAL_NEAREST


def test_tau_validation():
    with pytest.raises(ValueError, match="tau"):
        PolicyConfig(tau=0.0)


def test_nearest_pair_returned_then_exhaustion(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 0.3)
    state = State.initial(3)
    assert recommend(state, queue, HC) == (0, 1)
    state = transition(state, (0, 1), Action.NOT_MERGE)
    assert recommend(state, queue, HC) is None


def test_two_groups_within_tau(three_singletons):
    album, ctx = three_singletons
    # group {0,1} vs {2}: block mean is 0.465, so tau must sit above it
    queue = PairQueue(ctx, 5, 0.5)
    state = State.initial(3)
    state = transition(state, (0, 1), Action.MERGE)
    cand = recommend(state, queue, HC)
    assert cand is not None
    state = transition(state, cand, Action.NOT_MERGE)
    assert recommend(state, queue, HC) is None


def part(groups, next_gid):
    return Partition(tuple((gid, frozenset(m)) for gid, m in groups), next_gid)


@pytest.mark.parametrize("later", [
    part([(0, {0}), (1, {1}), (2, {2}), (3, {3})], 6),  # ids below the last sync's come back
    part([(2, {2}), (4, {0, 1, 3})], 6),  # group 3 lost its id without a merge
    part([(3, {3}), (4, {0}), (5, {1, 2})], 6),  # a new group took part of group 4
])
def test_queue_rejects_a_partition_of_another_episode(later):
    """A queue follows one episode forward: each sync must retire exactly
    the groups whose items the new groups hold."""
    ctx = AlbumContext(planar_album([0.0, 0.1, 0.2, 0.3]))
    queue = PairQueue(ctx, 2, 1.0)
    queue.sync(part([(2, {2}), (3, {3}), (4, {0, 1})], 5))
    with pytest.raises(ValueError, match="does not follow"):
        queue.sync(later)


def test_never_repeats_history(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 1.0)
    state = State.initial(3)
    seen = set()
    while (cand := recommend(state, queue, HC)) is not None:
        assert cand not in seen
        seen.add(cand)
        state = transition(state, cand, Action.NOT_MERGE)
    assert len(seen) == 3


def test_upcoming_lists_the_next_pairs_and_keeps_them():
    """After a merge leaves stale entries in the heap, ``upcoming`` lists
    the live pairs nearest hands out next, with their kept-block rows, and
    leaves every one of them in the queue."""
    album = planar_album([0.0, 0.05, 0.12, 0.2, 0.3, 0.31])
    queue = PairQueue(AlbumContext(album), 3, 1.0)
    state = State.initial(6)
    first = recommend(state, queue, HC)
    state = transition(state, first, Action.MERGE)
    queue.sync(state.partition)
    ahead = queue.upcoming(5)
    assert len(ahead) == 5 and all(a != first[0] and b != first[1] for a, b, _ in ahead)
    handed = []
    for _ in range(5):
        handed.append((*recommend(state, queue, HC), queue.handed[2]))
        state = transition(state, handed[-1][:2], Action.NOT_MERGE)
    assert ahead == handed
    assert queue.upcoming(100) == queue.upcoming(100)


def test_episode_always_terminates(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    state = State.initial(3)
    for _ in range(100):
        cand = recommend(state, queue, HC)
        if cand is None:
            break
        action = Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE
        state = transition(state, cand, action)
    else:
        pytest.fail("episode did not terminate")


def test_random_strategy_needs_rng(three_singletons):
    album, ctx = three_singletons
    with pytest.raises(ValueError, match="generator"):
        recommend(State.initial(3), PairQueue(ctx, 5, 1.0), Strategy.RANDOM)


def test_random_strategy_only_returns_eligible(three_singletons):
    album, ctx = three_singletons
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        queue = PairQueue(ctx, 5, 0.3)
        assert recommend(State.initial(3), queue, Strategy.RANDOM, rng) == (0, 1)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_asking_again_returns_the_next_pair(three_singletons, strategy):
    # within tau 0.45: (0, 1) at 0.1 and (1, 2) at 0.4; (0, 2) is too far
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 0.45)
    rng = np.random.Generator(np.random.PCG64(0))
    state = State.initial(3)
    first = recommend(state, queue, strategy, rng)
    second = recommend(state, queue, strategy, rng)
    assert {first, second} == {(0, 1), (1, 2)}
    if strategy is HC:
        assert (first, second) == ((0, 1), (1, 2))
    assert recommend(state, queue, strategy, rng) is None


class StubGenerator:
    """Answers every ``integers(n)`` with one fixed index."""

    def __init__(self, at):
        self.at = at

    def integers(self, n):
        return self.at


def test_eligible_pairs_in_group_id_order(three_singletons):
    # RANDOM draws an index into the pairs in this order, so it is part of
    # the seeded behaviour
    album, ctx = three_singletons
    drawn = [PairQueue(ctx, 5, 1.0).draw(State.initial(3), StubGenerator(at)) for at in range(3)]
    assert drawn == [(0, 1), (0, 2), (1, 2)]


def test_deterministic_tie_break_on_group_ids():
    # two pairs at exactly the same distance: symmetric square on the circle
    album = planar_album([0.0, 0.2, 1.0, 1.2])
    cand = recommend(State.initial(4), PairQueue(AlbumContext(album), 5, 0.45), HC)
    assert cand == (0, 1)  # (2, 3) has the same distance; smaller ids win


def test_hc_is_deterministic(three_singletons):
    album, ctx = three_singletons
    picks = {recommend(State.initial(3), PairQueue(ctx, 5, 0.6), HC) for _ in range(5)}
    assert picks == {(0, 1)}


def test_queue_rejects_another_episode(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 1.0)
    state = transition(State.initial(3), (0, 1), Action.MERGE)
    recommend(state, queue, HC)
    with pytest.raises(ValueError, match="episode"):
        recommend(State.initial(3), queue, HC)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    eta=st.integers(1, 9),
    tau=st.sampled_from([0.05, 0.2, 0.35, 0.45, 0.6, 1.0]),
    strategy=st.sampled_from(list(Strategy)),
    p_merge=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=150, deadline=None)
def test_incremental_recommend_matches_reference_scan(seed, n, eta, tau, strategy, p_merge):
    """One queue carried through a random episode proposes, at every step,
    the pair the brute-force scan picks, with the same generator draws;
    every distance it holds equals the scalar reference bit for bit, and so
    do the blocks it keeps and the candidate's features. The scan never offers
    the same pair of member sets twice, and after each proposal the queue
    holds exactly the scan's other live pairs: consumption keyed on group
    ids equals consumption keyed on content, because ids are never reused
    and a group's members never change under its id."""
    rng = np.random.Generator(np.random.PCG64(seed))
    # few directions, so tied distances and near-duplicates occur
    directions = rng.normal(size=(int(rng.integers(1, n + 1)), 3))
    album = Album(
        album_id="prop",
        items=tuple(
            make_item(f"i{k}", directions[rng.integers(len(directions))] + rng.normal(size=3) * s)
            for k, s in enumerate(rng.choice([0.0, 0.05, 0.5], size=n))
        ),
    )
    ctx = AlbumContext(album)
    queue = PairQueue(ctx, eta, tau)
    rng_inc = np.random.Generator(np.random.PCG64(seed + 1))
    rng_ref = np.random.Generator(np.random.PCG64(seed + 1))
    state = State.initial(n)
    consumed: set[frozenset[frozenset[int]]] = set()
    while True:
        pairs = reference_pairs(state, ctx, tau, eta, consumed)
        expected = reference_pick(pairs, strategy, rng_ref)
        assert recommend(state, queue, strategy, rng=rng_inc) == expected
        assert rng_inc.bit_generator.state == rng_ref.bit_generator.state
        held = held_pairs(queue, set(state.partition.group_ids()))
        for (gid_a, gid_b), (dist, blocks) in held.items():
            ref_ab, ref_ba = reference_blocks(state, ctx, gid_a, gid_b, eta)
            assert np.array_equal(blocks, np.concatenate([ref_ab, ref_ba]))
            if dist is not None:
                assert dist == reference_distance(state, ctx, gid_a, gid_b, eta)
        assert held.keys() == {(a, b) for a, b, _ in pairs} - {expected}
        if expected is None:
            break
        consumed.add(by_content(state, *expected))
        for use_quality in (True, False):
            phi = extract_features(state, expected, queue, use_quality)
            ref = reference_features(state, ctx, *expected, eta, use_quality)
            assert np.array_equal(phi, ref)
        action = Action.MERGE if rng.random() < p_merge else Action.NOT_MERGE
        state = transition(state, expected, action)


def test_queue_started_in_one_batch_rejects_another_episode(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 1.0)
    state = State.initial(3)
    recommend(state, queue, HC)  # the all-singleton start
    recommend(transition(state, (0, 1), Action.MERGE), queue, HC)
    with pytest.raises(ValueError, match="episode"):
        recommend(State.initial(3), queue, HC)


def test_queue_serves_one_strategy(three_singletons):
    album, ctx = three_singletons
    queue = PairQueue(ctx, 5, 1.0)
    rng = np.random.Generator(np.random.PCG64(0))
    recommend(State.initial(3), queue, Strategy.RANDOM, rng)
    with pytest.raises(ValueError, match="random"):
        recommend(State.initial(3), queue, HC)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 16),
    eta=st.integers(1, 9),
    tau=st.sampled_from([0.05, 0.3, 0.45, 1.0]),
    spare=st.integers(0, 5),
)
@settings(max_examples=120, deadline=None)
def test_one_batch_start_equals_per_group_path(seed, n, eta, tau, spare):
    """The all-singleton start, with group ids that are not the item
    indices, leaves the queue as adding the singletons one group at a time
    does: the same slots, columns, consistencies, quality blocks, free
    slots, heap contents and, pair by pair, the same kept blocks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.normal(size=(int(rng.integers(1, n + 1)), 3))
    album = Album(
        album_id="start",
        items=tuple(
            make_item(f"i{k}", directions[rng.integers(len(directions))] + rng.normal(size=3) * s,
                      quality=float(rng.uniform(0.05, 0.95)))
            for k, s in enumerate(rng.choice([0.0, 0.05, 0.5], size=n))
        ),
    )
    ctx = AlbumContext(album)
    gids = [int(g) for g in rng.permutation(n + spare)[:n]]
    partition = Partition(
        groups=tuple((g, frozenset((i,))) for g, i in zip(gids, rng.permutation(n).tolist())),
        next_group_id=n + spare,
    )
    batch, per_group = PairQueue(ctx, eta, tau), PairQueue(ctx, eta, tau)
    batch.sync(partition)
    per_group._update(partition)
    assert batch.slot == per_group.slot and batch.free == per_group.free
    assert np.array_equal(batch.slot_gid, per_group.slot_gid)
    assert np.array_equal(batch.label, per_group.label)
    for name in ("cols", "cons", "qual"):
        assert np.array_equal(getattr(batch, name)[:n], getattr(per_group, name)[:n])

    def contents(queue):
        return sorted(
            (d, a, b, queue.held_blocks(a, b, row).tobytes()) for d, a, b, row in queue.heap
        )

    assert contents(batch) == contents(per_group)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    eta=st.integers(1, 6),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    p_merge=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_random_draws_match_the_per_step_sort(seed, n, eta, tau, p_merge):
    """RANDOM over the incrementally ordered pairs draws the pair the old
    filter-heapify-sort queue draws at every step, from the same generator
    state, and the candidate's features agree with that queue's."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.normal(size=(3, 4))
    album = Album(
        album_id="draws",
        items=tuple(
            make_item(f"i{k}", directions[rng.integers(3)] + rng.normal(size=4) * 0.4)
            for k in range(n)
        ),
    )
    ctx = AlbumContext(album)
    queue, old = PairQueue(ctx, eta, tau), RandomQueueReference(ctx, eta, tau)
    rng_new = np.random.Generator(np.random.PCG64(seed + 1))
    rng_old = np.random.Generator(np.random.PCG64(seed + 1))
    state = State.initial(n)
    while True:
        pair = recommend(state, queue, Strategy.RANDOM, rng_new)
        assert pair == old.draw(state, rng_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        if pair is None:
            break
        phi = extract_features(state, pair, queue)
        assert np.array_equal(phi, extract_features_reference(state, pair, old))
        action = Action.MERGE if rng.random() < p_merge else Action.NOT_MERGE
        state = transition(state, pair, action)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    eta=st.integers(1, 6),
    tau=st.sampled_from([0.2, 0.45, 1.0]),
    p_merge=st.sampled_from([0.3, 0.7, 1.0]),
    k=st.integers(1, 9),
)
@settings(max_examples=100, deadline=None)
def test_rebuilt_heap_hands_out_what_a_lazy_one_does(seed, n, eta, tau, p_merge, k):
    """Under HC, ``nearest`` and ``upcoming`` give the sequence of a queue
    that never rebuilds its heap, and after each sync the heap holds at
    most twice the pairs of live groups."""
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.normal(size=(int(rng.integers(1, n + 1)), 3))
    album = Album(
        album_id="prop",
        items=tuple(
            make_item(f"i{i}", directions[rng.integers(len(directions))] + rng.normal(size=3) * s)
            for i, s in enumerate(rng.choice([0.0, 0.05, 0.5], size=n))
        ),
    )
    ctx = AlbumContext(album)
    queue, lazy = PairQueue(ctx, eta, tau), LazyHeapQueue(ctx, eta, tau)
    state = State.initial(n)
    while True:
        queue.sync(state.partition)
        lazy.sync(state.partition)
        groups = len(queue.slot)
        assert len(queue.heap) <= groups * (groups - 1)
        assert queue.upcoming(k) == lazy.upcoming(k)
        cand = recommend(state, queue, HC)
        assert cand == recommend(state, lazy, HC)
        if cand is None:
            break
        assert queue.handed == lazy.handed
        action = Action.MERGE if rng.random() < p_merge else Action.NOT_MERGE
        state = transition(state, cand, action)
