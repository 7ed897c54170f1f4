import math

import numpy as np
import pytest

from facegroup.core import Action, Album, State, transition
from facegroup.features import AlbumContext
from facegroup.recommend import RecommenderConfig, Strategy, eligible_pairs, recommend

from conftest import make_item


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


def test_tau_validation():
    with pytest.raises(ValueError, match="tau"):
        RecommenderConfig(tau=0.0)


def test_nearest_pair_returned_then_exhaustion(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(tau=0.3)
    state = State.initial(3)
    assert recommend(state, ctx, config, eta=5) == (0, 1)
    state = transition(state, (0, 1), Action.NOT_MERGE)
    assert recommend(state, ctx, config, eta=5) is None


def test_two_groups_within_tau(three_singletons):
    album, ctx = three_singletons
    # group {0,1} vs {2}: block mean is 0.465, so tau must sit above it
    config = RecommenderConfig(tau=0.5)
    state = State.initial(3)
    state = transition(state, (0, 1), Action.MERGE)
    cand = recommend(state, ctx, config, eta=5)
    assert cand is not None
    state = transition(state, cand, Action.NOT_MERGE)
    assert recommend(state, ctx, config, eta=5) is None


def test_never_repeats_history(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(tau=1.0)
    state = State.initial(3)
    seen = set()
    while (cand := recommend(state, ctx, config, eta=5)) is not None:
        assert cand not in seen
        seen.add(cand)
        state = transition(state, cand, Action.NOT_MERGE)
    assert len(seen) == 3


def test_episode_always_terminates(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(tau=1.0)
    rng = np.random.Generator(np.random.PCG64(3))
    state = State.initial(3)
    for _ in range(100):
        cand = recommend(state, ctx, config, eta=5)
        if cand is None:
            break
        action = Action.MERGE if rng.random() < 0.5 else Action.NOT_MERGE
        state = transition(state, cand, action)
    else:
        pytest.fail("episode did not terminate")


def test_random_strategy_needs_rng(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(strategy=Strategy.RANDOM, tau=1.0)
    with pytest.raises(ValueError, match="generator"):
        recommend(State.initial(3), ctx, config, eta=5)


def test_random_strategy_only_returns_eligible(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(strategy=Strategy.RANDOM, tau=0.3)
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        assert recommend(State.initial(3), ctx, config, eta=5, rng=rng) == (0, 1)


def test_eligible_pairs_in_group_id_order(three_singletons):
    # RANDOM indexes into this list, so its order is part of the seeded behaviour
    album, ctx = three_singletons
    config = RecommenderConfig(strategy=Strategy.RANDOM, tau=1.0)
    pairs = eligible_pairs(State.initial(3), ctx, config, eta=5)
    assert [(a, b) for a, b, _ in pairs] == [(0, 1), (0, 2), (1, 2)]


def test_deterministic_tie_break_on_group_ids():
    # two pairs at exactly the same distance: symmetric square on the circle
    album = planar_album([0.0, 0.2, 1.0, 1.2])
    ctx = AlbumContext(album)
    config = RecommenderConfig(tau=0.45)
    cand = recommend(State.initial(4), ctx, config, eta=5)
    assert cand == (0, 1)  # (2, 3) has the same distance; smaller ids win


def test_hc_is_deterministic(three_singletons):
    album, ctx = three_singletons
    config = RecommenderConfig(tau=0.6)
    picks = {recommend(State.initial(3), ctx, config, eta=5) for _ in range(5)}
    assert picks == {(0, 1)}
