"""Feature vector describing a candidate group pair.

Layout, for block size ``eta`` (total dimension 4*eta + 2):

    [ eta median distances A->B, ascending
    | eta median distances B->A, ascending
    | consistency(A) | consistency(B)
    | eta top qualities of A, descending
    | eta top qualities of B, descending ]

Distance blocks are padded with their largest computed value, quality
blocks with the group's minimum quality, so small groups still yield a
fixed-size vector.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Album, State


def feature_dim(eta: int) -> int:
    return 4 * eta + 2


def distance_matrix(X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Pairwise angular distances between rows of unit-norm matrices."""
    Y = X if Y is None else Y
    gram = np.clip(X @ Y.T, -1.0, 1.0)
    return np.arccos(gram) / math.pi


def _first_eta(values: np.ndarray, eta: int) -> np.ndarray:
    """The first eta values, padded by repeating the last one."""
    if values.shape[0] >= eta:
        return values[:eta]
    return np.concatenate([values, np.full(eta - values.shape[0], values[-1])])


def quality_block(qualities: np.ndarray, eta: int) -> np.ndarray:
    """eta largest quality scores, descending, padded with the group minimum."""
    q = np.sort(np.asarray(qualities, dtype=np.float64))[::-1]
    if q.shape[0] == 0:
        raise ValueError("group must be non-empty")
    return _first_eta(q, eta)


class AlbumContext:
    """Per-album caches shared across an episode: stacked embeddings,
    qualities, and the full item-item angular distance matrix."""

    def __init__(self, album: Album):
        if not album.items:
            raise ValueError(f"album {album.album_id} is empty")
        self.album = album
        self.X = np.stack([it.embedding for it in album.items])
        self.qualities = np.array([it.quality for it in album.items], dtype=np.float64)
        self.D = distance_matrix(self.X)

    def __len__(self) -> int:
        return len(self.album.items)


def _blocks_from_cached(ctx: AlbumContext, idx_a: list[int], idx_b: list[int], eta: int):
    sub = ctx.D[np.ix_(idx_a, idx_b)]
    block_ab = _first_eta(np.sort(np.median(sub, axis=1)), eta)
    block_ba = _first_eta(np.sort(np.median(sub, axis=0)), eta)
    return block_ab, block_ba


def _consistency_from_cached(ctx: AlbumContext, idx: list[int]) -> float:
    if len(idx) < 2:
        return 0.0
    sub = ctx.D[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return float(np.median(sub[iu]))


def pair_distance(ctx: AlbumContext, idx_a: list[int], idx_b: list[int], eta: int) -> float:
    """Scalar inter-group distance: mean of the 2*eta similarity-block values."""
    block_ab, block_ba = _blocks_from_cached(ctx, idx_a, idx_b, eta)
    return float((block_ab.sum() + block_ba.sum()) / (2 * eta))


def extract_features(
    state: State,
    candidate: tuple[int, int],
    ctx: AlbumContext,
    eta: int,
    use_quality: bool = True,
) -> np.ndarray:
    """Feature vector for a candidate pair in the documented layout.

    With ``use_quality`` off both quality blocks are zero-filled, keeping
    the dimension stable while removing the information (an ablation knob).
    """
    gid_a, gid_b = candidate
    idx_a = sorted(state.partition.members(gid_a))
    idx_b = sorted(state.partition.members(gid_b))
    block_ab, block_ba = _blocks_from_cached(ctx, idx_a, idx_b, eta)
    cons = np.array(
        [_consistency_from_cached(ctx, idx_a), _consistency_from_cached(ctx, idx_b)]
    )
    if use_quality:
        qual_a = quality_block(ctx.qualities[idx_a], eta)
        qual_b = quality_block(ctx.qualities[idx_b], eta)
    else:
        qual_a = np.zeros(eta)
        qual_b = np.zeros(eta)
    return np.concatenate([block_ab, block_ba, cons, qual_a, qual_b])
