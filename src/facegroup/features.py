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
from typing import TYPE_CHECKING

import numpy as np

from .core import Album, State

if TYPE_CHECKING:
    from .recommend import PairQueue

# Rows of D made symmetric per step of ``AlbumContext``.
_BAND = 256


def feature_dim(eta: int) -> int:
    return 4 * eta + 2


def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise angular distances between the rows of a unit-norm matrix."""
    D = X @ X.T
    np.clip(D, -1.0, 1.0, out=D)
    np.arccos(D, out=D)
    D /= math.pi
    return D


def quality_block(qualities: np.ndarray, eta: int) -> np.ndarray:
    """eta largest quality scores, descending, padded with the group minimum."""
    q = np.sort(np.asarray(qualities, dtype=np.float64))[::-1]
    if q.shape[0] == 0:
        raise ValueError("group must be non-empty")
    return q[np.minimum(np.arange(eta), q.shape[0] - 1)]


class AlbumContext:
    """Per-album caches shared across an episode: stacked embeddings,
    qualities, and the full item-item angular distance matrix."""

    def __init__(self, album: Album):
        if not album.items:
            raise ValueError(f"album {album.album_id} is empty")
        self.album = album
        self.X = np.stack([it.embedding for it in album.items])
        self.qualities = np.array([it.quality for it in album.items], dtype=np.float64)
        D = distance_matrix(self.X)
        # The recommender reads D[b, a] where a pair's block reads D[a, b], so
        # D must be exactly symmetric. X @ X.T is when numpy hands it to
        # BLAS as a rank-k update (syrk); copying the upper triangle makes it
        # so on any build, and changes nothing where it already is. Copying
        # it a band of rows at a time bounds the scratch memory by the band.
        for i0 in range(0, len(D), _BAND):
            i1 = min(i0 + _BAND, len(D))
            D[i0:i1, :i0] = D[:i0, i0:i1].T
            block = D[i0:i1, i0:i1]
            lower = np.tril_indices(i1 - i0, -1)
            block[lower] = block.T[lower]
        self.D = D
        # the strict upper triangle of any k x k group block is upper[:k, :k]
        self.upper = np.triu(np.ones(D.shape, dtype=bool), 1)

    def __len__(self) -> int:
        return len(self.album.items)


def median(values: np.ndarray) -> np.ndarray:
    """``np.median`` over the last axis, bit for bit on values without NaN.

    The middle order statistic, or the two middle ones, come from
    ``np.partition`` at the positions ``np.median`` partitions at; like
    its ``mean``, the sum starts from 0.0, so -0.0 comes out as 0.0, and
    an even count's two values are summed and halved.
    """
    half = values.shape[-1] // 2
    if values.shape[-1] % 2:
        return np.partition(values, half, axis=-1)[..., half] + 0.0
    part = np.partition(values, (half - 1, half), axis=-1)
    return (0.0 + part[..., half - 1] + part[..., half]) / 2.0


def consistency(ctx: AlbumContext, idx: np.ndarray) -> float:
    """Median pairwise distance within the group ``idx``; 0 for a singleton."""
    k = len(idx)
    if k < 2:
        return 0.0
    return float(median(ctx.D[idx][:, idx][ctx.upper[:k, :k]]))


def median_column(ctx: AlbumContext, idx: np.ndarray) -> np.ndarray:
    """Median distance of every album item to the group ``idx``. On another
    group's items it holds that group's side of the pair's similarity block."""
    return median(ctx.D[:, idx])


def pair_distance(
    cols: np.ndarray, label: np.ndarray, b: int, others: np.ndarray, eta: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inter-group distances from group ``b`` to each group in ``others``,
    with the similarity blocks they average.

    Groups are rows of ``cols``: item i belongs to group ``label[i]``, and
    ``cols[g]`` is group g's ``median_column``. Row r of ``block_g`` is b's
    column on the items of group ``others[r]``, row r of ``block_b`` that
    group's column on b's items, each sorted ascending and cut or padded
    to eta values: for the pair (g, b) they are the A->B and B->A blocks
    of ``extract_features``. A pair's distance is the mean of its 2*eta
    block values. Every group in ``others`` must have members. Returns
    ``(distances, block_g, block_b)``.
    """
    steps = np.arange(eta)
    sizes = np.bincount(label, minlength=cols.shape[0])
    first = sizes.cumsum() - sizes
    # b's column over all items, grouped by label and ascending within a group
    col_b = cols[b][np.lexsort((cols[b], label))]
    block_g = col_b[first[others, None] + np.minimum(steps, sizes[others, None] - 1)]
    idx_b = (label == b).nonzero()[0]
    block_b = cols[others[:, None], idx_b]
    block_b.sort(axis=1)
    if idx_b.size != eta:
        # numpy sums a C-contiguous row as it sums a 1-d block, bit for bit;
        # a strided row, as a column pick leaves it, is summed in another order.
        block_b = np.ascontiguousarray(block_b[:, np.minimum(steps, idx_b.size - 1)])
    sums = block_g.sum(axis=1) + block_b.sum(axis=1)
    return sums / (2 * eta), block_g, block_b


def extract_features(
    state: State, candidate: tuple[int, int], queue: PairQueue, use_quality: bool = True
) -> np.ndarray:
    """Feature vector for a candidate pair in the documented layout, read
    from the episode's ``PairQueue``: consistency and quality are stored
    per group when the group appears, and the similarity blocks of the
    pair the queue just handed out are the ones ``pair_distance`` sorted
    when it measured the pair. Any other pair is measured here.

    With ``use_quality`` off both quality blocks are zero-filled, keeping
    the dimension stable while removing the information (an ablation knob).
    """
    queue.sync(state.partition)
    blocks = queue.kept_blocks(candidate)
    if blocks is None:
        slot_a, slot_b = (queue.slot[gid] for gid in candidate)
        _, block_ab, block_ba = pair_distance(
            queue.cols, queue.label, slot_b, np.array([slot_a]), queue.eta
        )
        blocks = np.concatenate([block_ab[0], block_ba[0]])
    return pair_features(queue, [candidate], blocks[None], use_quality)[0]


def pair_features(
    queue: PairQueue, pairs: list[tuple[int, int]], blocks: np.ndarray, use_quality: bool
) -> np.ndarray:
    """Feature rows of live group pairs, one per pair: row r of ``blocks``
    holds pair r's A->B then B->A similarity blocks, and the consistency
    and quality blocks come from the queue's group cache."""
    slots = np.array([[queue.slot[a], queue.slot[b]] for a, b in pairs])
    eta = queue.eta
    phis = np.zeros((len(pairs), feature_dim(eta)))
    phis[:, : 2 * eta] = blocks
    phis[:, 2 * eta : 2 * eta + 2] = queue.cons[slots]
    if use_quality:
        phis[:, 2 * eta + 2 :] = queue.qual[slots].reshape(len(pairs), 2 * eta)
    return phis
