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


def feature_dim(eta: int) -> int:
    return 4 * eta + 2


def distance_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise angular distances between the rows of a unit-norm matrix."""
    gram = np.clip(X @ X.T, -1.0, 1.0)
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
        D = distance_matrix(self.X)
        # The recommender reads D[b, a] where a pair's block reads D[a, b], so
        # D must be exactly symmetric. X @ X.T is when numpy hands it to
        # BLAS as a rank-k update (syrk); copying the upper triangle makes it
        # so on any build, and changes nothing where it already is.
        lower = np.tril_indices(len(D), -1)
        D[lower] = D.T[lower]
        self.D = D

    def __len__(self) -> int:
        return len(self.album.items)


def consistency(ctx: AlbumContext, idx: list[int]) -> float:
    """Median pairwise distance within the group ``idx``; 0 for a singleton."""
    if len(idx) < 2:
        return 0.0
    sub = ctx.D[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return float(np.median(sub[iu]))


def median_column(ctx: AlbumContext, idx: list[int]) -> np.ndarray:
    """Median distance of every album item to the group ``idx``. On another
    group's items it holds that group's side of the pair's similarity block."""
    return np.median(ctx.D[:, idx], axis=1)


def pair_distance(
    cols: np.ndarray, label: np.ndarray, b: int, others: np.ndarray, eta: int
) -> np.ndarray:
    """Inter-group distances from group ``b`` to each group in ``others``.

    Groups are rows of ``cols``: item i belongs to group ``label[i]``, and
    ``cols[g]`` is group g's ``median_column``. A pair's distance is the
    mean of the 2*eta similarity-block values of ``extract_features``:
    group g's block is b's column on g's items, b's block is g's column on
    b's items, each sorted ascending and cut or padded to eta values. Every
    group in ``others`` must have members.
    """
    steps = np.arange(eta)
    sizes = np.bincount(label, minlength=cols.shape[0])
    first = np.cumsum(sizes) - sizes
    # b's column over all items, grouped by label and ascending within a group
    col_b = cols[b][np.lexsort((cols[b], label))]
    block_g = col_b[first[others, None] + np.minimum(steps, sizes[others, None] - 1)]
    idx_b = np.flatnonzero(label == b)
    block_b = np.sort(cols[np.ix_(others, idx_b)], axis=1)[:, np.minimum(steps, idx_b.size - 1)]
    # numpy sums a C-contiguous row as it sums a 1-d block, bit for bit; a
    # strided row is summed in another order.
    sums = np.ascontiguousarray(block_g).sum(axis=1) + np.ascontiguousarray(block_b).sum(axis=1)
    return sums / (2 * eta)


def extract_features(
    state: State, candidate: tuple[int, int], queue: PairQueue, use_quality: bool = True
) -> np.ndarray:
    """Feature vector for a candidate pair in the documented layout, read
    from the episode's ``PairQueue``: a similarity block is one group's
    median column on the other group's items, and consistency and quality
    are stored per group when the group appears.

    With ``use_quality`` off both quality blocks are zero-filled, keeping
    the dimension stable while removing the information (an ablation knob).
    """
    queue.sync(state.partition)
    slot_a, slot_b = (queue.slot[gid] for gid in candidate)
    cols, label, eta = queue.cols, queue.label, queue.eta
    block_ab = _first_eta(np.sort(cols[slot_b][label == slot_a]), eta)
    block_ba = _first_eta(np.sort(cols[slot_a][label == slot_b]), eta)
    qual = queue.qual[[slot_a, slot_b]].ravel() if use_quality else np.zeros(2 * eta)
    return np.concatenate([block_ab, block_ba, queue.cons[[slot_a, slot_b]], qual])
