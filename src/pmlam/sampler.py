"""Triplet construction with two-phase negative sampling.

Negatives are drawn from per-anchor candidate pools rather than the full
catalog: every ``refresh_period`` epochs a pool of ``pool_size`` candidates is
resampled uniformly (without replacement) from the complement of the anchor's
positive/neighbor set, and within the period negatives come from the pool
(with replacement across batch rows). The refresh is one synchronous,
vectorised pass over all anchors.
"""

import numpy as np

from .data import Rows
from .losses import TripletBatch

KEY_BLOCK = 1 << 18  # random keys held at once during a refresh (2 MB)


class CandidatePool(Rows):
    """Per-anchor negative candidates: ``pool[a]`` is anchor ``a``'s pool, ascending."""

    @property
    def n_anchors(self):
        return len(self)


def refresh_pool(exclusions, n_universe, pool_size, rng):
    """Sample a fresh candidate pool for every anchor.

    ``exclusions`` are :class:`~pmlam.data.Rows`, one per anchor: its positive
    or neighbor set, self included for same-entity relations. Each pool holds
    min(pool_size, complement size) ids drawn uniformly without replacement,
    stored in ascending id order; an anchor whose exclusion covers the whole
    universe gets an empty pool.

    Every (anchor, id) pair gets a uniform random key, excluded ids get +inf,
    and the pool is the ids of the ``pool_size`` smallest keys. Keys are drawn
    in row blocks of at most ``KEY_BLOCK`` entries; the generator fills them
    in row-major order, so the block size does not change the pools.
    """
    k = min(pool_size, n_universe)
    rows_per_block = max(1, KEY_BLOCK // n_universe)
    anchor_of, excluded = exclusions.pairs()
    counts = np.zeros(len(exclusions), dtype=np.int64)
    chunks = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(exclusions), rows_per_block):
        stop = min(start + rows_per_block, len(exclusions))
        lo, hi = exclusions.indptr[start], exclusions.indptr[stop]
        keys = rng.random((stop - start, n_universe))
        keys[anchor_of[lo:hi] - start, excluded[lo:hi]] = np.inf
        picked = np.argpartition(keys, k - 1, axis=1)[:, :k]
        live = np.isfinite(np.take_along_axis(keys, picked, axis=1))
        picked = np.sort(np.where(live, picked, n_universe), axis=1)
        counts[start:stop] = live.sum(axis=1)
        chunks.append(picked[picked < n_universe])
    return CandidatePool(np.concatenate([[0], np.cumsum(counts)]), np.concatenate(chunks))


def sample_triplets(relation, anchors, positives, pool, neg_samples, rng):
    """Expand (anchor, positive) pairs into a TripletBatch.

    Each pair contributes ``neg_samples`` rows, negatives drawn uniformly
    from the anchor's pool (with replacement at the batch level). Pairs whose
    anchor has an empty pool are dropped.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    lens = pool.lens()[anchors]
    keep = lens > 0
    if not np.all(keep):
        anchors, positives, lens = anchors[keep], positives[keep], lens[keep]
    rep_a = np.repeat(anchors, neg_samples)
    rep_p = np.repeat(positives, neg_samples)
    rep_len = np.repeat(lens, neg_samples)
    draw = np.floor(rng.random(len(rep_a)) * rep_len).astype(np.int64)
    negs = pool.indices[pool.indptr[rep_a] + draw]
    return TripletBatch(relation=relation, anchors=rep_a, positives=rep_p,
                        negatives=negs)
