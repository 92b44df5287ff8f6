import numpy as np
import pytest
import scipy.stats

from pmlam import sampler
from pmlam.data import as_rows
from pmlam.sampler import CandidatePool, refresh_pool, sample_triplets

from helpers import validate_membership


def test_pool_excludes_positives():
    rng = np.random.default_rng(0)
    exclusions = [np.array([0, 1, 2]), np.array([5]), np.array([], dtype=int)]
    pool = refresh_pool(as_rows(exclusions), n_universe=10, pool_size=4, rng=rng)
    for a in range(3):
        cands = pool[a]
        assert len(cands) == 4
        assert not np.isin(cands, exclusions[a]).any()
        assert len(np.unique(cands)) == len(cands)  # without replacement


@pytest.mark.parametrize("n_universe, id_type", [(10, np.uint8), (300, np.uint16),
                                                  (70_000, np.uint32)])
def test_pool_ids_take_the_smallest_unsigned_type(n_universe, id_type):
    exclusions = as_rows([np.array([0, n_universe - 1]), np.arange(n_universe - 3)])
    pool = refresh_pool(exclusions, n_universe, 4, np.random.default_rng(3))
    assert pool.indices.dtype == id_type
    assert pool[1].tolist() == list(range(n_universe - 3, n_universe))
    b = sample_triplets("ii", [0, 1], [2, 0], pool, 3, np.random.default_rng(4))
    assert b.negatives.dtype == id_type and b.others.dtype == np.int64
    np.testing.assert_array_equal(b.others[len(b):], b.negatives)


def test_pool_small_complement_takes_everything():
    rng = np.random.default_rng(1)
    pool = refresh_pool(as_rows([np.arange(9)]), n_universe=10, pool_size=500, rng=rng)
    np.testing.assert_array_equal(pool[0], [9])


def test_pool_full_exclusion_gives_empty_pool():
    rng = np.random.default_rng(2)
    pool = refresh_pool(as_rows([np.arange(10)]), n_universe=10, pool_size=5, rng=rng)
    assert len(pool[0]) == 0


def test_pool_determinism():
    excl = [np.array([1, 2])] * 4
    a = refresh_pool(as_rows(excl), 50, 8, np.random.default_rng(7))
    b = refresh_pool(as_rows(excl), 50, 8, np.random.default_rng(7))
    np.testing.assert_array_equal(a.indices, b.indices)


def test_pool_spanning_several_key_blocks(monkeypatch):
    rng = np.random.default_rng(8)
    n_universe, pool_size = 1000, 50
    n_anchors = 2 * (sampler.KEY_BLOCK // n_universe) + 5  # three key blocks
    sizes = rng.integers(0, n_universe + 1, n_anchors)
    sizes[:3] = (n_universe, n_universe - 10, 0)  # empty, short and full complements
    exclusions = [np.sort(rng.choice(n_universe, size=s, replace=False)) for s in sizes]
    pool = refresh_pool(as_rows(exclusions), n_universe, pool_size,
                        np.random.default_rng(1))
    for a, excl in enumerate(exclusions):
        cands = pool[a]
        assert len(cands) == min(pool_size, n_universe - len(excl))
        assert np.all(np.diff(cands) > 0)  # ascending, so no duplicates
        assert not np.isin(cands, excl).any()
    again = refresh_pool(as_rows(exclusions), n_universe, pool_size,
                         np.random.default_rng(1))
    np.testing.assert_array_equal(again.indices, pool.indices)
    monkeypatch.setattr(sampler, "KEY_BLOCK", n_universe)  # one row per block
    one_row = refresh_pool(as_rows(exclusions), n_universe, pool_size,
                           np.random.default_rng(1))
    np.testing.assert_array_equal(one_row.indices, pool.indices)
    np.testing.assert_array_equal(one_row.indptr, pool.indptr)


def test_sample_triplets_row_expansion():
    rng = np.random.default_rng(3)
    exclusions = [np.array([0]), np.array([1])]
    pool = refresh_pool(as_rows(exclusions), n_universe=6, pool_size=5, rng=rng)
    anchors = np.array([0, 1, 0])
    positives = np.array([0, 1, 0])
    batch = sample_triplets("ui", anchors, positives, pool, neg_samples=1,
                            rng=rng)
    validate_membership(batch, exclusions)
    assert len(batch) == 3
    np.testing.assert_array_equal(batch.anchors, anchors)
    batch = sample_triplets("ui", anchors, positives, pool, neg_samples=4, rng=rng)
    assert len(batch) == 12
    np.testing.assert_array_equal(batch.anchors, np.repeat(anchors, 4))
    np.testing.assert_array_equal(batch.positives, np.repeat(positives, 4))


def test_sample_triplets_membership_invariant():
    rng = np.random.default_rng(4)
    rows = [np.sort(rng.choice(30, size=rng.integers(3, 10), replace=False))
            for _ in range(12)]
    pool = refresh_pool(as_rows(rows), n_universe=30, pool_size=10, rng=rng)
    anchors, positives = as_rows(rows).pairs()
    batch = sample_triplets("ui", anchors, positives, pool, neg_samples=3,
                            rng=rng)
    validate_membership(batch, rows)
    for a, n in zip(batch.anchors, batch.negatives):
        assert n not in rows[a]


def test_anchors_with_empty_pools_are_dropped():
    rng = np.random.default_rng(5)
    pool = refresh_pool(as_rows([np.arange(10), np.array([0])]), n_universe=10,
                        pool_size=4, rng=rng)
    batch = sample_triplets("ui", np.array([0, 1]), np.array([2, 0]), pool,
                            neg_samples=2, rng=rng)
    assert set(batch.anchors.tolist()) == {1}


def test_full_complement_pool_is_uniform():
    # pool big enough to hold the whole complement: negatives should be
    # indistinguishable from plain uniform sampling over the complement
    rng = np.random.default_rng(6)
    exclusion = [np.array([2, 7])]
    pool = refresh_pool(as_rows(exclusion), n_universe=10, pool_size=100, rng=rng)
    assert len(pool[0]) == 8
    draws = 40_000
    batch = sample_triplets("ui", np.zeros(draws, dtype=int),
                            np.full(draws, 2), pool, neg_samples=1, rng=rng)
    counts = np.bincount(batch.negatives, minlength=10)
    assert counts[2] == 0 and counts[7] == 0
    observed = counts[counts > 0]
    _, p = scipy.stats.chisquare(observed)
    assert p > 0.01


def test_pairs_from_rows():
    rows = [np.array([3, 5]), np.array([], dtype=int), np.array([1])]
    anchors, positives = as_rows(rows).pairs()
    np.testing.assert_array_equal(anchors, [0, 0, 2])
    np.testing.assert_array_equal(positives, [3, 5, 1])
