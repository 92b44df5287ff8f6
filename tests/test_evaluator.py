import numpy as np
import pytest

from pmlam.data import FoldSplit
from pmlam.distance import DistanceKind, w2_squared
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.evaluator import (_hit_metrics, evaluate, format_table, item_side,
                             pairwise_distances, rank, top_k, write_report_csv)

from helpers import random_table, reference_pairwise_distances, reference_top_k

W2 = DistanceKind.W2_SQUARED


def brute_force_metrics(users, items, fold, k, kind):
    """Independent per-user scorer built on the scalar distance kernel."""
    recalls, ndcgs = [], []
    for u in range(users.n):
        test = fold.test_rows[u]
        if len(test) == 0:
            continue
        scored = []
        for i in range(items.n):
            if i in fold.train_rows[u]:
                continue
            if kind is W2:
                d = w2_squared(users.mu[u], users.sigma[u], items.mu[i], items.sigma[i])
            else:
                d = float(np.sum((users.mu[u] - items.mu[i]) ** 2))
            scored.append((d, i))
        scored.sort()
        top = [i for _, i in scored[:k]]
        hits = [i for i in top if i in test]
        recalls.append(len(hits) / len(test))
        dcg = sum(1.0 / np.log2(pos + 2) for pos, i in enumerate(top) if i in test)
        idcg = sum(1.0 / np.log2(p + 2) for p in range(min(k, len(test))))
        ndcgs.append(dcg / idcg)
    return float(np.mean(recalls)), float(np.mean(ndcgs))


def fold_from(train_rows, test_rows):
    return FoldSplit(fold_index=0, train_rows=train_rows, test_rows=test_rows)


def test_rank_identical_item_comes_first():
    rng = np.random.default_rng(0)
    users = random_table(1, 3, rng)
    items = random_table(4, 3, rng)
    items.mu[2] = users.mu[0]
    items.sigma[2] = users.sigma[0]
    order = rank(0, users, items, train_set=np.array([], dtype=int), kind=W2)
    assert order[0] == 2


def test_rank_excludes_training_items():
    rng = np.random.default_rng(1)
    users, items = random_table(1, 2, rng), random_table(6, 2, rng)
    order = rank(0, users, items, train_set=np.array([1, 4]), kind=W2)
    assert len(order) == 4
    assert not set(order) & {1, 4}


def test_rank_hand_computed_order():
    users = GaussianEmbeddingTable(np.array([[1.0, 0.0]]), np.array([[0.25, 0.25]]))
    items = GaussianEmbeddingTable(
        np.array([[1.0, 1.0], [0.0, 1.0], [-1.0, -1.0]]),
        np.array([[2.25, 2.25], [1.0, 1.0], [4.0, 0.25]]))
    d = [w2_squared(users.mu[0], users.sigma[0], items.mu[i], items.sigma[i])
         for i in range(3)]
    # mean term + sqrt-variance term per item: 1+2, 2+0.5, 5+2.25
    assert d[0] == pytest.approx(3.0, abs=1e-15)
    assert d[1] == pytest.approx(2.5, abs=1e-15)
    assert d[2] == pytest.approx(7.25, abs=1e-15)
    order = rank(0, users, items, np.array([], dtype=int), W2)
    np.testing.assert_array_equal(order, [1, 0, 2])


def test_rank_ties_break_by_item_index():
    users = GaussianEmbeddingTable(np.zeros((1, 2)), np.full((1, 2), 0.5))
    items = GaussianEmbeddingTable(np.zeros((3, 2)), np.full((3, 2), 0.5))
    order = rank(0, users, items, np.array([], dtype=int), W2)
    np.testing.assert_array_equal(order, [0, 1, 2])


def scores(topk, test_set):
    """Recall@K and NDCG@K of one ranked list, K its length, as ``evaluate`` scores it."""
    hits = np.isin(topk, test_set)[None, :]
    recall, ndcg = _hit_metrics(hits, np.array([len(test_set)]), len(topk))
    return float(recall[0]), float(ndcg[0])


def test_recall_cases():
    assert scores(np.array([1, 2, 3]), np.array([1, 9]))[0] == 0.5
    assert scores(np.array([1, 9, 3]), np.array([1, 9]))[0] == 1.0
    assert scores(np.array([4, 5]), np.array([1, 9]))[0] == 0.0
    rng = np.random.default_rng(3)  # evaluate scores no empty test set: it rejects the fold
    users, items = random_table(2, 2, rng), random_table(3, 2, rng)
    fold = fold_from([np.array([0])] * 2, [np.array([], dtype=np.int64)] * 2)
    with pytest.raises(ValueError, match="no user has test interactions"):
        evaluate(users, items, fold, (1,), W2)


def test_ndcg_cases():
    assert scores(np.array([7, 3]), np.array([7]))[1] == 1.0
    assert scores(np.array([3, 7]), np.array([7]))[1] == pytest.approx(1 / np.log2(3))
    assert scores(np.array([3, 4]), np.array([7]))[1] == 0.0


def test_evaluate_matches_brute_force_scorer():
    rng = np.random.default_rng(7)
    users = random_table(10, 4, rng)
    items = random_table(30, 4, rng)
    train_rows, test_rows = [], []
    for u in range(10):
        d = np.sort(rng.choice(30, size=10, replace=False))
        train_rows.append(d[:7])
        test_rows.append(d[7:])
    fold = fold_from(train_rows, test_rows)
    for kind in (W2, DistanceKind.EUCLIDEAN_SQUARED):
        report = evaluate(users, items, fold, ks=(5, 10), kind=kind)
        for k in (5, 10):
            r, n = brute_force_metrics(users, items, fold, k, kind)
            assert report.recall[k] == pytest.approx(r, abs=1e-12)
            assert report.ndcg[k] == pytest.approx(n, abs=1e-12)


def test_evaluate_skips_users_without_test_items():
    rng = np.random.default_rng(8)
    users, items = random_table(3, 2, rng), random_table(8, 2, rng)
    fold = fold_from([np.array([0]), np.array([1]), np.array([2])],
                     [np.array([3]), np.array([], dtype=int), np.array([4])])
    report = evaluate(users, items, fold, ks=(5,), kind=W2)
    assert report.n_users == 2


def test_recall_monotone_and_ndcg_bounded():
    rng = np.random.default_rng(9)
    users, items = random_table(12, 3, rng), random_table(40, 3, rng)
    train_rows = [np.sort(rng.choice(40, 5, replace=False)) for _ in range(12)]
    test_rows = [np.sort(np.setdiff1d(rng.choice(40, 9, replace=False),
                                      train_rows[u])) for u in range(12)]
    fold = fold_from(train_rows, test_rows)
    report = evaluate(users, items, fold, ks=(5, 10, 15, 20), kind=W2)
    rs = [report.recall[k] for k in (5, 10, 15, 20)]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    assert all(0.0 <= report.ndcg[k] <= 1.0 for k in report.ks)


def test_top_k_matches_stable_sort_with_ties():
    rng = np.random.default_rng(13)
    d2 = rng.integers(0, 4, size=(30, 25)).astype(float)  # many ties
    d2[rng.random(d2.shape) < 0.3] = np.inf  # masked training items
    for k in (0, 1, 5, 24, 25, 40):
        np.testing.assert_array_equal(
            top_k(d2, k), np.argsort(d2, axis=1, kind="stable")[:, :k])


def test_rank_matches_stable_sort_with_ties():
    rng = np.random.default_rng(14)
    users = GaussianEmbeddingTable(rng.integers(-1, 2, (1, 2)).astype(float), np.ones((1, 2)))
    items = GaussianEmbeddingTable(rng.integers(-1, 2, (30, 2)).astype(float),
                                   np.ones((30, 2)))  # 9 distinct points: many ties
    train = np.sort(rng.choice(30, 7, replace=False))
    d2 = pairwise_distances(users, items, W2)[0]
    d2[train] = np.inf
    full = np.argsort(d2, kind="stable")[:23]  # the 23 unseen items
    np.testing.assert_array_equal(rank(0, users, items, train, W2), full)
    for k in (0, 1, 5, 23, 40):  # past the unseen items gives them all
        np.testing.assert_array_equal(rank(0, users, items, train, W2, k=k), full[:k])


def test_rank_of_a_user_who_has_seen_everything_is_empty():
    rng = np.random.default_rng(15)
    users, items = random_table(1, 2, rng), random_table(4, 2, rng)
    for k in (None, 0, 3):
        assert len(rank(0, users, items, np.arange(4), W2, k=k)) == 0


def test_squared_and_unsquared_distances_rank_identically():
    rng = np.random.default_rng(10)
    users, items = random_table(1, 5, rng), random_table(50, 5, rng)
    d2 = pairwise_distances(users, items, W2)[0]
    np.testing.assert_array_equal(np.argsort(d2, kind="stable"),
                                  np.argsort(np.sqrt(d2), kind="stable"))


def test_evaluate_is_reproducible():
    rng = np.random.default_rng(11)
    users, items = random_table(6, 3, rng), random_table(20, 3, rng)
    fold = fold_from([np.array([0, 1])] * 6, [np.array([2, 3])] * 6)
    a = evaluate(users, items, fold, ks=(5,), kind=W2)
    b = evaluate(users, items, fold, ks=(5,), kind=W2)
    assert a.recall == b.recall and a.ndcg == b.ndcg


def test_perfect_model_on_planted_blocks():
    # items of the user's block sit exactly on the user: distance 0
    h = 4
    mu = np.zeros((4, h))
    mu[:2, 0] = 0.5
    mu[2:, 1] = 0.5
    users = GaussianEmbeddingTable(mu[:2].repeat(2, 0)[:2], np.full((2, h), 0.1))
    users.mu[:] = [[0.5] + [0.0] * (h - 1), [0.0, 0.5] + [0.0] * (h - 2)]
    items = GaussianEmbeddingTable(
        np.array([[0.5] + [0.0] * (h - 1)] * 2 + [[0.0, 0.5] + [0.0] * (h - 2)] * 2),
        np.full((4, h), 0.1))
    fold = fold_from([np.array([0]), np.array([2])],
                     [np.array([1]), np.array([3])])
    report = evaluate(users, items, fold, ks=(1, 5), kind=W2)
    assert report.recall[1] == 1.0 and report.recall[5] == 1.0


def test_report_csv_and_table(tmp_path):
    rng = np.random.default_rng(12)
    users, items = random_table(4, 2, rng), random_table(10, 2, rng)
    fold = fold_from([np.array([0])] * 4, [np.array([1])] * 4)
    r = evaluate(users, items, fold, ks=(5, 10), kind=W2)
    out = tmp_path / "report.csv"
    write_report_csv(out, [r], header_lines=["seed = 0"])
    text = out.read_text()
    assert text.startswith("# seed = 0\nfold,K,recall,ndcg,n_users\n")
    assert len(text.strip().split("\n")) == 4
    for line in text.strip().split("\n")[2:]:
        [float(cell) for cell in line.split(",")]  # plain numbers, no reprs
    table = format_table(r, title="check")
    assert "Recall@K" in table and "check" in table


@pytest.mark.parametrize("kind", list(DistanceKind))
def test_pairwise_distances_equal_the_reference_expression_bit_for_bit(kind):
    rng = np.random.default_rng(16)
    users, items = random_table(300, 7, rng), random_table(90, 7, rng)
    side = item_side(items, kind)
    for user_idx in (None, np.sort(rng.choice(300, 40, replace=False)), np.array([17])):
        want = reference_pairwise_distances(users, items, kind, user_idx).tobytes()
        assert pairwise_distances(users, items, kind, user_idx=user_idx).tobytes() == want
        if user_idx is None:
            continue
        # as evaluate calls it: shared item terms, room to spare; Euclidean also
        # in the two slabs evaluate gives it
        for slabs in (3, 2) if kind is DistanceKind.EUCLIDEAN_SQUARED else (3,):
            work = np.full((slabs, 50, items.n), np.nan)
            got = pairwise_distances(users, items, kind, user_idx=user_idx, side=side,
                                     work=work)
            assert got.tobytes() == want
            assert np.shares_memory(got, work[0])


def test_top_k_equals_the_reference_with_ties_at_the_kth_value():
    rng = np.random.default_rng(17)
    for _ in range(40):
        width = int(rng.integers(1, 40))
        d2 = rng.random((int(rng.integers(1, 30)), width))
        for k in (1, int(rng.integers(1, width + 1)), width, width + 3):
            kth = np.sort(d2, axis=1)[:, min(k, width) - 1]
            planted = d2.copy()
            for r in np.flatnonzero(rng.random(len(d2)) < 0.5):  # ties at the k-th value
                planted[r, rng.choice(width, int(rng.integers(1, width + 1)))] = kth[r]
            planted[rng.random(len(d2)) < 0.2] = np.inf  # users who have seen every item
            want = reference_top_k(planted, k)
            np.testing.assert_array_equal(want, np.argsort(planted, axis=1, kind="stable")[:, :k])
            got = top_k(planted, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
