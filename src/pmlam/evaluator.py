"""Top-K ranking evaluation: Recall@K and NDCG@K.

For every user, all items outside the training set are ordered by ascending
distance to the user (ties broken by ascending item index, so results are
bit-reproducible), and the held-out test items are scored against the top of
that ranking. Recall uses |T_i| as the denominator; NDCG uses binary gains
1/log2(rank+1).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import atomic_write
from .distance import DistanceKind

EVAL_CHUNK = 256  # users whose distance rows one evaluation step holds


@dataclass
class EvalReport:
    ks: tuple
    recall: dict          # K -> mean over evaluated users, a plain float
    ndcg: dict
    n_users: int          # users with a nonempty test set
    fold_index: int | None = None

    def row_lines(self):
        return [f"{self.fold_index if self.fold_index is not None else -1},"
                f"{k},{self.recall[k]!r},{self.ndcg[k]!r},{self.n_users}"
                for k in self.ks]


class ItemSide(NamedTuple):
    """The item terms of :func:`pairwise_distances`, the same for every chunk of users."""

    mu_sq: np.ndarray            # sum(mu ** 2) of each item
    root: np.ndarray | None      # sqrt(sigma), for W2 only
    root_sq: np.ndarray | None   # sum(root ** 2) of each item


def item_side(items, kind):
    """:class:`ItemSide` of the table ``items`` under distance ``kind``."""
    root = root_sq = None
    if kind is DistanceKind.W2_SQUARED:
        root = np.sqrt(items.sigma)
        root_sq = np.sum(root ** 2, axis=1)
    return ItemSide(np.sum(items.mu ** 2, axis=1), root, root_sq)


def _work_slabs(kind):
    """Slabs of :func:`pairwise_distances`' ``work`` that ``kind`` writes: W2 adds a term."""
    return 3 if kind is DistanceKind.W2_SQUARED else 2


def pairwise_distances(users, items, kind, user_idx=None, side=None, work=None):
    """Distance matrix between (a subset of) users and all items.

    Each term is ``(|a|^2 + |b|^2) - (2a) @ b``, rounded in that order; W2 adds
    the term of the roots of the variances to that of the means. A caller that
    ranks many chunks of users passes ``side``, :func:`item_side` of ``items``,
    and ``work``, a float64 array of shape (slabs, at least the rows, items)
    that the matrix and its temporaries are built in: the matrix goes into
    ``work[0]`` and the products into ``work[1]``, and W2 writes its variance
    term into ``work[2]``, so a Euclidean ``work`` needs two slabs and a W2
    one three. The matrix is then a view of ``work[0]``.
    """
    side = item_side(items, kind) if side is None else side
    rows = slice(None) if user_idx is None else user_idx
    mu_u = users.mu[rows]
    if work is None:
        work = np.empty((_work_slabs(kind), len(mu_u), items.n))
    d2, product = work[:2, :len(mu_u)]
    np.add.outer(np.sum(mu_u ** 2, axis=1), side.mu_sq, out=d2)
    d2 -= np.matmul(2.0 * mu_u, items.mu.T, out=product)
    if kind is DistanceKind.W2_SQUARED:
        ru = np.sqrt(users.sigma[rows])
        term = work[2, :len(mu_u)]
        np.add.outer(np.sum(ru ** 2, axis=1), side.root_sq, out=term)
        term -= np.matmul(2.0 * ru, side.root.T, out=product)
        d2 += term
    return np.maximum(d2, 0.0, out=d2)  # clip the tiny negatives of the expanded form


def rank(user, users, items, train_set, kind, k=None):
    """Item indices outside ``train_set`` ordered by ascending distance.

    Ties break by ascending item index. Truncated to ``k`` when given; a ``k``
    past the unseen items gives them all.
    """
    d2 = pairwise_distances(users, items, kind, user_idx=np.array([user]))[0]
    return rank_row(d2, train_set, k)


def rank_row(d2, train_set, k=None):
    """:func:`rank` from one user's row ``d2`` of distances to every item.

    ``d2`` is left as it is, so a caller can read the ranked items' distances.
    """
    masked = d2[None, :].copy()
    masked[0, np.asarray(train_set, dtype=np.int64)] = np.inf
    n_unseen = len(d2) - len(train_set)
    return top_k(masked, n_unseen if k is None else min(k, n_unseen))[0]


def top_k(d2, k):
    """Column indices of each row's ``k`` smallest entries, in (value, index) order.

    Equals ``np.argsort(d2, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows: every entry below the k-th smallest value is taken, and ties
    at that value go to the lowest indices. Only rows with more than ``k``
    entries at or below that value pay for the tie count.
    """
    k = min(k, d2.shape[1])
    if k == 0:
        return np.empty((len(d2), 0), dtype=np.int64)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    taken = d2 <= kth  # k in each row, and more where entries tie the k-th value
    if np.count_nonzero(taken) > taken.shape[0] * k:
        tied = np.flatnonzero(np.count_nonzero(taken, axis=1) > k)
        rows, at = d2[tied], kth[tied]
        below, tie = rows < at, rows == at
        need = k - below.sum(axis=1, keepdims=True)
        taken[tied] = below | (tie & (np.cumsum(tie, axis=1) <= need))
    flat = np.flatnonzero(taken).reshape(len(d2), k)  # a 1-d search is the fast one
    cols = flat - d2.shape[1] * np.arange(len(d2))[:, None]
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _hit_metrics(hits, n_test, k):
    """Per-row Recall@k and NDCG@k of ranked lists.

    ``hits[r, j]`` says whether the j-th listed item of row r is in that row's
    test set, whose size is ``n_test[r]`` (> 0). Only the first ``k`` columns
    count; a list shorter than k (a tiny catalog) is scored as it stands.
    NDCG uses binary gains 1/log2(position + 1).
    """
    hits = hits[:, :k]
    width = hits.shape[1]
    discount = 1.0 / np.log2(np.arange(2, width + 2))
    idcg = np.cumsum(discount)[np.minimum(width, n_test) - 1]
    return hits.sum(axis=1) / n_test, (hits @ discount) / idcg


def _row_pairs(rows, idx):
    """(r, c) index arrays of the entries of ``rows[idx[r]]``, for every r."""
    lens = rows.lens()[idx]  # gather row idx[r] from rows.indptr[idx[r]] on
    at = np.arange(lens.sum()) + np.repeat(rows.indptr[idx] - np.cumsum(lens) + lens, lens)
    return np.repeat(np.arange(len(idx)), lens), rows.indices[at]


def evaluate(users, items, fold, ks, kind):
    """Mean Recall@K / NDCG@K over users with a nonempty test set, :data:`EVAL_CHUNK` at a time."""
    ks = tuple(ks)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_test = fold.test_rows.lens()
    evaluated = np.flatnonzero(n_test)
    if len(evaluated) == 0:
        raise ValueError("no user has test interactions")
    side = item_side(items, kind)
    work = np.empty((_work_slabs(kind), min(EVAL_CHUNK, len(evaluated)), items.n))
    for start in range(0, len(evaluated), EVAL_CHUNK):
        idx = evaluated[start:start + EVAL_CHUNK]
        d2 = pairwise_distances(users, items, kind, user_idx=idx, side=side, work=work)
        d2[_row_pairs(fold.train_rows, idx)] = np.inf
        test = np.zeros(d2.shape, dtype=bool)
        test[_row_pairs(fold.test_rows, idx)] = True
        hits = np.take_along_axis(test, top_k(d2, max(ks)), axis=1)
        for k in ks:
            recall, ndcg = _hit_metrics(hits, n_test[idx], k)
            recall_sums[k] += float(recall.sum())
            ndcg_sums[k] += float(ndcg.sum())
    n_eval = len(evaluated)
    return EvalReport(
        ks=ks,
        recall={k: recall_sums[k] / n_eval for k in ks},
        ndcg={k: ndcg_sums[k] / n_eval for k in ks},
        n_users=n_eval,
        fold_index=fold.fold_index,
    )


def format_table(report, title=""):
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'K':>4}  {'Recall@K':>10}  {'NDCG@K':>10}   (users={report.n_users})")
    for k in report.ks:
        lines.append(f"{k:>4}  {report.recall[k]:>10.4f}  {report.ndcg[k]:>10.4f}")
    return "\n".join(lines)


def write_report_csv(path, reports, header_lines=()):
    def body(f):
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("fold,K,recall,ndcg,n_users\n")
        for r in reports:
            for line in r.row_lines():
                f.write(line + "\n")

    atomic_write(path, body)
