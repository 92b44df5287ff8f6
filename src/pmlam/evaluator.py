"""Top-K ranking evaluation: Recall@K and NDCG@K.

For every user, all items outside the training set are ordered by ascending
distance to the user (ties broken by ascending item index, so results are
bit-reproducible), and the held-out test items are scored against the top of
that ranking. Recall uses |T_i| as the denominator; NDCG uses binary gains
1/log2(rank+1).
"""

from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .distance import DistanceKind


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


def pairwise_distances(users, items, kind, user_idx=None):
    """Distance matrix between (a subset of) users and all items."""
    mu_u = users.mu if user_idx is None else users.mu[user_idx]
    d2 = (
        np.sum(mu_u ** 2, axis=1)[:, None]
        + np.sum(items.mu ** 2, axis=1)[None, :]
        - 2.0 * mu_u @ items.mu.T
    )
    if kind is DistanceKind.W2_SQUARED:
        ru = np.sqrt(users.sigma if user_idx is None else users.sigma[user_idx])
        ri = np.sqrt(items.sigma)
        d2 += (
            np.sum(ru ** 2, axis=1)[:, None]
            + np.sum(ri ** 2, axis=1)[None, :]
            - 2.0 * ru @ ri.T
        )
    return np.maximum(d2, 0.0)  # clip the tiny negatives of the expanded form


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
    at that value go to the lowest indices.
    """
    k = min(k, d2.shape[1])
    if k == 0:
        return np.empty((len(d2), 0), dtype=np.int64)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 < kth
    tie = d2 == kth
    need = k - below.sum(axis=1, keepdims=True)
    cols = np.nonzero(below | (tie & (np.cumsum(tie, axis=1) <= need)))[1]
    cols = cols.reshape(len(d2), k)
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


def _row_mask(rows, idx, n_cols):
    """Boolean (len(idx), n_cols) matrix, True at the columns listed in ``rows[idx]``."""
    lens = rows.lens()[idx]  # gather row idx[r] from rows.indptr[idx[r]] on
    at = np.arange(lens.sum()) + np.repeat(rows.indptr[idx] - np.cumsum(lens) + lens, lens)
    mask = np.zeros((len(idx), n_cols), dtype=bool)
    mask[np.repeat(np.arange(len(idx)), lens), rows.indices[at]] = True
    return mask


def evaluate(users, items, fold, ks, kind, chunk=256):
    """Mean Recall@K / NDCG@K over users with a nonempty test set."""
    ks = tuple(ks)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_test = fold.test_rows.lens()
    evaluated = np.flatnonzero(n_test)
    if len(evaluated) == 0:
        raise ValueError("no user has test interactions")
    for start in range(0, len(evaluated), chunk):
        idx = evaluated[start:start + chunk]
        d2 = pairwise_distances(users, items, kind, user_idx=idx)
        d2[_row_mask(fold.train_rows, idx, items.n)] = np.inf
        test = _row_mask(fold.test_rows, idx, items.n)
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
