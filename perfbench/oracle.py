"""Independent checks of the CLI's outputs.

Reads the prepared dataset, the folds and the checkpoint straight from their
documented file formats, scores items with the closed-form squared W2 (or
Euclidean) distance, orders them by (distance, item index) with training
items excluded, and compares ``recommend`` lists and the ``evaluate`` CSV
against that. Nothing here calls into ``pmlam``, so a change to its loaders,
distances or ranking cannot hide its own mistakes.
"""

import json
import math

import numpy as np

DIST_TOL = 1e-9      # two scorers of the same float64 formula agree far closer
PRINTED_TOL = 1e-6   # recommend prints distances with six decimals
METRIC_TOL = 1e-9


def read_ids(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t", 1)[1] for line in f if line.strip()]


def read_rows(data_dir):
    """Per-user item-index arrays from ``dataset.txt``."""
    with open(f"{data_dir}/dataset.txt") as f:
        f.readline()
        n_users = int(f.readline().split()[1])
        f.readline()
        f.readline()
        return [np.array(f.readline().split(), dtype=np.int64) for _ in range(n_users)]


def read_shape(data_dir):
    """(users, items, interactions) from the ``dataset.txt`` header."""
    with open(f"{data_dir}/dataset.txt") as f:
        f.readline()
        return tuple(int(f.readline().split()[1]) for _ in range(3))


def read_checkpoint(path):
    """(header dict, {name: array}) from a PMLAM-CKPT v1 file."""
    with open(path, "rb") as f:
        blob = f.read()
    start = blob.index(b"\n") + 1
    header_len = int.from_bytes(blob[start:start + 8], "little")
    pos = start + 8 + header_len
    header = json.loads(blob[start + 8:pos].decode())
    arrays = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(
            blob, dtype=dtype, count=count, offset=pos).reshape(entry["shape"])
        pos += count * dtype.itemsize
    return header, arrays


def sq_distances(mu_u, sig_u, mu_i, sig_i, w2):
    """Squared W2 (or Euclidean) distances between user rows and all items.

    Diagonal Gaussians: ||mu_u - mu_i||^2 + ||sqrt(sig_u) - sqrt(sig_i)||^2.
    """
    def sq(a, b):
        d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
        return np.maximum(d2, 0.0)
    d2 = sq(mu_u, mu_i)
    if w2:
        d2 += sq(np.sqrt(sig_u), np.sqrt(sig_i))
    return d2


class Oracle:
    """Reference ranking for one trained checkpoint on one prepared dataset."""

    def __init__(self, data_dir, checkpoint_path):
        header, arrays = read_checkpoint(checkpoint_path)
        self.w2 = header["config"]["distance_kind"] == "w2"
        self.user_mu, self.user_sigma = arrays["user_mu"], arrays["user_sigma"]
        self.item_mu, self.item_sigma = arrays["item_mu"], arrays["item_sigma"]
        rows = read_rows(data_dir)
        fold = header["fold_index"]
        self.train, self.test = [], []
        with open(f"{data_dir}/folds.txt") as f:
            for _ in range(3):
                f.readline()
            for row in rows:
                labels = np.array(f.readline().split(), dtype=np.int64)
                self.train.append(row[labels != fold])
                self.test.append(row[labels == fold])
        self.user_index = {ext: u for u, ext in enumerate(read_ids(f"{data_dir}/user_ids.txt"))}
        self.item_ids = read_ids(f"{data_dir}/item_ids.txt")
        self.item_index = {ext: i for i, ext in enumerate(self.item_ids)}
        self.warnings = []
        self._metrics = {}  # k -> top_k_metrics(k); the checkpoint never changes

    def _masked(self, users):
        d2 = sq_distances(self.user_mu[users], self.user_sigma[users],
                          self.item_mu, self.item_sigma, self.w2)
        for r, u in enumerate(users):
            d2[r, self.train[u]] = np.inf
        return d2

    def check_recommend(self, user_id, stdout, k=10):
        """Problems with one ``recommend`` output; empty when it is right."""
        u = self.user_index.get(user_id)
        if u is None:
            return [f"user {user_id!r} is not in the prepared id map"]
        d2 = self._masked([u])[0]
        n_valid = len(self.item_ids) - len(self.train[u])
        want = np.sort(d2)[:min(k, n_valid)]
        lines = [line.split() for line in stdout.splitlines() if line.strip()]
        if len(lines) != len(want):
            return [f"user {user_id}: {len(lines)} lines, expected {len(want)}"]
        problems, seen = [], set()
        for pos, parts in enumerate(lines):
            if len(parts) != 3 or parts[0] != str(pos + 1) or not _is_number(parts[2]):
                return [f"user {user_id}: malformed line {' '.join(parts)!r}"]
            item = self.item_index.get(parts[1])
            if item is None or item in seen or not np.isfinite(d2[item]):
                return [f"user {user_id}: item {parts[1]} unknown, repeated or trained on"]
            seen.add(item)
            if abs(d2[item] - want[pos]) > DIST_TOL * (1.0 + want[pos]):
                problems.append(f"user {user_id}: rank {pos + 1} is {parts[1]} at "
                                f"{d2[item]!r}, oracle has distance {want[pos]!r}")
            elif abs(float(parts[2]) - d2[item]) > PRINTED_TOL:
                problems.append(f"user {user_id}: {parts[1]} printed {parts[2]}, "
                                f"oracle {d2[item]!r}")
        return problems

    def top_k_metrics(self, k=10, chunk=256):
        """Mean Recall@k and NDCG@k over users with a nonempty test set."""
        recalls, ndcgs = [], []
        discount = 1.0 / np.log2(np.arange(2, k + 2))
        for start in range(0, len(self.train), chunk):
            users = list(range(start, min(start + chunk, len(self.train))))
            order = np.argsort(self._masked(users), axis=1, kind="stable")[:, :k]
            for r, u in enumerate(users):
                test = self.test[u]
                if len(test) == 0:
                    continue
                hits = np.isin(order[r], test)
                recalls.append(hits.sum() / len(test))
                ndcgs.append(discount[:len(hits)][hits].sum()
                             / discount[:min(k, len(test))].sum())
        return float(np.mean(recalls)), float(np.mean(ndcgs)), len(recalls)

    def _csv_number(self, path, cell):
        """A CSV cell as a float, or None.

        NumPy 2 writes ``repr(np.float64(x))`` as ``np.float64(x)``; such a
        cell is read as ``x`` and the format defect is kept in ``warnings``.
        """
        prefix = "np.float64("
        if cell.startswith(prefix) and cell.endswith(")"):
            cell = cell[len(prefix):-1]
            note = f"{path.name}: values written as numpy reprs, {prefix}...)"
            if note not in self.warnings:
                self.warnings.append(note)
        return float(cell) if _is_number(cell) else None

    def check_eval_csv(self, path, k=10):
        """(problems, recall@k, ndcg@k) for an ``evaluate --out`` CSV."""
        with open(path) as f:
            rows = [line.strip().split(",") for line in f
                    if line.strip() and not line.startswith("#")]
        found = [r for r in rows[1:] if r[1] == str(k)]
        if rows[:1] != [["fold", "K", "recall", "ndcg", "n_users"]] or len(found) != 1:
            return [f"{path}: no single K={k} row under the expected header"], None, None
        recall, ndcg = (self._csv_number(path, cell) for cell in found[0][2:4])
        if recall is None or ndcg is None or not found[0][4].isdigit():
            return [f"{path}: non-numeric K={k} row {found[0]}"], None, None
        n_users = int(found[0][4])
        if k not in self._metrics:
            self._metrics[k] = self.top_k_metrics(k)
        want_r, want_n, want_users = self._metrics[k]
        problems = []
        if n_users != want_users:
            problems.append(f"evaluate: {n_users} users, oracle {want_users}")
        if abs(recall - want_r) > METRIC_TOL or abs(ndcg - want_n) > METRIC_TOL:
            problems.append(f"evaluate: R@{k}={recall!r} N@{k}={ndcg!r}, "
                            f"oracle {want_r!r} {want_n!r}")
        return problems, recall, ndcg


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def check_trace_csv(path):
    """Problems with a training ``trace.csv``: missing rows or non-finite losses."""
    with open(path) as f:
        rows = [line.strip().split(",") for line in f
                if line.strip() and not line.startswith("#")]
    if len(rows) < 2:
        return [f"{path}: no epoch rows"]
    bad = [r[0] for r in rows[1:]
           if not all(_is_number(v) and math.isfinite(float(v)) for v in r)]
    return [f"{path}: non-finite losses at epochs {bad}"] if bad else []
