"""Implicit-feedback dataset construction.

Raw rating files (tab- or comma-separated ``user, item, rating[, timestamp]``)
are converted to binary positives by thresholding the rating, filtered
iteratively until every user and item clears its minimum interaction count,
reindexed densely, and split per user into five folds for cross-validation.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np

DS_MAGIC = "PMLAM-DS v1"
FOLDS_MAGIC = "PMLAM-FOLDS v1"


class ParseError(ValueError):
    """A malformed line in a ratings file, carrying its 1-based line number."""


@dataclass
class RawRating:
    user_ext_id: str
    item_ext_id: str
    rating: float
    timestamp: int | None = None


@dataclass
class InteractionDataset:
    """Binary interaction matrix in CSR form plus id bijections."""

    n_users: int
    n_items: int
    indptr: np.ndarray    # (n_users + 1,)
    indices: np.ndarray   # item indices, sorted within each row
    user_ids: list        # internal index -> external id
    item_ids: list

    def row(self, u):
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    @property
    def rows(self):
        return [self.row(u) for u in range(self.n_users)]

    @property
    def n_interactions(self):
        return len(self.indices)

    def user_index(self):
        return {ext: i for i, ext in enumerate(self.user_ids)}

    def item_index(self):
        return {ext: i for i, ext in enumerate(self.item_ids)}

    def check(self):
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert len(self.user_ids) == self.n_users
        assert len(self.item_ids) == self.n_items
        assert len(set(self.user_ids)) == self.n_users
        assert len(set(self.item_ids)) == self.n_items
        for u in range(self.n_users):
            r = self.row(u)
            assert np.all(np.diff(r) > 0), f"row {u} not strictly increasing"
        if self.n_items:
            assert self.indices.min() >= 0 and self.indices.max() < self.n_items


@dataclass
class FoldSplit:
    """One train/test partition: test = fold k, train = the other folds."""

    fold_index: int
    rng_seed: int
    train_rows: list    # per-user sorted item arrays (S_i)
    test_rows: list     # per-user sorted item arrays (T_i)
    fold_count: int = 5

    @property
    def n_users(self):
        return len(self.train_rows)


def parse_line(line, line_no):
    """One data line -> RawRating; the delimiter is whichever of tab/comma splits it."""
    raw = line.rstrip("\n")
    parts = raw.split("\t")
    if len(parts) < 3:
        parts = raw.split(",")
    if not 3 <= len(parts) <= 4:
        raise ParseError(f"line {line_no}: expected 3 or 4 fields, got {len(parts)}: {raw!r}")
    user, item = parts[0].strip(), parts[1].strip()
    if not user or not item:
        raise ParseError(f"line {line_no}: empty user or item id")
    try:
        rating = float(parts[2])
    except ValueError:
        raise ParseError(f"line {line_no}: bad rating {parts[2]!r}") from None
    if not np.isfinite(rating):
        raise ParseError(f"line {line_no}: non-finite rating")
    ts = None
    if len(parts) == 4 and parts[3].strip():
        try:
            ts = int(float(parts[3]))
        except ValueError:
            raise ParseError(f"line {line_no}: bad timestamp {parts[3]!r}") from None
    return RawRating(user, item, rating, ts)


def ingest(path, rating_threshold=4.0):
    """Read a ratings file and keep (user, item) pairs rated >= threshold.

    Duplicate pairs collapse to one. Raises ParseError on malformed lines and
    ValueError when no positive survives.
    """
    pairs = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            r = parse_line(line, line_no)
            if r.rating >= rating_threshold:
                key = (r.user_ext_id, r.item_ext_id)
                if key not in seen:
                    seen.add(key)
                    pairs.append(key)
    if not pairs:
        raise ValueError(f"{path}: no positives at rating threshold {rating_threshold}")
    return pairs


def filter_iterative(pairs, min_user=10, min_item=5):
    """Drop light users/items to a fixed point, then reindex densely.

    Removing an item can push a user below the threshold and vice versa, so
    the two filters are interleaved until nothing changes. External ids keep
    their first-appearance order in the surviving pair list.
    """
    if min_user < 1 or min_item < 1:
        raise ValueError("minimum interaction counts must be >= 1")
    pairs = list(dict.fromkeys(pairs))
    while True:
        user_deg, item_deg = {}, {}
        for u, i in pairs:
            user_deg[u] = user_deg.get(u, 0) + 1
            item_deg[i] = item_deg.get(i, 0) + 1
        kept = [(u, i) for u, i in pairs
                if user_deg[u] >= min_user and item_deg[i] >= min_item]
        if len(kept) == len(pairs):
            break
        pairs = kept
    if not pairs:
        raise ValueError("dataset eliminated by filtering")

    user_map, item_map = {}, {}
    for u, i in pairs:
        user_map.setdefault(u, len(user_map))
        item_map.setdefault(i, len(item_map))
    rows = [[] for _ in range(len(user_map))]
    for u, i in pairs:
        rows[user_map[u]].append(item_map[i])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    chunks = []
    for u, r in enumerate(rows):
        chunks.append(np.sort(np.array(r, dtype=np.int64)))
        indptr[u + 1] = indptr[u] + len(r)
    user_ids = [None] * len(user_map)
    for ext, idx in user_map.items():
        user_ids[idx] = ext
    item_ids = [None] * len(item_map)
    for ext, idx in item_map.items():
        item_ids[idx] = ext
    return InteractionDataset(
        n_users=len(user_ids), n_items=len(item_ids),
        indptr=indptr, indices=np.concatenate(chunks),
        user_ids=user_ids, item_ids=item_ids,
    )


def split_five_fold(ds, seed, n_folds=5):
    """Per-user random partition into ``n_folds`` near-equal folds.

    Items are shuffled once per user and dealt round-robin, so fold sizes
    differ by at most one. Fold k's split uses fold k as the test set and the
    remaining folds as training. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    fold_of = []  # per user: fold label aligned with the shuffled row
    perms = []
    for u in range(ds.n_users):
        row = ds.row(u)
        perm = rng.permutation(len(row))
        perms.append(row[perm])
        fold_of.append(np.arange(len(row)) % n_folds)
    splits = []
    for k in range(n_folds):
        train_rows, test_rows = [], []
        for u in range(ds.n_users):
            mask = fold_of[u] == k
            test_rows.append(np.sort(perms[u][mask]))
            train_rows.append(np.sort(perms[u][~mask]))
        splits.append(FoldSplit(fold_index=k, rng_seed=seed,
                                train_rows=train_rows, test_rows=test_rows,
                                fold_count=n_folds))
    return splits


def atomic_write(path, write_fn, mode="w"):
    """Call ``write_fn(f)`` on a temp file beside ``path``, then rename it into place.

    Readers see the old file or the complete new one. If writing or renaming
    raises, the temp file is removed and ``path`` is left as it was.
    """
    tmp = tempfile.NamedTemporaryFile(mode, dir=os.path.dirname(path) or ".",
                                      delete=False, suffix=".tmp")
    try:
        with tmp as f:
            write_fn(f)
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)
        raise


def save_dataset(dir_path, ds):
    """Write the dataset cache plus two-column id-map sidecars."""
    os.makedirs(dir_path, exist_ok=True)

    def body(f):
        f.write(f"{DS_MAGIC}\n")
        f.write(f"users {ds.n_users}\n")
        f.write(f"items {ds.n_items}\n")
        f.write(f"interactions {ds.n_interactions}\n")
        for u in range(ds.n_users):
            f.write(" ".join(map(str, ds.row(u))) + "\n")

    atomic_write(os.path.join(dir_path, "dataset.txt"), body)
    for name, ids in (("user_ids.txt", ds.user_ids), ("item_ids.txt", ds.item_ids)):
        atomic_write(os.path.join(dir_path, name),
                     lambda f, ids=ids: f.writelines(f"{i}\t{ext}\n"
                                                     for i, ext in enumerate(ids)))


def load_dataset(dir_path):
    """Read a dataset cache; a file whose rows disagree with its header is rejected."""
    path = os.path.join(dir_path, "dataset.txt")
    with open(path) as f:
        if f.readline().rstrip("\n") != DS_MAGIC:
            raise ValueError(f"{path}: not a {DS_MAGIC} file")
        n_users, n_items, n_interactions = (
            _header_count(f, path, line_no, name)
            for line_no, name in ((2, "users"), (3, "items"), (4, "interactions")))
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        chunks = []
        for u in range(n_users):
            line = f.readline()
            if not line.endswith("\n"):  # every complete row ends in a newline
                raise ValueError(f"{path}:{u + 5}: truncated after {u} of "
                                 f"{n_users} user rows")
            row = np.array([int(t) for t in line.split()], dtype=np.int64)
            chunks.append(row)
            indptr[u + 1] = indptr[u] + len(row)
        if f.read().strip():
            raise ValueError(f"{path}:{n_users + 5}: more rows than the "
                             f"{n_users} users in the header")
    if indptr[-1] != n_interactions:
        raise ValueError(f"{path}:4: header gives {n_interactions} interactions, "
                         f"rows hold {indptr[-1]}")
    user_ids = _load_ids(os.path.join(dir_path, "user_ids.txt"), n_users)
    item_ids = _load_ids(os.path.join(dir_path, "item_ids.txt"), n_items)
    return InteractionDataset(
        n_users=n_users, n_items=n_items, indptr=indptr,
        indices=np.concatenate(chunks) if chunks else np.empty(0, np.int64),
        user_ids=user_ids, item_ids=item_ids,
    )


def _header_count(f, path, line_no, name):
    parts = f.readline().split()
    if len(parts) != 2 or parts[0] != name or not parts[1].isdigit():
        raise ValueError(f"{path}:{line_no}: expected '{name} <count>'")
    return int(parts[1])


def _load_ids(path, expected):
    ids = []
    with open(path) as f:
        for line in f:
            if line.strip():
                ids.append(line.rstrip("\n").split("\t", 1)[1])
    if len(ids) != expected:
        raise ValueError(f"{path}: expected {expected} ids, found {len(ids)}")
    return ids


def save_folds(dir_path, splits):
    """Persist fold membership: one line per user, the fold label of each item.

    Labels align with the dataset row order, so splits can be reconstructed
    without re-running the shuffle.
    """
    def body(f):
        f.write(f"{FOLDS_MAGIC}\n")
        f.write(f"seed {splits[0].rng_seed}\n")
        f.write(f"folds {splits[0].fold_count}\n")
        n_users = splits[0].n_users
        for u in range(n_users):
            items = np.concatenate([s.test_rows[u] for s in splits])
            labels = np.concatenate([np.full(len(s.test_rows[u]), s.fold_index)
                                     for s in splits])
            order = np.argsort(items)
            f.write(" ".join(map(str, labels[order])) + "\n")

    atomic_write(os.path.join(dir_path, "folds.txt"), body)


def load_folds(dir_path, ds):
    path = os.path.join(dir_path, "folds.txt")
    with open(path) as f:
        if f.readline().rstrip("\n") != FOLDS_MAGIC:
            raise ValueError(f"{path}: not a {FOLDS_MAGIC} file")
        seed = int(f.readline().split()[1])
        n_folds = int(f.readline().split()[1])
        labels = []
        for u in range(ds.n_users):
            labels.append(np.array([int(t) for t in f.readline().split()]))
    splits = []
    for k in range(n_folds):
        train_rows, test_rows = [], []
        for u in range(ds.n_users):
            row = ds.row(u)
            mask = labels[u] == k
            test_rows.append(row[mask])
            train_rows.append(row[~mask])
        splits.append(FoldSplit(fold_index=k, rng_seed=seed,
                                train_rows=train_rows, test_rows=test_rows,
                                fold_count=n_folds))
    return splits
