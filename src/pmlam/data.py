"""Implicit-feedback dataset construction.

Raw rating files (tab- or comma-separated ``user, item, rating[, timestamp]``)
are converted to binary positives by thresholding the rating, filtered
iteratively until every user and item clears its minimum interaction count,
reindexed densely, and split per user into five folds for cross-validation.
Folds are one label per interaction in the dataset's row order, as in
``folds.txt``; :class:`Folds` builds only the :class:`FoldSplit` asked for.
Every per-entity index list (a user's items, an entity's neighbors, an
anchor's excluded ids or negative pool) is held as :class:`Rows`, one CSR
pair of arrays.
"""

import hashlib
import operator
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy import sparse

DS_MAGIC = "PMLAM-DS v1"
FOLDS_MAGIC = "PMLAM-FOLDS v1"
# The files of a prepared dataset, in the order their digests are checked.
DATA_FILES = ("dataset.txt", "folds.txt", "user_ids.txt", "item_ids.txt")


class ParseError(ValueError):
    """A malformed line in a ratings file, carrying its 1-based line number."""


@dataclass
class RawRating:
    user_ext_id: str
    item_ext_id: str
    rating: float
    timestamp: int | None = None


@dataclass
class Rows:
    """Per-entity index lists in CSR form: row ``a`` is ``indices[indptr[a]:indptr[a+1]]``.

    ``rows[a]`` indexes and iterates like a list; negative ``a`` counts from the end.
    """

    indptr: np.ndarray    # (n_rows + 1,), starts at 0
    indices: np.ndarray   # int64, row-major

    @classmethod
    def from_pairs(cls, rows, cols, n_rows):
        """Rows holding each ``cols[p]`` in row ``rows[p]``, ascending within a row."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        key = rows * (cols.max(initial=-1) + 1) + cols  # one sort key orders by (row, col)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
        return cls(indptr, cols[np.argsort(key)])

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, a):
        a = range(len(self))[operator.index(a)]
        return self.indices[self.indptr[a]:self.indptr[a + 1]]

    def lens(self):
        return np.diff(self.indptr)

    def pairs(self):
        """Row-major ``(anchor, id)`` arrays, one entry per listed id."""
        return np.repeat(np.arange(len(self)), self.lens()), self.indices

    def matrix(self, n_cols):
        """``(len(self), n_cols)`` sparse CSR matrix with a one at each ``(a, rows[a][j])``."""
        return sparse.csr_array((np.ones(len(self.indices)), self.indices, self.indptr),
                                shape=(len(self), n_cols))


def as_rows(rows):
    """``rows`` as :class:`Rows`; a list of index arrays is stacked in its order."""
    if isinstance(rows, Rows):
        return rows
    return Rows(np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
                np.concatenate([np.empty(0, np.int64), *rows]).astype(np.int64))


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
    def n_interactions(self):
        return len(self.indices)

    def user_index(self):
        return {ext: i for i, ext in enumerate(self.user_ids)}

    def check(self):
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert len(self.user_ids) == self.n_users
        assert len(self.item_ids) == self.n_items
        assert len(set(self.user_ids)) == self.n_users
        assert len(set(self.item_ids)) == self.n_items
        bad = first_row_not_increasing(Rows(self.indptr, self.indices))
        assert bad is None, f"row {bad} not strictly increasing"
        if self.n_items:
            assert self.indices.min() >= 0 and self.indices.max() < self.n_items


@dataclass
class FoldSplit:
    """One train/test partition: test = fold k, train = the other folds."""

    fold_index: int
    rng_seed: int
    train_rows: Rows    # per-user sorted items (S_i); a list of arrays is converted
    test_rows: Rows     # per-user sorted items (T_i)
    fold_count: int = 5

    def __post_init__(self):
        self.train_rows, self.test_rows = as_rows(self.train_rows), as_rows(self.test_rows)


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
    the two filters are interleaved until nothing changes. Duplicate pairs
    count once. External ids keep their first-appearance order in the
    surviving pair list.
    """
    if min_user < 1 or min_item < 1:
        raise ValueError("minimum interaction counts must be >= 1")
    u, user_ids = _first_appearance_index([p[0] for p in pairs])
    i, item_ids = _first_appearance_index([p[1] for p in pairs])
    first = np.sort(np.unique(u * len(item_ids) + i, return_index=True)[1])
    u, i = u[first], i[first]  # one pair per (user, item), in first-appearance order
    while True:
        keep = ((np.bincount(u, minlength=len(user_ids)) >= min_user)[u]
                & (np.bincount(i, minlength=len(item_ids)) >= min_item)[i])
        if keep.all():
            break
        u, i = u[keep], i[keep]
    if not len(u):
        raise ValueError("dataset eliminated by filtering")
    (u, kept_users), (i, kept_items) = _renumber(u), _renumber(i)
    rows = Rows.from_pairs(u, i, len(kept_users))
    return InteractionDataset(
        n_users=len(kept_users), n_items=len(kept_items), indptr=rows.indptr,
        indices=rows.indices, user_ids=[user_ids[j] for j in kept_users],
        item_ids=[item_ids[j] for j in kept_items])


def _first_appearance_index(keys):
    """``(index of each key, distinct keys)``: keys are numbered by first appearance."""
    index = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return np.fromiter(map(index.__getitem__, keys), np.int64, len(keys)), list(index)


def _renumber(idx):
    """``idx`` numbered densely by first appearance, and the old index of each new one."""
    held, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], held[order]


class Folds:
    """Fold membership of ``ds``: one label per interaction, in ``ds.indices`` order.

    A sequence of ``count`` splits: ``folds[k]`` builds the :class:`FoldSplit`
    with the interactions labelled ``k`` as its test rows, and only that one;
    iteration builds them in turn.
    """

    def __init__(self, ds, labels, seed, count):
        self.ds, self.labels, self.seed, self.count = ds, labels, seed, count

    def __len__(self):
        return self.count

    def __getitem__(self, k):
        k = range(self.count)[operator.index(k)]
        test = self.labels == k
        test_ptr = np.concatenate([[0], np.cumsum(test)])[self.ds.indptr]  # tests before
        return FoldSplit(fold_index=k, rng_seed=self.seed,
                         train_rows=Rows(self.ds.indptr - test_ptr, self.ds.indices[~test]),
                         test_rows=Rows(test_ptr, self.ds.indices[test]),
                         fold_count=self.count)


def split_five_fold(ds, seed, n_folds=5):
    """Per-user random partition into ``n_folds`` near-equal folds.

    Items are shuffled once per user and dealt round-robin, so fold sizes
    differ by at most one. Fold k's split uses fold k as the test set and the
    remaining folds as training. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    labels = np.empty(ds.n_interactions, dtype=np.int64)
    for lo, hi in zip(ds.indptr[:-1], ds.indptr[1:]):
        labels[lo + rng.permutation(hi - lo)] = np.arange(hi - lo) % n_folds
    return Folds(ds, labels, seed, n_folds)


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
        write_index_rows(f, Rows(ds.indptr, ds.indices))

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
            header_count(f, path, line_no, name)
            for line_no, name in ((2, "users"), (3, "items"), (4, "interactions")))
        rows = read_index_rows(f, path, 5, n_users, "user rows")
    if len(rows.indices) != n_interactions:
        raise ValueError(f"{path}:4: header gives {n_interactions} interactions, "
                         f"rows hold {len(rows.indices)}")
    bad = first_row_outside(rows, n_items)
    if bad is not None:
        raise ValueError(f"{path}:{bad + 5}: item index outside [0, {n_items})")
    bad = first_row_not_increasing(rows)
    if bad is not None:
        raise ValueError(f"{path}:{bad + 5}: item indices not strictly increasing")
    user_ids = _load_ids(os.path.join(dir_path, "user_ids.txt"), n_users)
    item_ids = _load_ids(os.path.join(dir_path, "item_ids.txt"), n_items)
    return InteractionDataset(
        n_users=n_users, n_items=n_items, indptr=rows.indptr, indices=rows.indices,
        user_ids=user_ids, item_ids=item_ids,
    )


def header_count(f, path, line_no, name):
    """The count of a ``name <count>`` header line."""
    value = header_value(f, path, line_no, name)
    if not value.isdigit():
        raise ValueError(f"{path}:{line_no}: expected '{name} <count>'")
    return int(value)


def header_value(f, path, line_no, name):
    """The value of a ``name <value>`` header line."""
    parts = f.readline().split()
    if len(parts) != 2 or parts[0] != name:
        raise ValueError(f"{path}:{line_no}: expected '{name} <value>'")
    return parts[1]


def write_index_rows(f, rows):
    """One line of space-separated integers per row: what :func:`read_index_rows` reads."""
    for row in rows:
        f.write(" ".join(map(str, row)) + "\n")


def read_index_rows(f, path, first_line, n_rows, what):
    """Read ``n_rows`` lines of integers as :class:`Rows`; cut files and extra lines fail."""
    rows = []
    for r in range(n_rows):
        line = f.readline()
        if not line.endswith("\n"):  # every complete line ends in a newline
            raise ValueError(f"{path}:{first_line + r}: truncated after {r} of "
                             f"{n_rows} {what}")
        try:
            rows.append(np.array(line.split(), dtype=np.int64))
        except (ValueError, OverflowError):
            raise ValueError(f"{path}:{first_line + r}: expected integers") from None
    if f.read().strip():
        raise ValueError(f"{path}:{first_line + n_rows}: more lines than the "
                         f"{n_rows} {what}")
    return as_rows(rows)


def first_row_outside(rows, n):
    """Index of the first row of :class:`Rows` holding a value outside [0, n), or None."""
    bad = np.flatnonzero((rows.indices < 0) | (rows.indices >= n))
    if not bad.size:
        return None
    return int(np.searchsorted(rows.indptr, bad[0], side="right")) - 1


def first_row_not_increasing(rows):
    """Index of the first row of :class:`Rows` that is not strictly increasing, or None."""
    bad = np.diff(rows.indices) <= 0  # bad[p]: entry p + 1 does not exceed entry p
    starts = rows.indptr[1:-1]
    bad[starts[(starts > 0) & (starts < len(rows.indices))] - 1] = False  # across rows
    bad = np.flatnonzero(bad)
    if not bad.size:
        return None
    return int(np.searchsorted(rows.indptr, bad[0] + 1, side="right")) - 1


def file_digests(dir_path):
    """SHA-256 hex digest of each of a prepared dataset's :data:`DATA_FILES`."""
    digests = {}
    for name in DATA_FILES:
        with open(os.path.join(dir_path, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _load_ids(path, expected):
    """Read an id sidecar: line ``i + 1`` is ``i<TAB><id>``, ids non-empty and unique."""
    line_of = {}  # id -> its line number, in file order
    with open(path) as f:
        for pos, line in enumerate(f):
            index, tab, ext = line.removesuffix("\n").partition("\t")
            if not line.endswith("\n") or not tab or index != str(pos) or not ext:
                raise ValueError(f"{path}:{pos + 1}: expected '{pos}<TAB><id>'")
            if ext in line_of:
                raise ValueError(f"{path}:{pos + 1}: id {ext!r} repeats line "
                                 f"{line_of[ext]}")
            line_of[ext] = pos + 1
    ids = list(line_of)
    if len(ids) != expected:
        raise ValueError(f"{path}: expected {expected} ids, found {len(ids)}")
    return ids


def save_folds(dir_path, folds):
    """Persist fold membership: one line per user, the fold label of each item.

    Labels align with the dataset row order, so splits can be reconstructed
    without re-running the shuffle.
    """
    def body(f):
        f.write(f"{FOLDS_MAGIC}\n")
        f.write(f"seed {folds.seed}\n")
        f.write(f"folds {folds.count}\n")
        write_index_rows(f, Rows(folds.ds.indptr, folds.labels))

    atomic_write(os.path.join(dir_path, "folds.txt"), body)


def load_fold(dir_path, ds, index):
    """Split ``index`` of the checked file, the only one built; a fold past the count is rejected."""
    folds = load_folds(dir_path, ds)
    if not 0 <= index < len(folds):
        raise ValueError(f"{os.path.join(dir_path, 'folds.txt')}: fold {index} "
                         f"outside the file's {len(folds)} folds")
    return folds[index]


def load_folds(dir_path, ds):
    """Read the :class:`Folds` of ``ds``; a file that does not fit it is rejected."""
    path = os.path.join(dir_path, "folds.txt")
    with open(path) as f:
        if f.readline().rstrip("\n") != FOLDS_MAGIC:
            raise ValueError(f"{path}: not a {FOLDS_MAGIC} file")
        seed = header_count(f, path, 2, "seed")
        n_folds = header_count(f, path, 3, "folds")
        labels = read_index_rows(f, path, 4, ds.n_users, "user lines")
    n_labels, row_lens = labels.lens(), np.diff(ds.indptr)
    wrong = np.flatnonzero(n_labels != row_lens)
    if wrong.size:
        u = wrong[0]
        raise ValueError(f"{path}:{u + 4}: {n_labels[u]} labels for user {u}'s "
                         f"{row_lens[u]} items")
    bad = first_row_outside(labels, n_folds)
    if bad is not None:
        raise ValueError(f"{path}:{bad + 4}: fold label outside [0, {n_folds})")
    return Folds(ds, labels.indices, seed, n_folds)
