"""Implicit-feedback dataset construction.

Raw rating files (tab- or comma-separated ``user, item, rating[, timestamp]``)
are converted to binary positives by thresholding the rating, filtered
iteratively until every user and item clears its minimum interaction count,
reindexed densely, and split per user into five folds for cross-validation.
Folds are one label per interaction in the dataset's row order, as in
``folds.txt``; :class:`Folds` builds only the :class:`FoldSplit` asked for.
Every per-entity index list (a user's items, an entity's neighbors, an
anchor's excluded ids or negative pool) is held as :class:`Rows`, one CSR
pair of arrays. :class:`DataFiles` is the one reader of a prepared dataset's
files: it reads each once, and its digests are of the bytes the parsers read.
"""

import filecmp
import hashlib
import io
import itertools
import math
import operator
import os
import stat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

DS_MAGIC = "PMLAM-DS v1"
FOLDS_MAGIC = "PMLAM-FOLDS v1"
# The files of a prepared dataset, in the order their digests are checked.
DATA_FILES = ("dataset.txt", "folds.txt", "user_ids.txt", "item_ids.txt")


class ParseError(ValueError):
    """A malformed line in a ratings file, carrying its 1-based line number."""


class RawRating(NamedTuple):
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
    indices: np.ndarray   # row-major; int64, but a candidate pool's are unsigned

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
    train_rows: Rows    # per-user sorted items (S_i); a list of arrays is converted
    test_rows: Rows     # per-user sorted items (T_i)

    def __post_init__(self):
        self.train_rows, self.test_rows = as_rows(self.train_rows), as_rows(self.test_rows)


def parse_line(line, line_no):
    """One data line -> RawRating; the delimiter is whichever of tab/comma splits it."""
    raw = line.rstrip("\n")
    parts = raw.split("\t")
    if len(parts) < 3:  # the split with more fields, so an error counts the fields seen
        parts = max(parts, raw.split(","), key=len)
    if not 3 <= len(parts) <= 4:
        raise ParseError(f"line {line_no}: expected 3 or 4 fields, got {len(parts)}: {raw!r}")
    user, item = parts[0].strip(), parts[1].strip()
    if not user or not item:
        raise ParseError(f"line {line_no}: empty user or item id")
    try:
        rating = float(parts[2])
    except ValueError:
        raise ParseError(f"line {line_no}: bad rating {parts[2]!r}") from None
    if not math.isfinite(rating):
        raise ParseError(f"line {line_no}: non-finite rating")
    ts = None
    if len(parts) == 4 and parts[3].strip():
        try:
            ts = int(float(parts[3]))
        except (ValueError, OverflowError):  # int(inf) overflows
            raise ParseError(f"line {line_no}: bad timestamp {parts[3]!r}") from None
    return RawRating(user, item, rating, ts)


def ingest(path, rating_threshold=4.0):
    """Read a ratings file and keep (user, item) pairs rated >= threshold.

    Duplicate pairs collapse to one. A leading UTF-8 byte-order mark is
    ignored. Raises ParseError, naming the file and line, on malformed lines
    and ValueError on text that is not UTF-8 or when no positive survives.
    """
    pairs = {}  # (user, item) -> None, in first-appearance order
    isfinite = math.isfinite
    try:
        with open(path, encoding="utf-8-sig") as f:
            for line_no, line in enumerate(f, start=1):
                # A line of 3 or 4 fields, split as parse_line splits it, that
                # passes parse_line's checks is read here, with no call or
                # record per line.
                raw = line.rstrip("\n")
                parts = raw.split("\t")
                if len(parts) < 3:
                    parts = raw.split(",")
                n = len(parts)
                if n == 3 or n == 4:
                    user, item = parts[0].strip(), parts[1].strip()
                    try:
                        rating = float(parts[2])
                        if n == 4:
                            int(float(parts[3]))  # a blank timestamp fails too
                    except (ValueError, OverflowError):
                        rating = math.nan
                    if user and item and isfinite(rating):
                        if rating >= rating_threshold:
                            pairs[user, item] = None
                        continue
                # Every other line is blank, has a blank timestamp (which
                # parse_line accepts), or is one parse_line rejects with its
                # message.
                if not line.strip():
                    continue
                try:
                    r = parse_line(line, line_no)
                except ParseError as e:
                    raise ParseError(f"{path}: {e}") from None
                if r.rating >= rating_threshold:
                    pairs[r.user_ext_id, r.item_ext_id] = None
    except UnicodeDecodeError:
        raise ValueError(_utf8_error(path)) from None
    if not pairs:
        raise ValueError(f"{path}: no positives at rating threshold {rating_threshold}")
    return list(pairs)


def _utf8_error(path):
    """The message for a file that is not UTF-8, with the offset of its first bad byte.

    The offset comes from the file's bytes: a text-mode read decodes in
    chunks, so its error's position is within a chunk.
    """
    with open(path, "rb") as f:
        blob = f.read()
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as e:
        return f"{path}: invalid UTF-8 at byte {e.start} ({e.reason})"
    return f"{path}: invalid UTF-8"


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
        return FoldSplit(fold_index=k,
                         train_rows=Rows(self.ds.indptr - test_ptr, self.ds.indices[~test]),
                         test_rows=Rows(test_ptr, self.ds.indices[test]))


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
    raises, the temp file is removed and ``path`` is left as it was. A new file
    gets the permissions a plain ``open(path, mode)`` would give it, and a
    replaced regular file keeps its permission bits, as it would under ``open``.
    When ``path`` is a regular file that already holds exactly the bytes
    written, it is left in place, mtime and all, and the temp file is removed:
    a rename over a file whose blocks are allocated can cost tens of
    milliseconds, and a rerun mostly writes the bytes already there.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    f = open(tmp, mode.replace("w", "x"))  # exclusive create, mode from the umask
    try:
        with f:
            write_fn(f)
        old = _regular_file_stat(path)
        same = old is not None and filecmp.cmp(tmp, path, shallow=False)  # in 8 kB chunks
        if not same:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if same:
        os.unlink(tmp)


def _regular_file_stat(path):
    """``os.lstat(path)`` if ``path`` is a regular file, else None; a symlink is None."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return None
    return st if stat.S_ISREG(st.st_mode) else None


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


def load_dataset(files):
    """The dataset in :class:`DataFiles` ``files``; rows that disagree with the header fail."""
    path = files.path("dataset.txt")
    with files.open("dataset.txt") as f:
        n_users, n_items, n_interactions = _dataset_header(f, path)
        rows = read_index_rows(f, path, 5, n_users, "user rows")
    if len(rows.indices) != n_interactions:
        raise ValueError(f"{path}:4: header gives {n_interactions} interactions, "
                         f"rows hold {len(rows.indices)}")
    _check_item_rows(rows, path, 5, n_items)
    return InteractionDataset(
        n_users=n_users, n_items=n_items, indptr=rows.indptr, indices=rows.indices,
        user_ids=_load_ids(files, "user_ids.txt", n_users),
        item_ids=_load_ids(files, "item_ids.txt", n_items),
    )


def _dataset_header(f, path):
    """The user, item and interaction counts on lines 2-4 of ``dataset.txt``."""
    if f.readline().rstrip("\n") != DS_MAGIC:
        raise ValueError(f"{path}: not a {DS_MAGIC} file")
    return tuple(header_count(f, path, line_no, name)
                 for line_no, name in ((2, "users"), (3, "items"), (4, "interactions")))


def _folds_header(f, path):
    """The seed and the fold count on lines 2-3 of ``folds.txt``."""
    if f.readline().rstrip("\n") != FOLDS_MAGIC:
        raise ValueError(f"{path}: not a {FOLDS_MAGIC} file")
    return header_count(f, path, 2, "seed"), header_count(f, path, 3, "folds")


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
        f.write(" ".join(map(str, row.tolist())) + "\n")


def read_index_rows(f, path, first_line, n_rows, what):
    """Read ``n_rows`` lines of integers as :class:`Rows`; the file must end after them.

    A cut file fails, and so does any character after the last row, a blank
    line or a lone space included. The form :func:`write_index_rows` writes
    is read in one pass over the text; any other text is read line by line,
    with the same result for every text both accept.
    """
    text = f.read()
    rows = _canonical_rows(text, n_rows)
    if rows is not None:
        return rows
    lines = io.StringIO(text)  # f has translated every line end to "\n" already
    rows = [_index_line(lines.readline(), path, first_line, r, n_rows, what)
            for r in range(n_rows)]
    if lines.read(1):
        raise ValueError(f"{path}:{first_line + n_rows}: text after the last of the "
                         f"{n_rows} {what}")
    return as_rows(rows)


# Byte classes of the canonical row text, a ``bytes.translate`` table: a
# digit, a space, the newline that ends a row, and anything else.
_DIGIT, _SPACE, _NEWLINE, _OTHER = range(4)
_BYTE_CLASS = bytes(_DIGIT if 48 <= b <= 57 else _SPACE if b == 32 else
                    _NEWLINE if b == 10 else _OTHER for b in range(256))
_MAX_DIGITS = 18  # every number of 18 digits fits in an int64


def _canonical_rows(text, n_rows):
    """``text`` as :class:`Rows` if it is exactly ``n_rows`` canonical lines, else None.

    A canonical line is ASCII digits and spaces ending in a newline, with no
    number longer than :data:`_MAX_DIGITS` digits. Spaces anywhere in a line
    split it as ``str.split`` does.
    """
    if not text.isascii() or text.count("\n") != n_rows or text[-1:] not in ("\n", ""):
        return None
    cls = np.frombuffer(text.encode("ascii").translate(_BYTE_CLASS), dtype=np.uint8)
    breaks = np.flatnonzero(cls != _DIGIT)  # a newline is last, so each number ends at one
    kind = cls[breaks]
    gap = np.diff(breaks, prepend=-1)  # one more than the digits before each break
    if (kind == _OTHER).any() or gap.max(initial=0) > _MAX_DIGITS + 1:
        return None
    numbers = np.cumsum(gap > 1)  # the numbers that end at or before each break
    indptr = np.concatenate([[0], numbers[kind == _NEWLINE]])
    values = (np.fromstring(text, dtype=np.int64, sep=" ") if indptr[-1]
              else np.empty(0, dtype=np.int64))  # a text without digits reads as [0]
    return Rows(indptr, values)


def _index_line(line, path, first_line, r, n_rows, what):
    """Row ``r`` of ``n_rows``, read from line ``first_line + r``: its integers."""
    if not line.endswith("\n"):  # every complete line ends in a newline
        raise ValueError(f"{path}:{first_line + r}: truncated after {r} of "
                         f"{n_rows} {what}")
    try:
        return np.array(line.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(f"{path}:{first_line + r}: expected integers") from None


def _check_item_rows(rows, path, first_line, n_items):
    """Reject rows of item indices, from line ``first_line`` on, out of range or order."""
    bad = first_row_outside(rows, n_items)
    if bad is not None:
        raise ValueError(f"{path}:{bad + first_line}: item index outside [0, {n_items})")
    bad = first_row_not_increasing(rows)
    if bad is not None:
        raise ValueError(f"{path}:{bad + first_line}: item indices not strictly increasing")


def _check_label_rows(labels, row_lens, path, first_user, n_folds):
    """Reject fold-label rows, of users ``first_user`` on, of the wrong length or range."""
    n_labels = labels.lens()
    wrong = np.flatnonzero(n_labels != row_lens)
    if wrong.size:
        r = wrong[0]
        raise ValueError(f"{path}:{first_user + r + 4}: {n_labels[r]} labels for user "
                         f"{first_user + r}'s {row_lens[r]} items")
    bad = first_row_outside(labels, n_folds)
    if bad is not None:
        raise ValueError(f"{path}:{first_user + bad + 4}: fold label outside [0, {n_folds})")


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


def _load_ids(files, name, expected):
    """Read id sidecar ``name``: line ``i + 1`` is ``i<TAB><id>``, ids non-empty and unique."""
    path = files.path(name)
    line_of = {}  # id -> its line number, in file order
    with files.open(name) as f:
        for pos, line in enumerate(f):
            ext = _id_line(line, path, pos)
            if ext in line_of:
                raise ValueError(f"{path}:{pos + 1}: id {ext!r} repeats line "
                                 f"{line_of[ext]}")
            line_of[ext] = pos + 1
    ids = list(line_of)
    if len(ids) != expected:
        raise ValueError(f"{path}: expected {expected} ids, found {len(ids)}")
    return ids


def _id_line(line, path, pos):
    """The id on line ``pos + 1`` of a sidecar, a line that must read ``pos<TAB><id>``."""
    index, tab, ext = line.removesuffix("\n").partition("\t")
    if not line.endswith("\n") or not tab or index != str(pos) or not ext:
        raise ValueError(f"{path}:{pos + 1}: expected '{pos}<TAB><id>'")
    return ext


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


def load_fold(files, ds, index):
    """Split ``index`` of the checked file, the only one built; a fold past the count is rejected."""
    folds = load_folds(files, ds)
    check_fold_index(files.path("folds.txt"), index, len(folds))
    return folds[index]


def check_fold_index(path, index, n_folds):
    """Reject a fold ``index`` past the ``n_folds`` of the folds file ``path``."""
    if not 0 <= index < n_folds:
        raise ValueError(f"{path}: fold {index} outside the file's {n_folds} folds")


def load_folds(files, ds):
    """The :class:`Folds` of ``ds`` in :class:`DataFiles` ``files``; a misfit file fails."""
    path = files.path("folds.txt")
    with files.open("folds.txt") as f:
        seed, n_folds = _folds_header(f, path)
        labels = read_index_rows(f, path, 4, ds.n_users, "user lines")
    _check_label_rows(labels, np.diff(ds.indptr), path, 0, n_folds)
    return Folds(ds, labels.indices, seed, n_folds)


class DataFiles:
    """A prepared dataset's :data:`DATA_FILES`, each read once; the only reader of them.

    Construction reads the four files, the counts in the header of
    ``dataset.txt`` and the fold count in that of ``folds.txt``. :meth:`digests`
    hashes the bytes read, and every parse (:func:`load_dataset`,
    :func:`load_folds` and the methods below) reads those same bytes through
    :meth:`open`, so what a command checks against a checkpoint is what it
    parses. Once the digests match those recorded when a checkpoint was
    trained, ``train`` has parsed and checked these bytes in full, so the
    methods below parse only the lines they need, with the full readers'
    per-line checks and ``file:line`` messages.
    """

    def __init__(self, dir_path):
        self.dir = dir_path
        self.blobs = {}
        for name in DATA_FILES:
            with open(self.path(name), "rb") as f:
                self.blobs[name] = f.read()
        with self.open("dataset.txt") as f:
            self.n_users, self.n_items, _ = _dataset_header(f, self.path("dataset.txt"))
        with self.open("folds.txt") as f:
            self.n_folds = _folds_header(f, self.path("folds.txt"))[1]

    def path(self, name):
        return os.path.join(self.dir, name)

    def open(self, name):
        """File ``name`` as text, decoded and split into lines as ``open`` does."""
        return io.TextIOWrapper(io.BytesIO(self.blobs[name]))

    def _line(self, name, line_no):
        """Line ``line_no`` (from 1) of file ``name``, as ``readline`` returns it there."""
        with self.open(name) as f:
            return next(itertools.islice(f, line_no - 1, None), "")

    def digests(self):
        """SHA-256 hex digest of the bytes read, file name -> digest."""
        return {name: hashlib.sha256(blob).hexdigest() for name, blob in self.blobs.items()}

    def user_index(self, user_id):
        """The internal index of external user ``user_id``, or None if no line holds it.

        The line is the first whose first tab is followed by ``user_id`` and
        then the line's end.
        """
        if "\n" in user_id:  # no id holds one, and the search below would span lines
            return None
        path = self.path("user_ids.txt")
        with self.open("user_ids.txt") as f:
            text = f.read()
        needle = f"\t{user_id}\n"
        lines = text if text.endswith("\n") else text + "\n"  # a last line ends there too
        at = lines.find(needle)
        while at >= 0 and lines.find("\t", lines.rfind("\n", 0, at) + 1, at) >= 0:
            at = lines.find(needle, at + 1)  # that tab is not its line's first
        if at < 0:
            return None
        start = text.rfind("\n", 0, at) + 1
        u = text.count("\n", 0, start)
        _id_line(text[start:at + len(needle)], path, u)
        if u >= self.n_users:
            raise ValueError(f"{path}:{u + 1}: id past the dataset's {self.n_users} users")
        return u

    def train_row(self, u, fold_index):
        """User ``u``'s items whose fold label is not ``fold_index``, in ascending order."""
        rows_path, folds_path = self.path("dataset.txt"), self.path("folds.txt")
        items = _index_line(self._line("dataset.txt", u + 5), rows_path, 5, u,
                            self.n_users, "user rows")
        _check_item_rows(as_rows([items]), rows_path, u + 5, self.n_items)
        labels = _index_line(self._line("folds.txt", u + 4), folds_path, 4, u,
                             self.n_users, "user lines")
        _check_label_rows(as_rows([labels]), [len(items)], folds_path, u, self.n_folds)
        return items[labels != fold_index]

    def item_ids(self, items):
        """The external id of each internal item index in ``items``."""
        with self.open("item_ids.txt") as f:
            lines = f.readlines()
        return [_id_line(lines[i] if i < len(lines) else "", self.path("item_ids.txt"), i)
                for i in items]
