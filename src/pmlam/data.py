"""Implicit-feedback dataset construction.

Raw rating files (tab- or comma-separated ``user, item, rating[, timestamp]``)
are converted to binary positives by thresholding the rating, filtered
iteratively until every user and item clears its minimum interaction count,
reindexed densely, and split per user into five folds for cross-validation.
Each step works on whole columns: :func:`ingest` checks the file a block of
lines at a time and returns the id columns of its positive lines as
:class:`IdColumn` codes, repeats kept; :func:`filter_iterative` takes those
columns and counts a repeated pair once; :func:`write_index_rows` lays out
the row text of ``dataset.txt`` and ``folds.txt`` in one byte buffer.
Folds are one label per interaction in the dataset's row order, as in
``folds.txt``; :class:`Folds` builds only the :class:`FoldSplit` asked for.
Every per-entity index list (a user's items, an entity's neighbors, an
anchor's excluded ids or negative pool) is held as :class:`Rows`, one CSR
pair of arrays. :class:`DataFiles` is the one reader and checker of a
prepared dataset's files: it reads each once and checks its digest against
:data:`SEAL` before any parse, so the parsers read only the form
:func:`save_dataset` and :func:`save_folds` write, and it checks a run
against its checkpoint.
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

import numpy as np

DS_MAGIC = "PMLAM-DS v1"
FOLDS_MAGIC = "PMLAM-FOLDS v1"
# The files of a prepared dataset, in the order their digests are checked.
DATA_FILES = ("dataset.txt", "folds.txt", "user_ids.txt", "item_ids.txt")
# The manifest beside them: a ``<sha256>  <name>`` line per file, as ``sha256sum`` writes.
SEAL = "SHA256SUMS"
# The message for text in a sealed file that ``save_dataset`` and ``save_folds`` never write.
NOT_PREPARED = "not the form prepare writes"


class ParseError(ValueError):
    """A malformed line in a ratings file, carrying its 1-based line number."""


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
        """``(len(self), n_cols)`` sparse CSR matrix with a one at each ``(a, rows[a][j])``.

        This is the package's one constructor of a scipy matrix, so
        ``scipy.sparse`` is imported here, on the first call: ``train`` and
        ``ablate`` load it, and the other commands never do.
        """
        from scipy import sparse

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


# Characters ``ingest`` reads at a time; each block is finished to a line end.
INGEST_BLOCK = 1 << 20

# The message of each of ``ingest``'s checks, by number; a line's check is the
# first it fails, in this order, and 0 if it passes them all.
_CHECK_MESSAGES = (None, "expected 3 or 4 fields, got {n}: {raw!r}",
                   "empty user or item id", "bad rating {rating!r}", "non-finite rating",
                   "bad timestamp {stamp!r}")


class IdColumn:
    """A column of ids held as one code per entry: entry ``p`` is ``texts[codes[p]]``.

    ``codes`` is an int64 array; ``texts`` may hold ids that no entry has.
    Its length is its entries', and it iterates over their ids.
    """

    def __init__(self, codes, texts):
        self.codes, self.texts = codes, texts

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return map(self.texts.__getitem__, self.codes.tolist())


def ingest(path, rating_threshold=4.0):
    """The ``(users, items)`` :class:`IdColumn` of the lines rated >= threshold, in file order.

    A line holds 3 or 4 fields: user and item ids, which are stripped and
    must be non-empty, a finite rating, and an optional timestamp, which may
    be blank. It is split on tabs or, when that gives fewer than three
    fields, on whichever of tabs and commas gives more. Blank lines are
    skipped. A repeated pair is kept as often as its lines are; filtering
    counts it once. Each column codes its distinct stripped ids in the order
    they are first seen on any line, positive or not: one dict lookup per
    field strips and numbers it. A leading UTF-8 byte-order mark is ignored.
    Raises ParseError, naming the file and line, on malformed lines and
    ValueError on text that is not UTF-8 or when no positive survives.

    The file is read in blocks of :data:`INGEST_BLOCK` characters, each
    finished to a line end, and each block is checked as columns. Text that
    is not UTF-8 anywhere in a block is reported before a malformed line in
    it.
    """
    users, items = [np.empty(0, np.int64)], [np.empty(0, np.int64)]  # codes, block by block
    line_no = 0  # the lines of the blocks before this one
    user_codes, item_codes = _IdCodes(), _IdCodes()
    try:
        # not "utf-8-sig": its decoder reads a file of a cut mark alone as empty text
        with open(path, encoding="utf-8") as f:
            if f.read(1) != "\ufeff":  # a leading byte-order mark is skipped
                f.seek(0)
            while block := f.read(INGEST_BLOCK):
                block += f.readline()
                lines = block.split("\n")  # not splitlines: a line may hold "\x85"
                if block.endswith("\n"):
                    lines.pop()
                check, by_tab, user, item, rating = _check_lines(block, lines, user_codes,
                                                                 item_codes)
                bad = np.flatnonzero(check)
                held = _not_blank(lines, bad)  # a blank line is skipped
                if held.any():
                    k = bad[held.argmax()]
                    raise _parse_error(path, line_no + k + 1, lines[k], check[k], by_tab[k])
                positive = rating >= rating_threshold  # NaN, as fails get, is not
                users.append(user[positive])
                items.append(item[positive])
                line_no += len(lines)
    except UnicodeDecodeError:  # a text-mode read's position is within its chunk
        with open(path, "rb") as f:
            _utf8_text(f.read(), path)
        raise ValueError(f"{path}: invalid UTF-8") from None
    users, items = np.concatenate(users), np.concatenate(items)
    if not users.size:
        raise ValueError(f"{path}: no positives at rating threshold {rating_threshold}")
    return IdColumn(users, list(user_codes.texts)), IdColumn(items, list(item_codes.texts))


class _IdCodes(dict):
    """An id field -> the code of its stripped text.

    Codes count up from 0 in the order the texts are first seen, and fields
    that strip to one text share its code. Code 0 is the empty text.
    """

    def __init__(self):
        super().__init__()
        self.texts = {"": 0}  # stripped text -> code, in code order

    def __missing__(self, field):
        text = field.strip()
        code = self[field] = self.texts.setdefault(text, len(self.texts))
        return code


def _check_lines(block, lines, user_codes, item_codes):
    """``ingest``'s checks on the ``lines`` of ``block``, as columns, one entry per line.

    Returns each line's check number, whether it splits on tabs, the codes of
    its user and item ids in ``user_codes`` and ``item_codes`` (int64 arrays),
    and its rating (NaN where it fails a check).
    """
    n_tab, n_comma = _separator_counts(block, len(lines))
    by_tab = (n_tab >= 2) | (n_tab >= n_comma)  # tabs give 3 fields, or win a tie
    n_fields = np.where(by_tab, n_tab, n_comma) + 1
    split = (n_fields >= 3) & (n_fields <= 4)
    check = np.where(split, 0, 1).astype(np.int8)
    user, item, ratings, stamps = _field_columns(lines, by_tab, n_fields, split)
    user = np.fromiter(map(user_codes.__getitem__, user), np.int64, len(lines))
    item = np.fromiter(map(item_codes.__getitem__, item), np.int64, len(lines))
    check[split & ((user == 0) | (item == 0))] = 2  # an empty id, code 0
    rating, rejected = _floats(ratings, check == 0)
    check[rejected] = 3
    check[(check == 0) & ~np.isfinite(rating)] = 4
    timed = (check == 0) & (n_fields == 4)
    if timed.any():
        given = timed & np.fromiter(map(bool, stamps), bool, len(lines))
        stamp, rejected = _floats(stamps, given)
        bad = given & ~np.isfinite(stamp)
        rejected = np.flatnonzero(rejected)
        bad[rejected] = _not_blank(stamps, rejected)  # a blank timestamp is allowed
        check[bad] = 5
    rating[check != 0] = np.nan
    return check, by_tab, user, item, rating


def _field_columns(lines, by_tab, n_fields, split):
    """The user, item, rating and timestamp fields of each line, as four lists.

    A line that is not ``split`` gets "" for each, and a line of three fields
    gets "" for its timestamp. The fields of each separator's lines come from
    one split of those lines joined by it, each line then giving as many
    fields as the widest: a line of three fields among lines of four is given
    a blank timestamp first.
    """
    groups = []
    for sep, group in (("\t", by_tab), (",", ~by_tab)):
        rows = np.flatnonzero(group & split)
        if not rows.size:
            continue
        n = n_fields[rows]
        width = n.max()
        texts = lines if rows.size == len(lines) else map(lines.__getitem__, rows.tolist())
        if n.min() < width:
            texts = map(str.__add__, texts, map(("", sep).__getitem__, (n < width).tolist()))
        pieces = sep.join(texts).split(sep)
        groups.append((rows, [pieces[j::width] for j in range(width)]
                        + [[""] * rows.size] * (4 - width)))
    if len(groups) == 1 and len(groups[0][0]) == len(lines):
        return groups[0][1]
    out = np.full((4, len(lines)), "", object)
    for rows, cols in groups:
        out[:, rows] = cols
    return out.tolist()


def _separator_counts(block, n_lines):
    """The tabs and the commas on each of the ``n_lines`` lines of ``block``.

    They are counted in its UTF-8 bytes, where a tab or comma byte is never
    part of a longer character.
    """
    text = np.frombuffer(block.encode(), np.uint8)
    ends = np.append(np.flatnonzero(text == ord("\n")), len(text))[:n_lines]
    return tuple(np.diff(np.searchsorted(np.flatnonzero(text == ord(sep)), ends), prepend=0)
                 for sep in "\t,")


def _not_blank(strings, at):
    """Whether each of the ``strings`` at the indices ``at`` holds more than white space."""
    texts = map(strings.__getitem__, at.tolist())
    return np.fromiter(map(bool, map(str.strip, texts)), bool, len(at))


def _floats(values, take):
    """``float`` of each of ``values`` in mask ``take``, NaN elsewhere, and the mask it rejects.

    The values are converted in ``map`` runs, one more after each rejected one.
    """
    rows = np.flatnonzero(take)
    taken = iter(values if rows.size == len(values)
                 else map(values.__getitem__, rows.tolist()))
    out, rejected = [], []
    while True:
        try:  # extend keeps what it appended before the raise
            out.extend(map(float, taken))
            break
        except ValueError:
            rejected.append(len(out))
            out.append(math.nan)
    value = np.full(len(values), np.nan)
    value[rows] = out
    mask = np.zeros(len(values), bool)
    mask[rows[rejected]] = True
    return value, mask


def _parse_error(path, line_no, raw, check, by_tab):
    """The ParseError of line ``line_no``, text ``raw``, that fails check ``check``."""
    parts = raw.split("\t" if by_tab else ",")
    what = _CHECK_MESSAGES[check].format(n=len(parts), raw=raw,
                                         **dict(zip(("user", "item", "rating", "stamp"), parts)))
    return ParseError(f"{path}: line {line_no}: {what}")


def _utf8_text(blob, path):
    """The bytes ``blob`` of file ``path`` as UTF-8 text; other bytes fail, naming the first."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: invalid UTF-8 at byte {e.start} ({e.reason})") from None


def filter_iterative(users, items, min_user=10, min_item=5):
    """Drop light users/items to a fixed point, then reindex densely.

    ``users`` and ``items`` are the :class:`IdColumn` of the pairs, as
    :func:`ingest` returns them. Removing an item can push a user below the
    threshold and vice versa, so the two filters are interleaved until
    nothing changes. A repeated pair counts once. External ids keep their
    first-appearance order in the surviving pairs, whatever the order of
    their codes: the codes are renumbered once, at the end.
    """
    if min_user < 1 or min_item < 1:
        raise ValueError("minimum interaction counts must be >= 1")
    u, i = users.codes, items.codes
    first = np.sort(np.unique(u * len(items.texts) + i, return_index=True)[1])
    u, i = u[first], i[first]  # one pair per (user, item), in first-appearance order
    while True:
        keep = (np.bincount(u) >= min_user)[u] & (np.bincount(i) >= min_item)[i]
        if keep.all():
            break
        u, i = u[keep], i[keep]
    if not len(u):
        raise ValueError("dataset eliminated by filtering")
    (u, kept_users), (i, kept_items) = _renumber(u), _renumber(i)
    rows = Rows.from_pairs(u, i, len(kept_users))
    return InteractionDataset(
        n_users=len(kept_users), n_items=len(kept_items), indptr=rows.indptr,
        indices=rows.indices, user_ids=[users.texts[j] for j in kept_users.tolist()],
        item_ids=[items.texts[j] for j in kept_items.tolist()])


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
    """Write the dataset cache plus two-column id-map sidecars.

    An earlier :data:`SEAL` is removed first, and only :func:`save_folds`,
    which ``prepare`` calls last, writes the new one: a seal means a
    complete prepare.
    """
    os.makedirs(dir_path, exist_ok=True)
    seal_path = os.path.join(dir_path, SEAL)
    if os.path.lexists(seal_path):
        os.unlink(seal_path)

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


def seal(dir_path):
    """Write :data:`SEAL` in ``dir_path`` for whichever of the :data:`DATA_FILES` it holds."""
    digests = {}
    for name in DATA_FILES:
        path = os.path.join(dir_path, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    atomic_write(os.path.join(dir_path, SEAL), lambda f: f.write(_seal_text(digests)))


def _seal_text(digests):
    return "".join(f"{digest}  {name}\n" for name, digest in digests.items())


def _read_seal(dir_path):
    """The bytes of :data:`SEAL` in ``dir_path``; a directory without it fails."""
    try:
        with open(os.path.join(dir_path, SEAL), "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise ValueError(f"{dir_path}: no {SEAL}; re-run pmlam prepare") from None


def _check_seal(dir_path, sealed, digests):
    """Reject files whose ``digests`` differ from those the :data:`SEAL` bytes ``sealed`` list."""
    path = os.path.join(dir_path, SEAL)
    if sealed == _seal_text(digests).encode():
        return
    lines = sealed.split(b"\n")
    for name, digest in digests.items():
        if f"{digest}  {name}".encode() not in lines:
            raise ValueError(f"{os.path.join(dir_path, name)}: differs from its digest in "
                             f"{path} (SHA-256 mismatch)")
    raise ValueError(f"{path}: {NOT_PREPARED}")


def load_dataset(files):
    """The dataset in :class:`DataFiles` ``files``; rows that disagree with the header fail."""
    path = files.path("dataset.txt")
    rows = files.rows("dataset.txt", files.n_users)
    if len(rows.indices) != files.n_interactions:
        raise ValueError(f"{path}:4: header gives {files.n_interactions} interactions, "
                         f"rows hold {len(rows.indices)}")
    _check_item_rows(rows, path, 5, files.n_items)
    return InteractionDataset(
        n_users=files.n_users, n_items=files.n_items, indptr=rows.indptr, indices=rows.indices,
        user_ids=_load_ids(files, "user_ids.txt", files.n_users),
        item_ids=_load_ids(files, "item_ids.txt", files.n_items),
    )


def write_index_rows(f, rows):
    """One line of space-separated integers per row: what :func:`read_index_rows` reads.

    The values must not be negative. The text is laid out in one byte buffer,
    the inverse of :func:`_canonical_rows`: each number's digits, then a
    space, or the newline that ends its row; an empty row is a newline alone.
    """
    values = rows.indices
    if values.size and values.min() < 0:
        raise ValueError(f"cannot write the negative index {values.min()}")
    digits = 1 + np.searchsorted(_POWERS_OF_10, values, side="right")
    taken = np.concatenate([[0], np.cumsum(digits + 1)])  # bytes of the numbers before
    empty = rows.lens() == 0
    before = np.cumsum(empty) - empty  # the empty rows before each row, a byte each
    start = taken[:-1] + np.repeat(before, rows.lens())
    buf = np.full(taken[-1] + np.count_nonzero(empty), ord(" "), np.uint8)
    buf[(taken[rows.indptr[:-1]] + before)[empty]] = ord("\n")
    buf[(start + digits)[rows.indptr[1:][~empty] - 1]] = ord("\n")  # after a row's last
    at = start + digits - 1  # each number's last digit, then the one before it
    while values.size:
        buf[at] = ord("0") + values % 10
        more = values >= 10
        values, at = values[more] // 10, at[more] - 1
    f.write(buf.tobytes().decode("ascii"))


def read_index_rows(blob, path, n_rows):
    """The ``n_rows`` lines of bytes ``blob`` as :class:`Rows`, in :func:`write_index_rows`' form.

    Any other bytes, a cut or a longer text included, fail.
    """
    rows = _canonical_rows(blob, n_rows)
    if rows is None:
        raise ValueError(f"{path}: {NOT_PREPARED}")
    return rows


# Byte classes of the canonical row text, a ``bytes.translate`` table: a
# digit, a space, the newline that ends a row, and anything else.
_DIGIT, _SPACE, _NEWLINE, _OTHER = range(4)
_BYTE_CLASS = bytes(_DIGIT if 48 <= b <= 57 else _SPACE if b == 32 else
                    _NEWLINE if b == 10 else _OTHER for b in range(256))
_MAX_DIGITS = 18  # every number of 18 digits fits in an int64
_POWERS_OF_10 = 10 ** np.arange(1, 19, dtype=np.int64)  # a number >= 10**k has > k digits


def _canonical_rows(blob, n_rows):
    """Bytes ``blob`` as :class:`Rows` if they are exactly ``n_rows`` canonical lines, else None.

    A canonical line is ASCII digits and spaces ending in a newline, with no
    number longer than :data:`_MAX_DIGITS` digits. Spaces anywhere in a line
    split it as ``str.split`` does.
    """
    if blob.count(b"\n") != n_rows or blob[-1:] not in (b"\n", b""):
        return None
    cls = np.frombuffer(blob.translate(_BYTE_CLASS), dtype=np.uint8)
    breaks = np.flatnonzero(cls != _DIGIT)  # a newline is last, so each number ends at one
    kind = cls[breaks]
    gap = np.diff(breaks, prepend=-1)  # one more than the digits before each break
    if (kind == _OTHER).any() or gap.max(initial=0) > _MAX_DIGITS + 1:
        return None
    numbers = np.cumsum(gap > 1)  # the numbers that end at or before each break
    indptr = np.concatenate([[0], numbers[kind == _NEWLINE]])
    values = (np.fromstring(blob, dtype=np.int64, sep=" ") if indptr[-1]
              else np.empty(0, dtype=np.int64))  # a text without digits reads as [0]
    return Rows(indptr, values)


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
    lines = files.texts[name].split("\n")
    cut = lines.pop()  # the text after the last newline: a line cut short, or nothing
    prefixes = list(map("{}\t".format, range(len(lines))))
    ids = list(map(str.removeprefix, lines, prefixes))
    if cut or not all(map(str.startswith, lines, prefixes)) or not all(ids):
        raise ValueError(f"{path}: {NOT_PREPARED}")
    if len(set(ids)) < len(ids):
        raise ValueError(f"{path}: an id repeats")
    if len(ids) != expected:
        raise ValueError(f"{path}: expected {expected} ids, found {len(ids)}")
    return ids


def _id_line(line, path, pos):
    """The id on line ``pos + 1`` of a sidecar, a line that must read ``pos<TAB><id>``."""
    index, tab, ext = line.removesuffix("\n").partition("\t")
    if not line.endswith("\n") or not tab or index != str(pos) or not ext:
        raise ValueError(f"{path}: {NOT_PREPARED}")
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
    seal(dir_path)


def load_folds(files, ds):
    """The :class:`Folds` of ``ds`` in :class:`DataFiles` ``files``; a misfit file fails."""
    labels = files.rows("folds.txt", ds.n_users)
    _check_label_rows(labels, np.diff(ds.indptr), files.path("folds.txt"), 0, files.n_folds)
    return Folds(ds, labels.indices, files.seed, files.n_folds)


class DataFiles:
    """A prepared dataset's :data:`DATA_FILES`, each read and parsed once: their one reader.

    Construction reads :data:`SEAL` and the four files, hashes each once,
    and checks the digests against the seal before it parses anything.
    From the bytes read, it then parses the header of ``dataset.txt``
    (``n_users``, ``n_items``, ``n_interactions``) and that of ``folds.txt``
    (``seed``, ``n_folds``), and decodes the two id sidecars, strictly: text
    that is not UTF-8 fails, naming the file and its first bad byte. The
    rows stay bytes until :func:`load_dataset`, :func:`load_folds` or the
    one-user methods below parse them. :meth:`check_run` is the one check of
    a run against the files, its checkpoint's digests included, so what a
    command checks is what it parses. Once the digests match those recorded
    when a checkpoint was trained, ``train`` has parsed and checked these
    bytes in full, so the one-user methods parse only the lines they need,
    with the full readers' checks.
    """

    def __init__(self, dir_path):
        self.dir = dir_path
        self.blobs, self.sha256, self.rows_at = {}, {}, {}
        sealed = _read_seal(dir_path)  # first: without it, the files are an unfinished prepare
        for name in DATA_FILES:
            with open(self.path(name), "rb") as f:
                self.blobs[name] = f.read()
            self.sha256[name] = hashlib.sha256(self.blobs[name]).hexdigest()
        _check_seal(dir_path, sealed, self.sha256)
        self.n_users, self.n_items, self.n_interactions = self._header(
            "dataset.txt", DS_MAGIC, ("users", "items", "interactions"))
        self.seed, self.n_folds = self._header("folds.txt", FOLDS_MAGIC, ("seed", "folds"))
        self.texts = {name: _utf8_text(self.blobs[name], self.path(name))
                      for name in ("user_ids.txt", "item_ids.txt")}

    def path(self, name):
        return os.path.join(self.dir, name)

    def _header(self, name, magic, fields):
        """The counts of the ``<field> <count>`` lines after line ``magic`` of file ``name``.

        The offset of the line after them is kept in ``rows_at``.
        """
        lines = list(itertools.islice(io.BytesIO(self.blobs[name]), len(fields) + 1))
        self.rows_at[name] = sum(map(len, lines))
        lines += [b""] * (len(fields) + 1 - len(lines))
        if lines[0].removesuffix(b"\n") != magic.encode():
            raise ValueError(f"{self.path(name)}: not a {magic} file")
        counts = []
        for line_no, (field, line) in enumerate(zip(fields, lines[1:]), start=2):
            parts = line.split()
            if len(parts) != 2 or parts[0] != field.encode() or not parts[1].isdigit():
                raise ValueError(f"{self.path(name)}:{line_no}: expected '{field} <count>'")
            counts.append(int(parts[1]))
        return counts

    def rows(self, name, n_rows):
        """The ``n_rows`` rows after the header of ``dataset.txt`` or ``folds.txt``."""
        return read_index_rows(self.blobs[name][self.rows_at[name]:], self.path(name), n_rows)

    def _row_line(self, name, line_no):
        """Line ``line_no`` (from 1) of rows file ``name``, as bytes, or b"" past its end."""
        with io.BytesIO(self.blobs[name]) as f:
            return next(itertools.islice(f, line_no - 1, None), b"")

    def check_run(self, fold_index, ck=None, ck_path=None):
        """Reject a run on fold ``fold_index`` that these files do not fit.

        The fold must be one of ``folds.txt``'s. A trained run also passes
        its checkpoint's :class:`~pmlam.checkpoint.Tables` ``ck``, read from
        ``ck_path``, whose fold is ``fold_index``: its tables must fit the
        header counts of ``dataset.txt``, and these files must be the bytes
        it was trained on (its ``data_sha256``).
        """
        if ck is not None:
            if (ck.users.n, ck.items.n) != (self.n_users, self.n_items):
                raise ValueError(f"{ck_path}: tables hold {ck.users.n} users x {ck.items.n} "
                                 f"items, the dataset has {self.n_users} x {self.n_items}")
            for name in DATA_FILES:
                if self.sha256[name] != ck.data_sha256.get(name):
                    raise ValueError(f"{self.path(name)}: differs from the file {ck_path} was "
                                     f"trained on (SHA-256 mismatch)")
        if not 0 <= fold_index < self.n_folds:
            raise ValueError(f"{self.path('folds.txt')}: fold {fold_index} outside the file's "
                             f"{self.n_folds} folds")

    def digests(self):
        """SHA-256 hex digest of the bytes read, file name -> digest."""
        return dict(self.sha256)

    def user_index(self, user_id):
        """The internal index of external user ``user_id``, or None if no line holds it.

        The line is the one whose first tab is followed by ``user_id`` and
        then the line's end; a second such line fails.
        """
        if "\n" in user_id:  # no id holds one, and the search below would span lines
            return None
        path, text = self.path("user_ids.txt"), self.texts["user_ids.txt"]
        needle = f"\t{user_id}\n"
        lines = text if text.endswith("\n") else text + "\n"  # a last line ends there too
        held, at = [], lines.find(needle)
        while at >= 0 and len(held) < 2:
            if lines.find("\t", lines.rfind("\n", 0, at) + 1, at) < 0:  # its line's first tab
                held.append(at)
            at = lines.find(needle, at + 1)
        if len(held) > 1:
            raise ValueError(f"{path}: an id repeats")
        if not held:
            return None
        at = held[0]
        start = text.rfind("\n", 0, at) + 1
        u = text.count("\n", 0, start)
        _id_line(text[start:at + len(needle)], path, u)
        if u >= self.n_users:
            raise ValueError(f"{path}:{u + 1}: id past the dataset's {self.n_users} users")
        return u

    def train_row(self, u, fold_index):
        """User ``u``'s items whose fold label is not ``fold_index``, in ascending order."""
        rows_path, folds_path = self.path("dataset.txt"), self.path("folds.txt")
        items = read_index_rows(self._row_line("dataset.txt", u + 5), rows_path, 1)
        _check_item_rows(items, rows_path, u + 5, self.n_items)
        labels = read_index_rows(self._row_line("folds.txt", u + 4), folds_path, 1)
        _check_label_rows(labels, items.lens(), folds_path, u, self.n_folds)
        return items.indices[labels.indices != fold_index]

    def item_ids(self, items):
        """The external id of each internal item index in ``items``."""
        lines = self.texts["item_ids.txt"].split("\n")  # the last ends at the file's end
        return [_id_line(lines[i] + "\n" if i < len(lines) - 1 else "",
                         self.path("item_ids.txt"), i) for i in items]
