import contextlib
import hashlib
import io
import os
import re
import stat

import numpy as np
import pytest

from pmlam import data
from pmlam.cli import main
from pmlam.data import (NOT_PREPARED, DataFiles, InteractionDataset, ParseError, Rows,
                        _canonical_rows, _load_ids, as_rows, atomic_write, filter_iterative,
                        first_row_not_increasing, ingest, load_dataset, load_folds,
                        read_index_rows, save_dataset, save_folds, seal, split_five_fold,
                        write_index_rows)
from pmlam.synth import planted_clusters

from helpers import (DAMAGES, damage, dataset_digest, filter_pairs, reference_filter_iterative,
                     reference_folds_text, reference_ingest, reference_split_five_fold,
                     reference_transpose_rows)


def write_ratings(path, rows, sep="\t"):
    with open(path, "w") as f:
        for row in rows:
            f.write(sep.join(str(x) for x in row) + "\n")


def brute_force_filter(pairs, min_user, min_item):
    """Oracle: remove one violating entity at a time until none remain."""
    pairs = set(pairs)
    while True:
        users = {}
        items = {}
        for u, i in pairs:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        bad_user = next((u for u in sorted(users) if users[u] < min_user), None)
        bad_item = next((i for i in sorted(items) if items[i] < min_item), None)
        if bad_user is None and bad_item is None:
            return pairs
        if bad_user is not None:
            pairs = {(u, i) for u, i in pairs if u != bad_user}
        else:
            pairs = {(u, i) for u, i in pairs if i != bad_item}


def ingest_pairs(path, rating_threshold=4.0):
    """``ingest``'s id columns read as their distinct pairs, in first-appearance order."""
    users, items = ingest(path, rating_threshold=rating_threshold)
    return list(dict.fromkeys(zip(users, items)))


def test_ingest_threshold_and_dedup(tmp_path):
    path = tmp_path / "ratings.tsv"
    write_ratings(path, [
        ("a", "x", 4.0, 100), ("a", "y", 3.5, 101), ("b", "x", 5, 102),
        ("a", "x", 4.5, 103),  # duplicate pair, still one positive
        ("c", "z", 2, 104),
    ])
    pairs = ingest_pairs(path, rating_threshold=4.0)
    assert pairs == [("a", "x"), ("b", "x")]


def test_ingest_returns_the_id_columns_of_positive_lines_with_repeats_kept(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("a\tx\t5\n b \t y \t4\nc\tz\t1\n\na\tx\t4.5\n")
    assert [list(column) for column in ingest(path)] == [["a", "b", "a"], ["x", "y", "x"]]


def test_ingest_comma_separated_without_timestamp(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("u1", "i1", 4), ("u2", "i2", 4)], sep=",")
    assert ingest_pairs(path) == [("u1", "i1"), ("u2", "i2")]


def test_ingest_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tx\t4\nnot-enough-fields\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest(path)
    path.write_text("a\tx\tfour\n")
    with pytest.raises(ParseError, match="line 1"):
        ingest(path)


def test_ingest_no_positives(tmp_path):
    path = tmp_path / "low.tsv"
    write_ratings(path, [("a", "x", 1), ("b", "y", 2)])
    with pytest.raises(ValueError, match="no positives"):
        ingest(path)


def one_line_file(tmp_path, line):
    """A ratings file in ``tmp_path`` that holds ``line`` alone."""
    path = tmp_path / "one.tsv"
    path.write_text(line)
    return path


def test_parse_line_rejects_empty_ids_and_bad_values(tmp_path):
    for line, what in (("\tx\t4", "empty user or item id"), ("a\tx\tnan", "non-finite rating"),
                       ("a\tx\t4\tlater", "bad timestamp 'later'")):
        path = one_line_file(tmp_path, line)
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: line 1: {what}')}$"):
            ingest(path)
    assert ingest_pairs(one_line_file(tmp_path, "a\tx\t4\t123")) == [("a", "x")]


@pytest.mark.parametrize("line, fields", [("u10\ti1", 2), ("a,b", 2), ("a", 1),
                                          ("a\tb,c,d,e,f", 5), ("a\tb\tc\td\te", 5)])
def test_parse_line_counts_the_fields_of_the_split_that_gives_more(tmp_path, line, fields):
    path = one_line_file(tmp_path, line + "\n")
    message = f"{path}: line 1: expected 3 or 4 fields, got {fields}: {line!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        ingest(path)


def test_parse_line_rejects_an_infinite_timestamp(tmp_path):
    path = one_line_file(tmp_path, "a\tx\t4\tinf")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: bad timestamp 'inf'"):
        ingest(path)


def test_ingest_ignores_a_leading_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    text = b"u0\ti1\t5\nu0\ti2\t5\n\xef\xbb\xbfu0\ti3\t5\n"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    # only the leading mark goes: one later in the file stays in its id
    assert ingest_pairs(marked) == ingest_pairs(plain) == [
        ("u0", "i1"), ("u0", "i2"), ("\ufeffu0", "i3")]


@pytest.mark.parametrize("cut", [b"\xef\xbb", b"\xef"])
def test_prepare_reports_a_file_of_a_cut_byte_order_mark_as_invalid_utf8(tmp_path, cut):
    path = tmp_path / "ratings.tsv"
    path.write_bytes(cut)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["prepare", str(path), str(tmp_path / "data")])
    assert code == 2
    assert err.getvalue() == f"error: {path}: invalid UTF-8 at byte 0 (unexpected end of data)\n"


def test_ingest_parse_error_names_the_file(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tx\t4\nnot-enough-fields\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: expected 3 or 4"):
        ingest(path)


def test_prepare_names_the_file_and_first_bad_byte_of_invalid_utf8(tmp_path):
    path = tmp_path / "ratings.tsv"
    good = b"u0\ti1\t5\n" * 5000  # past the first chunk a text-mode read decodes
    path.write_bytes(good + b"u0\t\xffi\t5\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["prepare", str(path), str(tmp_path / "data")])
    assert code == 2
    assert err.getvalue() == (f"error: {path}: invalid UTF-8 at byte {len(good) + 3} "
                              "(invalid start byte)\n")


# Field values for the differential sweep: each list's first entries are good.
# Ids past ASCII, ids padded with Unicode spaces and ids holding characters
# that str.splitlines breaks at but a file's lines do not.
SWEEP_IDS = ("u1", "u2", "i7", "x", "é", "用户", "u\x851", "i\u20282",
             " u1 ", "\xa0u1\u3000", "i,7", "", " ", "\t")
SWEEP_BLANKS = ("  ", " \t ", "\t\t", "\x85", "\u3000 ")
SWEEP_RATINGS = ("5", "4", "4.0", " 4 ", "1_0", "3", "2.5", "nan", "inf", "-inf", "four", "")
SWEEP_STAMPS = ("881250949", " 12 ", "1e3", "", " ", "inf", "nan", "later")
SWEEP_SEED = 23
SWEEP_TRIALS = 60


def sweep_line(rng, bad):
    """One ratings line; a field is drawn from the whole of its list with chance ``bad``."""
    def pick(values, good):
        return values[rng.integers(len(values) if rng.random() < bad else good)]
    form = rng.integers(8)  # 2-4 are tab lines, 5-7 comma lines; 3, 4 and 6 have a timestamp
    if form == 0:
        return ""
    if form == 1:
        return SWEEP_BLANKS[rng.integers(len(SWEEP_BLANKS))]
    fields = [pick(SWEEP_IDS, 8), pick(SWEEP_IDS, 8), pick(SWEEP_RATINGS, 7)]
    if form in (3, 4, 6):
        fields.append(pick(SWEEP_STAMPS, 3))
    if rng.random() < bad:
        fields = fields[:rng.integers(len(fields))] if rng.random() < 0.5 else fields + ["9"]
    return ("," if form >= 5 else "\t").join(fields)


def sweep_file(rng):
    """The bytes of a ratings file of mixed line forms, endings and damage."""
    bad = (0.0, 0.02, 0.1, 0.4)[rng.integers(4)]
    end = (b"\n", b"\r\n", b"\r")[rng.integers(3)]
    blob = b"".join(sweep_line(rng, bad).encode() + end for _ in range(rng.integers(1, 30)))
    return blob[:-len(end)] if rng.random() < 0.3 else blob


def ingest_outcome(read, path):
    """``read(path)``'s result, or the type and message of the ValueError it raised."""
    try:
        return read(path)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("trial", range(SWEEP_TRIALS))
def test_ingest_matches_the_per_line_reference(tmp_path, monkeypatch, trial):
    """``ingest`` gives the per-line reference's pairs, or its error with the file named.

    Each file is read again in blocks of 1 and of 7 characters, so that lines
    straddle the blocks' ends. Text that is not UTF-8 is reported before a
    malformed line of the same block, so a file that has both gives the
    UTF-8 error when it is one block, and either error in small blocks.
    """
    rng = np.random.default_rng([SWEEP_SEED, trial])
    blob = sweep_file(rng)
    whole = data.INGEST_BLOCK
    assert len(blob) < whole
    for how in ("none", *DAMAGES):
        path = tmp_path / f"{how}.tsv"
        path.write_bytes(blob if how == "none" else damage(blob or b"\n", how, rng))
        text = path.read_bytes()
        want = ingest_outcome(reference_ingest, path)
        if want[0] is ParseError:
            want = ParseError, f"{path}: {want[1]}"
        for block in (whole, 1, 7):
            monkeypatch.setattr(data, "INGEST_BLOCK", block)
            got = ingest_outcome(ingest_pairs, path)
            if not utf8(text) and (got != want or block == whole):
                assert got[0] is ValueError, f"{how}, blocks of {block}: {text!r}"
                assert got[1].startswith(f"{path}: invalid UTF-8 at byte")
            else:
                assert got == want, f"{how}, blocks of {block}: {text!r}"
        monkeypatch.undo()


def utf8(blob):
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def test_invalid_utf8_is_reported_before_a_malformed_line_of_its_block(tmp_path):
    path = tmp_path / "ratings.tsv"
    head = b"u0\ti1\t5\nnot-enough-fields\n" + b"u0\ti1\t5\n" * 5000  # past 8 kB
    path.write_bytes(head + b"u0\t\xffi\t5\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid UTF-8 at byte "
                                         f"{len(head) + 3} "):
        ingest(path)


def test_filter_keeps_qualifying_users():
    pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)]
    ds = filter_pairs(pairs, min_user=10, min_item=5)
    assert ds.n_users == 5 and ds.n_items == 10
    assert ds.n_interactions == 50


def test_filter_cascade_matches_brute_force():
    # removing a light item drops a user below threshold, which then cascades
    pairs = []
    for u in range(5):
        for i in range(u, u + 2 + u % 3):
            pairs.append((f"u{u}", f"i{i}"))
    got = filter_pairs(pairs, min_user=2, min_item=2)
    expect = brute_force_filter(pairs, 2, 2)
    got_pairs = {(got.user_ids[u], got.item_ids[i])
                 for u in range(got.n_users) for i in got.row(u)}
    assert got_pairs == expect


def test_filter_identity_thresholds():
    pairs = [("a", "x"), ("a", "x"), ("b", "y")]
    ds = filter_pairs(pairs, min_user=1, min_item=1)
    assert ds.n_interactions == 2  # duplicates collapse


def test_filter_everything_removed():
    with pytest.raises(ValueError, match="eliminated"):
        filter_pairs([("a", "x")], min_user=2, min_item=2)


def test_filter_fixed_point_is_idempotent():
    rng = np.random.default_rng(0)
    pairs = [(f"u{rng.integers(12)}", f"i{rng.integers(15)}") for _ in range(150)]
    ds = filter_pairs(pairs, min_user=4, min_item=3)
    again = filter_pairs(
        [(ds.user_ids[u], ds.item_ids[i]) for u in range(ds.n_users)
         for i in ds.row(u)], min_user=4, min_item=3)
    assert again.n_users == ds.n_users
    assert again.n_interactions == ds.n_interactions


FILTER_CASES = {
    # duplicate pairs, in and out of order, with ids first seen in dropped pairs
    "duplicates": ([("b", "y"), ("a", "x"), ("b", "y"), ("a", "y"), ("c", "z"),
                    ("a", "x"), ("b", "x"), ("c", "x")], 2, 2),
    # a chain hung on a 3x3 core: t3 goes, then j2, t2, j1 and t1, one per round
    "cascade": ([("t1", "x"), ("t1", "j1"), ("t2", "j1"), ("t2", "j2"), ("t3", "j2")]
                + [(u, i) for u in "abc" for i in "zyx"] + [("t2", "j2")], 2, 2),
    "random": ([(f"u{u}", f"i{i}") for u, i in
                np.random.default_rng(3).integers(0, (40, 30), size=(400, 2))], 6, 5),
}


@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_filter_matches_reference_loop(case):
    pairs, min_user, min_item = FILTER_CASES[case]
    got = filter_pairs(pairs, min_user=min_user, min_item=min_item)
    expect = reference_filter_iterative(pairs, min_user=min_user, min_item=min_item)
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    assert got.user_ids == expect.user_ids and got.item_ids == expect.item_ids
    got.check()


def test_filter_cascading_to_nothing_matches_reference_loop():
    pairs = [(f"u{u}", f"i{i}") for u in range(6) for i in (u, u + 1)]
    for filt in (filter_pairs, reference_filter_iterative):
        with pytest.raises(ValueError, match="eliminated"):
            filt(pairs, min_user=2, min_item=2)


@pytest.mark.parametrize("seed", range(4))
def test_filtering_ingest_s_codes_matches_the_dict_numbering(tmp_path, seed):
    # ingest codes an id where any line first shows it, and many ids first show on a line
    # below the threshold, so their codes are out of order among the positive pairs
    rng = np.random.default_rng(seed)
    n = 800
    users, items = rng.integers(0, 50, n), rng.integers(0, 40, n)
    pad = np.array(["", " "])[rng.integers(0, 2, (n, 2))]  # fields that strip to one id
    lines = [f"{p}u{u}\ti{i}{q}\t{r}\n" for u, i, r, (p, q)
             in zip(users, items, rng.choice([1, 3, 4, 5], n), pad)]
    path = tmp_path / "ratings.tsv"
    path.write_text("".join(lines))
    got_users, got_items = ingest(path)
    for column in (got_users, got_items):
        positive_order = list(dict.fromkeys(column))
        held = set(positive_order)
        assert [text for text in column.texts if text in held] != positive_order
    pairs = list(zip(got_users, got_items))
    assert list(dict.fromkeys(pairs)) == reference_ingest(path)
    for min_user, min_item in ((1, 1), (3, 3), (6, 5)):
        got = filter_iterative(got_users, got_items, min_user, min_item)
        for expect in (filter_pairs(pairs, min_user, min_item),
                       reference_filter_iterative(pairs, min_user, min_item)):
            np.testing.assert_array_equal(got.indptr, expect.indptr)
            np.testing.assert_array_equal(got.indices, expect.indices)
            assert got.user_ids == expect.user_ids and got.item_ids == expect.item_ids


def test_reindexing_is_dense():
    pairs = [(f"u{u}", f"i{i}") for u in range(4) for i in range(6)]
    ds = filter_pairs(pairs, min_user=2, min_item=2)
    ds.check()
    assert set(ds.indices) == set(range(ds.n_items))


def test_split_partitions_each_user():
    pairs = [(f"u{u}", f"i{i}") for u in range(6) for i in range(10)]
    ds = filter_pairs(pairs, min_user=10, min_item=5)
    splits = split_five_fold(ds, seed=42)
    assert len(splits) == 5
    for u in range(ds.n_users):
        full = ds.row(u)
        for s in splits:
            train, test = s.train_rows[u], s.test_rows[u]
            assert len(np.intersect1d(train, test)) == 0
            np.testing.assert_array_equal(np.union1d(train, test), full)
            assert len(test) == 2  # 10 items over 5 folds
        union = np.concatenate([s.test_rows[u] for s in splits])
        np.testing.assert_array_equal(np.sort(union), full)


def test_split_deterministic():
    pairs = [(f"u{u}", f"i{(u + k) % 12}") for u in range(8) for k in range(7)]
    ds = filter_pairs(pairs, min_user=1, min_item=1)
    a = split_five_fold(ds, seed=9)
    b = split_five_fold(ds, seed=9)
    for sa, sb in zip(a, b):
        for u in range(ds.n_users):
            np.testing.assert_array_equal(sa.test_rows[u], sb.test_rows[u])
    c = split_five_fold(ds, seed=10)
    assert any(not np.array_equal(a[0].test_rows[u], c[0].test_rows[u])
               for u in range(ds.n_users))


def test_dataset_cache_roundtrip(tmp_path):
    pairs = [(f"user-{u}", f"item:{i}") for u in range(4) for i in range(5)]
    ds = filter_pairs(pairs, min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    assert (tmp_path / "dataset.txt").read_text().startswith("PMLAM-DS v1\n")
    back = load_dataset(DataFiles(tmp_path))
    assert back.user_ids == ds.user_ids and back.item_ids == ds.item_ids
    np.testing.assert_array_equal(back.indptr, ds.indptr)
    np.testing.assert_array_equal(back.indices, ds.indices)
    assert dataset_digest(back) == dataset_digest(ds)


def test_folds_roundtrip(tmp_path):
    pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)]
    ds = filter_pairs(pairs, min_user=1, min_item=1)
    splits = split_five_fold(ds, seed=3)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, splits)
    files = DataFiles(tmp_path)
    back = load_folds(files, load_dataset(files))
    for s, b in zip(splits, back):
        for u in range(ds.n_users):
            np.testing.assert_array_equal(s.test_rows[u], b.test_rows[u])
            np.testing.assert_array_equal(s.train_rows[u], b.train_rows[u])


def dataset_from_rows(rows, n_items):
    return InteractionDataset(
        n_users=len(rows), n_items=n_items,
        indptr=np.cumsum([0] + [len(r) for r in rows], dtype=np.int64),
        indices=np.array([i for r in rows for i in r], dtype=np.int64),
        user_ids=[f"u{u}" for u in range(len(rows))],
        item_ids=[f"i{i}" for i in range(n_items)])


FOLD_DATASETS = {
    "five_by_ten": lambda: filter_pairs(
        [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)], 1, 1),
    "cyclic": lambda: filter_pairs(
        [(f"u{u}", f"i{(u + k) % 12}") for u in range(8) for k in range(7)], 1, 1),
    "planted": lambda: planted_clusters(seed=4, p_in=0.7, p_out=0.1)[0],
    # users 1 to 4 hold fewer items than there are folds
    "fewer_items_than_folds": lambda: dataset_from_rows(
        [[0, 2, 3, 5, 6, 7], [1], [0, 4], [1, 2, 5], [0, 3, 6, 7]], 8),
    # the first, a middle and the last user hold no item at all
    "empty_rows": lambda: dataset_from_rows(
        [[], [0, 2, 3, 5, 6, 7, 9], [], [1, 4], list(range(11)), []], 11),
}


@pytest.mark.parametrize("name", sorted(FOLD_DATASETS))
@pytest.mark.parametrize("seed", [0, 3])
def test_folds_match_nested_loop_reference(tmp_path, name, seed):
    ds = FOLD_DATASETS[name]()
    expect = reference_split_five_fold(ds, seed)
    folds = split_five_fold(ds, seed=seed)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, folds)
    assert (tmp_path / "folds.txt").read_bytes() == reference_folds_text(expect, seed).encode()
    files = DataFiles(tmp_path)
    for got in (folds, load_folds(files, load_dataset(files))):
        assert (len(got), got.count, got.seed) == (5, 5, seed)
        splits = list(got)
        assert len(splits) == 5
        for s, e in zip(splits, expect):
            assert s.fold_index == e.fold_index
            assert len(s.train_rows) == len(s.test_rows) == ds.n_users
            for u in range(ds.n_users):
                np.testing.assert_array_equal(s.train_rows[u], e.train_rows[u])
                np.testing.assert_array_equal(s.test_rows[u], e.test_rows[u])
        assert got[-1].fold_index == 4
        with pytest.raises(IndexError):
            got[5]


def edit_past_the_seal(path, edit):
    """Rewrite ``path`` as ``edit(text)``, check that the seal names it, then forge the seal.

    The readers' own checks are then all that stands between the edit and a parse.
    """
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: differs from its digest in")):
        DataFiles(path.parent)
    seal(path.parent)


def test_load_rejects_wrong_magic(tmp_path):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)], 1, 1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    edit_past_the_seal(tmp_path / "dataset.txt", lambda text: "NOT-A-CACHE\n")
    with pytest.raises(ValueError, match="PMLAM-DS"):
        load_dataset(DataFiles(tmp_path))


def test_a_directory_without_its_seal_exits_2(tmp_path, capsys):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)], 1, 1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    DataFiles(tmp_path)
    (tmp_path / "SHA256SUMS").unlink()
    assert main(["train", str(tmp_path), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path}: no SHA256SUMS; "
                                       f"re-run pmlam prepare\n")


def test_the_seal_is_sha256sum_s_form_in_file_order(tmp_path):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)], 1, 1)
    save_dataset(tmp_path, ds)
    assert not (tmp_path / "SHA256SUMS").exists()  # save_folds, written last, seals
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    files = DataFiles(tmp_path)
    assert (tmp_path / "SHA256SUMS").read_text() == "".join(
        f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}\n"
        for name in data.DATA_FILES)
    assert list(files.digests()) == list(data.DATA_FILES)


@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-a-prepare"])
def test_a_prepare_cut_before_its_folds_leaves_no_seal(tmp_path, capsys, earlier):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)], 1, 1)
    if earlier:  # a complete prepare, then one cut after its dataset
        save_dataset(tmp_path, ds)
        save_folds(tmp_path, split_five_fold(ds, seed=0))
    save_dataset(tmp_path, filter_pairs([(f"u{u}", "i0") for u in range(3)], 1, 1))
    assert not (tmp_path / "SHA256SUMS").exists()
    assert main(["train", str(tmp_path), "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (f"error: {tmp_path}: no SHA256SUMS; "
                                       f"re-run pmlam prepare\n")


def test_failed_atomic_write_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "dataset.txt"
    target.write_text("old contents\n")

    def failing(f):
        f.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, failing)
    assert target.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.txt"]


def test_atomic_write_gives_the_permissions_of_a_plain_open(tmp_path):
    (tmp_path / "plain.txt").write_text("x")
    atomic_write(tmp_path / "atomic.txt", lambda f: f.write("x"))
    atomic_write(tmp_path / "atomic.bin", lambda f: f.write(b"x"), mode="wb")
    modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
    assert modes["atomic.txt"] == modes["atomic.bin"] == modes["plain.txt"]


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_an_identical_rewrite_leaves_the_file_in_place(tmp_path, mode):
    target = tmp_path / "report.csv"
    text = "fold,K,recall\n0,10,0.5\n"
    atomic_write(target, lambda f: f.write(text if mode == "w" else text.encode()), mode)
    os.utime(target, ns=(1_000_000_000, 1_000_000_000))  # an mtime a rewrite would change
    before = target.stat()
    atomic_write(target, lambda f: f.write(text if mode == "w" else text.encode()), mode)
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


@pytest.mark.parametrize("new", ["0,10,0.25\n", "0,10,0.6\n"],
                         ids=["longer", "same-size"])
def test_a_changed_rewrite_replaces_the_file(tmp_path, new):
    target = tmp_path / "report.csv"
    target.write_text("0,10,0.5\n")
    inode = target.stat().st_ino
    atomic_write(target, lambda f: f.write(new))
    assert target.read_text() == new
    assert target.stat().st_ino != inode
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


@pytest.mark.parametrize("mode", ["w", "wb"])
def test_a_replaced_file_keeps_its_permission_bits(tmp_path, mode):
    target = tmp_path / "report.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    atomic_write(target, lambda f: f.write("new\n" if mode == "w" else b"new\n"), mode)
    assert target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


@pytest.mark.parametrize("new", ["same\n", "other\n"])
def test_a_symlink_at_the_path_is_replaced_not_written_through(tmp_path, new):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("same\n")
    link.symlink_to(real)
    atomic_write(link, lambda f: f.write(new))
    assert not link.is_symlink() and link.read_text() == new
    assert real.read_text() == "same\n"


def test_load_rejects_item_index_outside_catalog(tmp_path):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)],
                      min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    path = tmp_path / "dataset.txt"
    assert path.read_text().split("\n")[5] == "0 1 2 3"
    # the second user's last item is past the 4-item catalog
    edit_past_the_seal(path, lambda text: text.replace("0 1 2 3\n0 1 2 3\n",
                                                       "0 1 2 3\n0 1 2 4\n", 1))
    with pytest.raises(ValueError, match="dataset.txt:6: item index"):
        load_dataset(DataFiles(tmp_path))


# Each damage, and the fault it makes, named by its line; past a forged seal
# the reader names only the file.
@pytest.mark.parametrize("damage, fault", [
    ("tab", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("index", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("empty", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("duplicate", "user_ids.txt:2: id 'u0' repeats line 1"),
    ("cut", "user_ids.txt:3: expected '2<TAB><id>'"),
])
def test_load_rejects_damaged_id_sidecar(tmp_path, damage, fault):
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)],
                      min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    path = tmp_path / "user_ids.txt"
    lines = path.read_text().split("\n")[:-1]
    assert lines[1] == "1\tu1"
    lines[1] = {"tab": "1 u1", "index": "2\tu1", "empty": "1\t",
                "duplicate": "1\tu0", "cut": "1\tu1"}[damage]
    text = "\n".join(lines) + "\n"
    edit_past_the_seal(path, lambda _: text[:-1] if damage == "cut" else text)
    message = "an id repeats" if damage == "duplicate" else NOT_PREPARED
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_dataset(DataFiles(tmp_path))


def repeat_an_id(blob, rng):
    """Sidecar ``blob`` with one line's id copied onto a later line, if it has two."""
    lines = blob.split(b"\n")
    if len(lines) > 2:
        a, b = sorted(rng.choice(len(lines) - 1, size=2, replace=False))
        lines[b] = lines[b].partition(b"\t")[0] + b"\t" + lines[a].partition(b"\t")[2]
    return b"\n".join(lines)


SIDECAR_SEED = 37
SIDECAR_TRIALS = 40


def per_line_ids(text, expected):
    """The ids of sidecar ``text``, read line by line, or None where the reader must fail."""
    lines = text.split("\n")
    if lines.pop():  # a cut last line
        return None
    ids = []
    for pos, line in enumerate(lines):
        index, tab, ext = line.partition("\t")
        if index != str(pos) or not tab or not ext or ext in ids:
            return None
        ids.append(ext)
    return ids if len(ids) == expected else None


@pytest.mark.parametrize("trial", range(SIDECAR_TRIALS))
def test_load_ids_matches_the_per_line_reference(tmp_path, trial):
    """Past a forged seal, a damaged sidecar reads as the per-line reference reads it, or fails."""
    rng = np.random.default_rng([SIDECAR_SEED, trial])
    ids = [f"u{k}" for k in rng.permutation(rng.integers(1, 40))]
    ds = filter_pairs([(u, f"i{k}") for u in ids for k in range(2)], min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    name = ("user_ids.txt", "item_ids.txt")[rng.integers(2)]
    blob = (tmp_path / name).read_bytes()
    expected = (ds.n_users, ds.n_items)[name == "item_ids.txt"]
    for how in (*DAMAGES, "repeated id"):
        (tmp_path / name).write_bytes(damage(blob, how, rng) if how in DAMAGES
                                      else repeat_an_id(blob, rng))
        seal(tmp_path)
        got = ingest_outcome(lambda d: _load_ids(DataFiles(d), name, expected), tmp_path)
        try:
            want = per_line_ids((tmp_path / name).read_bytes().decode("utf-8"), expected)
        except UnicodeDecodeError as e:  # the reader decodes as the reference does
            assert got == (ValueError, f"{tmp_path / name}: invalid UTF-8 at byte {e.start} "
                                       f"({e.reason})"), how
            continue
        if want is None:
            assert got[0] is ValueError and got[1].startswith(f"{tmp_path / name}: "), (how, got)
        else:
            assert got == want, f"{how}: {(tmp_path / name).read_bytes()!r}"


def test_first_row_not_increasing_matches_a_row_loop():
    rng = np.random.default_rng(5)
    for _ in range(500):  # short rows of few values: repeats, descents and empty rows
        lists = [rng.integers(0, 5, size=rng.integers(0, 4))
                 for _ in range(rng.integers(0, 6))]
        want = next((r for r, row in enumerate(lists) if np.any(np.diff(row) <= 0)), None)
        assert first_row_not_increasing(as_rows(lists)) == want


ROW_LISTS = {
    "random": lambda rng: [np.flatnonzero(rng.random(9) < 0.4) for _ in range(12)],
    # empty first, middle and last rows, and a full one
    "empty_rows": lambda rng: [np.array([], int), np.array([0, 3]), np.array([], int),
                               np.arange(9), np.array([], int)],
    "all_empty": lambda rng: [np.array([], int)] * 4,
    "no_rows": lambda rng: [],
}


@pytest.mark.parametrize("name", sorted(ROW_LISTS))
def test_rows_from_pairs_and_transpose_match_references(name):
    rng = np.random.default_rng(11)
    lists = ROW_LISTS[name](rng)
    rows = as_rows(lists)
    anchors, ids = rows.pairs()
    assert anchors.dtype == ids.dtype == np.int64
    shuffle = rng.permutation(len(ids))  # from_pairs takes pairs in any order
    again = Rows.from_pairs(anchors[shuffle], ids[shuffle], len(lists))
    np.testing.assert_array_equal(again.indptr, rows.indptr)
    np.testing.assert_array_equal(again.indices, rows.indices)
    assert again.indices.dtype == np.int64
    transposed = Rows.from_pairs(ids, anchors, 9)
    expect = reference_transpose_rows(lists, 9)
    assert len(transposed) == 9
    for got, want in zip(transposed, expect, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_rows_index_like_a_list():
    lists = [np.array([3, 5]), np.array([], int), np.array([1])]
    rows = as_rows(lists)
    assert len(rows) == 3
    assert [r.tolist() for r in rows] == [[3, 5], [], [1]]
    np.testing.assert_array_equal(rows.lens(), [2, 0, 1])
    for a in range(-3, 3):
        np.testing.assert_array_equal(rows[a], lists[a])
    np.testing.assert_array_equal(rows[np.int64(-1)], [1])
    for a in (3, -4):
        with pytest.raises(IndexError):
            rows[a]
    anchors, ids = rows.pairs()
    np.testing.assert_array_equal(anchors, [0, 0, 2])
    np.testing.assert_array_equal(ids, [3, 5, 1])
    assert len(Rows.from_pairs(np.empty(0, int), np.empty(0, int), 0)) == 0


READ_SEED = 29
READ_TRIALS = 80
# The parts of a row line, each list's canonical values first: a leading
# space, the tokens (then leading zeros, signs, 18- and 19-digit numbers, the
# last past int64, non-ASCII digits and non-integers), the space between two
# tokens, a trailing space and the line end.
ROW_LEADS = ("", " ")
ROW_TOKENS = ("0", "7", "42", "1679", "007", "+3", "-4", "-0", "999999999999999999",
              "000000000000000001", "1000000000000000000", "0000000000000000007",
              "9223372036854775807", "9223372036854775808", "٣", "３", "1_0", "x",
              "1.5")
ROW_SEPS = (" ", "  ", "\t", " \t")
ROW_TRAILS = ("", " ", "\t")
ROW_ENDS = ("\n", "\r\n", "\r")
ROW_PARTS = ((ROW_LEADS, 1), (ROW_TOKENS, 4), (ROW_SEPS, 1), (ROW_TRAILS, 1), (ROW_ENDS, 1))
ROW_TAILS = (" ", "\n", "x", "\r\n", "\t")


def sweep_rows_text(rng, odd, depart=False):
    """(text, n_rows) of index rows; each part is drawn from the whole of its list with chance ``odd``.

    With ``depart``, one part of one line, or the shape of the whole, then
    leaves the canonical form.
    """
    def pick(values, canonical):
        return values[rng.integers(len(values) if rng.random() < odd else canonical)]
    n_rows = int(rng.integers(0, 7))
    lines = [[pick(ROW_LEADS, 1), [pick(ROW_TOKENS, 4) for _ in range(rng.integers(0, 6))],
              pick(ROW_SEPS, 1), pick(ROW_TRAILS, 1), pick(ROW_ENDS, 1)] for _ in range(n_rows)]
    shape = rng.integers(5) if depart else rng.integers(4) if rng.random() < odd else 4
    if depart and shape == 4 and lines:
        line = lines[rng.integers(len(lines))]
        part = int(rng.integers(5))
        values, canonical = ROW_PARTS[part]
        odd_value = values[rng.integers(canonical, len(values))]
        if part != 1:
            line[part] = odd_value
        elif line[1]:
            line[1][rng.integers(len(line[1]))] = odd_value
        else:
            line[1] = [odd_value]
    text = "".join(lead + sep.join(tokens) + trail + end
                   for lead, tokens, sep, trail, end in lines)
    if shape == 0 and text:  # a cut last line
        text = text[:rng.integers(len(text))]
    elif shape == 1:  # a missing line
        n_rows += 1
    elif shape == 2 and n_rows:  # an extra line
        n_rows -= 1
    elif shape == 3:  # text after the last row
        text += rng.choice(ROW_TAILS)
    return text, n_rows


def per_line_rows(text, n_rows):
    """The rows of ``text`` read line by line in the form ``write_index_rows`` writes, or None.

    That is ``n_rows`` lines, each ending in a newline, of ASCII digits and
    spaces with no number longer than 18 digits; spaces split a line as
    ``str.split`` does.
    """
    lines = text.split("\n")
    if len(lines) != n_rows + 1 or lines[-1]:
        return None
    rows = []
    for line in lines[:-1]:
        if not set(line) <= set("0123456789 ") or any(len(t) > 18 for t in line.split()):
            return None
        rows.append(np.array([int(t) for t in line.split()], dtype=np.int64))
    return as_rows(rows)


def read_rows_outcome(read, text, n_rows):
    """``read``'s Rows of ``text`` as lists with their dtypes, or its ValueError's text.

    ``read(blob, path, n_rows)`` is :func:`read_index_rows` or the per-line
    reference, which gives None where the reader must fail; ``blob`` is the
    UTF-8 bytes of ``text``, as ``DataFiles`` holds them.
    """
    try:
        rows = read(text.encode("utf-8"), "rows.txt", n_rows)
    except ValueError as e:
        return str(e)
    if rows is None:
        return f"rows.txt: {NOT_PREPARED}"
    return rows.indptr.dtype, rows.indptr.tolist(), rows.indices.dtype, rows.indices.tolist()


def reference_read(blob, path, n_rows):
    return per_line_rows(blob.decode("utf-8"), n_rows)


@pytest.mark.parametrize("trial", range(READ_TRIALS))
def test_read_index_rows_matches_the_per_line_reference(trial):
    """The same Rows as the per-line reader of the written form, or the form error."""
    rng = np.random.default_rng([READ_SEED, trial])
    for odd, depart in ((0.0, False), (0.0, True), (0.0, True), (0.2, False), (0.6, False)):
        text, n_rows = sweep_rows_text(rng, odd, depart)
        assert (read_rows_outcome(read_index_rows, text, n_rows)
                == read_rows_outcome(reference_read, text, n_rows)), repr(text)


# One departure from the canonical form each, as (text, n_rows).
ROW_DEPARTURES = (
    ("1  2\n", 1), (" 1\n", 1), ("1 \n", 1), (" \n", 1), ("1\t2\n", 1), ("+1\n", 1),
    ("-1\n", 1), ("007\n", 1), ("999999999999999999\n", 1), ("1000000000000000000\n", 1),
    ("9223372036854775808\n", 1), ("0000000000000000007\n", 1), ("٣\n", 1), ("1_0\n", 1),
    ("1\r\n2\n", 2), ("1\r2\n", 2), ("1\n2", 2), ("1\n", 2), ("1\n2\n", 1), ("1\n\n", 1),
    ("1\n ", 1), ("", 0), (" ", 0), ("\n", 0), ("\n\n", 2), ("\n \n", 2),
)


@pytest.mark.parametrize("text, n_rows", ROW_DEPARTURES)
def test_read_index_rows_matches_the_per_line_reference_on_each_departure(text, n_rows):
    got = read_rows_outcome(read_index_rows, text, n_rows)
    assert got == read_rows_outcome(reference_read, text, n_rows)
    canonical = _canonical_rows(text.encode("utf-8"), n_rows)
    assert got == (f"rows.txt: {NOT_PREPARED}" if canonical is None else
                   read_rows_outcome(lambda *_: canonical, text, n_rows))


def test_the_written_form_is_read_in_one_pass():
    """What ``write_index_rows`` writes takes the one-pass path and reads back as written."""
    rng = np.random.default_rng(30)
    lists = [rng.integers(0, 10 ** 18, size=rng.integers(0, 5)) for _ in range(40)]
    lists += [np.array([], int), np.array([10 ** 18 - 1, 0])]
    for rows in (as_rows(lists), as_rows([]), as_rows([np.array([], int)] * 3)):
        f = io.StringIO()
        write_index_rows(f, rows)
        back = _canonical_rows(f.getvalue().encode("ascii"), len(rows))
        assert back is not None
        assert back.indptr.dtype == back.indices.dtype == np.int64
        np.testing.assert_array_equal(back.indptr, rows.indptr)
        np.testing.assert_array_equal(back.indices, rows.indices)


def test_row_text_matches_a_join_per_row():
    rng = np.random.default_rng(31)
    for _ in range(300):  # every digit count, zeros, powers of ten and empty rows
        lists = [(rng.random(k) * 10.0 ** rng.integers(0, 19, size=k)).astype(np.int64)
                 for k in rng.integers(0, 5, size=rng.integers(0, 7))]
        lists.append(np.array([0, 9, 10, 99, 100, 10 ** 18, np.iinfo(np.int64).max]))
        f = io.StringIO()
        write_index_rows(f, as_rows(lists))
        assert f.getvalue() == "".join(" ".join(map(str, r.tolist())) + "\n" for r in lists)


def test_row_text_rejects_a_negative_value():
    with pytest.raises(ValueError, match="negative index -3"):
        write_index_rows(io.StringIO(), as_rows([np.array([1, 2]), np.array([-3])]))


def regex_user_index(text, user_id):
    """The line of the first line whose first tab is followed by exactly ``user_id``: an oracle."""
    if "\n" in user_id:
        return None
    found = re.search(rf"^[^\t\n]*\t{re.escape(user_id)}(?:\n|\Z)", text, re.MULTILINE)
    return None if found is None else text.count("\n", 0, found.start())


# Regex metacharacters, ids holding a tab, and ids that end other ids ("id"
# ends "x\tid" on the line before it, "d" ends "id").
INDEXED_USER_IDS = ("a.b", "a*b", "(x)", "[0-9]+", "a\\b", "^u$", "x\tid", "id", "d", "u|v",
                    "ü")
UNKNOWN_USER_IDS = ("", "a", "b", ".", "x", "tab", "i", "[0-9]", "u", "v", "\t", "id\n", "x\t")


@pytest.mark.parametrize("cut", [False, True])
def test_user_index_finds_the_line_whose_first_tab_precedes_the_id(tmp_path, cut):
    ds = filter_pairs([(u, f"i{i}") for u in INDEXED_USER_IDS for i in range(2)],
                      min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, split_five_fold(ds, seed=0))
    path = tmp_path / "user_ids.txt"
    if cut:  # the last line without its newline, past a forged seal
        edit_past_the_seal(path, lambda text: text[:-1])
    text = path.read_text()
    files = DataFiles(tmp_path)
    for u, user_id in enumerate(ds.user_ids):
        assert regex_user_index(text, user_id) == u
        if cut and u == ds.n_users - 1:
            with pytest.raises(ValueError, match=re.escape(f"{path}: {NOT_PREPARED}")):
                files.user_index(user_id)
        else:
            assert files.user_index(user_id) == u
    for user_id in UNKNOWN_USER_IDS:
        assert regex_user_index(text, user_id) is None
        assert files.user_index(user_id) is None
