import numpy as np
import pytest

from pmlam.data import (InteractionDataset, ParseError, Rows, as_rows, atomic_write,
                        filter_iterative, first_row_not_increasing, ingest, load_dataset,
                        load_folds, parse_line, save_dataset, save_folds, split_five_fold)
from pmlam.synth import planted_clusters

from helpers import (dataset_digest, reference_filter_iterative, reference_folds_text,
                     reference_split_five_fold, reference_transpose_rows)


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


def test_ingest_threshold_and_dedup(tmp_path):
    path = tmp_path / "ratings.tsv"
    write_ratings(path, [
        ("a", "x", 4.0, 100), ("a", "y", 3.5, 101), ("b", "x", 5, 102),
        ("a", "x", 4.5, 103),  # duplicate pair, still one positive
        ("c", "z", 2, 104),
    ])
    pairs = ingest(path, rating_threshold=4.0)
    assert pairs == [("a", "x"), ("b", "x")]


def test_ingest_comma_separated_without_timestamp(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings(path, [("u1", "i1", 4), ("u2", "i2", 4)], sep=",")
    assert ingest(path) == [("u1", "i1"), ("u2", "i2")]


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


def test_parse_line_rejects_empty_ids_and_bad_values():
    with pytest.raises(ParseError):
        parse_line("\tx\t4", 1)
    with pytest.raises(ParseError):
        parse_line("a\tx\tnan", 1)
    with pytest.raises(ParseError):
        parse_line("a\tx\t4\tlater", 1)
    r = parse_line("a\tx\t4\t123", 7)
    assert r.timestamp == 123


def test_filter_keeps_qualifying_users():
    pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)]
    ds = filter_iterative(pairs, min_user=10, min_item=5)
    assert ds.n_users == 5 and ds.n_items == 10
    assert ds.n_interactions == 50


def test_filter_cascade_matches_brute_force():
    # removing a light item drops a user below threshold, which then cascades
    pairs = []
    for u in range(5):
        for i in range(u, u + 2 + u % 3):
            pairs.append((f"u{u}", f"i{i}"))
    got = filter_iterative(pairs, min_user=2, min_item=2)
    expect = brute_force_filter(pairs, 2, 2)
    got_pairs = {(got.user_ids[u], got.item_ids[i])
                 for u in range(got.n_users) for i in got.row(u)}
    assert got_pairs == expect


def test_filter_identity_thresholds():
    pairs = [("a", "x"), ("a", "x"), ("b", "y")]
    ds = filter_iterative(pairs, min_user=1, min_item=1)
    assert ds.n_interactions == 2  # duplicates collapse


def test_filter_everything_removed():
    with pytest.raises(ValueError, match="eliminated"):
        filter_iterative([("a", "x")], min_user=2, min_item=2)


def test_filter_fixed_point_is_idempotent():
    rng = np.random.default_rng(0)
    pairs = [(f"u{rng.integers(12)}", f"i{rng.integers(15)}") for _ in range(150)]
    ds = filter_iterative(pairs, min_user=4, min_item=3)
    again = filter_iterative(
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
    got = filter_iterative(pairs, min_user=min_user, min_item=min_item)
    expect = reference_filter_iterative(pairs, min_user=min_user, min_item=min_item)
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    assert got.user_ids == expect.user_ids and got.item_ids == expect.item_ids
    got.check()


def test_filter_cascading_to_nothing_matches_reference_loop():
    pairs = [(f"u{u}", f"i{i}") for u in range(6) for i in (u, u + 1)]
    for filt in (filter_iterative, reference_filter_iterative):
        with pytest.raises(ValueError, match="eliminated"):
            filt(pairs, min_user=2, min_item=2)


def test_reindexing_is_dense():
    pairs = [(f"u{u}", f"i{i}") for u in range(4) for i in range(6)]
    ds = filter_iterative(pairs, min_user=2, min_item=2)
    ds.check()
    assert set(ds.indices) == set(range(ds.n_items))


def test_split_partitions_each_user():
    pairs = [(f"u{u}", f"i{i}") for u in range(6) for i in range(10)]
    ds = filter_iterative(pairs, min_user=10, min_item=5)
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
    ds = filter_iterative(pairs, min_user=1, min_item=1)
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
    ds = filter_iterative(pairs, min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    assert (tmp_path / "dataset.txt").read_text().startswith("PMLAM-DS v1\n")
    back = load_dataset(tmp_path)
    assert back.user_ids == ds.user_ids and back.item_ids == ds.item_ids
    np.testing.assert_array_equal(back.indptr, ds.indptr)
    np.testing.assert_array_equal(back.indices, ds.indices)
    assert dataset_digest(back) == dataset_digest(ds)


def test_folds_roundtrip(tmp_path):
    pairs = [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)]
    ds = filter_iterative(pairs, min_user=1, min_item=1)
    splits = split_five_fold(ds, seed=3)
    save_dataset(tmp_path, ds)
    save_folds(tmp_path, splits)
    back = load_folds(tmp_path, load_dataset(tmp_path))
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
    "five_by_ten": lambda: filter_iterative(
        [(f"u{u}", f"i{i}") for u in range(5) for i in range(10)], 1, 1),
    "cyclic": lambda: filter_iterative(
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
    assert (tmp_path / "folds.txt").read_bytes() == reference_folds_text(expect).encode()
    for got in (folds, load_folds(tmp_path, load_dataset(tmp_path))):
        assert len(got) == 5
        splits = list(got)
        assert len(splits) == 5
        for s, e in zip(splits, expect):
            assert (s.fold_index, s.rng_seed, s.fold_count) == (e.fold_index, seed, 5)
            assert len(s.train_rows) == len(s.test_rows) == ds.n_users
            for u in range(ds.n_users):
                np.testing.assert_array_equal(s.train_rows[u], e.train_rows[u])
                np.testing.assert_array_equal(s.test_rows[u], e.test_rows[u])
        assert got[-1].fold_index == 4
        with pytest.raises(IndexError):
            got[5]


def test_load_rejects_wrong_magic(tmp_path):
    (tmp_path / "dataset.txt").write_text("NOT-A-CACHE\n")
    with pytest.raises(ValueError, match="PMLAM-DS"):
        load_dataset(tmp_path)


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


def test_load_rejects_item_index_outside_catalog(tmp_path):
    ds = filter_iterative([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)],
                          min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    path = tmp_path / "dataset.txt"
    lines = path.read_text().split("\n")
    lines[5] = "0 1 2 4"  # the second user's last item is past the 4-item catalog
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="dataset.txt:6: item index"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("damage, message", [
    ("tab", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("index", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("empty", "user_ids.txt:2: expected '1<TAB><id>'"),
    ("duplicate", "user_ids.txt:2: id 'u0' repeats line 1"),
    ("cut", "user_ids.txt:3: expected '2<TAB><id>'"),
])
def test_load_rejects_damaged_id_sidecar(tmp_path, damage, message):
    ds = filter_iterative([(f"u{u}", f"i{i}") for u in range(3) for i in range(4)],
                          min_user=1, min_item=1)
    save_dataset(tmp_path, ds)
    path = tmp_path / "user_ids.txt"
    lines = path.read_text().split("\n")[:-1]
    assert lines[1] == "1\tu1"
    lines[1] = {"tab": "1 u1", "index": "2\tu1", "empty": "1\t",
                "duplicate": "1\tu0", "cut": "1\tu1"}[damage]
    text = "\n".join(lines) + "\n"
    path.write_text(text[:-1] if damage == "cut" else text)
    with pytest.raises(ValueError, match=message):
        load_dataset(tmp_path)


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
