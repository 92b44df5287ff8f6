import numpy as np
import pytest

from pmlam.data import as_rows
from pmlam.simgraph import build, build_or_load, load, rows_digest, save

from helpers import cosine_binary


def random_rows(rng, n_rows, n_cols, density=0.3):
    rows = []
    for _ in range(n_rows):
        mask = rng.random(n_cols) < density
        rows.append(np.flatnonzero(mask).astype(np.int64))
    return rows


def brute_force_neighbors(rows, tau):
    n = len(rows)
    out = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j or len(rows[i]) == 0 or len(rows[j]) == 0:
                continue
            if cosine_binary(rows[i], rows[j]) >= tau:
                out[i].append(j)
    return [np.array(sorted(v), dtype=np.int64) for v in out]


def test_cosine_cases():
    assert cosine_binary([1, 2, 3], [1, 2, 3]) == 1.0
    assert cosine_binary([1, 2, 3], [2, 3, 4]) == pytest.approx(2 / 3)
    assert cosine_binary([1, 2], [3, 4]) == 0.0
    with pytest.raises(ValueError):
        cosine_binary([], [1])


def test_duplicate_profiles_at_tau_one():
    rows = [np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([0, 3])]
    nbr = build(as_rows(rows), n_cols=4, tau=1.0)
    np.testing.assert_array_equal(nbr.neighbors[0], [1])
    np.testing.assert_array_equal(nbr.neighbors[1], [0])
    assert len(nbr.neighbors[2]) == 0


def test_matches_brute_force_on_random_matrix():
    rng = np.random.default_rng(5)
    rows = random_rows(rng, 30, 40)
    for tau in (0.2, 0.45, 0.8):
        nbr = build(as_rows(rows), n_cols=40, tau=tau)
        expect = brute_force_neighbors(rows, tau)
        for a in range(30):
            np.testing.assert_array_equal(nbr.neighbors[a], expect[a])


def test_symmetry_and_no_self_loops():
    rng = np.random.default_rng(9)
    rows = random_rows(rng, 25, 30)
    nbr = build(as_rows(rows), n_cols=30, tau=0.3)
    for i in range(25):
        assert i not in nbr.neighbors[i]
        for j in nbr.neighbors[i]:
            assert i in nbr.neighbors[j]


def test_all_stored_pairs_clear_the_threshold():
    rng = np.random.default_rng(13)
    rows = random_rows(rng, 20, 25)
    tau = 0.35
    nbr = build(as_rows(rows), n_cols=25, tau=tau)
    for i in range(20):
        for j in nbr.neighbors[i]:
            assert cosine_binary(rows[i], rows[j]) >= tau


def test_empty_rows_get_empty_neighborhoods():
    rows = [np.array([0, 1]), np.empty(0, dtype=np.int64), np.array([0, 1])]
    nbr = build(as_rows(rows), n_cols=3, tau=0.1)
    assert len(nbr.neighbors[1]) == 0
    np.testing.assert_array_equal(nbr.neighbors[0], [2])


def test_tau_validation():
    with pytest.raises(ValueError):
        build(as_rows([np.array([0])]), n_cols=1, tau=0.0)
    with pytest.raises(ValueError):
        build(as_rows([np.array([0])]), n_cols=1, tau=1.5)


def test_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    rows = random_rows(rng, 12, 15)
    nbr = build(as_rows(rows), n_cols=15, tau=0.4, kind="item")
    path = str(tmp_path / "nbr.txt")
    save(path, nbr)
    assert open(path).readline() == "PMLAM-NBR v1\n"
    back = load(path)
    assert back.kind == "item" and back.tau == 0.4
    for a, b in zip(nbr.neighbors, back.neighbors):
        np.testing.assert_array_equal(a, b)


def test_build_or_load_uses_cache(tmp_path):
    rng = np.random.default_rng(3)
    rows = random_rows(rng, 10, 12)
    first = build_or_load(str(tmp_path), as_rows(rows), 12, 0.3, "user", fold_index=1)
    cached = list(tmp_path.glob("neighbors_*.txt"))
    assert len(cached) == 1
    second = build_or_load(str(tmp_path), as_rows(rows), 12, 0.3, "user", fold_index=1)
    for a, b in zip(first.neighbors, second.neighbors):
        np.testing.assert_array_equal(a, b)
    # different fold or tau keys a different cache entry
    build_or_load(str(tmp_path), as_rows(rows), 12, 0.4, "user", fold_index=1)
    assert len(list(tmp_path.glob("neighbors_*.txt"))) == 2
    assert rows_digest(rows) == rows_digest([r.copy() for r in rows])


@pytest.mark.parametrize("damage", ["cut", "count", "range"])
def test_load_rejects_damaged_cache(tmp_path, damage):
    rng = np.random.default_rng(4)
    rows = random_rows(rng, 30, 15)
    path = tmp_path / "nbr.txt"
    save(str(path), build(as_rows(rows), n_cols=15, tau=0.2))
    lines = path.read_text().split("\n")[:-1]
    if damage == "cut":  # the header and the first two entities
        lines = lines[:6]
    elif damage == "count":
        lines[3] = "n 31"
    else:
        lines[4] = "30"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="nbr.txt:"):
        load(str(path), n_rows=30)


def test_rows_digest_keys_rows_as_their_list_form():
    # neighbor caches written when rows were lists of arrays are still found
    rng = np.random.default_rng(6)
    for rows in (random_rows(rng, 10, 12), [np.empty(0, np.int64)] * 3, []):
        assert rows_digest(as_rows(rows)) == rows_digest(rows)
    # cache file names stay put
    assert rows_digest([np.array([0, 1]), np.array([2])]) == "63f3ba7526e7ecb6"
