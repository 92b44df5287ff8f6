"""A seeded sweep of damaged inputs: every command ends with exit 0 or 2, never a traceback.

Each trial copies criterion 9's data and a one-epoch checkpoint trained on
it, damages one file by a bit flip, a set byte, a cut, or a duplicated or
deleted line, and runs the command that reads that file in-process: ``train``
for a data file, ``case-study`` for ``item_labels.txt``, and ``evaluate``,
``recommend`` or ``case-study`` for ``checkpoint.bin``. A data file is
sealed by ``SHA256SUMS``, so ``train`` exits 2 exactly when the damage
changed its bytes; one more trial per kind of damage damages the seal
itself. For the other files exit 0 is allowed: some damage leaves a file
that still parses. A second sweep, with its own seed, damages a ratings file
the same ways and runs ``prepare`` on it.
"""

import contextlib
import io

import numpy as np
import pytest

from pmlam.cli import main
from pmlam.data import DATA_FILES, SEAL, save_dataset, save_folds, split_five_fold
from pmlam.synth import planted_clusters

from helpers import DAMAGES, damage, write_item_labels

SEED = 17
TRIALS = 50
# criterion 9's training flags, for one epoch
TRAIN = ["--quiet", "--seed", "7", "--h", "8", "--hidden", "8", "--epochs", "1",
         "--batch-size", "64", "--pool-size", "16", "--refresh-period", "3"]
TARGETS = (*DATA_FILES, "item_labels.txt", "checkpoint.bin")
PREPARE_SEED = 19
PREPARE_TRIALS = 25
# low enough that the undamaged ratings file survives filtering
PREPARE = ["--min-user", "2", "--min-item", "2"]


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """File name -> the bytes of the undamaged file, and a user id of the data."""
    tmp = tmp_path_factory.mktemp("intact")
    ds, _, _ = planted_clusters(seed=4)
    save_dataset(tmp, ds)
    save_folds(tmp, split_five_fold(ds, seed=4))
    write_item_labels(tmp, ds, np.arange(ds.n_items) % 2)
    assert main(["train", str(tmp), "--out-dir", str(tmp / "run"), *TRAIN]) == 0
    blobs = {name: (tmp / name).read_bytes()
             for name in (*TARGETS, SEAL) if name != "checkpoint.bin"}
    blobs["checkpoint.bin"] = (tmp / "run" / "checkpoint.bin").read_bytes()
    return blobs, ds.user_ids[0]


def run_damaged(blobs, tmp_path, target, how, rng):
    """Write ``blobs`` with ``target`` damaged ``how``; whether the damage changed its bytes.

    Data files go to ``tmp_path/data``, and the checkpoint beside it.
    """
    (tmp_path / "data").mkdir()
    changed = False
    for name, blob in blobs.items():
        path = tmp_path / name if name == "checkpoint.bin" else tmp_path / "data" / name
        if name == target:
            damaged = damage(blob, how, rng)
            changed, blob = damaged != blob, damaged
        path.write_bytes(blob)
    return changed


def exit_code(argv):
    """The exit code of ``pmlam argv`` run in-process, and its standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("trial", range(TRIALS))
def test_damaged_input_exits_0_or_2(intact, tmp_path, trial):
    blobs, user = intact
    rng = np.random.default_rng([SEED, trial])
    target = TARGETS[rng.integers(len(TARGETS))]
    how = DAMAGES[rng.integers(len(DAMAGES))]
    changed = run_damaged(blobs, tmp_path, target, how, rng)
    data_dir, ckpt = tmp_path / "data", tmp_path / "checkpoint.bin"
    if target in DATA_FILES:
        argv = ["train", data_dir, "--out-dir", tmp_path / "run", *TRAIN]
        allowed = (2,) if changed else (0,)
    elif target == "item_labels.txt":
        argv = ["case-study", data_dir, ckpt]
        allowed = (0, 2)
    else:
        argv = [["evaluate", data_dir, ckpt], ["recommend", data_dir, ckpt, user],
                ["case-study", data_dir, ckpt]][rng.integers(3)]
        allowed = (0, 2)
    code, err = exit_code(argv)
    assert code in allowed, f"{how} of {target}, {argv[0]} exited {code}: {err}"


@pytest.mark.parametrize("how", DAMAGES)
def test_a_damaged_seal_exits_2(intact, tmp_path, how):
    blobs, _ = intact
    rng = np.random.default_rng([SEED, TRIALS + DAMAGES.index(how)])
    changed = run_damaged(blobs, tmp_path, SEAL, how, rng)
    code, err = exit_code(["train", tmp_path / "data", "--out-dir", tmp_path / "run", *TRAIN])
    assert code == (2 if changed else 0), f"{how} of {SEAL}, train exited {code}: {err}"
    assert str(tmp_path / "data") in err if changed else err == ""


@pytest.fixture(scope="module")
def ratings():
    """A timestamped ratings file of criterion 9's data, a share of it rated below 4."""
    ds, _, _ = planted_clusters(seed=4)
    rng = np.random.default_rng(PREPARE_SEED)
    pairs = [(ds.user_ids[u], ds.item_ids[i]) for u in range(ds.n_users) for i in ds.row(u)]
    return "".join(f"{u}\t{i}\t{rng.choice([2, 4, 5])}\t{881250949 + k}\n"
                   for k, (u, i) in enumerate(pairs)).encode()


@pytest.mark.parametrize("trial", range(PREPARE_TRIALS))
def test_damaged_ratings_file_exits_0_or_2(ratings, tmp_path, trial):
    rng = np.random.default_rng([PREPARE_SEED, trial])
    how = DAMAGES[rng.integers(len(DAMAGES))]
    path = tmp_path / "ratings.tsv"
    path.write_bytes(damage(ratings, how, rng))
    code, err = exit_code(["prepare", path, tmp_path / "data", *PREPARE])
    assert code in (0, 2), f"{how} of the ratings file, prepare exited {code}: {err}"
