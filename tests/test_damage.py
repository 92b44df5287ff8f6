"""A seeded sweep of damaged inputs: every command ends with exit 0 or 2, never a traceback.

Each trial copies criterion 9's data and a one-epoch checkpoint trained on
it, damages one file by a bit flip, a set byte, a cut, or a duplicated or
deleted line, and runs the command that reads that file in-process: ``train``
for a data file, ``case-study`` for ``item_labels.txt``, and ``evaluate``,
``recommend`` or ``case-study`` for ``checkpoint.bin``. Exit 0 is allowed:
some damage leaves a file that still parses.
"""

import contextlib
import io

import numpy as np
import pytest

from pmlam.cli import main
from pmlam.data import DATA_FILES, save_dataset, save_folds, split_five_fold
from pmlam.synth import planted_clusters, write_item_labels

SEED = 17
TRIALS = 50
# criterion 9's training flags, for one epoch
TRAIN = ["--quiet", "--seed", "7", "--h", "8", "--hidden", "8", "--epochs", "1",
         "--batch-size", "64", "--pool-size", "16", "--refresh-period", "3"]
TARGETS = (*DATA_FILES, "item_labels.txt", "checkpoint.bin")
DAMAGES = ("bit flip", "set byte", "cut", "duplicated line", "deleted line")


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """File name -> the bytes of the undamaged file, and a user id of the data."""
    tmp = tmp_path_factory.mktemp("intact")
    ds, _, _ = planted_clusters(seed=4)
    save_dataset(tmp, ds)
    save_folds(tmp, split_five_fold(ds, seed=4))
    write_item_labels(tmp, ds, np.arange(ds.n_items) % 2)
    assert main(["train", str(tmp), "--out-dir", str(tmp / "run"), *TRAIN]) == 0
    blobs = {name: (tmp / name).read_bytes() for name in TARGETS if name != "checkpoint.bin"}
    blobs["checkpoint.bin"] = (tmp / "run" / "checkpoint.bin").read_bytes()
    return blobs, ds.user_ids[0]


def damage(blob, how, rng):
    """``blob`` damaged ``how``, with the place (and byte) drawn from ``rng``."""
    out = bytearray(blob)
    at = int(rng.integers(len(blob)))
    if how == "bit flip":
        out[at] ^= 1 << int(rng.integers(8))
    elif how == "set byte":
        out[at] = int(rng.integers(256))
    elif how == "cut":
        del out[at:]
    else:
        lines = blob.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        lines[i:i + 1] = [lines[i]] * (2 if how == "duplicated line" else 0)
        out = b"".join(lines)
    return bytes(out)


@pytest.mark.parametrize("trial", range(TRIALS))
def test_damaged_input_exits_0_or_2(intact, tmp_path, trial):
    blobs, user = intact
    rng = np.random.default_rng([SEED, trial])
    target = TARGETS[rng.integers(len(TARGETS))]
    how = DAMAGES[rng.integers(len(DAMAGES))]
    data_dir, ckpt = tmp_path / "data", tmp_path / "checkpoint.bin"
    data_dir.mkdir()
    for name, blob in blobs.items():
        path = ckpt if name == "checkpoint.bin" else data_dir / name
        path.write_bytes(damage(blob, how, rng) if name == target else blob)
    if target in DATA_FILES:
        argv = ["train", data_dir, "--out-dir", tmp_path / "run", *TRAIN]
    elif target == "item_labels.txt":
        argv = ["case-study", data_dir, ckpt]
    else:
        argv = [["evaluate", data_dir, ckpt], ["recommend", data_dir, ckpt, user],
                ["case-study", data_dir, ckpt]][rng.integers(3)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2), f"{how} of {target}, {argv[0]} exited {code}: {err.getvalue()}"
