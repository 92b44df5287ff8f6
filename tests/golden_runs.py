"""Pinned outputs of three short runs, compared byte for byte across commits.

Each run trains on criterion 9's data (``planted_clusters(seed=4)``, folds
from ``split_five_fold(ds, seed=4)``) and keeps five files under
``tests/golden/<run>/``:

- ``trace.csv``, as ``train`` writes it;
- ``report.csv``, from ``evaluate --out``;
- ``recommend.txt``, the ``recommend -k 10`` output of every user, each
  block headed by ``# <user id>``;
- ``case-study.txt``, the ``case-study`` output for every user. The item
  labels written beside the data are the item index's parity: under the
  planted labels every user holds their whole cluster, so no user would have
  both a similar and a dissimilar unseen item;
- ``checkpoint.sha256``, the SHA-256 of ``checkpoint.bin``, which pins the
  tables, margin nets, optimizer moments and RNG states the run ends with.

``tests/test_golden.py`` reruns them and compares the files. A change that
moves them on purpose regenerates them and states the old and new values:

    PYTHONPATH=src python tests/golden_runs.py
"""

import contextlib
import hashlib
import io
import os
import shutil
import tempfile

import numpy as np

from pmlam.cli import main
from pmlam.data import save_dataset, save_folds, split_five_fold
from pmlam.synth import planted_clusters

from helpers import write_item_labels

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FILES = ("trace.csv", "report.csv", "recommend.txt", "case-study.txt", "checkpoint.sha256")

# criterion 9's flags, then the two other paths the step takes
BASE = ["--seed", "7", "--h", "8", "--hidden", "8", "--epochs", "6",
        "--batch-size", "64", "--pool-size", "16", "--refresh-period", "3",
        "--eval-every", "2"]
RUNS = {
    "full": BASE,
    "euclidean-fresh": BASE + ["--distance-kind", "euclidean", "--outer-batch", "fresh"],
    "joint": BASE + ["--joint-margin-training"],
}


def _quiet(argv):
    """Standard output of ``pmlam <argv>``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"pmlam {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def produce(out_dir, work_dir):
    """Write every run's files to ``out_dir/<run>/``; ``work_dir`` holds the rest."""
    ds, _, _ = planted_clusters(seed=4)
    data_dir = os.path.join(work_dir, "data")
    save_dataset(data_dir, ds)
    save_folds(data_dir, split_five_fold(ds, seed=4))
    write_item_labels(data_dir, ds, np.arange(ds.n_items) % 2)
    for name, flags in RUNS.items():
        run_dir = os.path.join(work_dir, name)
        dest = os.path.join(out_dir, name)
        os.makedirs(dest, exist_ok=True)
        _quiet(["train", data_dir, "--quiet", "--out-dir", run_dir, *flags])
        ckpt = os.path.join(run_dir, "checkpoint.bin")
        with open(ckpt, "rb") as f, open(os.path.join(dest, "checkpoint.sha256"), "w") as out:
            out.write(hashlib.sha256(f.read()).hexdigest() + "\n")
        _quiet(["evaluate", data_dir, ckpt, "--out", os.path.join(dest, "report.csv")])
        shutil.copyfile(os.path.join(run_dir, "trace.csv"), os.path.join(dest, "trace.csv"))
        with open(os.path.join(dest, "recommend.txt"), "w") as f:
            for user in ds.user_ids:
                f.write(f"# {user}\n")
                f.write(_quiet(["recommend", data_dir, ckpt, user, "-k", 10]))
        with open(os.path.join(dest, "case-study.txt"), "w") as f:
            f.write(_quiet(["case-study", data_dir, ckpt, "--n-users", ds.n_users]))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        produce(GOLDEN_DIR, work)
    print(f"wrote {len(RUNS)} runs x {len(FILES)} files under {GOLDEN_DIR}")
