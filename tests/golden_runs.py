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

``tests/golden/prepare.sha256`` pins ``prepare --seed 5``: the SHA-256 of
each of the four data files it writes and of their ``SHA256SUMS``, for one
seeded ratings file written in each of :data:`RATINGS_FORMS` (tab or comma
lines, with 3 or 4 fields). The file has ratings below the threshold, blank
lines, CRLF line ends, repeated positive lines, and users and items that
filtering drops.

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
from pmlam.data import DATA_FILES, SEAL, save_dataset, save_folds, split_five_fold
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


# (separator, fields per line) of each form the prepare pin writes
RATINGS_FORMS = {"tab3": ("\t", 3), "tab4": ("\t", 4), "comma3": (",", 3), "comma4": (",", 4)}
PREPARE_PIN = os.path.join(GOLDEN_DIR, "prepare.sha256")


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


def ratings_lines(sep, n_fields):
    """The lines of the prepare pin's ratings file, each with its line end, in one form.

    Every form makes the same draws, so the forms differ only in how a line
    is written.
    """
    ds, _, _ = planted_clusters(n_users=60, n_items=40, seed=5, p_in=0.8, p_out=0.1,
                                n_noise_items=5, activity=(0.4, 1.0))
    rng = np.random.default_rng(5)
    extra = rng.integers(0, (ds.n_users, ds.n_items), size=(200, 2))  # mostly rated low
    users = np.concatenate([np.repeat(np.arange(ds.n_users), np.diff(ds.indptr)), extra[:, 0]])
    items = np.concatenate([ds.indices, extra[:, 1]])
    n = len(users)
    ratings = np.concatenate([
        rng.choice([1, 2, 3, 4, 4.5, 5], size=ds.n_interactions, p=[.05, .05, .1, .3, .2, .3]),
        rng.choice([1, 2, 3, 5], size=len(extra), p=[.3, .3, .3, .1])])
    stamps = rng.integers(800_000_000, 900_000_000, size=n).astype(str).astype(object)
    stamps[rng.random(n) < 0.05] = ""  # a blank timestamp
    repeat = (ratings >= 4) & (rng.random(n) < 0.05)
    blank_after = rng.random(n) < 0.02
    lines = []
    for k in rng.permutation(n):
        fields = [ds.user_ids[users[k]], ds.item_ids[items[k]], f"{ratings[k]:g}", stamps[k]]
        lines += [sep.join(fields[:n_fields])] * (2 if repeat[k] else 1)
        lines += [""] * int(blank_after[k])
    ends = np.where(rng.random(len(lines)) < 0.2, "\r\n", "\n")
    return [line + end for line, end in zip(lines, ends)]


def produce_prepare(work_dir):
    """The text of ``prepare.sha256``: ``<sha256>  <form>/<file>``, one line per file."""
    out = []
    for form, (sep, n_fields) in RATINGS_FORMS.items():
        ratings = os.path.join(work_dir, f"{form}.txt")
        with open(ratings, "w", newline="") as f:
            f.writelines(ratings_lines(sep, n_fields))
        data_dir = os.path.join(work_dir, form)
        _quiet(["prepare", ratings, data_dir, "--seed", 5])
        for name in (*DATA_FILES, SEAL):
            with open(os.path.join(data_dir, name), "rb") as f:
                out.append(f"{hashlib.sha256(f.read()).hexdigest()}  {form}/{name}\n")
    return "".join(out)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        produce(GOLDEN_DIR, work)
        pin = produce_prepare(work)
    with open(PREPARE_PIN, "w") as f:
        f.write(pin)
    print(f"wrote {len(RUNS)} runs x {len(FILES)} files under {GOLDEN_DIR}, "
          f"and {PREPARE_PIN}")
