import argparse
import builtins
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from pmlam import bilevel, checkpoint, data, evaluator
from pmlam.cli import ABLATION_VARIANTS, build_parser, main
from pmlam.config import RunConfig, make_config
from pmlam.data import (DATA_FILES, NOT_PREPARED, SEAL, DataFiles, load_dataset, load_folds,
                        save_dataset, save_folds, seal, split_five_fold)
from pmlam.losses import TripletBatch
from pmlam.margin_net import forward, margin_input
from pmlam.synth import planted_clusters

from helpers import forge, scipy_modules_of_a_fresh_run, write_item_labels

VARIANT_KEYS = ("distance_kind", "margin_mode", "margin_mode_uu", "margin_mode_ii",
                "relations", "indicator_mode")

FAST = ["--h", "4", "--hidden", "4", "--epochs", "2", "--batch-size", "64",
        "--neg-samples", "2", "--pool-size", "8", "--refresh-period", "2",
        "--eval-every", "1", "--sim-threshold", "0.5"]


def write_ratings(path, n_users=12, n_items=10):
    with open(path, "w") as f:
        for u in range(n_users):
            for i in range(n_items):
                f.write(f"u{u}\ti{i}\t4.5\t{1000 + u}\n")
            f.write(f"u{u}\ti0\t2.0\t999\n")  # below threshold, ignored


def planted_dataset_dir(tmp_path, seed=0, labels=False, p_in=1.0, p_out=0.0):
    ds, _, item_labels = planted_clusters(seed=seed, p_in=p_in, p_out=p_out)
    d = tmp_path / "data"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=seed))
    if labels:
        write_item_labels(d, ds, item_labels)
    return d, ds


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def unsealed(path):
    """The message for data file ``path`` when its bytes differ from those its seal records."""
    return f"{path}: differs from its digest in {path.parent / SEAL} (SHA-256 mismatch)"


def train_exits_2(tmp_path, capsys, d):
    """``train`` on dataset directory ``d`` exits 2 with no run written; its stderr."""
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST)
    assert rc == 2
    assert not (tmp_path / "run").exists()
    return capsys.readouterr().err


def test_prepare_writes_cache_and_stats(tmp_path, capsys):
    ratings = tmp_path / "ratings.tsv"
    write_ratings(ratings)
    out = tmp_path / "ds"
    rc = main(["prepare", str(ratings), str(out), "--min-user", "10",
               "--min-item", "5", "--seed", "0"])
    assert rc == 0
    stats = capsys.readouterr().out
    assert "users 12" in stats and "items 10" in stats and "interactions 120" in stats
    files = DataFiles(out)
    ds = load_dataset(files)
    assert len(load_folds(files, ds)) == 5
    digest = file_digest(out / "dataset.txt")
    assert main(["prepare", str(ratings), str(out), "--min-user", "10",
                 "--min-item", "5", "--seed", "0"]) == 0
    assert file_digest(out / "dataset.txt") == digest  # rerun reproduces bytes


def test_prepare_takes_only_its_seed(tmp_path, capsys):
    ratings = tmp_path / "ratings.tsv"
    write_ratings(ratings)
    out = tmp_path / "ds"
    for extra in (["--h", "8"], ["--epochs", "3"], ["--config", str(ratings)],
                  ["--deterministic"], ["--se", "1"]):
        with pytest.raises(SystemExit) as e:
            main(["prepare", str(ratings), str(out)] + extra)
        assert e.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["prepare", str(ratings), str(out), "--seed", "3"]) == 0
    assert (out / "prepare_config.txt").read_text() == (
        "rating_threshold = 4.0\nmin_user = 10\nmin_item = 5\nseed = 3\n")
    assert "\nseed 3\n" in (out / "folds.txt").read_text()


def test_prepare_missing_file_exits_2(tmp_path, capsys):
    rc = main(["prepare", str(tmp_path / "nope.tsv"), str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_train_evaluate_recommend_roundtrip(tmp_path, capsys):
    d, ds = planted_dataset_dir(tmp_path)
    run = tmp_path / "run"
    rc = main(["train", str(d), "--out-dir", str(run), "--quiet"] + FAST)
    assert rc == 0
    assert (run / "checkpoint.bin").exists()
    trace = (run / "trace.csv").read_text()
    assert "# alpha = 0.001" in trace
    assert trace.count("\n") >= 3  # header block + one row per epoch
    capsys.readouterr()

    rc = main(["evaluate", str(d), str(run / "checkpoint.bin"),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Recall@K" in out
    report = (tmp_path / "report.csv").read_text()
    assert "fold,K,recall,ndcg,n_users" in report

    rc = main(["recommend", str(d), str(run / "checkpoint.bin"), "u3", "-k", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    # the printed list must match the ranking oracle on the stored tables
    ck, _ = checkpoint.load(str(run / "checkpoint.bin"))
    fold = load_folds(DataFiles(d), ds)[0]
    expect = evaluator.rank(3, ck.users, ck.items, fold.train_rows[3],
                            ck.cfg.kind(), k=5)
    got = [line.split()[1] for line in lines]
    assert got == [ds.item_ids[i] for i in expect]


def test_recommend_unknown_user_and_oversize_k(tmp_path, capsys):
    d, ds = planted_dataset_dir(tmp_path)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet"] + FAST) == 0
    capsys.readouterr()
    rc = main(["recommend", str(d), str(run / "checkpoint.bin"), "ghost"])
    assert rc == 2
    assert "unknown user" in capsys.readouterr().err
    rc = main(["recommend", str(d), str(run / "checkpoint.bin"), "u0",
               "-k", "999"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    fold = load_folds(DataFiles(d), ds)[0]
    assert len(lines) == ds.n_items - len(fold.train_rows[0])  # full ordering


@pytest.mark.parametrize("keep", [2, 6, -2, -30])
def test_train_on_truncated_dataset_exits_2(tmp_path, capsys, keep):
    d, _ = planted_dataset_dir(tmp_path)
    text = (d / "dataset.txt").read_text()
    # keep the first lines (cut in the header or the rows), or cut the last row
    cut = ("\n".join(text.split("\n")[:keep]) + "\n" if keep > 0
           else text[:keep])
    (d / "dataset.txt").write_text(cut)
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST)
    assert rc == 2
    assert "dataset.txt:" in capsys.readouterr().err


def test_evaluate_missing_checkpoint_exits_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    rc = main(["evaluate", str(d), str(tmp_path / "missing.bin")])
    assert rc == 2


def test_ablate_emits_all_variants(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    out = tmp_path / "ablation.csv"
    rc = main(["ablate", str(d), "--seeds", "0", "--out", str(out)] + FAST)
    assert rc == 0
    text = out.read_text()
    for variant in range(1, 9):
        assert f"\n{variant},0," in text
    assert "# batch_size = 64" in text
    header = [line[2:].split(" = ")[0] for line in text.split("\n") if line.startswith("#")]
    # the header states only settings every row shares: the variants and
    # --seeds set the other seven
    assert len(header) == len(dataclasses.fields(RunConfig)) - 7
    assert not set(header) & {*VARIANT_KEYS, "seed"}
    for line in text.strip().split("\n"):
        if not line.startswith(("#", "variant")):
            [float(cell) for cell in line.rstrip(",").split(",")]  # no reprs
    # variant definitions pin the indicator ablations
    assert ABLATION_VARIANTS[4]["indicator_mode"] == "concat"
    assert ABLATION_VARIANTS[5]["indicator_mode"] == "sum"
    assert ABLATION_VARIANTS[8]["relations"] == "ui,uu,ii"
    for spec in ABLATION_VARIANTS.values():  # each sets every key that defines a variant
        assert sorted(spec) == sorted(VARIANT_KEYS)


def test_case_study_output_is_sorted_and_stable(tmp_path, capsys):
    # partial blocks leave unseen same-cluster items for the similar negative
    d, _ = planted_dataset_dir(tmp_path, labels=True, p_in=0.7, p_out=0.1)
    run = tmp_path / "run"
    rc = main(["train", str(d), "--out-dir", str(run), "--quiet",
               "--distance-kind", "euclidean", "--margin-mode", "adaptive",
               "--relations", "ui"] + FAST)
    assert rc == 0
    capsys.readouterr()
    rc = main(["case-study", str(d), str(run / "checkpoint.bin"),
               "--n-users", "6", "--seed", "1"])
    assert rc == 0
    first = capsys.readouterr().out
    assert "margin" in first and "similar" in first and "dissimilar" in first
    assert main(["case-study", str(d), str(run / "checkpoint.bin"),
                 "--n-users", "6", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first
    body = [line.split()[0] for line in first.strip().split("\n")[1:]]
    assert body == sorted(body)


def test_case_study_requires_margin_net(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path, labels=True)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet",
                 "--margin-mode", "fixed:1.0", "--relations", "ui"] + FAST) == 0
    capsys.readouterr()
    rc = main(["case-study", str(d), str(run / "checkpoint.bin")])
    assert rc == 2


def test_flags_override_config_file(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs = 1\nh = 4\nhidden = 4\nbatch_size = 64\n"
                        "pool_size = 8\nrelations = ui\neval_every = 1\n")
    run = tmp_path / "run"
    rc = main(["train", str(d), "--out-dir", str(run), "--quiet",
               "--config", str(cfg_file), "--epochs", "2"])
    assert rc == 0
    trace = (run / "trace.csv").read_text()
    assert "# epochs = 2" in trace
    assert "# h = 4" in trace


@pytest.mark.parametrize("damage", ["cut", "extra", "count", "range"])
def test_train_on_damaged_folds_exits_2(tmp_path, capsys, damage):
    d, _ = planted_dataset_dir(tmp_path)
    lines = (d / "folds.txt").read_text().split("\n")[:-1]
    if damage == "cut":  # the header and the first five users
        lines = lines[:8]
    elif damage == "extra":
        lines.append("0")
    elif damage == "count":  # one label short for the first user
        lines[3] = lines[3].rsplit(" ", 1)[0]
    else:
        lines[3] = "5 " + lines[3].split(" ", 1)[1]
    (d / "folds.txt").write_text("\n".join(lines) + "\n")
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST)
    assert rc == 2
    assert "folds.txt:" in capsys.readouterr().err


@pytest.mark.parametrize("name, first_after", [("dataset.txt", 25), ("folds.txt", 24)])
@pytest.mark.parametrize("tail", ["\n", " ", "\n\n", "0\n"])
def test_train_on_text_after_the_last_row_exits_2(tmp_path, capsys, name, first_after, tail):
    d, ds = planted_dataset_dir(tmp_path)
    assert ds.n_users == 20  # rows on lines 5-24 of dataset.txt, 4-23 of folds.txt
    path = d / name
    path.write_bytes(path.read_bytes() + tail.encode())
    assert path.read_text().split("\n")[first_after - 1] == tail.split("\n")[0]
    assert unsealed(path) in train_exits_2(tmp_path, capsys, d)
    forge(path, lambda text: text)
    assert f"{path}: {NOT_PREPARED}" in train_exits_2(tmp_path, capsys, d)


def trained_checkpoint(tmp_path, **shape):
    ds, _, _ = planted_clusters(seed=0, **shape)
    d = tmp_path / "trained_on"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=0))
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet"] + FAST) == 0
    return d, run / "checkpoint.bin"


def test_evaluate_cut_checkpoint_names_file_and_array(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path)
    whole = ck.read_bytes()
    ck.write_bytes(whole[:-100])
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin: array 'opt.phi." in err
    ck.write_bytes(whole + b"\0")
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_checkpoint_from_other_dataset_exits_2(tmp_path, capsys):
    _, ck = trained_checkpoint(tmp_path, n_users=20, n_items=30)
    other, _, _ = planted_clusters(n_users=24, n_items=20, seed=0)
    d = tmp_path / "other"
    save_dataset(d, other)
    save_folds(d, split_five_fold(other, seed=0))
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)],
                 ["recommend", str(d), str(ck), other.user_ids[0]]):
        assert main(argv) == 2
        assert "20 users x 30 items" in capsys.readouterr().err


def test_removed_input_forms_exit_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    train = ["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST
    ablate = ["ablate", str(d), "--seeds", "0", "--variants", "1",
              "--out", str(tmp_path / "ablation.csv")] + FAST
    for argv, extra in ((train, ["--deterministic"]), (ablate, ["--deterministic"]),
                        (train, ["--distance", "euclidean"])):
        with pytest.raises(SystemExit) as e:
            main(argv + extra)
        assert e.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("optimizer = adam\n")
    assert main(train + ["--config", str(cfg_file)]) == 2
    assert "unknown config key 'optimizer'" in capsys.readouterr().err
    assert main(train + ["--margin-mode", "fixed"]) == 2
    assert "margin_mode: unknown margin mode 'fixed'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "ablation.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lam", "nan"), ("--lam", "inf"), ("--eps-fd", "nan"), ("--eps-fd", "inf"),
    ("--alpha", "nan"), ("--margin-mode", "fixed:nan"), ("--margin-mode", "fixed:inf"),
    ("--margin-mode", "fixed:abc")])
def test_non_finite_setting_exits_2_before_training(tmp_path, capsys, flag, value):
    # a NaN margin switches every hinge off, so training would "succeed" untrained
    d, _ = planted_dataset_dir(tmp_path)
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
               flag, value] + FAST)
    assert rc == 2
    assert f"error: {flag[2:].replace('-', '_')}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_importing_the_package_loads_no_submodule():
    # a command imports the submodules it runs, so the package root pulls in none
    code = "import sys, pmlam; print(sorted(m for m in sys.modules if m.startswith('pmlam.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_importing_the_cli_loads_no_scipy_module():
    assert scipy_modules_of_a_fresh_run() == []


def test_prepare_evaluate_and_recommend_load_no_scipy_module(tmp_path):
    ratings = tmp_path / "ratings.tsv"
    write_ratings(ratings)
    assert scipy_modules_of_a_fresh_run(["prepare", str(ratings), str(tmp_path / "ds")]) == []
    d, ck = trained_checkpoint(tmp_path)
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"]):
        assert scipy_modules_of_a_fresh_run(argv) == [], argv[0]


def test_a_fixed_margin_train_loads_scipy_sparse_and_not_scipy_special(tmp_path):
    d, _ = planted_dataset_dir(tmp_path)
    loaded = scipy_modules_of_a_fresh_run(
        ["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet", *FAST,
         "--distance-kind", "euclidean", "--margin-mode", "fixed:1.0", "--relations", "ui"])
    assert "scipy.sparse" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")]


def rewrite_header(ck, edit):
    """Apply ``edit`` to the JSON header of checkpoint file ``ck``, in place."""
    blob = ck.read_bytes()
    head = len(checkpoint.CKPT_MAGIC)
    n = int.from_bytes(blob[head:head + 8], "little")
    header = json.loads(blob[head + 8:head + 8 + n])
    edit(header)
    raw = json.dumps(header).encode()
    ck.write_bytes(blob[:head] + len(raw).to_bytes(8, "little") + raw
                   + blob[head + 8 + n:])


def test_checkpoint_config_with_an_unknown_key_exits_2(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path)
    rewrite_header(ck, lambda header: header["config"].update(optimizer="adam"))
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert (f"{ck}: bad header entry 'config': unknown config key 'optimizer'"
            in capsys.readouterr().err)


def _subparser(name):
    sub, = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices[name]


def test_every_config_field_has_one_flag():
    # train takes every field; ablate all but the keys each variant sets and
    # the seed, which comes from --seeds
    names = {f.name for f in dataclasses.fields(RunConfig)}
    for command, left_out in (("train", ()), ("ablate", VARIANT_KEYS + ("seed",))):
        parser = _subparser(command)
        for f in dataclasses.fields(RunConfig):
            actions = [a for a in parser._actions if a.dest == f.name]
            if f.name in left_out:
                assert actions == []
                continue
            action, = actions
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            if isinstance(f.default, bool):  # a switch that takes no value
                assert action.nargs == 0 and action.const == "true"
            else:
                assert action.nargs is None
        fields_taken = {a.dest for a in parser._actions} & names
        assert len(fields_taken) == {"train": 22, "ablate": 15}[command]
        required = ["--out", "x.csv"] if command == "ablate" else []
        args = parser.parse_args(["data", "--joint-margin-training"] + required)
        assert args.joint_margin_training == "true"
    # and train takes nothing else but its run directory, fold and --quiet
    others = [a.option_strings[0] for a in _subparser("train")._actions
              if a.option_strings and a.dest not in names]
    assert sorted(others) == ["--config", "--fold", "--out-dir", "--quiet", "-h"]
    # prepare reads one setting, the seed of its split
    prepare = _subparser("prepare")
    assert sorted(a.option_strings[0] for a in prepare._actions if a.option_strings) == [
        "--min-item", "--min-user", "--rating-threshold", "--seed", "-h"]
    assert prepare.parse_args(["ratings", "out"]).seed == 0


@pytest.mark.parametrize("key, flags, value", [
    ("distance_kind", ["--distance-kind"], "euclidean"),
    ("margin_mode", ["--margin-mode"], "fixed:2"),
    ("margin_mode_uu", ["--margin-mode-uu"], "fixed:2"),
    ("margin_mode_ii", ["--margin-mode-ii"], "fixed:2"),
    ("relations", ["--relations"], "ui"),
    ("indicator_mode", ["--indicator-mode"], "concat"),
    ("seed", ["--seed"], "3")])
def test_ablate_rejects_the_keys_it_sets_itself(tmp_path, capsys, monkeypatch,
                                                key, flags, value):
    d, _ = planted_dataset_dir(tmp_path)

    def no_training(*args, **kw):
        raise AssertionError("trained with a key that ablate sets itself")

    monkeypatch.setattr(bilevel, "train", no_training)
    ablate = ["ablate", str(d), "--seeds", "0", "--variants", "8",
              "--out", str(tmp_path / "ablation.csv")] + FAST
    for flag in flags:
        with pytest.raises(SystemExit) as e:
            main(ablate + [flag, value])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"epochs = 2\n{key.replace('_', '-')} = {value}\n")
    assert main(ablate + ["--config", str(cfg_file)]) == 2
    assert f"{cfg_file}: ablate sets {key!r} itself" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["evaluate", "d", "c", "--k", "5"], "--k 5"),  # --ks
    (["train", "d", "--eps", "0.5"], "--eps 0.5"),  # --eps-fd
    (["case-study", "d", "c", "--n", "3"], "--n 3")])  # --n-users
def test_no_command_accepts_abbreviated_flags(capsys, argv, flag):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_fold_past_the_fold_count_exits_2(tmp_path, capsys):
    d, ds = planted_dataset_dir(tmp_path, seed=4)
    capsys.readouterr()
    for argv in (["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
                  "--fold", "7"] + FAST,
                 ["ablate", str(d), "--fold", "7", "--seeds", "0", "--variants", "1",
                  "--out", str(tmp_path / "ablation.csv")] + FAST):
        assert main(argv) == 2
        assert "folds.txt: fold 7 outside the file's 5 folds" in capsys.readouterr().err
    cfg = make_config(file_values={"h": "4", "hidden": "4", "epochs": "1",
                                   "batch_size": "64", "pool_size": "8",
                                   "relations": "ui"})
    result = bilevel.train(ds, load_folds(DataFiles(d), ds)[0], cfg)
    ck = tmp_path / "checkpoint.bin"
    checkpoint.save(ck, result, DataFiles(d).digests(), fold_index=9)
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert "folds.txt: fold 9 outside the file's 5 folds" in capsys.readouterr().err


def test_bad_fold_count_exits_2_before_the_digest_check(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path)
    path = d / "folds.txt"
    lines = path.read_text().split("\n")
    assert lines[2] == "folds 5"
    forge(path, lambda text: text.replace("\nfolds 5\n", "\nfolds x\n", 1))
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"]):
        assert main(argv) == 2
        assert "folds.txt:3: expected 'folds <count>'" in capsys.readouterr().err


def test_train_with_damaged_id_sidecar_exits_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    path = d / "user_ids.txt"
    path.write_text(path.read_text().replace("1\t", "1 ", 1))
    assert unsealed(path) in train_exits_2(tmp_path, capsys, d)
    forge(path, lambda text: text)
    assert f"{path}: {NOT_PREPARED}" in train_exits_2(tmp_path, capsys, d)


@pytest.mark.parametrize("name, line", [("dataset.txt", 5), ("folds.txt", 4)])
@pytest.mark.parametrize("token", ["1.5", "x", "99999999999999999999"])
def test_non_integer_token_exits_2(tmp_path, capsys, name, line, token):
    d, _ = planted_dataset_dir(tmp_path)
    path = d / name
    lines = path.read_text().split("\n")
    lines[line - 1] = " ".join([token] + lines[line - 1].split()[1:])
    path.write_text("\n".join(lines))
    assert unsealed(path) in train_exits_2(tmp_path, capsys, d)
    forge(path, lambda text: text)
    assert f"{path}: {NOT_PREPARED}" in train_exits_2(tmp_path, capsys, d)


def test_case_study_on_damaged_item_labels_exits_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path, labels=True)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet",
                 "--distance-kind", "euclidean", "--relations", "ui"] + FAST) == 0
    path = d / "item_labels.txt"
    whole = path.read_text()
    lines = whole.split("\n")
    lines[2] = lines[2].replace("\t", " ")
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["case-study", str(d), str(run / "checkpoint.bin")]) == 2
    assert "item_labels.txt:3: expected '<item id><TAB><label>'" in capsys.readouterr().err
    n_lines = whole.count("\n")
    path.write_text(whole + "i0\t1\n")  # a second label for the first item
    assert main(["case-study", str(d), str(run / "checkpoint.bin")]) == 2
    assert (f"item_labels.txt:{n_lines + 1}: item 'i0' repeats line 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key, value, message", [
    ("epochs", "ten", "epochs: expected an integer, got 'ten'"),
    ("alpha", "fast", "alpha: expected a number, got 'fast'"),
    ("ks", "5,x", "ks: expected an integer, got 'x'"),
    ("ks", "10,5,10", "ks: cut-off 10 is given more than once in (10, 5, 10)"),
    ("relations", "ui,ui", "relations: relation 'ui' is given more than once in ('ui', 'ui')"),
    ("relations", "ui,ii,uu,ii",
     "relations: relation 'ii' is given more than once in ('ui', 'ii', 'uu', 'ii')"),
    ("relations", "uu,ui", "relations: expected the order ui,uu, got uu,ui"),
    ("relations", "ui,ii,uu", "relations: expected the order ui,uu,ii, got ui,ii,uu")])
def test_bad_config_value_names_its_key(tmp_path, capsys, key, value, message):
    d, _ = planted_dataset_dir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {value}\n")
    train = ["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"]
    for argv in (train + ["--config", str(cfg_file)], train + [f"--{key}", value]):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["0", "-3", "5,0", ""])
def test_ks_below_one_exits_2_before_training(tmp_path, capsys, ks):
    d, _ = planted_dataset_dir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"ks = {ks}\n")
    train = ["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST
    for argv in (train + ["--config", str(cfg_file)], train + ["--ks", ks]):
        assert main(argv) == 2
        assert "ks: expected cut-offs >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_evaluate_ks_and_recommend_k_are_checked(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path)
    capsys.readouterr()
    for ks, message in (("0", "ks: expected cut-offs >= 1, got (0,)"),
                        ("5,-3", "ks: expected cut-offs >= 1, got (5, -3)"),
                        ("", "ks: expected cut-offs >= 1, got ()"),
                        ("5,x", "ks: expected an integer, got 'x'"),
                        ("5,5", "ks: cut-off 5 is given more than once in (5, 5)")):
        assert main(["evaluate", str(d), str(ck), "--ks", ks]) == 2
        assert message in capsys.readouterr().err
    assert main(["evaluate", str(d), str(ck), "--ks", "3,7"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[-2:]
    assert [row.split()[0] for row in rows] == ["3", "7"]
    for k in ("0", "-1"):
        assert main(["recommend", str(d), str(ck), "u0", "-k", k]) == 2
        assert f"-k must be >= 1, got {k}" in capsys.readouterr().err
        assert main(["case-study", str(d), str(ck), "--n-users", k]) == 2
        assert f"--n-users must be >= 1, got {k}" in capsys.readouterr().err


def test_ablate_unknown_variant_exits_2_before_training(tmp_path, capsys, monkeypatch):
    d, _ = planted_dataset_dir(tmp_path)

    def no_training(*args, **kw):
        raise AssertionError("trained before the variants were checked")

    monkeypatch.setattr(bilevel, "train", no_training)
    for variants, bad in (("9", 9), ("1,9", 9), ("0,3", 0)):
        argv = ["ablate", str(d), "--seeds", "0", "--variants", variants,
                "--out", str(tmp_path / "ablation.csv")] + FAST
        assert main(argv) == 2
        assert (f"--variants: unknown variant {bad}; valid variants are 1-8"
                in capsys.readouterr().err)
    for flag, raw, message in (  # list tokens are checked as config lists are
            ("--seeds", "0,x", "--seeds: expected an integer, got 'x'"),
            ("--variants", "1,x", "--variants: expected an integer, got 'x'"),
            ("--seeds", "", "--seeds: expected a comma list of integers"),
            ("--variants", " , ", "--variants: expected a comma list of integers")):
        assert main(["ablate", str(d), "--seeds", "0", flag, raw,
                     "--out", str(tmp_path / "ablation.csv")] + FAST) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0 0", "1 0"])
def test_dataset_row_not_strictly_increasing_exits_2(tmp_path, capsys, row):
    d, _ = planted_dataset_dir(tmp_path, seed=4)
    path = d / "dataset.txt"
    lines = path.read_text().split("\n")
    assert lines[4].startswith("0 1 2 ")  # user 0's row
    lines[4] = row + lines[4][3:]
    forge(path, lambda text: "\n".join(lines))
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
               "--relations", "ui"] + FAST)
    assert rc == 2
    assert ("dataset.txt:5: item indices not strictly increasing"
            in capsys.readouterr().err)


SPARSE = dict(n_users=60, n_items=40, n_clusters=2, p_in=0.4, p_out=0.03)


def test_checkpoint_on_a_resplit_dataset_exits_2(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    ds = load_dataset(DataFiles(d))
    save_folds(d, split_five_fold(ds, seed=1))  # same data and shape, other folds
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)],
                 ["recommend", str(d), str(ck), ds.user_ids[0]]):
        assert main(argv) == 2
        assert f"folds.txt: differs from the file {ck} was trained on" in (
            capsys.readouterr().err)


def edit_one_byte(path):
    """Change one byte of a prepared-data file so that the file still loads."""
    lines = path.read_text().split("\n")
    if path.name == "dataset.txt":  # raise the last item of some row by one
        n_items = int(lines[2].split()[1])
        r = next(r for r in range(4, len(lines)) if lines[r][-1:] not in ("", "9")
                 and int(lines[r].split()[-1]) + 1 < n_items)
        lines[r] = lines[r][:-1] + str(int(lines[r][-1]) + 1)
    elif path.name == "folds.txt":  # move user 0's first item to the next fold
        lines[3] = str((int(lines[3][0]) + 1) % 5) + lines[3][1:]
    else:  # rename the first id
        lines[0] = lines[0][:-1] + "~"
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("name", DATA_FILES)
def test_one_byte_edit_of_the_training_data_exits_2(tmp_path, capsys, name):
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    edit_one_byte(d / name)
    seal(d)
    files = DataFiles(d)
    load_folds(files, load_dataset(files))  # the edited files load: only the digests tell
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert f"{name}: differs from the file {ck} was trained on" in capsys.readouterr().err


def patch_open(monkeypatch, opener):
    """Route every ``open`` of a file through ``opener(file, *args, **kw)``."""
    for owner in (builtins, io):
        monkeypatch.setattr(owner, "open", opener)


def test_each_command_opens_each_data_file_once(tmp_path, capsys, monkeypatch):
    d, _ = planted_dataset_dir(tmp_path, labels=True, p_in=0.7, p_out=0.1)
    run = tmp_path / "run"
    ck = str(run / "checkpoint.bin")
    commands = {
        "train": ["train", str(d), "--out-dir", str(run), "--quiet"] + FAST,
        "evaluate": ["evaluate", str(d), ck],
        "case-study": ["case-study", str(d), ck],
        "recommend": ["recommend", str(d), ck, "u0"],
        "ablate": ["ablate", str(d), "--seeds", "0", "--variants", "1",
                   "--out", str(tmp_path / "ablation.csv")] + FAST,
    }
    opened, real = [], io.open

    def logged(file, *args, **kw):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.path.abspath(file))
        return real(file, *args, **kw)

    patch_open(monkeypatch, logged)
    for command, argv in commands.items():
        opened.clear()
        assert main(argv) == 0, command
        counts = {name: opened.count(str(d / name)) for name in DATA_FILES}
        assert counts == dict.fromkeys(DATA_FILES, 1), (command, counts)


def test_data_edited_between_two_reads_exits_2(tmp_path, capsys, monkeypatch):
    # the first read of dataset.txt sees an edited copy, any later one the pinned bytes
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    edited = tmp_path / "edited" / "dataset.txt"
    edited.parent.mkdir()
    edited.write_bytes((d / "dataset.txt").read_bytes())
    edit_one_byte(edited)
    served, real = [], io.open

    def swapping(file, *args, **kw):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(d / "dataset.txt"):
            served.append(file)
            if len(served) == 1:
                file = edited
        return real(file, *args, **kw)

    patch_open(monkeypatch, swapping)
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert len(served) == 1
    assert unsealed(d / "dataset.txt") in capsys.readouterr().err


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    parsers, real = [], argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kw):
        parsers.append(self)
        return real(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    for _ in range(2):
        assert main(["prepare", str(tmp_path / "nope.tsv"), str(tmp_path / "out")]) == 2
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_checkpoint_without_digests_exits_2(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    rewrite_header(ck, lambda header: header.pop("data_sha256"))  # not pinned to its data
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)],
                 ["recommend", str(d), str(ck), "u0"]):
        assert main(argv) == 2
        assert f"{ck}: header has no 'data_sha256' entry" in capsys.readouterr().err


def test_train_and_ablate_leave_the_dataset_directory_unchanged(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path, labels=True, p_in=0.7, p_out=0.1)
    before = {path.name: path.read_bytes() for path in d.iterdir()}
    full_model = ["--relations", "ui,uu,ii", "--distance-kind", "w2",
                  "--margin-mode", "adaptive"]
    assert main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"]
                + FAST + full_model) == 0
    assert main(["ablate", str(d), "--seeds", "0", "--variants", "8",
                 "--out", str(tmp_path / "ablation.csv")] + FAST) == 0
    with pytest.raises(SystemExit) as e:  # ablate has no default output file
        main(["ablate", str(d), "--seeds", "0", "--variants", "8"] + FAST)
    assert e.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in d.iterdir()} == before


class HalfWrite:
    """A file whose first write stops halfway with a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[:len(text) // 2])
        raise OSError("No space left on device")


@pytest.mark.parametrize("artifact", ["trace.csv", "report.csv", "ablation.csv",
                                      "prepare_config.txt"])
def test_a_cut_artifact_write_leaves_the_previous_file(tmp_path, capsys, monkeypatch,
                                                       artifact):
    d, ck = trained_checkpoint(tmp_path)
    run = ck.parent
    write_ratings(tmp_path / "ratings.tsv")
    argv = {"trace.csv": ["train", str(d), "--out-dir", str(run), "--quiet"] + FAST,
            "report.csv": ["evaluate", str(d), str(ck), "--out", str(run / artifact)],
            "ablation.csv": ["ablate", str(d), "--seeds", "0", "--variants", "1",
                             "--out", str(run / artifact)] + FAST,
            "prepare_config.txt": ["prepare", str(tmp_path / "ratings.tsv"),
                                   str(run)]}[artifact]
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    monkeypatch.setattr(checkpoint, "save", lambda *args, **kw: None)  # train: trace only
    def open_cut(path, mode="r", **kw):  # reads and the other files' writes go through
        f = open(path, mode, **kw)
        cut = not mode.startswith("r") and os.path.basename(path).startswith(artifact)
        return HalfWrite(f) if cut else f

    monkeypatch.setattr(data, "open", open_cut, raising=False)
    capsys.readouterr()
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_a_new_threshold_trains_on_its_own_neighbor_sets(tmp_path, capsys):
    # 0.2500001 prints as 0.25 under '{:g}', yet keeps 998 of the 1044 user
    # pairs that 0.25 gives on this data
    traces = []
    for name, thresholds in (("reused", ("0.25", "0.2500001")), ("fresh", ("0.2500001",))):
        d = tmp_path / name
        ds, _, _ = planted_clusters(seed=0, **SPARSE)
        save_dataset(d, ds)
        save_folds(d, split_five_fold(ds, seed=0))
        for tau in thresholds:
            run = tmp_path / f"{name}_{tau}"
            assert main(["train", str(d), "--out-dir", str(run), "--quiet",
                         "--epochs", "3", "--h", "8", "--hidden", "8",
                         "--batch-size", "200", "--sim-threshold", tau]) == 0
        traces.append((run / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


# criterion 9's data and training flags (tests/test_acceptance.py)
CRITERION_9 = ["--seed", "7", "--h", "8", "--hidden", "8", "--epochs", "6",
               "--batch-size", "64", "--pool-size", "16", "--refresh-period", "3",
               "--eval-every", "2"]


@pytest.fixture(scope="module")
def criterion_9_run(tmp_path_factory):
    """Criterion 9's dataset directory and the checkpoint trained on it."""
    tmp = tmp_path_factory.mktemp("criterion_9")
    ds, _, _ = planted_clusters(seed=4)
    save_dataset(tmp / "data", ds)
    save_folds(tmp / "data", split_five_fold(ds, seed=4))
    assert main(["train", str(tmp / "data"), "--quiet", "--out-dir", str(tmp / "run")]
                + CRITERION_9) == 0
    return tmp / "data", tmp / "run" / "checkpoint.bin"


def own_copy(tmp_path, run, labels=False):
    """A copy of ``run``'s dataset directory and checkpoint that a test may damage.

    With ``labels``, the directory also gets the item labels ``case-study`` reads.
    """
    d, ck = tmp_path / "data", tmp_path / "checkpoint.bin"
    d.mkdir()
    for name in (*DATA_FILES, SEAL):
        (d / name).write_bytes((run[0] / name).read_bytes())
    ck.write_bytes(run[1].read_bytes())
    if labels:
        ds, _, _ = planted_clusters(seed=4)
        write_item_labels(d, ds, np.arange(ds.n_items) % 2)
    return d, ck


def full_parse_recommend(d, ck, u, k):
    """The lines ``recommend`` prints for user ``u``, from the full readers."""
    ck, _ = checkpoint.load(str(ck))
    files = DataFiles(d)
    ds = load_dataset(files)
    fold = load_folds(files, ds)[ck.fold_index]
    topk = evaluator.rank(u, ck.users, ck.items, fold.train_rows[u], ck.cfg.kind(), k=k)
    d2 = evaluator.pairwise_distances(ck.users, ck.items, ck.cfg.kind(),
                                      user_idx=np.array([u]))[0]
    return "".join(f"{pos:>3}  {ds.item_ids[i]}  {d2[i]:.6f}\n"
                   for pos, i in enumerate(topk, start=1))


def test_recommend_equals_the_full_parse_for_every_user(criterion_9_run, capsys):
    d, ck = criterion_9_run
    ds = load_dataset(DataFiles(d))
    capsys.readouterr()
    for u, user in enumerate(ds.user_ids):
        for k in (10, 999):
            assert main(["recommend", str(d), str(ck), user, "-k", str(k)]) == 0
            assert capsys.readouterr().out == full_parse_recommend(d, ck, u, k)


class ReadLog:
    """A binary file that records the byte range of each read."""

    def __init__(self, f, ranges):
        self.f, self.ranges = f, ranges

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def __getattr__(self, name):
        return getattr(self.f, name)

    def _logged(self, read, arg):
        start = self.f.tell()
        got = read(arg)
        self.ranges.append((start, start + (got if isinstance(got, int) else len(got))))
        return got

    def read(self, n=-1):
        return self._logged(self.f.read, n)

    def readinto(self, buf):
        return self._logged(self.f.readinto, buf)


def array_ranges(ck):
    """Array name -> its (start, end) byte range in checkpoint file ``ck``."""
    blob = ck.read_bytes()
    head = len(checkpoint.CKPT_MAGIC)
    n = int.from_bytes(blob[head:head + 8], "little")
    offset, ranges = head + 8 + n, {}
    for entry in json.loads(blob[head + 8:offset])["arrays"]:
        size = int(np.prod(entry["shape"])) * np.dtype(entry["dtype"]).itemsize
        ranges[entry["name"]] = (offset, offset + size)
        offset += size
    return ranges


def test_recommend_parses_no_whole_file_and_reads_no_optimizer_array(
        criterion_9_run, capsys, monkeypatch):
    d, ck = criterion_9_run
    user = load_dataset(DataFiles(d)).user_ids[3]
    expect = full_parse_recommend(d, ck, 3, 10)

    def whole_parse(*args, **kw):
        raise AssertionError("recommend parsed a whole file")

    for owner, name in ((data, "load_dataset"), (data, "load_folds"),
                        (data.Folds, "__getitem__")):
        monkeypatch.setattr(owner, name, whole_parse)
    reads = []
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: ReadLog(open(path, mode), reads),
                        raising=False)
    capsys.readouterr()
    assert main(["recommend", str(d), str(ck), user]) == 0
    assert capsys.readouterr().out == expect
    opt = [span for name, span in array_ranges(ck).items() if name.startswith("opt.")]
    assert opt and reads
    for start, end in reads:
        assert not any(start < b and a < end for a, b in opt), (start, end)


def test_recommend_computes_the_distance_row_once(criterion_9_run, capsys, monkeypatch):
    d, ck = criterion_9_run
    user = load_dataset(DataFiles(d)).user_ids[3]
    expect = full_parse_recommend(d, ck, 3, 10)
    calls = []
    real = evaluator.pairwise_distances

    def counted(*args, **kw):
        calls.append(kw.get("user_idx"))
        return real(*args, **kw)

    monkeypatch.setattr(evaluator, "pairwise_distances", counted)
    capsys.readouterr()
    assert main(["recommend", str(d), str(ck), user]) == 0
    assert capsys.readouterr().out == expect
    assert [list(idx) for idx in calls] == [[3]]


def test_recommend_checks_the_arrays_it_does_not_read(criterion_9_run, tmp_path, capsys):
    # evaluate reads only the tables too, and is held to the same checks
    d, ck = own_copy(tmp_path, criterion_9_run)
    whole = ck.read_bytes()
    assert max(end for _, end in array_ranges(ck).values()) == len(whole)
    for argv in (["recommend", str(d), str(ck), "u0"], ["evaluate", str(d), str(ck)]):
        ck.write_bytes(whole[:-100])  # cut inside the last array, an Adam moment
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{ck}: array 'opt.phi." in capsys.readouterr().err
        ck.write_bytes(whole + b"\0")
        assert main(argv) == 2
        assert f"{ck}: trailing bytes after the last array" in capsys.readouterr().err


def test_evaluate_reads_no_array_but_the_tables(criterion_9_run, capsys, monkeypatch):
    d, ck = criterion_9_run
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 0
    expect = capsys.readouterr().out
    reads = []
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: ReadLog(open(path, mode), reads),
                        raising=False)
    assert main(["evaluate", str(d), str(ck)]) == 0
    assert capsys.readouterr().out == expect
    unread = [span for name, span in array_ranges(ck).items()
              if name not in checkpoint.TABLE_ARRAYS]
    assert unread and reads
    for start, end in reads:
        assert not any(start < b and a < end for a, b in unread), (start, end)


@pytest.mark.parametrize("command", ["train", "ablate", "prepare", "case-study"])
def test_a_negative_seed_exits_2_naming_its_setting(criterion_9_run, tmp_path, capsys,
                                                    monkeypatch, command):
    d, ck = criterion_9_run

    def no_training(*args, **kw):
        raise AssertionError("trained before every seed was checked")

    monkeypatch.setattr(bilevel, "train", no_training)
    write_ratings(tmp_path / "ratings.tsv")
    argv, message = {
        "train": (["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
                   "--seed", "-1"], "seed: expected an integer >= 0, got -1"),
        "ablate": (["ablate", str(d), "--seeds", "0,-1", "--variants", "1",
                    "--out", str(tmp_path / "ablation.csv")], "--seeds must be >= 0, got -1"),
        "prepare": (["prepare", str(tmp_path / "ratings.tsv"), str(tmp_path / "prepared"),
                     "--seed", "-1"], "--seed must be >= 0, got -1"),
        "case-study": (["case-study", str(d), str(ck), "--seed", "-1"],
                       "--seed must be >= 0, got -1"),
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not {"run", "ablation.csv", "prepared"} & set(os.listdir(tmp_path))




def on_line(line_no, edit):
    """A text edit that applies ``edit`` to line ``line_no`` (from 1)."""
    def edit_text(text):
        lines = text.split("\n")
        lines[line_no - 1] = edit(lines[line_no - 1])
        return "\n".join(lines)
    return edit_text


# What each edit breaks, named by its line. Past a forged seal the readers name
# that line for the checks they keep; a line not in the form prepare writes
# fails as its whole file.
FORM_FAULTS = ("expected integers", "truncated after 19 of 20 user rows",
               "expected '0<TAB><id>'", "expected '19<TAB><id>'")


@pytest.mark.parametrize("name, edit, user, line, fault", [
    ("dataset.txt", on_line(5, lambda row: "x " + row), "u0", 5, "expected integers"),
    ("dataset.txt", on_line(5, lambda row: "1 " + row), "u0", 5,
     "item indices not strictly increasing"),
    ("dataset.txt", on_line(5, lambda row: row + " 20"), "u0", 5,
     "item index outside [0, 20)"),
    ("dataset.txt", lambda text: text.rstrip("\n"), "u19", 24,
     "truncated after 19 of 20 user rows"),
    ("folds.txt", on_line(4, lambda row: row + " 0"), "u0", 4,
     "11 labels for user 0's 10 items"),
    ("folds.txt", on_line(4, lambda row: "9" + row[1:]), "u0", 4,
     "fold label outside [0, 5)"),
    ("user_ids.txt", on_line(1, lambda line: "7" + line[1:]), "u0", 1,
     "expected '0<TAB><id>'"),
    ("user_ids.txt", lambda text: text + "20\tghost\n", "ghost", 21,
     "id past the dataset's 20 users"),
    ("item_ids.txt", on_line(20, lambda line: line.replace("\t", " ")), "u0", 20,
     "expected '19<TAB><id>'")])
def test_a_pinned_malformed_line_of_the_user_exits_2(criterion_9_run, tmp_path, capsys,
                                                      name, edit, user, line, fault):
    # forging the seal and the checkpoint's digests pins the damaged data, so only
    # the readers' own checks can tell
    d, ck = own_copy(tmp_path, criterion_9_run)
    path = d / name
    forge(path, edit)
    rewrite_header(ck, lambda header: header.update(data_sha256=DataFiles(d).digests()))
    capsys.readouterr()
    assert main(["recommend", str(d), str(ck), user, "-k", "999"]) == 2
    err = capsys.readouterr().err
    message = f"{path}: {NOT_PREPARED}" if fault in FORM_FAULTS else f"{path}:{line}: {fault}"
    assert message in err and "Traceback" not in err


# A forged edit for each fault the readers must catch on their own, and the user
# whose lines it is on. Criterion 9's data has 20 users and 20 items; its rows
# are on lines 5-24 of dataset.txt and 4-23 of folds.txt.
FORGED = {
    "plus sign": ("dataset.txt", on_line(5, lambda row: "+" + row), "u0"),
    "tab": ("folds.txt", on_line(4, lambda row: row.replace(" ", "\t", 1)), "u0"),
    "non-ASCII digit": ("dataset.txt", on_line(5, lambda row: "\u0663" + row), "u0"),
    "item past the catalogue": ("dataset.txt", on_line(24, lambda row: row + " 20"), "u19"),
    "fold label past the count": ("folds.txt", on_line(4, lambda row: "5" + row[1:]), "u0"),
    "repeated id": ("user_ids.txt", lambda text: text.replace("1\tu1\n", "1\tu0\n"), "u0"),
    "one row too few": ("dataset.txt", lambda text: text[:text.rstrip("\n").rfind("\n") + 1],
                        "u19"),
}


@pytest.mark.parametrize("command", ["train", "evaluate", "recommend"])
@pytest.mark.parametrize("fault", FORGED)
def test_a_forged_seal_over_a_fault_exits_2_naming_the_file(criterion_9_run, tmp_path, capsys,
                                                            fault, command):
    d, ck = own_copy(tmp_path, criterion_9_run)
    name, edit, user = FORGED[fault]
    path = d / name
    before = path.read_text()
    forge(path, edit)
    assert path.read_text() != before
    rewrite_header(ck, lambda header: header.update(data_sha256=DataFiles(d).digests()))
    argv = {"train": ["train", d, "--out-dir", tmp_path / "run", "--quiet", *CRITERION_9],
            "evaluate": ["evaluate", d, ck],
            "recommend": ["recommend", d, ck, user]}[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "Traceback" not in err, err


WRONG_JSON = (None, True, -1, 2.5, "0", [], {})
HEADER_TYPES = {"config": dict, "fold_index": int, "arrays": list, "optimizers": dict,
                "rng_states": dict, "data_sha256": dict}


def _set_entry(entry, value):
    return lambda header, rng: header.__setitem__(entry, value)


def _set_inside(entry, pick, value):
    """Set a value inside header entry ``entry``, found by ``pick(entry's value, rng)``."""
    def edit(header, rng):
        container, key = pick(header[entry], rng)
        container[key] = value
    return edit


def _some_key(mapping, rng):
    return mapping, sorted(mapping)[rng.integers(len(mapping))]


def _some_field(field):
    return lambda arrays, rng: (arrays[rng.integers(len(arrays))], field)


def _some_dimension(arrays, rng):
    shape = arrays[rng.integers(len(arrays))]["shape"]
    return shape, rng.integers(len(shape))


def header_edits():
    """(entry, case id, edit): every header entry set to each JSON type it may not
    have, then values inside the entries, picked with a seeded generator."""
    edits = [(entry, f"{entry}={value!r}", _set_entry(entry, value))
             for entry, right in HEADER_TYPES.items() for value in WRONG_JSON
             if type(value) is not right or value == -1]  # -1 is an int, but no count
    inner = [("config", "config[key]", _some_key, (str,)),
             ("data_sha256", "data_sha256[file]", _some_key, (str,)),
             ("arrays", "arrays[i].name", _some_field("name"), (str,)),
             ("arrays", "arrays[i].dtype", _some_field("dtype"), (str,)),
             ("arrays", "arrays[i].shape", _some_field("shape"), (list,)),
             ("arrays", "arrays[i].shape[j]", _some_dimension, ())]
    for entry, where, pick, right in inner:
        edits += [(entry, f"{where}={value!r}", _set_inside(entry, pick, value))
                  for value in WRONG_JSON if type(value) not in right]
    return edits


@pytest.mark.parametrize("case, entry, edit",
                         [(case, entry, edit)
                          for case, (entry, _, edit) in enumerate(header_edits())],
                         ids=[case_id for _, case_id, _ in header_edits()])
def test_a_header_entry_of_the_wrong_json_type_exits_2(criterion_9_run, tmp_path, capsys,
                                                       case, entry, edit):
    d, ck = own_copy(tmp_path, criterion_9_run, labels=True)
    rng = np.random.default_rng([11, case])
    rewrite_header(ck, lambda header: edit(header, rng))
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"],
                 ["case-study", str(d), str(ck)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{ck}: bad header entry {entry!r}: expected " in err
        assert "Traceback" not in err


def _array_entry(array, **values):
    """A header edit that updates the directory entry of ``array`` with ``values``."""
    def edit(header):
        [entry] = [entry for entry in header["arrays"] if entry["name"] == array]
        entry.update(values)
    return edit


def _set_path(*keys, value):
    """A header edit that sets ``header[keys[0]][keys[1]]...`` to ``value``."""
    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return edit


def test_an_array_listed_twice_exits_2(criterion_9_run, tmp_path, capsys):
    # the second entry would give evaluate and recommend the Adam moments as the table
    d, ck = own_copy(tmp_path, criterion_9_run, labels=True)
    rewrite_header(ck, _array_entry("opt.theta.m.user_mu", name="user_mu"))
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"],
                 ["case-study", str(d), str(ck)]):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: {ck}: array 'user_mu' is listed twice\n"


@pytest.mark.parametrize("edit, message", [
    (_set_path("rng_states", value={"sampler": 5}), "bad header entry 'rng_states': 'sampler': "),
    (_set_path("rng_states", "noise", "bit_generator", value="MT19937"),
     "bad header entry 'rng_states': 'noise': state must be for a PCG64 RNG"),
    (_set_path("rng_states", "sampler", "state", "state", value=2 ** 200),
     "bad header entry 'rng_states': 'sampler': "),
    (_set_path("rng_states", "sampler", "state", "state", value=1.5),
     "bad header entry 'rng_states': 'sampler' is {"),
    (_set_path("rng_states", "extra", value={}), "bad header entry 'rng_states': 'extra': "),
    (_set_path("optimizers", "theta", "kind", value="sgd"),
     "bad header entry 'optimizers': 'theta' is {'kind': 'sgd', "),
    (_set_path("optimizers", "phi", "t", value="x"),
     "bad header entry 'optimizers': 'phi' needs a 't' that is an integer >= 0"),
    (_set_path("optimizers", "theta", "t", value=True),
     "bad header entry 'optimizers': 'theta' needs a 't' that is an integer >= 0"),
    (_set_path("optimizers", "phi", "alpha", value=0.5),
     "bad header entry 'optimizers': 'phi' is {'kind': 'adam', 'alpha': 0.5, "),
    (_set_path("optimizers", "sgd", value={}), "bad header entry 'optimizers': unknown key 'sgd'"),
    (_array_entry("opt.phi.v.ui.b2", name="opt.phi.v.ui.b3"), "unknown array 'opt.phi.v.ui.b3'"),
    (_array_entry("opt.phi.m.ui.W1", shape=[8 * 24]),
     "array 'opt.phi.m.ui.W1' has shape (192,) and dtype float64, expected (8, 24) and float64"),
    (_array_entry("opt.phi.v.ui.W1", dtype=">f8"),  # as many bytes, so only the dtype differs
     "array 'opt.phi.v.ui.W1' has shape (8, 24) and dtype >f8, expected (8, 24) and float64"),
    (lambda header: header["arrays"].insert(4, header["arrays"].pop(5)),
     "array 'phi.ui.b1' is listed where 'phi.ui.W1' belongs")],
    ids=["rng_states-not-a-state", "rng-mt19937", "rng-state-past-128-bits",
         "rng-state-a-float", "rng-unknown-stream", "optimizer-kind", "optimizer-t-string",
         "optimizer-t-bool", "optimizer-alpha", "optimizer-unknown", "unknown-array",
         "moment-shape", "moment-dtype", "array-order"])
def test_a_checkpoint_that_save_would_not_write_exits_2_at_case_study(
        criterion_9_run, tmp_path, capsys, edit, message):
    # evaluate and recommend read only the tables, so these reach case-study alone
    d, ck = own_copy(tmp_path, criterion_9_run, labels=True)
    rewrite_header(ck, edit)
    capsys.readouterr()
    assert main(["case-study", str(d), str(ck)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ck}: {message}"), err
    assert "Traceback" not in err


def tables_as(dtype):
    """An edit of a checkpoint file: its four tables rewritten as ``dtype``, values kept."""
    def edit(ck):
        blob, ranges = ck.read_bytes(), array_ranges(ck)
        payload = [np.frombuffer(blob[a:b]).astype(dtype).tobytes()
                   if name in checkpoint.TABLE_ARRAYS else blob[a:b]
                   for name, (a, b) in ranges.items()]
        ck.write_bytes(blob[:min(ranges.values())[0]] + b"".join(payload))

        def retype(header):
            for entry in header["arrays"]:
                if entry["name"] in checkpoint.TABLE_ARRAYS:
                    entry["dtype"] = str(np.dtype(dtype))

        rewrite_header(ck, retype)
    return edit


@pytest.mark.parametrize("edit, message", [
    (tables_as("float32"),
     "array 'user_mu' has shape (20, 8) and dtype float32, expected (20, 8) and float64"),
    (tables_as(">f8"),
     "array 'user_mu' has shape (20, 8) and dtype >f8, expected (20, 8) and float64"),
    (lambda ck: rewrite_header(ck, lambda header: header["config"].update(h="4")),
     "array 'user_mu' has shape (20, 8) and dtype float64, expected (20, 4) and float64")],
    ids=["float32-tables", "big-endian-tables", "config-h"])
def test_tables_that_save_would_not_write_exit_2_at_evaluate_and_recommend(
        criterion_9_run, tmp_path, capsys, edit, message):
    d, ck = own_copy(tmp_path, criterion_9_run)
    edit(ck)
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"]):
        assert main(argv) == 2, argv[0]
        assert capsys.readouterr().err == f"error: {ck}: {message}\n"


@pytest.mark.parametrize("header_len", [2 ** 64 - 1, 2 ** 40])
def test_a_header_length_past_the_file_end_exits_2(criterion_9_run, tmp_path, capsys,
                                                   header_len):
    d, ck = own_copy(tmp_path, criterion_9_run, labels=True)
    blob = ck.read_bytes()
    head = len(checkpoint.CKPT_MAGIC)
    ck.write_bytes(blob[:head] + header_len.to_bytes(8, "little") + blob[head + 8:])
    after = len(blob) - head - 8
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"],
                 ["case-study", str(d), str(ck)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"{ck}: header needs {header_len} bytes, file ends after {after}" in err
        assert "Traceback" not in err


def test_a_flipped_exponent_bit_in_a_table_exits_2(criterion_9_run, tmp_path, capsys):
    d, ck = own_copy(tmp_path, criterion_9_run)
    start, _ = array_ranges(ck)["user_mu"]
    blob = bytearray(ck.read_bytes())
    blob[start + 7] ^= 0x40  # the top exponent bit of user_mu[0, 0], stored little-endian
    ck.write_bytes(bytes(blob))
    capsys.readouterr()
    for argv in (["evaluate", str(d), str(ck)], ["recommend", str(d), str(ck), "u0"]):
        assert main(argv) == 2
        assert (f"{ck}: user table: a mu row lies outside the unit ball"
                in capsys.readouterr().err)


def test_a_rerun_of_evaluate_out_leaves_the_identical_report_in_place(
        criterion_9_run, tmp_path, capsys, monkeypatch):
    d, ck = criterion_9_run
    report = tmp_path / "report.csv"
    replaced = []
    real = os.replace

    def counted(src, dst, **kw):
        replaced.append(os.fspath(dst))
        return real(src, dst, **kw)

    monkeypatch.setattr(os, "replace", counted)
    assert main(["evaluate", str(d), str(ck), "--out", str(report)]) == 0
    first = report.read_bytes()
    assert main(["evaluate", str(d), str(ck), "--out", str(report)]) == 0
    assert report.read_bytes() == first
    assert replaced == [str(report)]
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_case_study_with_no_usable_user_says_why(criterion_9_run, tmp_path, capsys):
    d, ck = own_copy(tmp_path, criterion_9_run)
    ds, _, item_labels = planted_clusters(seed=4)
    write_item_labels(d, ds, item_labels)  # every user holds their whole cluster
    capsys.readouterr()
    assert main(["case-study", str(d), str(ck), "--n-users", str(ds.n_users)]) == 0
    out, err = capsys.readouterr()
    assert out.split("\n")[1:] == [""]  # the header line alone
    assert err == (f"note: none of the {ds.n_users} sampled users has both a similar and "
                   f"a dissimilar unseen item, so the table is empty\n")


def test_a_non_finite_hypergradient_exits_3(tmp_path, capsys):
    # eps_fd / ||v|| overflows, so both probes and the hypergradient are NaN; NaN
    # margins would switch every hinge off and the loss checks would pass
    ds, _, _ = planted_clusters(seed=0)
    d = tmp_path / "data"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=0))
    run = tmp_path / "run"
    with np.errstate(all="ignore"):
        rc = main(["train", str(d), "--out-dir", str(run), "--quiet", "--epochs", "1",
                   "--h", "4", "--hidden", "4", "--batch-size", "20", "--eps-fd", "1e308"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure: non-finite hypergradient at epoch 0 iteration 0" in err
    assert "batch heads" in err
    assert not (run / "checkpoint.bin").exists()


def test_no_thread_outlives_a_train_that_ends_or_exits_3(tmp_path, capsys, monkeypatch):
    ds, _, _ = planted_clusters(seed=0)
    d = tmp_path / "data"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=0))
    counts = []  # live threads at each finite check, while the steps run
    failed_at = []  # when a finite check raised
    ui_draws = []  # (start, end) of each ui noise draw
    real_check, real_attach, real_inner = (bilevel._check_finite, TripletBatch.attach_noise,
                                           bilevel.batch_inner)

    def counting_check(*args):
        counts.append(threading.active_count())
        try:
            return real_check(*args)
        except bilevel.NumericFailure:
            failed_at.append(time.perf_counter())
            raise

    def slow_next_ui_attach(self, *args, **kwargs):
        start = time.perf_counter()
        if self.relation == "ui" and len(ui_draws) == 1:
            time.sleep(0.3)  # step 1's draw, queued during step 0, ends well after it
        real_attach(self, *args, **kwargs)
        if self.relation == "ui":
            ui_draws.append((start, time.perf_counter()))

    def nan_loss_inner(*args, **kwargs):
        ev = real_inner(*args, **kwargs)
        ev.loss = float("nan")
        return ev

    monkeypatch.setattr(bilevel, "_check_finite", counting_check)
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    monkeypatch.setattr(TripletBatch, "attach_noise", slow_next_ui_attach)
    before = threading.enumerate()
    for run, (extra, inner, code) in enumerate((([], real_inner, 0),
                                                (["--eps-fd", "1e308"], real_inner, 3),
                                                ([], nan_loss_inner, 3))):
        counts.clear()
        failed_at.clear()
        ui_draws.clear()
        monkeypatch.setattr(bilevel, "batch_inner", inner)
        with np.errstate(all="ignore"):
            rc = main(["train", str(d), "--out-dir", str(tmp_path / f"run{run}"),
                       "--quiet", "--epochs", "1", "--h", "4", "--hidden", "4",
                       "--batch-size", "20", *extra])
        assert rc == code
        assert max(counts) == len(before) + 1  # the worker, joined by the end
        assert threading.enumerate() == before
    # the non-finite loss of step 0 raised while step 1's ui draw was queued or running
    assert len(ui_draws) == 2 and len(failed_at) == 1
    assert failed_at[0] < ui_draws[1][1]
    err = capsys.readouterr().err
    assert "non-finite hypergradient" in err and "non-finite loss" in err


@pytest.mark.parametrize("rel, name", [("ui", "W1"), ("uu", "b2")])
def test_checkpoint_with_a_non_finite_margin_net_exits_2(tmp_path, capsys, rel, name):
    d, _ = planted_dataset_dir(tmp_path, labels=True)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet"] + FAST) == 0
    ck = run / "checkpoint.bin"
    start, _ = array_ranges(ck)[f"phi.{rel}.{name}"]
    blob = bytearray(ck.read_bytes())
    blob[start:start + 8] = np.float64(np.nan).tobytes()
    ck.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["case-study", str(d), str(ck)]) == 2
    assert capsys.readouterr().err == (f"error: {ck}: {rel} margin net: array {name!r} "
                                       f"holds a non-finite value\n")


def test_the_feature_mode_survives_a_checkpoint(tmp_path, capsys):
    d, ds = planted_dataset_dir(tmp_path, labels=True, p_in=0.7, p_out=0.1)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet", "--relations", "ui",
                 "--indicator-mode", "concat"] + FAST) == 0
    _, ck = checkpoint.load(run / "checkpoint.bin")
    assert [net.mode for net in ck.phis.values()] == ["concat"]
    capsys.readouterr()
    assert main(["case-study", str(d), str(run / "checkpoint.bin"), "--n-users", "20"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert rows
    user_of = {user: u for u, user in enumerate(ds.user_ids)}
    item_of = {item: i for i, item in enumerate(ds.item_ids)}

    def margin(mode, user, pos, neg):
        s = margin_input(mode, ck.users.mu[user_of[user]], ck.items.mu[item_of[pos]],
                         ck.items.mu[item_of[neg]])
        return f"{forward(ck.phis['ui'], s)[0][0]:.4f}"

    assert [m for *_, m in rows] == [margin("concat", *row[:3]) for row in rows]
    # both modes give the net 3h inputs, so a lost mode would not fail on its own
    assert [m for *_, m in rows] != [margin("squared-diff", *row[:3]) for row in rows]
