import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from pmlam import bilevel, checkpoint, evaluator
from pmlam.cli import ABLATION_VARIANTS, build_parser, main
from pmlam.config import RunConfig, make_config
from pmlam.data import (DATA_FILES, load_dataset, load_folds, split_five_fold, save_dataset,
                        save_folds)
from pmlam.synth import planted_clusters, write_item_labels

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
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_prepare_writes_cache_and_stats(tmp_path, capsys):
    ratings = tmp_path / "ratings.tsv"
    write_ratings(ratings)
    out = tmp_path / "ds"
    rc = main(["prepare", str(ratings), str(out), "--min-user", "10",
               "--min-item", "5", "--seed", "0"])
    assert rc == 0
    stats = capsys.readouterr().out
    assert "users 12" in stats and "items 10" in stats and "interactions 120" in stats
    ds = load_dataset(out)
    assert len(load_folds(out, ds)) == 5
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
    ck = checkpoint.load(str(run / "checkpoint.bin"))
    fold = load_folds(d, ds)[0]
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
    fold = load_folds(d, ds)[0]
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
               "--distance", "euclidean", "--margin-mode", "adaptive",
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


def test_retired_config_keys_accepted_only_at_old_values(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    cfg_file = tmp_path / "run.cfg"
    old = ("early_stop_patience = 0\noptimizer = adam\nmargin_grad_to_theta = off\n"
           "mu_std = 0.01\nsigma0 = 0.1\nsigma_jitter = 0.1\n")
    cfg_file.write_text(old)
    argv = ["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
            "--config", str(cfg_file)] + FAST
    assert main(argv) == 0
    capsys.readouterr()
    cfg_file.write_text(old.replace("adam", "sgd"))
    assert main(argv) == 2
    assert "'optimizer'" in capsys.readouterr().err


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


def test_checkpoint_with_retired_keys_still_evaluates(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path)
    rewrite_header(ck, lambda header: header["config"].update(
        early_stop_patience="3", optimizer="sgd", margin_grad_to_theta="True",
        mu_std="0.05", sigma0="0.2", sigma_jitter="0.0"))
    assert main(["evaluate", str(d), str(ck)]) == 0
    assert "Recall@K" in capsys.readouterr().out


def _subparser(name):
    sub, = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices[name]


def test_every_config_field_has_one_flag():
    # train takes every field; ablate all but the keys each variant sets and
    # the seed, which comes from --seeds
    for command, left_out in (("train", ()), ("ablate", VARIANT_KEYS + ("seed",))):
        parser = _subparser(command)
        for f in dataclasses.fields(RunConfig):
            actions = [a for a in parser._actions if a.dest == f.name]
            if f.name in left_out:
                assert actions == []
                continue
            action, = actions
            flag = "--" + f.name.replace("_", "-")
            extra = ["--distance"] if f.name == "distance_kind" else []
            assert action.option_strings == [flag] + extra
            if isinstance(f.default, bool):  # a switch that takes no value
                assert action.nargs == 0 and action.const == "true"
            else:
                assert action.nargs is None
        fields_taken = {a.dest for a in parser._actions} & {
            f.name for f in dataclasses.fields(RunConfig)}
        assert len(fields_taken) == {"train": 22, "ablate": 15}[command]
        args = parser.parse_args(["data", "--joint-margin-training"])
        assert args.joint_margin_training == "true"
    assert _subparser("train").parse_args(
        ["data", "--distance", "euclidean"]).distance_kind == "euclidean"
    # prepare reads one setting, the seed of its split
    prepare = _subparser("prepare")
    assert sorted(a.option_strings[0] for a in prepare._actions if a.option_strings) == [
        "--min-item", "--min-user", "--rating-threshold", "--seed", "-h"]
    assert prepare.parse_args(["ratings", "out"]).seed == 0


@pytest.mark.parametrize("key, flags, value", [
    ("distance_kind", ["--distance-kind", "--distance"], "euclidean"),
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
    ablate = ["ablate", str(d), "--seeds", "0", "--variants", "8"] + FAST
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
                 ["ablate", str(d), "--fold", "7", "--seeds", "0",
                  "--variants", "1"] + FAST):
        assert main(argv) == 2
        assert "folds.txt: fold 7 outside the file's 5 folds" in capsys.readouterr().err
    cfg = make_config(file_values={"h": "4", "hidden": "4", "epochs": "1",
                                   "batch_size": "64", "pool_size": "8",
                                   "relations": "ui"})
    result = bilevel.train(ds, load_folds(d, ds)[0], cfg)
    ck = tmp_path / "checkpoint.bin"
    checkpoint.save(ck, result, fold_index=9)
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert "folds.txt: fold 9 outside the file's 5 folds" in capsys.readouterr().err


def test_train_with_damaged_id_sidecar_exits_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path)
    path = d / "user_ids.txt"
    path.write_text(path.read_text().replace("1\t", "1 ", 1))
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST)
    assert rc == 2
    assert "user_ids.txt:2: expected '1<TAB><id>'" in capsys.readouterr().err


@pytest.mark.parametrize("name, line", [("dataset.txt", 5), ("folds.txt", 4)])
@pytest.mark.parametrize("token", ["1.5", "x", "99999999999999999999"])
def test_non_integer_token_exits_2(tmp_path, capsys, name, line, token):
    d, _ = planted_dataset_dir(tmp_path)
    path = d / name
    lines = path.read_text().split("\n")
    lines[line - 1] = " ".join([token] + lines[line - 1].split()[1:])
    path.write_text("\n".join(lines))
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"] + FAST)
    assert rc == 2
    assert f"{name}:{line}: expected integers" in capsys.readouterr().err


def test_case_study_on_damaged_item_labels_exits_2(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path, labels=True)
    run = tmp_path / "run"
    assert main(["train", str(d), "--out-dir", str(run), "--quiet",
                 "--distance", "euclidean", "--relations", "ui"] + FAST) == 0
    path = d / "item_labels.txt"
    lines = path.read_text().split("\n")
    lines[2] = lines[2].replace("\t", " ")
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["case-study", str(d), str(run / "checkpoint.bin")]) == 2
    assert "item_labels.txt:3: expected '<item id><TAB><label>'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("epochs", "ten", "epochs: expected an integer, got 'ten'"),
    ("alpha", "fast", "alpha: expected a number, got 'fast'"),
    ("ks", "5,x", "ks: expected an integer, got 'x'")])
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
                        ("5,x", "ks: expected an integer, got 'x'")):
        assert main(["evaluate", str(d), str(ck), "--ks", ks]) == 2
        assert message in capsys.readouterr().err
    assert main(["evaluate", str(d), str(ck), "--ks", "3,7"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[-2:]
    assert [row.split()[0] for row in rows] == ["3", "7"]
    for k in ("0", "-1"):
        assert main(["recommend", str(d), str(ck), "u0", "-k", k]) == 2
        assert f"-k must be >= 1, got {k}" in capsys.readouterr().err


def test_ablate_unknown_variant_exits_2_before_training(tmp_path, capsys, monkeypatch):
    d, _ = planted_dataset_dir(tmp_path)

    def no_training(*args, **kw):
        raise AssertionError("trained before the variants were checked")

    monkeypatch.setattr(bilevel, "train", no_training)
    for variants, bad in (("9", 9), ("1,9", 9), ("0,3", 0)):
        argv = ["ablate", str(d), "--seeds", "0", "--variants", variants] + FAST
        assert main(argv) == 2
        assert (f"--variants: unknown variant {bad}; valid variants are 1-8"
                in capsys.readouterr().err)
    for flag, raw, message in (  # list tokens are checked as config lists are
            ("--seeds", "0,x", "--seeds: expected an integer, got 'x'"),
            ("--variants", "1,x", "--variants: expected an integer, got 'x'"),
            ("--seeds", "", "--seeds: expected a comma list of integers"),
            ("--variants", " , ", "--variants: expected a comma list of integers")):
        assert main(["ablate", str(d), "--seeds", "0", flag, raw] + FAST) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0 0", "1 0"])
def test_dataset_row_not_strictly_increasing_exits_2(tmp_path, capsys, row):
    d, _ = planted_dataset_dir(tmp_path, seed=4)
    path = d / "dataset.txt"
    lines = path.read_text().split("\n")
    assert lines[4].startswith("0 1 2 ")  # user 0's row
    lines[4] = row + lines[4][3:]
    path.write_text("\n".join(lines))
    rc = main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet",
               "--relations", "ui"] + FAST)
    assert rc == 2
    assert ("dataset.txt:5: item indices not strictly increasing"
            in capsys.readouterr().err)


SPARSE = dict(n_users=60, n_items=40, n_clusters=2, p_in=0.4, p_out=0.03)


def test_checkpoint_on_a_resplit_dataset_exits_2(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    ds = load_dataset(d)
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
    load_folds(d, load_dataset(d))  # the edited files load: only the digest tells
    capsys.readouterr()
    assert main(["evaluate", str(d), str(ck)]) == 2
    assert f"{name}: differs from the file {ck} was trained on" in capsys.readouterr().err


def test_checkpoint_without_digests_keeps_the_shape_check(tmp_path, capsys):
    d, ck = trained_checkpoint(tmp_path, **SPARSE)
    rewrite_header(ck, lambda header: header.pop("data_sha256"))  # an older checkpoint
    ds = load_dataset(d)
    save_folds(d, split_five_fold(ds, seed=1))
    assert main(["evaluate", str(d), str(ck)]) == 0
    assert "Recall@K" in capsys.readouterr().out


def test_train_and_ablate_leave_the_dataset_directory_unchanged(tmp_path, capsys):
    d, _ = planted_dataset_dir(tmp_path, labels=True, p_in=0.7, p_out=0.1)
    before = {path.name: path.read_bytes() for path in d.iterdir()}
    full_model = ["--relations", "ui,uu,ii", "--distance-kind", "w2",
                  "--margin-mode", "adaptive"]
    assert main(["train", str(d), "--out-dir", str(tmp_path / "run"), "--quiet"]
                + FAST + full_model) == 0
    assert main(["ablate", str(d), "--seeds", "0", "--variants", "8",
                 "--out", str(tmp_path / "ablation.csv")] + FAST) == 0
    assert {path.name: path.read_bytes() for path in d.iterdir()} == before


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
