import re

import pytest

from pmlam.cli import main
from pmlam.config import (RunConfig, echo_lines, load_config_file,
                          make_config, parse_margin_mode)
from pmlam.distance import DistanceKind


def test_defaults_follow_reported_settings():
    cfg = RunConfig()
    assert cfg.h == 50 and cfg.hidden == 50
    assert cfg.alpha == 0.001 and cfg.lam == 0.001
    assert cfg.batch_size == 5000 and cfg.neg_samples == 2
    assert cfg.pool_size == 500 and cfg.refresh_period == 20
    assert cfg.sim_threshold == 0.2
    assert cfg.ks == (5, 10, 15, 20)
    assert cfg.kind() is DistanceKind.W2_SQUARED


def test_margin_mode_parsing():
    assert parse_margin_mode("adaptive") == "adaptive"
    assert parse_margin_mode("fixed") == ("fixed", 1.0)
    assert parse_margin_mode("fixed:0.5") == ("fixed", 0.5)
    with pytest.raises(ValueError):
        parse_margin_mode("fixed:-1")
    with pytest.raises(ValueError):
        parse_margin_mode("galactic")


def test_per_relation_margin_overrides():
    cfg = make_config(margin_mode="adaptive", margin_mode_uu="fixed:1.0")
    assert cfg.margin_mode_for("ui") == "adaptive"
    assert cfg.margin_mode_for("uu") == ("fixed", 1.0)
    assert cfg.margin_mode_for("ii") == "adaptive"


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "h = 16\n"
        "alpha = 0.01  # inline comment\n"
        "relations = ui,uu\n"
        "ks = 5, 10\n"
        "joint-margin-training = on\n"
        "distance_kind = euclidean\n"
    )
    cfg = make_config(file_values=load_config_file(path))
    assert cfg.h == 16 and cfg.alpha == 0.01
    assert cfg.relations == ("ui", "uu")
    assert cfg.ks == (5, 10)
    assert cfg.joint_margin_training is True
    assert cfg.kind() is DistanceKind.EUCLIDEAN_SQUARED


def test_config_file_key_set_twice_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("h = 8\nbatch-size = 64\nbatch_size = 128\nh = 16\n")
    message = f"{path}:3: 'batch_size' is already set on line 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config_file(path)
    assert main(["train", str(tmp_path / "data"), "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 7\nseed = 3\n")
    cfg = make_config(file_values=load_config_file(path), epochs=11)
    assert cfg.epochs == 11 and cfg.seed == 3


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        make_config(file_values={"hh": "3"})


def test_retired_deterministic_key_is_ignored():
    # config files and checkpoints written before pool refresh became
    # synchronous-only carry this key
    assert make_config(file_values={"deterministic": "true"}) == RunConfig()


def test_validation_errors():
    with pytest.raises(ValueError):
        make_config(relations=("uu",))  # ui is mandatory
    with pytest.raises(ValueError):
        make_config(alpha=0.0)
    with pytest.raises(ValueError):
        make_config(pool_size=1, neg_samples=2)
    with pytest.raises(ValueError):
        make_config(sim_threshold=0.0)
    with pytest.raises(ValueError):
        make_config(distance_kind="cosine")
    with pytest.raises(ValueError):
        make_config(indicator_mode="outer-product")


def test_echo_lines_are_stable():
    cfg = make_config(seed=5)
    lines = echo_lines(cfg)
    assert lines == sorted(lines)
    assert "seed = 5" in lines
    assert any(line.startswith("ks = 5,10,15,20") for line in lines)


@pytest.mark.parametrize("key,old,new", [
    ("early_stop_patience", "0", "5"), ("optimizer", "adam", "sgd"),
    ("margin_grad_to_theta", "off", "on"), ("mu_std", "0.01", "0.02"),
    ("sigma0", "0.1", "0.3"), ("sigma_jitter", "0.1", "0.0")])
def test_retired_keys_only_at_their_old_value(key, old, new):
    assert make_config(file_values={key: old}) == RunConfig()
    with pytest.raises(ValueError, match=f"retired config key '{key}'"):
        make_config(file_values={key: new})


@pytest.mark.parametrize("ks", ["0", "5,-1", ""])
def test_ks_must_be_nonempty_and_at_least_one(ks):
    with pytest.raises(ValueError, match="ks: expected cut-offs >= 1"):
        make_config(file_values={"ks": ks})
    assert make_config(file_values={"ks": "1,3"}).ks == (1, 3)
