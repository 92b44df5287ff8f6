import json

import numpy as np
import pytest

from pmlam.bilevel import train
from pmlam.checkpoint import CKPT_MAGIC, load, save
from pmlam.config import config_strings, make_config
from pmlam.data import DATA_FILES, split_five_fold
from pmlam.synth import planted_clusters

DIGESTS = {name: f"{n:064x}" for n, name in enumerate(DATA_FILES)}


def small_result():
    ds, _, _ = planted_clusters(seed=1)
    fold = split_five_fold(ds, seed=1)[0]
    cfg = make_config(h=4, hidden=3, epochs=2, batch_size=32, neg_samples=2,
                      pool_size=8, refresh_period=2, eval_every=1, seed=2,
                      relations=("ui", "uu"), sim_threshold=0.5)
    return train(ds, fold, cfg), cfg


def test_roundtrip(tmp_path):
    result, cfg = small_result()
    path = str(tmp_path / "model.bin")
    save(path, result, DIGESTS, fold_index=0)
    with open(path, "rb") as f:
        assert f.readline() == b"PMLAM-CKPT v1\n"

    ck, state = load(path)
    assert state.users is ck.users and state.items is ck.items
    np.testing.assert_array_equal(ck.users.mu, result.users.mu)
    np.testing.assert_array_equal(ck.users.sigma, result.users.sigma)
    np.testing.assert_array_equal(ck.items.mu, result.items.mu)
    np.testing.assert_array_equal(ck.items.sigma, result.items.sigma)
    assert set(state.phis) == set(result.phis)
    for rel in result.phis:
        assert state.phis[rel].mode == result.phis[rel].mode
        for name, arr in result.phis[rel].params().items():
            np.testing.assert_array_equal(state.phis[rel].params()[name], arr)
    assert ck.cfg == cfg and state.cfg == cfg
    assert ck.fold_index == 0
    assert state.rng_sampler.bit_generator.state == result.rng_sampler.bit_generator.state
    assert state.rng_noise.bit_generator.state == result.rng_noise.bit_generator.state
    for got, want in ((state.opt_theta, result.opt_theta), (state.opt_phi, result.opt_phi)):
        assert got.kind == "adam"
        assert (got.alpha, got.t) == (want.alpha, want.t)
        for slot in ("m", "v"):
            moments, expect = getattr(got, slot), getattr(want, slot)
            assert list(moments) == list(expect)
            for name, arr in expect.items():
                np.testing.assert_array_equal(moments[name], arr)
    assert (state.epoch, state.trace, state.evals, state.pools) == (cfg.epochs, [], [], None)
    assert ck.data_sha256 == DIGESTS


def test_header_config_is_config_strings(tmp_path):
    result, cfg = small_result()
    path = tmp_path / "model.bin"
    save(str(path), result, DIGESTS)
    blob = path.read_bytes()[len(CKPT_MAGIC):]
    header = json.loads(blob[8:8 + int.from_bytes(blob[:8], "little")])
    assert header["config"] == config_strings(cfg)
    assert list(header["config"]) == list(config_strings(cfg))  # field order
    assert "margin_mode_uu" not in header["config"]  # None is left out
    assert make_config(file_values=header["config"]) == cfg


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ValueError, match="PMLAM-CKPT"):
        load(str(path))


def test_no_temp_files_left_behind(tmp_path):
    result, _ = small_result()
    save(str(tmp_path / "model.bin"), result, DIGESTS)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


@pytest.mark.parametrize("old, new, message", [
    (b'"arrays"', b'"arrayz"', "header has no 'arrays' entry"),
    (b'"float64"', b'"floatXX"', "data type 'floatXX' not understood"),
    (b'"float64"', b'"i4,,,,,"', "data type 'i4,,,,,' not understood"),
    (b'"float64"', b'"O"      ', "array 'user_mu' has dtype object, not a float type"),
    (b'"user_mu"', b'"user_mv"', "header has no 'user_mu' entry"),
    (b'"data_sha256"', b'"data_sha257"', "header has no 'data_sha256' entry"),
    (b'{"config"', b'{{config"', "header is not valid JSON: Expecting"),
    (b'"config"', b'"con\xffig"', "header is not valid JSON: 'utf-8' codec")])
def test_damaged_header_names_file_and_entry(tmp_path, old, new, message):
    result, _ = small_result()
    path = tmp_path / "model.bin"
    save(str(path), result, DIGESTS)
    blob = path.read_bytes()
    assert len(old) == len(new) and old in blob
    path.write_bytes(blob.replace(old, new, 1))  # same length: the header length holds
    with pytest.raises(ValueError, match="model.bin: ") as err:
        load(str(path))
    assert message in str(err.value)
