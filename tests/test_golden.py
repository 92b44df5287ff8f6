"""The pinned runs of ``golden_runs`` give their checked-in files byte for byte."""

import os

import pytest

from pmlam import checkpoint

from golden_runs import FILES, GOLDEN_DIR, PREPARE_PIN, RUNS, produce, produce_prepare


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The directory of the produced files, and the one of the runs' own files."""
    out, work = tmp_path_factory.mktemp("golden"), tmp_path_factory.mktemp("work")
    produce(str(out), str(work))
    return out, work


@pytest.fixture(scope="module")
def produced(runs):
    return runs[0]


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("file", FILES)
def test_pinned_run_output_is_byte_equal(produced, name, file):
    with open(os.path.join(GOLDEN_DIR, name, file), "rb") as f:
        expect = f.read()
    with open(produced / name / file, "rb") as f:
        got = f.read()
    assert got == expect, (f"{name}/{file} differs from the pinned file; if the change "
                           f"is meant, rerun tests/golden_runs.py and report the values")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_loaded_checkpoint_saves_as_the_same_bytes(runs, tmp_path, name):
    ckpt = runs[1] / name / "checkpoint.bin"
    tables, state = checkpoint.load(ckpt)
    checkpoint.save(tmp_path / "again.bin", state, tables.data_sha256, tables.fold_index)
    assert (tmp_path / "again.bin").read_bytes() == ckpt.read_bytes()


def test_prepare_output_is_pinned(tmp_path):
    with open(PREPARE_PIN) as f:
        expect = f.read()
    assert produce_prepare(str(tmp_path)) == expect, (
        "prepare's files differ from tests/golden/prepare.sha256; if the change is "
        "meant, rerun tests/golden_runs.py and report the values")
