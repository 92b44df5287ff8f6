"""The pinned runs of ``golden_runs`` give their checked-in files byte for byte."""

import os

import pytest

from golden_runs import FILES, GOLDEN_DIR, RUNS, produce


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    produce(str(out), str(tmp_path_factory.mktemp("work")))
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("file", FILES)
def test_pinned_run_output_is_byte_equal(produced, name, file):
    with open(os.path.join(GOLDEN_DIR, name, file), "rb") as f:
        expect = f.read()
    with open(produced / name / file, "rb") as f:
        got = f.read()
    assert got == expect, (f"{name}/{file} differs from the pinned file; if the change "
                           f"is meant, rerun tests/golden_runs.py and report the values")
