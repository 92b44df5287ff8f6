"""The demos run end to end and print their closing checks.

Each demo runs as a script in a fresh working directory. Demo 04 needs the
MovieLens-100K ratings file, which is not part of the repository, so it is
not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_demo_01_wasserstein_gaussian_embeddings(tmp_path):
    out = run_demo("01_wasserstein_gaussian_embeddings.py", tmp_path)
    assert "triangle inequality violations: 0" in out
    assert out.endswith("sample reconstructs from its noise: True\n")


def test_demo_02_train_planted_clusters(tmp_path):
    out = run_demo("02_train_planted_clusters.py", tmp_path)
    assert "  10      1.0000      1.0000" in out  # fold 0 recall and NDCG at 10
    # the user's two unseen own-block items rank first
    assert "user u3 (cluster 0) top-5: [('i3', 0), ('i4', 0), " in out


@pytest.mark.slow
def test_demo_03_adaptive_margins_and_collapse(tmp_path):
    out = run_demo("03_adaptive_margins_and_collapse.py", tmp_path)
    assert out.endswith("similar negatives receive the smaller margin: True\n")
