"""Self-test of the benchmark at a tiny size; checks its contract, not timings.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import hostspeed
import oracle
import run
import spans
from workloads import EVAL_REPS, FULL_MODEL, SETUP_REPS, Workload

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Low-activity users fall under prepare's ten-interaction minimum.
TINY = Workload("tiny", 60, 60, 2, 0.8, 0.05, (0.2, 1.0), FULL_MODEL, epochs=1,
                train_reps=2)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(trace, section, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result, notes = _last_json(out), json.loads(out.strip().splitlines()[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if not trace:
        assert (notes["setup_samples"], notes["train_samples"], notes["eval_samples"]) == (
            SETUP_REPS, TINY.train_reps, EVAL_REPS)
    assert [p.name for p in tmp_path.iterdir()] == (
        ["spans-tiny-seed3.csv"] if trace else [])


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    r = run.Run(TINY, 5, tmp_path_factory.mktemp("tiny"))
    data_dir, _ = r.setup("prep")
    ckpt, _ = r.train(data_dir, "train")
    r.evaluate(data_dir, ckpt)
    assert r.failed == 0, r.failures
    return r, data_dir, ckpt


def test_oracle_flags_a_permuted_top_10(trained):
    r, data_dir, ckpt = trained
    user = next(r.query_users(data_dir))
    code, out, _ = run.call_cli(["recommend", data_dir, ckpt, user, "-k", 10])
    assert code == 0 and r.oracle.check_recommend(user, out, 10) == []
    lines = [line.split() for line in out.strip().splitlines()]
    swapped = [[rank] + rest for (rank, _, _), rest in
               zip(lines, [parts[1:] for parts in reversed(lines)])]
    permuted = "\n".join("  ".join(parts) for parts in swapped)
    assert r.oracle.check_recommend(user, permuted, 10)


def test_recommend_for_a_filtered_out_id_is_a_failed_op(trained):
    r, data_dir, ckpt = trained
    rated = {line.split("\t")[0] for line in
             (data_dir.parent / "ratings.tsv").read_text().splitlines()}
    gone = sorted(rated - set(oracle.read_ids(data_dir / "user_ids.txt")))
    assert gone, "the tiny workload must lose some users to filtering"
    attempted, failed = r.attempted, r.failed
    r.recommend(data_dir, ckpt, gone[0])
    assert (r.attempted, r.failed) == (attempted + 1, failed + 1)
    assert "unknown user id" in r.failures[-1]


def test_self_time_subtracts_child_spans():
    spans_ = [(1, 0, "child", 1.0, 3.0), (2, 0, "child", 4.0, 5.0),
              (0, None, "root", 0.0, 10.0)]
    assert spans.self_times(spans_) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_train_span_count_excludes_spans_outside_train():
    spans_ = [(1, 0, "child", 1.0, 3.0), (0, None, spans.TRAIN_ROOT, 0.0, 10.0),
              (2, None, "op.evaluate", 11.0, 12.0)]
    assert spans.train_span_count(spans_) == 1


def test_speed_factor_uses_only_the_samples_around_an_operation():
    meter = hostspeed.Meter()
    pad = hostspeed.PAD_S
    meter.samples = [(10.0 - pad / 2, 2 * hostspeed.REFERENCE_S),
                     (11.0 + pad / 2, 4 * hostspeed.REFERENCE_S),
                     (10.0 - 2 * pad, 100 * hostspeed.REFERENCE_S),
                     (11.0 + 2 * pad, 100 * hostspeed.REFERENCE_S)]
    assert meter.factor(10.0, 11.0) == pytest.approx(3.0)
