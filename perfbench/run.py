"""End-to-end benchmark of the pmlam command line.

One run is one workload in one process, driven in a closed loop by one
client: it synthesises a seeded planted-cluster ratings file, then calls
``pmlam.cli.main`` in-process for ``prepare``, ``train``, ``evaluate`` and a
series of ``recommend`` queries. Every output is checked against the
independent oracle in ``oracle.py``; an operation fails when it exits
non-zero or disagrees with the oracle.

    python3 perfbench/run.py --workload ml100k-bilevel --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones below; its set-up, evaluate and recommend times are set
against the host's speed at the moment (``hostspeed.py``). With
``--trace 1`` it trains once untraced and once with ``spans.py`` attached,
and the metrics are the per-layer ones. The line before it carries the
environment stamp, the dataset shape after ``prepare``, the sample counts,
the wall times, ``failed_ops_frac`` and any failures. Scratch files live under ``.perfbench_work/`` at the repository root; a run
deletes its own and keeps only the span file of a traced run.
"""

import os

# Fixed before numpy loads: BLAS threads add run-to-run spread on two cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
from workloads import EVAL_REPS, MIN_QUERIES, SETUP_REPS, TRACE_QUERIES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

END_TO_END = (
    ("setup_s", "s"), ("train_s", "s"), ("eval_s", "s"),
    ("recommend_ms_p50", "ms"), ("recommend_ms_p90", "ms"),
    ("recall_at_10", "ratio"), ("ndcg_at_10", "ratio"), ("peak_rss_mb", "MB"),
)
TOP_K = 10
REF_BURST = 12     # reference passes before and after a set-up or an evaluate
REF_PER_QUERY = 2  # after each query, so each has samples on both sides


def call_cli(argv):
    """``pmlam.cli.main(argv)`` in-process: (exit code, stdout, stderr).

    An exception that escapes ``main`` is reported as exit code 1 with its
    traceback, so one broken operation never ends the run.
    """
    from pmlam import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def write_ratings(path, ds):
    with open(path, "w") as f:
        for u in range(ds.n_users):
            user = ds.user_ids[u]
            f.writelines(f"{user}\t{ds.item_ids[i]}\t5\n" for i in ds.row(u))


def percentile(sorted_values, q):
    """Nearest-rank percentile: the value with a share ``q`` of samples at or below it."""
    rank = -(-q * len(sorted_values) // 100)  # ceil without float rounding
    return sorted_values[max(int(rank), 1) - 1]


class Run:
    """One workload's pipeline in a scratch directory, with its operation log."""

    def __init__(self, workload, seed, work_dir):
        self.workload, self.seed, self.dir = workload, seed, Path(work_dir)
        self.recorder = None  # a spans.Recorder while a traced section runs
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle = None

    def op(self, name, argv, check=None):
        """Run one CLI call, timed and then checked; returns its seconds."""
        span = self.recorder.span(f"op.{name}") if self.recorder else contextlib.nullcontext()
        start = perf_counter()
        with span:
            code, out, err = call_cli(argv)
        seconds = perf_counter() - start
        problems = [f"exit code {code}: {err.strip()[-300:]}"] if code else []
        if not problems and check is not None:
            problems = check(out)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{name}: {p}" for p in problems]
        return seconds

    def setup(self, tag):
        """Synthesise, write the ratings file and prepare; returns (data dir, seconds)."""
        from pmlam import synth
        prep = self.dir / tag
        prep.mkdir(parents=True)
        start = perf_counter()
        ds, _, _ = synth.planted_clusters(**self.workload.synth_args(self.seed))
        write_ratings(prep / "ratings.tsv", ds)
        self.op("prepare", ["prepare", prep / "ratings.tsv", prep / "data",
                            "--seed", self.seed])
        return prep / "data", perf_counter() - start

    def train(self, data_dir, tag):
        """``pmlam train``; returns (checkpoint path, seconds)."""
        out_dir = self.dir / tag
        argv = ["train", data_dir, "--out-dir", out_dir, "--quiet",
                "--epochs", self.workload.epochs, "--seed", self.seed,
                *self.workload.train_flags]
        seconds = self.op("train", argv,
                          check=lambda _: oracle.check_trace_csv(out_dir / "trace.csv"))
        return out_dir / "checkpoint.bin", seconds

    def evaluate(self, data_dir, ckpt):
        """``pmlam evaluate --out``, checked; returns (seconds, recall@10, ndcg@10)."""
        if self.oracle is None:
            self.oracle = oracle.Oracle(data_dir, ckpt)
        csv_path = ckpt.parent / "eval.csv"
        found = {}

        def check(_):
            problems, found["recall"], found["ndcg"] = self.oracle.check_eval_csv(csv_path, TOP_K)
            return problems

        seconds = self.op("evaluate", ["evaluate", data_dir, ckpt, "--out", csv_path],
                          check=check)
        return seconds, found.get("recall"), found.get("ndcg")

    def recommend(self, data_dir, ckpt, user_id):
        """One ``pmlam recommend USER -k 10`` query; returns seconds."""
        return self.op("recommend", ["recommend", data_dir, ckpt, user_id, "-k", TOP_K],
                       check=lambda out: self.oracle.check_recommend(user_id, out, TOP_K))

    def query_users(self, data_dir):
        """Endless seeded draws of external user ids from the prepared id map."""
        ids = oracle.read_ids(data_dir / "user_ids.txt")
        rng = np.random.default_rng([self.seed, 7])
        while True:
            yield ids[int(rng.integers(len(ids)))]


def spread_evenly(*groups):
    """Merge the lists so that each one's items sit evenly along the result."""
    keyed = [((i + 0.5) / len(g), k, item)
             for k, g in enumerate(groups) for i, item in enumerate(g)]
    return [item for *_, item in sorted(keyed)]


def measure(run, seconds):
    """Untraced run: every end-to-end metric.

    The run sets up ``SETUP_REPS`` times, trains on the last set-up, then
    runs a closed recommend loop of at least ``seconds`` and ``MIN_QUERIES``
    queries. The other trains and evaluations are spread evenly over its
    first ``MIN_QUERIES`` queries, so the samples of every timing cover the
    same stretch of the run. The host-speed reference runs right before and
    after every set-up, evaluation and query, and each of those times is
    divided by the speed factor of the samples around it (``hostspeed.py``).
    The notes keep the wall times.
    """
    w = run.workload
    meter = hostspeed.Meter()
    ops = defaultdict(list)  # metric -> [(wall seconds, start, end)]

    def keep(metric, wall_s, start):
        ops[metric].append((wall_s, start, perf_counter()))

    for rep in range(SETUP_REPS):
        meter.sample(REF_BURST)
        start = perf_counter()
        data_dir, setup_s = run.setup(f"prep{rep}")
        keep("setup_s", setup_s, start)
    meter.sample(REF_BURST)
    start = perf_counter()
    ckpt, train_s = run.train(data_dir, "train0")
    keep("train_s", train_s, start)
    meter.sample(REF_BURST)
    start = perf_counter()
    eval_s, recall, ndcg = run.evaluate(data_dir, ckpt)  # also builds the oracle
    keep("eval_s", eval_s, start)
    meter.sample(REF_BURST)
    pending = spread_evenly(["train"] * (w.train_reps - 1), ["evaluate"] * (EVAL_REPS - 1))
    stride = MIN_QUERIES // (len(pending) + 1)
    loop_start = perf_counter()
    for n_queries, user_id in enumerate(run.query_users(data_dir)):
        if n_queries >= MIN_QUERIES and perf_counter() - loop_start >= seconds:
            break
        if pending and n_queries and n_queries % stride == 0:
            meter.sample(REF_BURST)
            start = perf_counter()
            if pending.pop(0) == "train":
                keep("train_s", run.train(data_dir, f"train{len(ops['train_s'])}")[1], start)
            else:
                keep("eval_s", run.evaluate(data_dir, ckpt)[0], start)
            meter.sample(REF_BURST)
        start = perf_counter()
        keep("recommend", run.recommend(data_dir, ckpt, user_id), start)
        meter.sample(REF_PER_QUERY)

    def times(metric, normalised):
        normalised = normalised and metric in hostspeed.NORMALISED
        return sorted(t / meter.factor(a, b) if normalised else t for t, a, b in ops[metric])

    values, wall = {}, {}
    for out, normalised in ((values, True), (wall, False)):
        lat = times("recommend", normalised)
        out.update({
            "setup_s": statistics.median(times("setup_s", normalised)),
            "train_s": statistics.median(times("train_s", normalised)),
            "eval_s": statistics.median(times("eval_s", normalised)),
            "recommend_ms_p50": 1e3 * statistics.median(lat),
            "recommend_ms_p90": 1e3 * percentile(lat, 90),
        })
    values.update({
        "recall_at_10": recall,
        "ndcg_at_10": ndcg,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB -> MiB
    })
    notes = {"recommend_samples": len(ops["recommend"]),
             "setup_samples": len(ops["setup_s"]), "train_samples": len(ops["train_s"]),
             "eval_samples": len(ops["eval_s"]),
             "reference_samples": len(meter.samples), "wall": wall,
             "speed_factor_median": meter.factor(-math.inf, math.inf)}
    return values, END_TO_END, data_dir, notes


def measure_traced(run):
    """Traced run: one untraced train for the overhead, then everything traced.

    ``trace_overhead_frac`` compares two single trains, so it carries their
    run-to-run spread. The notes line also gives the span count of the traced
    train and the measured cost of one span, whose product is the tracing
    cost without that spread.
    """
    import spans
    plain_dir, _ = run.setup("prep-plain")
    _, train_s_untraced = run.train(plain_dir, "train-plain")
    run.recorder = spans.Recorder()
    with spans.installed(run.recorder):
        data_dir, _ = run.setup("prep-traced")
        ckpt, _ = run.train(data_dir, "train-traced")
        run.evaluate(data_dir, ckpt)
        users = run.query_users(data_dir)
        for _ in range(TRACE_QUERIES):
            run.recommend(data_dir, ckpt, next(users))
    metrics = spans.layer_metrics(run.recorder, train_s_untraced)
    values = {name: m["value"] for name, m in metrics.items()}
    train_spans, cost = spans.train_span_count(run.recorder.spans), spans.span_cost()
    notes = {"recommend_samples": TRACE_QUERIES, "train_s_untraced": train_s_untraced,
             "spans": len(run.recorder.spans), "train_spans": train_spans,
             "span_cost_s": cost,
             "trace_overhead_from_span_cost": train_spans * cost / train_s_untraced}
    return values, spans.PER_LAYER, data_dir, notes


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed, shape):
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=False)
    digest = hashlib.sha256()
    for path in sorted((SRC / "pmlam").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed,
        "dataset_shape": "x".join(map(str, shape)),
        "commit": commit.stdout.strip() if commit and commit.returncode == 0 else None,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS, "blas_threads_in_force": blas_threads(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the recommend loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pmlam" / "cli.py").is_file():
        print(f"error: no pmlam sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run = Run(workload, args.seed, work_dir)
    try:
        if args.trace:
            values, names, data_dir, notes = measure_traced(run)
            run.recorder.write_csv(WORK / f"spans-{workload.name}-seed{args.seed}.csv")
        else:
            values, names, data_dir, notes = measure(run, args.seconds)
        stamp = environment(workload, args.seed, oracle.read_shape(data_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"env": stamp, **notes, "failed_ops_frac": run.failed / run.attempted,
                      "failures": run.failures[:20],
                      "format_warnings": run.oracle.warnings if run.oracle else []}))
    print(json.dumps({
        "correct": run.failed == 0 and all(values[n] is not None for n, _ in names),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
