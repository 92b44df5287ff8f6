"""The benchmark's workloads.

Each workload is a seeded planted-cluster dataset (``pmlam.synth``), an
ablation variant given as ``pmlam train`` flags, an epoch count and the
number of ``train`` calls a run times. The dataset seed, the fold-split
and training seed, and the recommend user draws all come from the
benchmark's ``--seed``.

Epoch counts stay below the default ``refresh_period`` (20) so the pool
prefetch thread never starts and the process keeps to one BLAS thread plus
the interpreter.
"""

from dataclasses import dataclass

# The paper's full model (ablation variant 8) and the bypass variant 1.
FULL_MODEL = ("--distance-kind", "w2", "--margin-mode", "adaptive",
              "--relations", "ui,uu,ii")
FIXED_UI = ("--distance-kind", "euclidean", "--margin-mode", "fixed:1.0",
            "--relations", "ui")

SETUP_REPS = 5       # set-ups per run; setup_s is their median
EVAL_REPS = 9        # evaluate calls per run; eval_s is their median
MIN_QUERIES = 100    # recommend_ms_p90 then has at least 10 samples beyond it
TRACE_QUERIES = 20   # fixed, so the traced run's per-call sums repeat


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    items: int
    clusters: int
    p_in: float
    p_out: float
    activity: tuple
    train_flags: tuple
    epochs: int
    train_reps: int       # train calls per run; train_s is their median

    def synth_args(self, seed):
        return dict(n_users=self.users, n_items=self.items,
                    n_clusters=self.clusters, seed=seed, p_in=self.p_in,
                    p_out=self.p_out, activity=self.activity)


WORKLOADS = {w.name: w for w in (
    # MovieLens-100K-sized: 960 x 1680, about 64.7k interactions, no filtering.
    # Per-triplet work dominates: 12 batch_inner calls per step plus the
    # finite-difference hypergradient. An epoch takes about 15 s, so two
    # trains fit a run.
    Workload("ml100k-bilevel", 960, 1680, 8, 0.25, 0.01, (1.0, 1.0),
             FULL_MODEL, epochs=1, train_reps=2),
    # Same data, variant 1: no margin net, proxy, hypergradient, noise or
    # neighbour graph. The no-change control for hypergradient and
    # margin-net work; gather and scatter changes still show. An epoch takes
    # about 1 s, so eight make each train long enough to outlast the host's
    # short swings in speed, and three trains fit a run.
    Workload("ml100k-fixed", 960, 1680, 8, 0.25, 0.01, (1.0, 1.0),
             FIXED_UI, epochs=8, train_reps=3),
)}
