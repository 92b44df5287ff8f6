"""Span recorder for the traced run, attached to ``pmlam`` from outside.

:func:`installed` replaces the public functions of each ``pmlam`` module with
wrappers that record a span (id, parent id, name, start, end) and bump a few
work counters, and puts the originals back on exit. Spans stay in memory
until the run ends. A span's self time is its duration minus the time its
child spans cover. Everything runs on one thread: the benchmark keeps epoch
counts below the pool-prefetch period, so no span overlaps a sibling.

``bilevel`` imports ``batch_inner``, ``batch_outer``, ``zero_theta_grads``
and ``project`` by name, so those are patched on ``pmlam.bilevel``; the
``batch_inner`` call inside ``batch_outer`` goes through the patch on
``pmlam.losses``. Each call passes one wrapper, so nothing counts twice.
"""

import contextlib
import os
import time
from collections import defaultdict

from pmlam import bilevel, checkpoint, data, embeddings, evaluator, losses
from pmlam import margin_net, sampler, simgraph

TRAIN_ROOT = "op.train"

# Per-layer metrics: self times summed over every call in the traced run,
# work counts, and each module's share of the traced ``train`` wall time;
# the ``cli`` share is the train command's time outside every wrapper.
LAYER_SECONDS = (
    "data.ingest", "data.filter_iterative", "data.split_five_fold", "data.save",
    "data.load", "simgraph.build", "sampler.refresh_pool", "sampler.sample_triplets",
    "losses.batch_inner", "losses.batch_outer", "losses.attach_noise",
    "losses.zero_theta_grads", "margin_net.forward", "margin_net.backward",
    "bilevel.darts_hypergradient", "bilevel.build_proxy", "bilevel.theta_step",
    "bilevel.phi_step", "embeddings.project", "evaluator.evaluate",
    "evaluator.pairwise_distances", "evaluator.rank", "checkpoint.save",
    "checkpoint.load",
)
LAYER_COUNTS = (
    "data.pairs_dropped", "simgraph.neighbor_pairs", "sampler.refresh_pool_anchors",
    "sampler.triplets", "losses.batch_inner_calls", "losses.batch_inner_rows",
    "margin_net.rows", "bilevel.steps", "evaluator.users", "checkpoint.bytes",
)
SHARE_MODULES = ("cli", "data", "simgraph", "sampler", "losses", "margin_net",
                 "bilevel", "embeddings", "evaluator", "checkpoint")
# Inclusive shares that match cProfile's cumulative view of the same calls.
SHARE_INCLUSIVE = ("bilevel.darts_hypergradient", "losses.batch_outer",
                   "sampler.refresh_pool")

PER_LAYER = (
    [(f"{name}_s", "s") for name in LAYER_SECONDS]
    + [(name, "count") for name in LAYER_COUNTS]
    + [("losses.active_frac", "ratio"), ("trace_overhead_frac", "ratio")]
    + [(f"train_share.{m}", "ratio") for m in SHARE_MODULES]
    + [(f"train_share.{name}_incl", "ratio") for name in SHARE_INCLUSIVE]
)


class Recorder:
    """Spans as (id, parent id, name, start, end) plus named counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end in sorted(self.spans):
                f.write(f"{sid},{'' if parent is None else parent},{name},"
                        f"{start!r},{end!r}\n")


def _count_inner(c, args, result):
    c["losses.batch_inner_calls"] += 1
    c["losses.batch_inner_rows"] += len(args[0])
    c["losses.active"] += int(result.active.sum())


def _bump(key, amount=lambda args, result: 1):
    def count(c, args, result):
        c[key] += amount(args, result)
    return count


# (owner, attribute, span name, counter)
PATCHES = (
    (data, "ingest", "data.ingest", None),
    (data, "filter_iterative", "data.filter_iterative",
     _bump("data.pairs_dropped", lambda a, r: len(a[0]) - r.n_interactions)),
    (data, "split_five_fold", "data.split_five_fold", None),
    (data, "save_dataset", "data.save", None),
    (data, "save_folds", "data.save", None),
    (data, "load_dataset", "data.load", None),
    (data, "load_folds", "data.load", None),
    (simgraph, "build_or_load", "simgraph.build_or_load", None),
    (simgraph, "build", "simgraph.build",
     _bump("simgraph.neighbor_pairs", lambda a, r: int(r.degree().sum()))),
    (sampler, "refresh_pool", "sampler.refresh_pool",
     _bump("sampler.refresh_pool_anchors", lambda a, r: r.n_anchors)),
    (sampler, "sample_triplets", "sampler.sample_triplets",
     _bump("sampler.triplets", lambda a, r: len(r))),
    (bilevel, "batch_inner", "losses.batch_inner", _count_inner),
    (losses, "batch_inner", "losses.batch_inner", _count_inner),
    (bilevel, "batch_outer", "losses.batch_outer", None),
    (bilevel, "zero_theta_grads", "losses.zero_theta_grads", None),
    (losses.TripletBatch, "attach_noise", "losses.attach_noise", None),
    (margin_net, "forward", "margin_net.forward",
     _bump("margin_net.rows", lambda a, r: len(r[0]))),
    (margin_net, "backward", "margin_net.backward", None),
    (bilevel, "train", "bilevel.train", None),
    (bilevel, "darts_hypergradient", "bilevel.darts_hypergradient", None),
    (bilevel, "build_proxy", "bilevel.build_proxy", None),
    (bilevel, "theta_step", "bilevel.theta_step", _bump("bilevel.steps")),
    (bilevel, "phi_step", "bilevel.phi_step", None),
    (bilevel, "write_trace", "bilevel.write_trace", None),
    (bilevel, "project", "embeddings.project", None),
    (embeddings, "project", "embeddings.project", None),
    (evaluator, "evaluate", "evaluator.evaluate",
     _bump("evaluator.users", lambda a, r: r.n_users)),
    (evaluator, "pairwise_distances", "evaluator.pairwise_distances", None),
    (evaluator, "rank", "evaluator.rank", _bump("evaluator.users")),
    (checkpoint, "save", "checkpoint.save",
     _bump("checkpoint.bytes", lambda a, r: os.path.getsize(a[0]))),
    (checkpoint, "load", "checkpoint.load", None),
)


@contextlib.contextmanager
def installed(recorder):
    """Route the patched ``pmlam`` functions through ``recorder`` while open."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
    try:
        for (owner, attr, original), (_, _, name, count) in zip(saved, PATCHES):
            setattr(owner, attr, recorder.wrap(original, name, count))
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def span_cost(calls=20000):
    """Seconds a wrapper adds to one call, timed on a no-op function."""
    def noop():
        return None
    traced = Recorder().wrap(noop, "noop")
    seconds = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds.append(time.perf_counter() - start)
    return (seconds[1] - seconds[0]) / calls


def train_span_count(spans):
    """Spans recorded inside the traced ``train`` command, itself excluded."""
    (start, end), = [(s, e) for _, _, name, s, e in spans if name == TRAIN_ROOT]
    return sum(start < s and e <= end for *_, s, e in spans)


def self_times(spans):
    """Span id -> duration minus the summed durations of its direct children.

    Spans come from one thread and nest strictly, so children never overlap
    and their summed durations are exactly the time they cover.
    """
    duration = {sid: end - start for sid, _, _, start, end in spans}
    own = dict(duration)
    for sid, parent, *_ in spans:
        if parent is not None:
            own[parent] -= duration[sid]
    return own


def layer_metrics(recorder, train_s_untraced):
    """Every per-layer metric of :data:`PER_LAYER` from a finished traced run."""
    spans = recorder.spans
    own = self_times(spans)
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _, name, *_ in spans}

    def under_train(sid):
        while sid is not None:
            if name_of[sid] == TRAIN_ROOT:
                return True
            sid = parent_of[sid]
        return False

    self_by_name = defaultdict(float)
    for sid, _, name, *_ in spans:
        self_by_name[name] += own[sid]
    values = {f"{name}_s": self_by_name[name] for name in LAYER_SECONDS}
    values.update({name: recorder.counts[name] for name in LAYER_COUNTS})
    rows = recorder.counts["losses.batch_inner_rows"]
    values["losses.active_frac"] = recorder.counts["losses.active"] / rows if rows else 0.0

    roots = [(sid, end - start) for sid, _, name, start, end in spans if name == TRAIN_ROOT]
    (root, train_s), = roots
    values["trace_overhead_frac"] = (train_s - train_s_untraced) / train_s_untraced
    share = defaultdict(float)
    incl = defaultdict(float)
    for sid, _, name, start, end in spans:
        if under_train(sid):
            module = "cli" if sid == root else name.split(".")[0]
            share[module] += own[sid] / train_s
            incl[name] += (end - start) / train_s
    values.update({f"train_share.{m}": share[m] for m in SHARE_MODULES})
    values.update({f"train_share.{name}_incl": incl[name] for name in SHARE_INCLUSIVE})
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
