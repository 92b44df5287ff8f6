"""Alternating bilevel training.

Every mini-batch performs, in order: one optimizer step on the embedding
tables against the inner (adaptive-margin) objective, construction of proxy
parameters via a plain gradient step from the pre-update tables, and one
optimizer step on the margin nets against the outer (fixed-margin) objective
evaluated at the proxy. The margin-net gradient is the approximate
hypergradient: the outer gradient at the proxy, pushed through the inner
objective's mixed second derivative, which is estimated by central finite
differences of the exact first-order margin-net gradient (the DARTS scheme).

The probes are not a stand-in for an exact product: margins reach the inner
loss only through hinges, so the exact mixed derivative (hinge mask fixed) is
0 when no inner hinge is active, as in criterion 4's set-up at epoch 40,
where the probes still give 9.5e-3 on ``b2``. The +-eps probes push hinges
across the kink, so ``eps_fd`` is a smoothing width. Training with the exact
product left every margin at ln 2 and failed criteria 7 (twin) and 8.

Candidate pools are derived state: epoch e's pools are drawn from a stream
seeded by the seed and e's last refresh epoch, e - e % refresh_period, so a
state copied without them rebuilds the same pools and runs on unchanged.

Each step draws one step ahead. Once it has drawn its own triplets (the uu
and ii batches, then the outer batches under ``outer_batch=fresh``) it draws
the next step's ui triplets; then it queues the noise of its uu and ii
batches and then of the next step's ui batch. So the ui noise a step reads
was drawn during the step before, into the one of two pool buffers that is
that step's by parity. Both generators give their numbers in the order of a
step that draws all it reads at its start, and the last step of an epoch
draws nothing for a step after it, so every state an epoch leaves, the
generators' included, is that order's.

The steps of an epoch may use one worker thread, beside the calling one. It
runs the noise queue, and the calling thread waits for a relation's noise
just before that relation's inner pass. In the hypergradient it runs the +
probe, in a buffer pool of its own (:func:`_run_steps` says which buffers
it borrows), while the calling thread runs the - probe. numpy's sampler, its ufuncs and BLAS release the interpreter lock, so
the two overlap. Without the worker the queue runs inline, on the same path.
The bits cannot move: each pass computes what it computes on one thread,
from inputs no other thread writes while it runs; the one worker runs its
queue in order, so the noise generator gives its numbers in the serial
order; and the step waits for both before anything reads them. The worker
runs only where it was measured to pay (:func:`_worker_pays`): large enough
batches, two cores or more, and an OpenBLAS whose thread count the steps can
lower to leave the worker a core (:func:`_step_worker`).
"""

import contextvars
import ctypes
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import evaluator, sampler, simgraph
from .buffers import BufferPool
from .data import Rows, atomic_write
from .distance import DistanceKind
from .embeddings import GaussianEmbeddingTable, init_table, project
from .losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from .margin_net import init_margin_net

OUTER_BATCHES = ("same", "fresh")  # the outer pass reuses the inner batch or draws its own
# Row-array size, batch rows x h, from which the steps use the worker thread. A
# hand-off costs about 0.2 ms, and below a few thousand elements numpy holds the
# GIL through most of a pass, so smaller steps run faster on one thread.
WORKER_MIN_ELEMENTS = 1 << 13
# Thread-count (getter, setter) pairs of OpenBLAS builds: numpy's wheels, and plain
# 64- and 32-bit ints.
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"))


class NumericFailure(RuntimeError):
    """Non-finite loss or gradient; message carries a dump of the batches."""


# ---------------------------------------------------------------------------
# Adam over dicts of named arrays


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over dicts of named arrays.

    The moments of every array in ``params`` are allocated once, as zeros,
    on the first step that sees it, in ``params``' order. A step updates
    only the arrays named in ``grads``; the others keep zero moments and
    their values, which is what a zero gradient would give them. The update
    is written through two scratch buffers the optimizer keeps, in the
    operation order of ``m_hat = m / (1 - b1^t)``, ``v_hat = v / (1 - b2^t)``,
    ``p -= alpha * m_hat / (sqrt(v_hat) + eps)``.
    """

    kind = "adam"

    def __init__(self, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
        self.alpha = alpha
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = 0
        self._scratch = BufferPool()

    def allocate(self, params):
        """Give each array of ``params`` that has none zero moments, in ``params``' order."""
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.allocate(params)
        for name, g in grads.items():
            m, v = self.m[name], self.v[name]
            step = self._scratch.get("step", g.shape)
            root = self._scratch.get("root", g.shape)
            m *= b1
            m += np.multiply(1 - b1, g, out=step)
            v *= b2
            np.multiply(1 - b2, g, out=step)
            step *= g
            v += step
            np.divide(v, 1 - b2 ** self.t, out=root)
            np.sqrt(root, out=root)
            root += self.eps
            np.divide(m, 1 - b1 ** self.t, out=step)
            np.multiply(self.alpha, step, out=step)
            step /= root
            params[name] -= step


# ---------------------------------------------------------------------------
# theta updates, proxy, hypergradient


def theta_dict(users, items):
    return {"user_mu": users.mu, "user_sigma": users.sigma,
            "item_mu": items.mu, "item_sigma": items.sigma}


def theta_step(users, items, grads, opt):
    """One optimizer step on the tables named in ``grads``, then their projection.

    ``grads`` comes from :func:`~pmlam.losses.zero_theta_grads`, so it names
    the tables the run's distance reads: a Euclidean run's variance tables
    are neither stepped nor projected.
    """
    opt.step(theta_dict(users, items), grads)
    with_sigma = "user_sigma" in grads
    project(users, sigma=with_sigma)
    project(items, sigma=with_sigma)


def build_proxy(users, items, grads, alpha):
    """Proxy tables: a plain gradient step from the current tables.

    A plain step with the inner learning rate, not an Adam step, and never
    projected. The inputs are left untouched. Variances with no entry in
    ``grads`` (a Euclidean run's) are shared with the proxy, not copied.
    """
    def stepped(table, key):
        g_sigma = grads.get(f"{key}_sigma")
        return GaussianEmbeddingTable(
            table.mu - alpha * grads[f"{key}_mu"],
            table.sigma if g_sigma is None else table.sigma - alpha * g_sigma)

    return stepped(users, "user"), stepped(items, "item")


def _queue(worker, fn, *args, **kwargs):
    """The future of ``fn(*args, **kwargs)``, queued on ``worker`` or, without one, run here.

    A queued call runs in a copy of this thread's context (numpy's errstate).
    """
    if worker is not None:
        return worker.submit(contextvars.copy_context().run, fn, *args, **kwargs)
    done = Future()
    done.set_result(fn(*args, **kwargs))
    return done


def darts_hypergradient(theta, v, alpha, eps_fd, grad_phi_fn, worker=None, out=None):
    """Approximate d(outer)/d(phi) through one inner gradient step.

    ``theta`` and ``v`` are dicts of arrays (v = outer gradient at the
    proxy); ``grad_phi_fn(theta_like)`` must return the margin-net gradient
    of the inner objective, as a flat dict of arrays (training passes
    :func:`phi_params`' ``<relation>.<name>`` map). Estimates
    -alpha * (d^2 inner / d phi d theta) @ v by central differences with
    step eps_fd / ||v||. An array of ``theta`` that ``v`` does not name has
    a zero direction and goes into both probes as it is. Returns None when
    v is zero.

    The probes' arrays of the keys ``v`` names, ``theta + (eps * v)`` and
    ``theta - (eps * v)``, are new unless ``out``, a pair of dicts with
    those keys, is given to write them into. The second dict may be ``v``
    itself, which is then consumed: ``eps * v`` is written over it, and
    then the - probe's arrays. Training passes the proxy tables, which are
    dead once the outer passes have read them, and ``v``. A key ``v`` does
    not name is never written.

    With ``worker``, an executor, the + probe runs there as
    ``grad_phi_fn(theta_plus, plus=True)`` while this thread runs the - probe;
    ``grad_phi_fn`` must then give the + probe buffers of its own. Each probe
    computes what it computes without the worker, so the result is the same.
    The + probe runs in a copy of the caller's context, so numpy's
    ``errstate`` there holds for both probes.
    """
    v_norm = np.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
    if v_norm == 0.0:
        return None
    eps = eps_fd / v_norm
    plus_out, minus_out = out or ({}, {})
    steps = {k: np.multiply(eps, v[k], out=minus_out.get(k)) for k in v}
    theta_plus = {**theta, **{k: np.add(theta[k], steps[k], out=plus_out.get(k)) for k in v}}
    if worker is None:
        plus = grad_phi_fn(theta_plus)
    else:
        pending = _queue(worker, grad_phi_fn, theta_plus, plus=True)
    minus = grad_phi_fn({**theta, **{k: np.subtract(theta[k], steps[k], out=steps[k])
                                     for k in v}})
    if worker is not None:
        plus = pending.result()
    scale = -alpha / (2.0 * eps)
    return {k: scale * (plus[k] - minus[k]) for k in plus}


def phi_params(by_relation):
    """Relation -> {name: array} as one dict keyed ``<relation>.<name>``, the phi optimizer's keys."""
    return {f"{rel}.{name}": arr for rel, arrays in by_relation.items()
            for name, arr in arrays.items()}


def phi_step(phis, hypergrads, lam, opt):
    """Add the 2*lam*phi decay term and take one optimizer step on all nets.

    ``hypergrads`` is keyed as :func:`phi_params` keys it, or None when there is none.
    """
    params = phi_params({rel: net.params() for rel, net in phis.items()})
    hyper = hypergrads or {}
    grads = {}
    for key, arr in params.items():
        grads[key] = hyper[key].copy() if key in hyper else np.zeros_like(arr)
        grads[key] += 2.0 * lam * arr
    opt.step(params, grads)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TraceRow:
    epoch: int
    inner: float
    outer: float
    ui: float
    uu: float
    ii: float
    mean_margin: float

    def csv(self):
        return (f"{self.epoch},{self.inner!r},{self.outer!r},{self.ui!r},"
                f"{self.uu!r},{self.ii!r},{self.mean_margin!r}")


def write_trace(path, rows, header_lines=()):
    def body(f):
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("epoch,inner,outer,ui,uu,ii,mean_margin\n")
        for r in rows:
            f.write(r.csv() + "\n")

    atomic_write(path, body)


def _stream(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _check_finite(where, arrays, batches, epoch, it):
    """Raise NumericFailure, with the heads of ``batches``, if an array is not all finite."""
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    heads = {rel: (b.anchors[:8].tolist(), b.positives[:8].tolist(),
                   b.negatives[:8].tolist())
             for rel, b in batches.items()}
    raise NumericFailure(f"non-finite {where} at epoch {epoch} iteration {it}; "
                         f"batch heads (anchor/pos/neg): {heads}")


@dataclass(frozen=True)
class Setup:
    """What a run reads and never changes; see :func:`set_up`."""

    cfg: object
    fold: object
    margins: dict      # relation -> fixed margin, or None when adaptive, for each
                       # relation with training pairs, in config order
    pairs: dict        # relation -> (anchors, ids) of its training pairs
    exclusions: dict   # relation -> Rows: the ids each anchor's pool leaves out
    universes: dict    # relation -> number of ids its pools draw from


@dataclass
class TrainState:
    """Everything a run changes; ``epoch`` is the next epoch to run."""

    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    phis: dict         # relation -> MarginNetParams, for the adaptive relations that train
    cfg: object
    opt_theta: Adam
    opt_phi: Adam
    rng_sampler: np.random.Generator
    rng_noise: np.random.Generator
    epoch: int = 0
    trace: list = field(default_factory=list)
    evals: list = field(default_factory=list)  # (epoch, EvalReport)
    pools: dict = None  # the last refresh's, or None: run_epoch rebuilds them

    @property
    def rng_states(self):
        return {"sampler": self.rng_sampler.bit_generator.state,
                "noise": self.rng_noise.bit_generator.state}


def train(ds, fold, cfg, log=None):
    """Run the alternating procedure on one fold; returns the final :class:`TrainState`.

    ``ds`` supplies entity counts; ``fold`` the per-user train/test item
    sets. Deterministic for a fixed config seed.
    """
    say = log if log is not None else (lambda msg: None)
    setup = set_up(ds, fold, cfg, say)
    state = init_state(ds, setup)
    for _ in range(state.epoch, cfg.epochs):
        run_epoch(setup, state, say)
    return state


def set_up(ds, fold, cfg, say):
    """The :class:`Setup` of a run; neighbor sets are built from the training rows."""
    cfg.validate()
    # pair lists and pool exclusions per relation
    pairs = {"ui": fold.train_rows.pairs()}
    exclusions = {"ui": fold.train_rows}
    universes = {"ui": ds.n_items}
    for rel in ("uu", "ii"):
        if rel not in cfg.relations:
            continue
        if rel == "uu":
            rows, n_cols = fold.train_rows, ds.n_items
        else:  # the transpose, built only when ii is trained
            rows, n_cols = Rows.from_pairs(*pairs["ui"][::-1], ds.n_items), ds.n_users
        nbr = simgraph.build(rows, n_cols, cfg.sim_threshold).neighbors
        anchors, ids = pairs[rel] = nbr.pairs()
        own = np.arange(len(rows))  # each pool leaves out self and neighbors
        exclusions[rel] = Rows.from_pairs(np.concatenate([anchors, own]),
                                          np.concatenate([ids, own]), len(rows))
        universes[rel] = len(rows)
        say(f"{rel}: {len(anchors)} pairs, median degree {int(np.median(nbr.lens()))}")

    if len(pairs["ui"][0]) == 0:
        raise ValueError("no training pairs: every user has an empty training row")
    margins = {rel: cfg.margin_mode_for(rel) for rel in cfg.relations if len(pairs[rel][0])}
    return Setup(cfg, fold, margins, pairs, exclusions, universes)


def init_state(ds, setup):
    """The state before epoch 0: seeded tables and margin nets, fresh optimizers.

    A net is built for each adaptive relation that trains, seeded from the
    relation's place in ``cfg.relations``.
    """
    cfg = setup.cfg
    phis = {rel: init_margin_net(cfg.h, cfg.hidden,
                                 _stream(cfg.seed, 2, cfg.relations.index(rel)),
                                 mode=cfg.indicator_mode)
            for rel, margin in setup.margins.items() if margin is None}
    return TrainState(
        users=init_table(ds.n_users, cfg.h, np.random.SeedSequence([cfg.seed, 0])),
        items=init_table(ds.n_items, cfg.h, np.random.SeedSequence([cfg.seed, 1])),
        phis=phis, cfg=cfg, opt_theta=Adam(cfg.alpha), opt_phi=Adam(cfg.alpha),
        rng_sampler=_stream(cfg.seed, 3), rng_noise=_stream(cfg.seed, 4))


def run_epoch(setup, state, say):
    """Run epoch ``state.epoch``: the pool refresh when due, the steps, the evaluation when due."""
    cfg, epoch = setup.cfg, state.epoch
    if epoch % cfg.refresh_period == 0 or state.pools is None:
        rng_pool = _stream(cfg.seed, 5, epoch - epoch % cfg.refresh_period)
        state.pools = {rel: sampler.refresh_pool(setup.exclusions[rel], setup.universes[rel],
                                                 cfg.pool_size, rng_pool)
                       for rel in setup.margins}

    order = state.rng_sampler.permutation(len(setup.pairs["ui"][0]))
    state.trace.append(_run_steps(setup, state, order))
    state.epoch += 1

    if len(setup.fold.test_rows.indices) > 0 and (
            (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1):
        report = evaluator.evaluate(state.users, state.items, setup.fold, cfg.ks, cfg.kind())
        state.evals.append((epoch, report))
        k_watch = 10 if 10 in report.ks else report.ks[0]
        say(f"epoch {epoch}: inner={state.trace[-1].inner:.4f} "
            f"R@{k_watch}={report.recall[k_watch]:.4f}")


def _draw(setup, state, rel, size):
    """Triplets of ``size`` pairs of ``rel`` drawn uniformly with replacement."""
    a, p = setup.pairs[rel]
    pick = state.rng_sampler.integers(0, len(a), size=size)
    return sampler.sample_triplets(rel, a[pick], p[pick], state.pools[rel],
                                   setup.cfg.neg_samples, state.rng_sampler)


def _openblas_thread_calls():
    """The loaded OpenBLAS's thread-count (getter, setter), or None where it cannot be asked.

    The library is found by name among this process's mappings, so this is
    None off Linux and with another BLAS.
    """
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for get_name, set_name in OPENBLAS_THREAD_CALLS:
            getter, setter = getattr(dll, get_name, None), getattr(dll, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def _blas_threads():
    """Threads the loaded OpenBLAS runs a call on, or None where the count cannot be read and set."""
    calls = _openblas_thread_calls()
    return None if calls is None else calls[0]()


def _worker_pays(batch_rows, h):
    """Whether the steps use a worker thread.

    Only for (B, h) row arrays of :data:`WORKER_MIN_ELEMENTS` or more, on
    two cores or more, and with an OpenBLAS whose thread count can be read
    and set: beside BLAS threads on every core, the worker slowed every step
    measured on two cores, so :func:`_step_worker` has BLAS leave it a core.
    The choice moves no bit.
    """
    if batch_rows * h < WORKER_MIN_ELEMENTS:
        return False
    return len(os.sched_getaffinity(0)) >= 2 and _blas_threads() is not None


@contextmanager
def _step_worker(threaded):
    """The steps' worker thread, or None when not ``threaded``.

    While it lives, OpenBLAS runs at most one thread fewer than the process
    has cores; a lower count, such as one set by ``OPENBLAS_NUM_THREADS``,
    is kept. The old count comes back after the worker is joined, whether
    the steps end or raise, so the evaluation and the other commands run on
    the library's count.
    """
    if not threaded:
        yield None
        return
    calls = _openblas_thread_calls()
    if calls is not None:
        get, set_threads = calls
        before = get()
        set_threads(max(1, min(before, len(os.sched_getaffinity(0)) - 1)))
    try:
        with ThreadPoolExecutor(max_workers=1) as worker:
            yield worker
    finally:
        if calls is not None:
            set_threads(before)


def _run_steps(setup, state, order):
    """Run the steps of epoch ``state.epoch`` over the ui pairs in ``order``; returns its TraceRow.

    The steps share one :class:`BufferPool` ``ws`` for their row buffers
    and noise, and a second, ``probe_ws``, for the hypergradient's + probe.
    That pool keeps its own ``mu``, ``rt`` and roots; ``ws`` lends it its
    ``drt`` and ``d_sigma_a`` for the probe's ``dmu`` and ``da1``. Only the
    inner and outer passes, which take table gradients, use those two, and
    none runs from a step's last outer pass until its hypergradient has
    returned, the + probe with it. A Euclidean run has neither, so its +
    probe makes its own. The probes' tables are written over the proxy
    tables and the outer gradient ``v``, which the step then lets go.
    Both pools go with this frame, so no buffer outlives the steps into the
    evaluation or the next candidate-pool refresh. So does the one worker
    thread, which is joined when the steps end or raise; it is started only
    where it pays (:func:`_worker_pays`). Each step draws the next step's ui
    triplets and queues their noise (see the module docstring).
    """
    cfg = setup.cfg
    users, items, phis, epoch = state.users, state.items, state.phis, state.epoch
    margins = {**setup.margins, **phis}  # relation -> net or number
    kind = cfg.kind()
    noisy_rels = phis if kind is DistanceKind.W2_SQUARED else ()
    fresh_outer = bool(phis) and not cfg.joint_margin_training and cfg.outer_batch == "fresh"
    ui_anchors, ui_positives = setup.pairs["ui"]
    pairs_per_batch = max(1, cfg.batch_size // cfg.neg_samples)
    threaded = bool(phis) and _worker_pays(
        min(pairs_per_batch, len(order)) * cfg.neg_samples, cfg.h)
    ws, probe_ws = BufferPool(), BufferPool()
    sums = {"inner": 0.0, "outer": 0.0, "ui": 0.0, "uu": 0.0, "ii": 0.0}
    margin_sum, margin_count, n_iter = 0.0, 0, 0

    def ui_batch(start):
        chunk = order[start:start + pairs_per_batch]
        return sampler.sample_triplets("ui", ui_anchors[chunk], ui_positives[chunk],
                                       state.pools["ui"], cfg.neg_samples, state.rng_sampler)

    with _step_worker(threaded) as worker:
        def queue_noise(noise, batch, turn=0):
            """Queue ``batch``'s noise into its ``turn`` buffer, its future into ``noise``."""
            if batch.relation in noisy_rels:
                noise[batch.relation] = _queue(worker, batch.attach_noise, cfg.h, state.rng_noise,
                                               out=batch.noise_buffer(ws, cfg.h, turn))

        next_ui, next_noise = ui_batch(0), {}
        queue_noise(next_noise, next_ui)
        for start in range(0, len(order), pairs_per_batch):
            n_pairs = min(pairs_per_batch, len(order) - start)
            batches, noise = {"ui": next_ui}, next_noise
            for rel in setup.margins:
                if rel != "ui":
                    batches[rel] = _draw(setup, state, rel, n_pairs)
                    queue_noise(noise, batches[rel])
            outer_batches = ({rel: _draw(setup, state, rel, n_pairs) for rel in setup.margins}
                             if fresh_outer else batches)
            if start + pairs_per_batch < len(order):  # the last step draws nothing ahead
                next_ui, next_noise = ui_batch(start + pairs_per_batch), {}
                queue_noise(next_noise, next_ui, turn=(n_iter + 1) % 2)

            # inner objective at the current tables
            grads = zero_theta_grads(users, items, kind)
            inner_total = 0.0
            joint = {}  # joint training: each adaptive net follows its inner gradient
            for rel, b in batches.items():
                if rel in noise:
                    noise.pop(rel).result()
                ev = batch_inner(b, users, items, kind, margins[rel], grads=grads,
                                 grad_phi=cfg.joint_margin_training, ws=ws)
                if ev.phi_grads is not None:
                    joint[rel] = ev.phi_grads
                inner_total += ev.loss
                sums[rel] += ev.loss
                if rel in phis:
                    margin_sum += float(np.sum(ev.margins))
                    margin_count += len(ev.margins)
                _check_finite("loss", [ev.loss], batches, epoch, n_iter)
            _check_finite("gradient", grads.values(), batches, epoch, n_iter)
            sums["inner"] += inner_total

            # margin-net update, computed from the pre-update tables
            hyper = None
            outer_total = 0.0
            if phis and cfg.joint_margin_training:
                hyper = phi_params(joint)
            elif phis:
                proxy_users, proxy_items = build_proxy(users, items, grads, cfg.alpha)
                v = zero_theta_grads(users, items, kind)
                for rel, b in outer_batches.items():
                    outer_total += batch_outer(b, proxy_users, proxy_items, kind, grads=v,
                                               ws=ws).loss
                sums["outer"] += outer_total

                def _grad_phi(theta_arrays, plus=False):
                    t_users, t_items = (GaussianEmbeddingTable(theta_arrays[f"{key}_mu"],
                                                               theta_arrays[f"{key}_sigma"])
                                        for key in ("user", "item"))
                    pool = probe_ws if plus else ws
                    return phi_params({rel: batch_inner(batches[rel], t_users, t_items, kind,
                                                        phis[rel], grad_phi=True, ws=pool).phi_grads
                                       for rel in phis})

                # the + probe's difference and hidden-gradient rows go over the step
                # pool's variance-gradient rows, which only inner and outer passes use
                ws.lend(probe_ws, {"dmu": "drt", "da1": "d_sigma_a"})
                hyper = darts_hypergradient(theta_dict(users, items), v, cfg.alpha,
                                            cfg.eps_fd, _grad_phi, worker,
                                            out=(theta_dict(proxy_users, proxy_items), v))
                del proxy_users, proxy_items, v

            _check_finite(
                "joint margin gradient" if cfg.joint_margin_training else "hypergradient",
                (hyper or {}).values(),
                batches, epoch, n_iter)

            theta_step(users, items, grads, state.opt_theta)
            if phis:
                lam = 0.0 if cfg.joint_margin_training else cfg.lam
                phi_step(phis, hyper, lam, state.opt_phi)
            n_iter += 1

    # with no net that trains, every margin is a number
    mean_margin = (margin_sum / margin_count if margin_count
                   else float(np.mean(list(setup.margins.values()))))
    return TraceRow(epoch, *(total / n_iter for total in sums.values()), mean_margin)
