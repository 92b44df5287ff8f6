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
"""

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

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
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

    def state(self):
        return {"kind": self.kind, "alpha": self.alpha, "t": self.t,
                "slots": {"m": self.m, "v": self.v}}


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


def _tree_scale_diff(plus, minus, scale):
    if isinstance(plus, dict):
        return {k: _tree_scale_diff(plus[k], minus[k], scale) for k in plus}
    return scale * (plus - minus)


def darts_hypergradient(theta, v, alpha, eps_fd, grad_phi_fn):
    """Approximate d(outer)/d(phi) through one inner gradient step.

    ``theta`` and ``v`` are dicts of arrays (v = outer gradient at the
    proxy); ``grad_phi_fn(theta_like)`` must return the margin-net gradient
    of the inner objective, as a possibly nested dict. Estimates
    -alpha * (d^2 inner / d phi d theta) @ v by central differences with
    step eps_fd / ||v||. An array of ``theta`` that ``v`` does not name has
    a zero direction and goes into both probes as it is. Returns None when
    v is zero.
    """
    v_norm = np.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
    if v_norm == 0.0:
        return None
    eps = eps_fd / v_norm
    plus = grad_phi_fn({**theta, **{k: theta[k] + eps * v[k] for k in v}})
    minus = grad_phi_fn({**theta, **{k: theta[k] - eps * v[k] for k in v}})
    return _tree_scale_diff(plus, minus, -alpha / (2.0 * eps))


def phi_step(phis, hypergrads, lam, opt):
    """Add the 2*lam*phi decay term and take one optimizer step on all nets."""
    flat_params, flat_grads = {}, {}
    for rel, net in phis.items():
        hg = hypergrads.get(rel) if hypergrads else None
        for name, arr in net.params().items():
            g = hg[name].copy() if hg is not None else np.zeros_like(arr)
            g += 2.0 * lam * arr
            flat_params[f"{rel}.{name}"] = arr
            flat_grads[f"{rel}.{name}"] = g
    opt.step(flat_params, flat_grads)


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


def _non_finite_dump(where, batches, epoch, it):
    heads = {rel: (b.anchors[:8].tolist(), b.positives[:8].tolist(),
                   b.negatives[:8].tolist())
             for rel, b in batches.items()}
    return (f"non-finite {where} at epoch {epoch} iteration {it}; "
            f"batch heads (anchor/pos/neg): {heads}")


@dataclass(frozen=True)
class Setup:
    """What a run reads and never changes; see :func:`set_up`."""

    cfg: object
    fold: object
    modes: dict        # relation -> "adaptive" or ("fixed", m)
    pairs: dict        # relation -> (anchors, ids) of its training pairs
    exclusions: dict   # relation -> Rows: the ids each anchor's pool leaves out
    universes: dict    # relation -> number of ids its pools draw from
    active_rels: list  # the relations with training pairs, in config order
    adaptive_rels: list


@dataclass
class TrainState:
    """Everything a run changes; ``epoch`` is the next epoch to run."""

    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    phis: dict         # relation -> MarginNetParams, for the adaptive relations
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
    modes = {rel: cfg.margin_mode_for(rel) for rel in cfg.relations}
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

    active_rels = [rel for rel in cfg.relations if len(pairs[rel][0]) > 0]
    if "ui" not in active_rels:
        raise ValueError("no training pairs: every user has an empty training row")
    adaptive_rels = [rel for rel in active_rels if modes[rel] == "adaptive"]
    return Setup(cfg, fold, modes, pairs, exclusions, universes, active_rels, adaptive_rels)


def init_state(ds, setup):
    """The state before epoch 0: seeded tables and margin nets, fresh optimizers."""
    cfg = setup.cfg
    phis = {rel: init_margin_net(cfg.h, cfg.hidden, _stream(cfg.seed, 2, r_i),
                                 mode=cfg.indicator_mode)
            for r_i, rel in enumerate(cfg.relations) if setup.modes[rel] == "adaptive"}
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
                       for rel in setup.active_rels}

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


def _run_steps(setup, state, order):
    """Run the steps of epoch ``state.epoch`` over the ui pairs in ``order``; returns its TraceRow.

    The steps share one :class:`BufferPool` ``ws`` for their row buffers
    and noise. It goes with this frame, so no buffer outlives the steps
    into the evaluation or the next candidate-pool refresh.
    """
    cfg, modes, adaptive_rels = setup.cfg, setup.modes, setup.adaptive_rels
    users, items, phis, epoch = state.users, state.items, state.phis, state.epoch
    kind = cfg.kind()
    ui_anchors, ui_positives = setup.pairs["ui"]
    pairs_per_batch = max(1, cfg.batch_size // cfg.neg_samples)
    ws = BufferPool()
    sums = {"inner": 0.0, "outer": 0.0, "ui": 0.0, "uu": 0.0, "ii": 0.0}
    margin_sum, margin_count, n_iter = 0.0, 0, 0

    for start in range(0, len(order), pairs_per_batch):
        chunk = order[start:start + pairs_per_batch]
        batches = {"ui": sampler.sample_triplets(
            "ui", ui_anchors[chunk], ui_positives[chunk], state.pools["ui"],
            cfg.neg_samples, state.rng_sampler)}
        batches.update((rel, _draw(setup, state, rel, len(chunk)))
                       for rel in setup.active_rels if rel != "ui")
        for rel, b in batches.items():
            if modes[rel] == "adaptive" and kind is DistanceKind.W2_SQUARED:
                b.attach_noise(cfg.h, state.rng_noise, ws)

        # inner objective at the current tables
        grads = zero_theta_grads(users, items, kind)
        inner_total = 0.0
        joint = {}  # joint training: each adaptive net follows its inner gradient
        for rel, b in batches.items():
            ev = batch_inner(b, users, items, kind, modes[rel],
                             phi=phis.get(rel), indicator_mode=cfg.indicator_mode,
                             grad_theta=True, out_grads=grads,
                             grad_phi=cfg.joint_margin_training and rel in phis, ws=ws)
            if ev.phi_grads is not None:
                joint[rel] = ev.phi_grads
            inner_total += ev.loss
            sums[rel] += ev.loss
            if modes[rel] == "adaptive":
                margin_sum += float(np.sum(ev.margins))
                margin_count += len(ev.margins)
            if not np.isfinite(ev.loss):
                raise NumericFailure(_non_finite_dump("loss", batches, epoch, n_iter))
        if any(not np.all(np.isfinite(g)) for g in grads.values()):
            raise NumericFailure(_non_finite_dump("gradient", batches, epoch, n_iter))
        sums["inner"] += inner_total

        # margin-net update, computed from the pre-update tables
        hyper = None
        outer_total = 0.0
        if adaptive_rels and cfg.joint_margin_training:
            hyper = joint
        elif adaptive_rels:
            proxy_users, proxy_items = build_proxy(users, items, grads, cfg.alpha)
            if cfg.outer_batch == "fresh":
                outer_batches = {rel: _draw(setup, state, rel, len(chunk))
                                 for rel in setup.active_rels}
            else:
                outer_batches = batches
            v = zero_theta_grads(users, items, kind)
            for rel, b in outer_batches.items():
                ov = batch_outer(b, proxy_users, proxy_items, kind,
                                 m=1.0, grad_theta=True, out_grads=v, ws=ws)
                outer_total += ov.loss
            sums["outer"] += outer_total

            def _grad_phi(theta_arrays):
                t_users = GaussianEmbeddingTable(theta_arrays["user_mu"],
                                                 theta_arrays["user_sigma"])
                t_items = GaussianEmbeddingTable(theta_arrays["item_mu"],
                                                 theta_arrays["item_sigma"])
                out = {}
                for rel in adaptive_rels:
                    ev = batch_inner(batches[rel], t_users, t_items, kind,
                                     "adaptive", phi=phis[rel],
                                     indicator_mode=cfg.indicator_mode,
                                     grad_phi=True, ws=ws)
                    out[rel] = ev.phi_grads
                return out

            hyper = darts_hypergradient(theta_dict(users, items), v,
                                        cfg.alpha, cfg.eps_fd, _grad_phi)

        theta_step(users, items, grads, state.opt_theta)
        if adaptive_rels:
            lam = 0.0 if cfg.joint_margin_training else cfg.lam
            phi_step(phis, hyper, lam, state.opt_phi)
        n_iter += 1

    mean_margin = (margin_sum / margin_count if margin_count
                   else _fixed_margin_mean(modes, setup.active_rels))
    return TraceRow(epoch, *(total / n_iter for total in sums.values()), mean_margin)


def _fixed_margin_mean(modes, active_rels):
    ms = [modes[rel][1] for rel in active_rels if modes[rel] != "adaptive"]
    return float(np.mean(ms)) if ms else 0.0
