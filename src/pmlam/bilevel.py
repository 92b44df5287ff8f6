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

Candidate pools are rebuilt synchronously at the start of every
``refresh_period``-th epoch from a stream seeded by (seed, epoch), so a
run's pools depend only on its config.
"""

from dataclasses import dataclass, field

import numpy as np

from . import evaluator, sampler, simgraph
from .data import Rows
from .embeddings import GaussianEmbeddingTable, init_table, project
from .losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from .margin_net import init_margin_net

OUTER_BATCHES = ("same", "fresh")  # the outer pass reuses the inner batch or draws its own


class NumericFailure(RuntimeError):
    """Non-finite loss or gradient; message carries a dump of the batches."""


# ---------------------------------------------------------------------------
# Adam over dicts of named arrays


class Adam:
    kind = "adam"

    def __init__(self, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
        self.alpha = alpha
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] -= self.alpha * m_hat / (np.sqrt(v_hat) + self.eps)

    def state(self):
        return {"kind": self.kind, "alpha": self.alpha, "t": self.t,
                "slots": {"m": self.m, "v": self.v}}


# ---------------------------------------------------------------------------
# theta updates, proxy, hypergradient


def theta_dict(users, items):
    return {"user_mu": users.mu, "user_sigma": users.sigma,
            "item_mu": items.mu, "item_sigma": items.sigma}


def theta_step(users, items, grads, opt):
    """One optimizer step on the embedding tables, then projection."""
    opt.step(theta_dict(users, items), grads)
    project(users)
    project(items)


def build_proxy(users, items, grads, alpha):
    """Proxy tables: a plain gradient step from the current tables.

    A plain step with the inner learning rate, not an Adam step, and never
    projected. The inputs are left untouched.
    """
    proxy_users = GaussianEmbeddingTable(users.mu - alpha * grads["user_mu"],
                                         users.sigma - alpha * grads["user_sigma"])
    proxy_items = GaussianEmbeddingTable(items.mu - alpha * grads["item_mu"],
                                         items.sigma - alpha * grads["item_sigma"])
    return proxy_users, proxy_items


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
    step eps_fd / ||v||. Returns None when v is zero.
    """
    v_norm = np.sqrt(sum(float(np.sum(a * a)) for a in v.values()))
    if v_norm == 0.0:
        return None
    eps = eps_fd / v_norm
    plus = grad_phi_fn({k: theta[k] + eps * v[k] for k in theta})
    minus = grad_phi_fn({k: theta[k] - eps * v[k] for k in theta})
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


@dataclass
class TrainResult:
    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    phis: dict
    cfg: object
    trace: list = field(default_factory=list)
    evals: list = field(default_factory=list)  # (epoch, EvalReport)
    opt_theta: object = None
    opt_phi: object = None
    rng_states: dict = field(default_factory=dict)


def write_trace(path, rows, header_lines=()):
    with open(path, "w") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        f.write("epoch,inner,outer,ui,uu,ii,mean_margin\n")
        for r in rows:
            f.write(r.csv() + "\n")


def _stream(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _non_finite_dump(where, batches, epoch, it):
    heads = {rel: (b.anchors[:8].tolist(), b.positives[:8].tolist(),
                   b.negatives[:8].tolist())
             for rel, b in batches.items()}
    return (f"non-finite {where} at epoch {epoch} iteration {it}; "
            f"batch heads (anchor/pos/neg): {heads}")


def train(ds, fold, cfg, log=None):
    """Run the alternating procedure on one fold; returns a TrainResult.

    ``ds`` supplies entity counts; ``fold`` the per-user train/test item
    sets. Neighbor sets for the same-entity relations are built from the
    training rows. Deterministic for a fixed config seed.
    """
    cfg.validate()
    kind = cfg.kind()
    say = log if log is not None else (lambda msg: None)

    users = init_table(ds.n_users, cfg.h, np.random.SeedSequence([cfg.seed, 0]))
    items = init_table(ds.n_items, cfg.h, np.random.SeedSequence([cfg.seed, 1]))

    modes = {rel: cfg.margin_mode_for(rel) for rel in cfg.relations}
    phis = {}
    for r_i, rel in enumerate(cfg.relations):
        if modes[rel] == "adaptive":
            phis[rel] = init_margin_net(cfg.h, cfg.hidden, _stream(cfg.seed, 2, r_i),
                                        mode=cfg.indicator_mode)

    opt_theta = Adam(cfg.alpha)
    opt_phi = Adam(cfg.alpha)
    rng_sampler = _stream(cfg.seed, 3)
    rng_noise = _stream(cfg.seed, 4)

    # pair lists and pool exclusions per relation
    pairs = {"ui": fold.train_rows.pairs()}
    exclusions = {"ui": fold.train_rows}
    universes = {"ui": ds.n_items}
    if any(rel in cfg.relations for rel in ("uu", "ii")):
        neighbors = {}
        if "uu" in cfg.relations:
            neighbors["uu"] = simgraph.build(fold.train_rows, ds.n_items,
                                             cfg.sim_threshold)
        if "ii" in cfg.relations:
            item_rows = Rows.from_pairs(*pairs["ui"][::-1], ds.n_items)  # the transpose
            neighbors["ii"] = simgraph.build(item_rows, ds.n_users, cfg.sim_threshold)
        for rel, n_entities in (("uu", ds.n_users), ("ii", ds.n_items)):
            if rel in cfg.relations:
                nbr = neighbors[rel].neighbors
                anchors, ids = pairs[rel] = nbr.pairs()
                own = np.arange(n_entities)  # each pool leaves out self and neighbors
                exclusions[rel] = Rows.from_pairs(np.concatenate([anchors, own]),
                                                  np.concatenate([ids, own]), n_entities)
                universes[rel] = n_entities
                say(f"{rel}: {len(pairs[rel][0])} pairs, "
                    f"median degree {int(np.median(nbr.lens()))}")

    active_rels = [rel for rel in cfg.relations if len(pairs[rel][0]) > 0]
    if "ui" not in active_rels:
        raise ValueError("no training pairs: every user has an empty training row")
    adaptive_rels = [rel for rel in active_rels if modes[rel] == "adaptive"]

    ui_anchors, ui_positives = pairs["ui"]
    pairs_per_batch = max(1, cfg.batch_size // cfg.neg_samples)
    need_noise = kind.name == "W2_SQUARED"

    result = TrainResult(users=users, items=items, phis=phis, cfg=cfg,
                         opt_theta=opt_theta, opt_phi=opt_phi)
    has_test = len(fold.test_rows.indices) > 0

    def draw(rel, size):
        """Triplets of ``size`` pairs of ``rel`` drawn uniformly with replacement."""
        a, p = pairs[rel]
        pick = rng_sampler.integers(0, len(a), size=size)
        return sampler.sample_triplets(rel, a[pick], p[pick], pools[rel],
                                       cfg.neg_samples, rng_sampler)

    for epoch in range(cfg.epochs):
        if epoch % cfg.refresh_period == 0:
            rng_pool = _stream(cfg.seed, 5, epoch)
            pools = {rel: sampler.refresh_pool(exclusions[rel], universes[rel],
                                               cfg.pool_size, rng_pool)
                     for rel in active_rels}

        order = rng_sampler.permutation(len(ui_anchors))
        sums = {"inner": 0.0, "outer": 0.0, "ui": 0.0, "uu": 0.0, "ii": 0.0}
        margin_sum, margin_count, n_iter = 0.0, 0, 0

        for start in range(0, len(order), pairs_per_batch):
            chunk = order[start:start + pairs_per_batch]
            batches = {"ui": sampler.sample_triplets(
                "ui", ui_anchors[chunk], ui_positives[chunk], pools["ui"],
                cfg.neg_samples, rng_sampler)}
            batches.update((rel, draw(rel, len(chunk)))
                           for rel in active_rels if rel != "ui")
            for rel, b in batches.items():
                if modes[rel] == "adaptive" and need_noise:
                    b.attach_noise(cfg.h, rng_noise)

            # inner objective at the current tables
            grads = zero_theta_grads(users, items)
            inner_total = 0.0
            joint = {}  # joint training: each adaptive net follows its inner gradient
            for rel, b in batches.items():
                ev = batch_inner(b, users, items, kind, modes[rel],
                                 phi=phis.get(rel), indicator_mode=cfg.indicator_mode,
                                 grad_theta=True, out_grads=grads,
                                 grad_phi=cfg.joint_margin_training and rel in phis)
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
                    outer_batches = {rel: draw(rel, len(chunk)) for rel in active_rels}
                else:
                    outer_batches = batches
                v = zero_theta_grads(users, items)
                for rel, b in outer_batches.items():
                    ov = batch_outer(b, proxy_users, proxy_items, kind,
                                     m=1.0, grad_theta=True, out_grads=v)
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
                                         grad_phi=True)
                        out[rel] = ev.phi_grads
                    return out

                hyper = darts_hypergradient(theta_dict(users, items), v,
                                            cfg.alpha, cfg.eps_fd, _grad_phi)

            theta_step(users, items, grads, opt_theta)
            if adaptive_rels:
                lam = 0.0 if cfg.joint_margin_training else cfg.lam
                phi_step(phis, hyper, lam, opt_phi)
            n_iter += 1

        result.trace.append(TraceRow(
            epoch=epoch,
            inner=sums["inner"] / n_iter,
            outer=sums["outer"] / n_iter,
            ui=sums["ui"] / n_iter,
            uu=sums["uu"] / n_iter,
            ii=sums["ii"] / n_iter,
            mean_margin=(margin_sum / margin_count) if margin_count else
                        _fixed_margin_mean(modes, active_rels),
        ))

        if has_test and ((epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1):
            report = evaluator.evaluate(users, items, fold, cfg.ks, kind)
            result.evals.append((epoch, report))
            k_watch = 10 if 10 in report.ks else report.ks[0]
            say(f"epoch {epoch}: inner={result.trace[-1].inner:.4f} "
                f"R@{k_watch}={report.recall[k_watch]:.4f}")

    result.rng_states = {
        "sampler": rng_sampler.bit_generator.state,
        "noise": rng_noise.bit_generator.state,
    }
    return result


def _fixed_margin_mean(modes, active_rels):
    ms = [modes[rel][1] for rel in active_rels if modes[rel] != "adaptive"]
    return float(np.mean(ms)) if ms else 0.0
