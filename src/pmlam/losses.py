"""Margin ranking losses over triplet batches.

The same hinge ``[d2_pos - d2_neg + margin]_+`` backs both phases of
training: the inner objective uses per-triplet margins from the margin net
(or a fixed value for ablations), the outer objective always uses margin 1
and is evaluated at proxy parameters. Batch reduction is the mean. Gradients
w.r.t. the embedding tables follow the distance term only, unless the
margin-to-embedding path is explicitly enabled.

Relations share one implementation: "ui" compares users against items,
"uu" users against users, "ii" items against items.
"""

from dataclasses import dataclass

import numpy as np

from . import margin_net
from .distance import SIGMA_MIN, DistanceKind

RELATIONS = ("ui", "uu", "ii")

THETA_KEYS = ("user_mu", "user_sigma", "item_mu", "item_sigma")


@dataclass
class TripletBatch:
    """Index triples for one relation, plus optional frozen sampling noise.

    Noise arrays are (B, h) standard-normal draws used for the margin net's
    reparameterized inputs; they are attached once per batch so that repeated
    evaluations (proxy, hypergradient probes) see identical samples.
    """

    relation: str
    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    noise_anchor: np.ndarray | None = None
    noise_pos: np.ndarray | None = None
    noise_neg: np.ndarray | None = None

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not (len(self.anchors) == len(self.positives) == len(self.negatives)):
            raise ValueError("anchor/positive/negative arrays must have equal length")

    def __len__(self):
        return len(self.anchors)

    def attach_noise(self, h, rng):
        self.noise_anchor = rng.standard_normal((len(self), h))
        self.noise_pos = rng.standard_normal((len(self), h))
        self.noise_neg = rng.standard_normal((len(self), h))


@dataclass
class BatchEval:
    """Loss value plus whatever gradients were requested."""

    loss: float
    margins: np.ndarray
    active: np.ndarray
    theta_grads: dict | None = None
    phi_grads: dict | None = None


def zero_theta_grads(users, items):
    return {
        "user_mu": np.zeros_like(users.mu),
        "user_sigma": np.zeros_like(users.sigma),
        "item_mu": np.zeros_like(items.mu),
        "item_sigma": np.zeros_like(items.sigma),
    }


def _role_keys(relation):
    """(anchor, other) table names, also the accumulator prefixes, of a relation."""
    return {"ui": ("user", "item"), "uu": ("user", "user"),
            "ii": ("item", "item")}[relation]


def _gather(batch, users, items):
    """Gather (mu, sigma) rows per role; sigma floored for off-manifold params.

    Proxy and hypergradient probes evaluate at unprojected parameters where
    sigma may drift below SIGMA_MIN or negative; the floor keeps sqrt defined.
    Returns the floored variances plus per-role masks of live (unfloored)
    entries: gradients w.r.t. floored coordinates are zero through the clamp.
    """
    tables = {"user": users, "item": items}
    anchor_t, other_t = (tables[key] for key in _role_keys(batch.relation))
    mu_a = anchor_t.mu[batch.anchors]
    mu_p = other_t.mu[batch.positives]
    mu_n = other_t.mu[batch.negatives]
    raw_a = anchor_t.sigma[batch.anchors]
    raw_p = other_t.sigma[batch.positives]
    raw_n = other_t.sigma[batch.negatives]
    live = (raw_a >= SIGMA_MIN, raw_p >= SIGMA_MIN, raw_n >= SIGMA_MIN)
    return (mu_a, np.maximum(raw_a, SIGMA_MIN), mu_p, np.maximum(raw_p, SIGMA_MIN),
            mu_n, np.maximum(raw_n, SIGMA_MIN), live)


def _margin_inputs(batch, kind, mu_a, sig_a, mu_p, sig_p, mu_n, sig_n):
    """Embedding inputs of the margin net: sampled for Gaussian runs, means otherwise."""
    if kind is DistanceKind.W2_SQUARED:
        if batch.noise_anchor is None:
            raise ValueError("adaptive margins with Gaussian embeddings need attached noise")
        u = mu_a + np.sqrt(sig_a) * batch.noise_anchor
        vp = mu_p + np.sqrt(sig_p) * batch.noise_pos
        vn = mu_n + np.sqrt(sig_n) * batch.noise_neg
    else:
        u, vp, vn = mu_a, mu_p, mu_n
    return u, vp, vn


def batch_inner(batch, users, items, kind, margin_mode, phi=None,
                indicator_mode="squared-diff", grad_theta=False, grad_phi=False,
                margin_grad_to_theta=False, out_grads=None):
    """Mean hinge loss of one batch plus requested gradients.

    ``margin_mode`` is either ``("fixed", m)`` or ``"adaptive"`` (with ``phi``
    supplied). Embedding-table gradients flow through the distance term; the
    margin term is treated as constant w.r.t. the tables unless
    ``margin_grad_to_theta`` is set. ``out_grads`` may supply an accumulator
    dict (see :func:`zero_theta_grads`) to add into.
    """
    B = len(batch)
    mu_a, sig_a, mu_p, sig_p, mu_n, sig_n, live = _gather(batch, users, items)
    live_a, live_p, live_n = live

    if kind is DistanceKind.W2_SQUARED:
        rt_a, rt_p, rt_n = np.sqrt(sig_a), np.sqrt(sig_p), np.sqrt(sig_n)
        d2_pos = np.sum((mu_a - mu_p) ** 2, axis=1) + np.sum((rt_a - rt_p) ** 2, axis=1)
        d2_neg = np.sum((mu_a - mu_n) ** 2, axis=1) + np.sum((rt_a - rt_n) ** 2, axis=1)
    else:
        d2_pos = np.sum((mu_a - mu_p) ** 2, axis=1)
        d2_neg = np.sum((mu_a - mu_n) ** 2, axis=1)

    cache = margin_io = None
    if margin_mode == "adaptive":
        if phi is None:
            raise ValueError("adaptive margins need margin-net parameters")
        u, vp, vn = _margin_inputs(batch, kind, mu_a, sig_a, mu_p, sig_p, mu_n, sig_n)
        s = margin_net.margin_input(indicator_mode, u, vp, vn)
        margins, cache = margin_net.forward(phi, s)
        margin_io = (u, vp, vn)
    else:
        tag, m = margin_mode
        if tag != "fixed":
            raise ValueError(f"unknown margin mode {margin_mode!r}")
        margins = np.full(B, float(m))

    arg = d2_pos - d2_neg + margins
    active = arg > 0.0  # boundary counts as inactive
    # an empty batch (every sampled anchor had an empty pool) adds nothing
    loss = float(np.sum(arg[active])) / B if B else 0.0

    result = BatchEval(loss=loss, margins=margins, active=active)
    w = active.astype(float) / max(B, 1)  # per-row weight of the mean reduction

    if grad_theta:
        grads = out_grads if out_grads is not None else zero_theta_grads(users, items)
        a_key, o_key = _role_keys(batch.relation)
        gp_mu = 2.0 * (mu_a - mu_p) * w[:, None]
        gn_mu = 2.0 * (mu_a - mu_n) * w[:, None]
        np.add.at(grads[a_key + "_mu"], batch.anchors, gp_mu - gn_mu)
        np.add.at(grads[o_key + "_mu"], batch.positives, -gp_mu)
        np.add.at(grads[o_key + "_mu"], batch.negatives, gn_mu)
        if kind is DistanceKind.W2_SQUARED:
            gp_sig_a = (1.0 - rt_p / rt_a) * w[:, None]
            gn_sig_a = (1.0 - rt_n / rt_a) * w[:, None]
            np.add.at(grads[a_key + "_sigma"], batch.anchors,
                      (gp_sig_a - gn_sig_a) * live_a)
            np.add.at(grads[o_key + "_sigma"], batch.positives,
                      (1.0 - rt_a / rt_p) * w[:, None] * live_p)
            np.add.at(grads[o_key + "_sigma"], batch.negatives,
                      -(1.0 - rt_a / rt_n) * w[:, None] * live_n)
        result.theta_grads = grads

    if margin_mode == "adaptive" and (grad_phi or (grad_theta and margin_grad_to_theta)):
        phi_grads, ds = margin_net.backward(phi, cache, w)
        if grad_phi:
            result.phi_grads = phi_grads
        if grad_theta and margin_grad_to_theta:
            u, vp, vn = margin_io
            du, dvp, dvn = margin_net.margin_input_backward(indicator_mode, u, vp, vn, ds)
            grads = result.theta_grads
            a_key, o_key = _role_keys(batch.relation)
            if kind is DistanceKind.W2_SQUARED:
                du_mu, du_sig = margin_net.reparam_backward(du, sig_a, batch.noise_anchor)
                dp_mu, dp_sig = margin_net.reparam_backward(dvp, sig_p, batch.noise_pos)
                dn_mu, dn_sig = margin_net.reparam_backward(dvn, sig_n, batch.noise_neg)
                np.add.at(grads[a_key + "_sigma"], batch.anchors, du_sig * live_a)
                np.add.at(grads[o_key + "_sigma"], batch.positives, dp_sig * live_p)
                np.add.at(grads[o_key + "_sigma"], batch.negatives, dn_sig * live_n)
            else:
                du_mu, dp_mu, dn_mu = du, dvp, dvn
            np.add.at(grads[a_key + "_mu"], batch.anchors, du_mu)
            np.add.at(grads[o_key + "_mu"], batch.positives, dp_mu)
            np.add.at(grads[o_key + "_mu"], batch.negatives, dn_mu)

    return result


def batch_outer(batch, users, items, kind, m=1.0, grad_theta=True, out_grads=None):
    """Mean fixed-margin hinge at (typically proxy) parameters.

    Same hinge core as :func:`batch_inner` with ``("fixed", m)`` margins;
    kept as its own entry point because the outer phase never touches a
    margin net.
    """
    return batch_inner(batch, users, items, kind, ("fixed", m),
                       grad_theta=grad_theta, out_grads=out_grads)
