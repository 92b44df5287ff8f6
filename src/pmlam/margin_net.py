"""Adaptive margin generator.

A two-layer network maps a per-triplet feature vector to a strictly positive
margin:

    z = tanh(W1 @ s + b1)
    m = softplus(W2 @ z + b2)

The default feature is built from elementwise squared differences between the
anchor and each of the two candidates (plus their difference), which mimics a
Euclidean distance computation without the final sum. ``concat`` and ``sum``
feature modes are kept for ablations. Forward and backward passes are
hand-rolled and vectorized over the batch.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

INDICATOR_MODES = ("squared-diff", "concat", "sum")


@dataclass
class MarginNetParams:
    W1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (hidden,) row of the 1 x hidden output layer
    b2: np.ndarray  # (1,)

    @property
    def in_dim(self):
        return self.W1.shape[1]

    def params(self):
        """Name -> array view, for optimizers and serialization."""
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def copy(self):
        return MarginNetParams(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


def indicator_dim(mode, h):
    """Input width of the margin net for a given feature mode."""
    if mode not in INDICATOR_MODES:
        raise ValueError(f"unknown indicator mode {mode!r}")
    return h if mode == "sum" else 3 * h


def init_margin_net(h, hidden, rng, mode="squared-diff"):
    """Scaled-uniform weight init (U[-1/sqrt(fan_in), 1/sqrt(fan_in)]), zero biases."""
    in_dim = indicator_dim(mode, h)
    bound1 = 1.0 / np.sqrt(in_dim)
    bound2 = 1.0 / np.sqrt(hidden)
    return MarginNetParams(
        W1=rng.uniform(-bound1, bound1, size=(hidden, in_dim)),
        b1=np.zeros(hidden),
        W2=rng.uniform(-bound2, bound2, size=hidden),
        b2=np.zeros(1),
    )


def indicator(u, v_pos, v_neg):
    """Squared-difference features [chi(u,v_pos); chi(u,v_neg); chi_neg - chi_pos].

    chi(u, v)_d = (u_d - v_d)^2. Works on (h,) vectors or (B, h) batches.
    """
    u, v_pos, v_neg = np.asarray(u, float), np.asarray(v_pos, float), np.asarray(v_neg, float)
    if u.shape != v_pos.shape or u.shape != v_neg.shape:
        raise ValueError("indicator inputs must share a shape")
    chi_pos = (u - v_pos) ** 2
    chi_neg = (u - v_neg) ** 2
    return np.concatenate([chi_pos, chi_neg, chi_neg - chi_pos], axis=-1)


def margin_input(mode, u, v_pos, v_neg):
    """Margin-net input under the given feature mode."""
    if mode == "squared-diff":
        return indicator(u, v_pos, v_neg)
    if mode == "concat":
        return np.concatenate([u, v_pos, v_neg], axis=-1)
    if mode == "sum":
        return u + v_pos + v_neg
    raise ValueError(f"unknown indicator mode {mode!r}")


def forward(params, s):
    """Margins for a batch of feature rows ``s`` with shape (B, in_dim).

    Returns ``(m, cache)`` where ``m`` is (B,) and strictly positive; the
    cache is consumed by :func:`backward`.
    """
    s = np.atleast_2d(np.asarray(s, float))
    if s.shape[1] != params.in_dim:
        raise ValueError(f"feature width {s.shape[1]} != net input width {params.in_dim}")
    z = np.tanh(s @ params.W1.T + params.b1)
    a2 = z @ params.W2 + params.b2[0]
    m = np.logaddexp(0.0, a2)  # softplus, overflow-safe
    return m, (s, z, a2)


def backward(params, cache, upstream):
    """Reverse pass of :func:`forward`.

    ``upstream`` is dL/dm per row, shape (B,). Returns ``(grads, ds)`` with
    ``grads`` matching :meth:`MarginNetParams.params` and ``ds`` of shape
    (B, in_dim) for chaining into the feature construction.
    """
    s, z, a2 = cache
    upstream = np.asarray(upstream, float)
    da2 = upstream * expit(a2)
    grads = {
        "W2": da2 @ z,
        "b2": np.array([np.sum(da2)]),
    }
    dz = np.outer(da2, params.W2)
    da1 = dz * (1.0 - z * z)
    grads["W1"] = da1.T @ s
    grads["b1"] = np.sum(da1, axis=0)
    ds = da1 @ params.W1
    return grads, ds


def margin_input_backward(mode, u, v_pos, v_neg, ds):
    """Chain feature grads ``ds`` back to the three embedding inputs."""
    if mode == "squared-diff":
        h = u.shape[-1]
        d_chi_pos = ds[..., :h] - ds[..., 2 * h:]
        d_chi_neg = ds[..., h:2 * h] + ds[..., 2 * h:]
        dp = 2.0 * (u - v_pos)
        dn = 2.0 * (u - v_neg)
        du = d_chi_pos * dp + d_chi_neg * dn
        return du, -d_chi_pos * dp, -d_chi_neg * dn
    if mode == "concat":
        h = u.shape[-1]
        return ds[..., :h].copy(), ds[..., h:2 * h].copy(), ds[..., 2 * h:].copy()
    if mode == "sum":
        return ds.copy(), ds.copy(), ds.copy()
    raise ValueError(f"unknown indicator mode {mode!r}")


def reparam_backward(d_value, sigma, noise):
    """Chain a sampled-embedding grad to (mu, sigma) grads.

    With value = mu + sqrt(sigma) * noise: d/dmu = d_value and
    d/dsigma = d_value * noise / (2 sqrt(sigma)).
    """
    return d_value, d_value * noise / (2.0 * np.sqrt(sigma))
