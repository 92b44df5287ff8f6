"""Adaptive margin generator.

A two-layer network maps a per-triplet feature vector to a strictly positive
margin:

    z = tanh(W1 @ s + b1)
    m = softplus(W2 @ z + b2)

The default feature is built from elementwise squared differences between the
anchor and each of the two candidates (plus their difference), which mimics a
Euclidean distance computation without the final sum. ``concat`` and ``sum``
feature modes are kept for ablations. Forward and backward passes are
hand-rolled and vectorized over the batch. The backward pass gives the
parameter gradients only: training treats the margins as constants w.r.t.
the embeddings, so nothing chains a gradient back into the features.

Every function that builds a row array takes an optional
:class:`~pmlam.buffers.BufferPool` ``ws`` and writes the array into it: the
features into ``features`` (``margin_input``), the hidden activations into
``z`` (``forward``) and the hidden-layer gradients into ``da1`` and
``dtanh`` (``backward``). Those views stay valid until the pool's next use
of the name. Margins and parameter gradients are new arrays.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .buffers import BufferPool

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


def indicator(u, v_pos, v_neg, ws=None):
    """Squared-difference features [chi(u,v_pos); chi(u,v_neg); chi_neg - chi_pos].

    chi(u, v)_d = (u_d - v_d)^2. Works on (h,) vectors or (B, h) batches.
    Each block is written straight into its slice of the ``features`` buffer.
    """
    u, v_pos, v_neg = np.asarray(u, float), np.asarray(v_pos, float), np.asarray(v_neg, float)
    if u.shape != v_pos.shape or u.shape != v_neg.shape:
        raise ValueError("indicator inputs must share a shape")
    h = u.shape[-1]
    s = (ws or BufferPool()).get("features", u.shape[:-1] + (3 * h,))
    chi_pos, chi_neg = s[..., :h], s[..., h:2 * h]
    np.square(np.subtract(u, v_pos, out=chi_pos), out=chi_pos)
    np.square(np.subtract(u, v_neg, out=chi_neg), out=chi_neg)
    np.subtract(chi_neg, chi_pos, out=s[..., 2 * h:])
    return s


def margin_input(mode, u, v_pos, v_neg, ws=None):
    """Margin-net input under the given feature mode, in the pool's ``features`` buffer."""
    if mode == "squared-diff":
        return indicator(u, v_pos, v_neg, ws)
    ws = ws or BufferPool()
    if mode == "concat":
        shape = np.shape(u)[:-1] + (3 * np.shape(u)[-1],)
        return np.concatenate([u, v_pos, v_neg], axis=-1, out=ws.get("features", shape))
    if mode == "sum":
        s = np.add(u, v_pos, out=ws.get("features", np.shape(u)))
        s += v_neg
        return s
    raise ValueError(f"unknown indicator mode {mode!r}")


def forward(params, s, ws=None):
    """Margins for a batch of feature rows ``s`` with shape (B, in_dim).

    Returns ``(m, cache)`` where ``m`` is (B,) and strictly positive; the
    cache is consumed by :func:`backward` and holds the pool's ``z`` view.
    """
    s = np.atleast_2d(np.asarray(s, float))
    if s.shape[1] != params.in_dim:
        raise ValueError(f"feature width {s.shape[1]} != net input width {params.in_dim}")
    ws = ws or BufferPool()
    z = np.matmul(s, params.W1.T, out=ws.get("z", (len(s), len(params.b1))))
    z += params.b1
    np.tanh(z, out=z)
    a2 = z @ params.W2 + params.b2[0]
    m = np.logaddexp(0.0, a2)  # softplus, overflow-safe
    return m, (s, z, a2)


def backward(params, cache, upstream, ws=None):
    """Reverse pass of :func:`forward`: the parameter gradients.

    ``upstream`` is dL/dm per row, shape (B,). Returns a dict matching
    :meth:`MarginNetParams.params`.
    """
    s, z, a2 = cache
    ws = ws or BufferPool()
    upstream = np.asarray(upstream, float)
    da2 = upstream * expit(a2)
    grads = {
        "W2": da2 @ z,
        "b2": np.array([np.sum(da2)]),
    }
    da1 = np.multiply(da2[:, None], params.W2, out=ws.get("da1", z.shape))  # np.outer
    dtanh = np.multiply(z, z, out=ws.get("dtanh", z.shape))
    np.subtract(1.0, dtanh, out=dtanh)
    da1 *= dtanh
    grads["W1"] = da1.T @ s
    grads["b1"] = np.sum(da1, axis=0)
    return grads
