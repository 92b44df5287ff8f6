"""Distance kernels between embeddings.

Two kernels are provided: the squared Wasserstein-2 distance between
diagonal-covariance Gaussians, which for variance vectors ``sigma`` reduces to

    ||mu_a - mu_b||^2 + ||sqrt(sigma_a) - sqrt(sigma_b)||^2,

and the plain squared Euclidean distance used for deterministic-embedding
ablations. All functions accept single ``(h,)`` vectors or ``(B, h)`` batches
and reduce over the last axis. Gradients are hand-derived closed forms.

Both kernels and their gradients are written once, in the unchecked
:func:`pair_rows`, which the training losses call directly on gathered
batches; the public functions validate their inputs and then call it.
"""

from enum import Enum

import numpy as np

from .buffers import BufferPool

# Variance floor: the sigma-gradient has a 1/sqrt(sigma) factor, singular at 0.
SIGMA_MIN = 1e-6


class DistanceKind(Enum):
    W2_SQUARED = "w2"
    EUCLIDEAN_SQUARED = "euclidean"


def _check_same_shape(a, b, name_a, name_b):
    if np.shape(a) != np.shape(b):
        raise ValueError(
            f"dimension mismatch: {name_a} has shape {np.shape(a)}, "
            f"{name_b} has shape {np.shape(b)}"
        )


def pair_rows(mu_a, mu_b, root_a=None, root_b=None, grad=False, ws=None):
    """Unchecked row kernel: squared distance and, with ``grad``, its gradient rows.

    ``mu_b`` may carry leading axes that ``mu_a`` broadcasts over. ``root_*``
    are the square roots of the variances (W2); leave both None for the
    Euclidean kernel. Returns ``(d2, grads)``, where ``grads`` is None unless
    ``grad`` is set, and then ``(d_mu_a, d_sigma_a, d_sigma_b)`` with the
    shape of the differences; ``d_mu_b = -d_mu_a``, and the sigma entries are
    None for the Euclidean kernel. The gradient rows are views of the pool
    ``ws`` (its ``dmu``, ``drt`` and ``d_sigma_a`` buffers); ``d2`` is a new
    array. No input is modified.
    """
    ws = ws or BufferPool()
    shape = np.broadcast_shapes(np.shape(mu_a), np.shape(mu_b))
    dmu = np.subtract(mu_a, mu_b, out=ws.get("dmu", shape))
    d2 = np.vecdot(dmu, dmu)
    drt = None
    if root_a is not None:
        drt = np.subtract(root_a, root_b, out=ws.get("drt", shape))
        d2 += np.vecdot(drt, drt)
    if not grad:
        return d2, None
    dmu *= 2.0
    if drt is None:
        return d2, (dmu, None, None)
    d_sigma_a = np.divide(drt, root_a, out=ws.get("d_sigma_a", shape))
    drt /= root_b
    np.negative(drt, out=drt)
    return d2, (dmu, d_sigma_a, drt)


def w2_squared(mu_a, sigma_a, mu_b, sigma_b):
    """Squared W2 distance between diagonal Gaussians (mu_a, sigma_a), (mu_b, sigma_b).

    ``sigma_*`` are elementwise variances and must be nonnegative. Returns a
    scalar for ``(h,)`` inputs, a ``(B,)`` array for ``(B, h)`` inputs.
    """
    mu_a, sigma_a = np.asarray(mu_a, float), np.asarray(sigma_a, float)
    mu_b, sigma_b = np.asarray(mu_b, float), np.asarray(sigma_b, float)
    _check_same_shape(mu_a, mu_b, "mu_a", "mu_b")
    _check_same_shape(sigma_a, sigma_b, "sigma_a", "sigma_b")
    _check_same_shape(mu_a, sigma_a, "mu_a", "sigma_a")
    if np.any(sigma_a < 0) or np.any(sigma_b < 0):
        raise ValueError("negative variance entries")
    return pair_rows(mu_a, mu_b, np.sqrt(sigma_a), np.sqrt(sigma_b))[0]


def w2_squared_grad(mu_a, sigma_a, mu_b, sigma_b):
    """Gradients of :func:`w2_squared` w.r.t. all four inputs.

    Requires variances >= SIGMA_MIN so the 1/sqrt(sigma) factor stays finite.
    Returns ``(d_mu_a, d_sigma_a, d_mu_b, d_sigma_b)`` with input shapes.
    """
    mu_a, sigma_a = np.asarray(mu_a, float), np.asarray(sigma_a, float)
    mu_b, sigma_b = np.asarray(mu_b, float), np.asarray(sigma_b, float)
    _check_same_shape(mu_a, mu_b, "mu_a", "mu_b")
    _check_same_shape(sigma_a, sigma_b, "sigma_a", "sigma_b")
    _check_same_shape(mu_a, sigma_a, "mu_a", "sigma_a")
    if np.any(sigma_a < SIGMA_MIN) or np.any(sigma_b < SIGMA_MIN):
        raise ValueError(f"variance entries below SIGMA_MIN={SIGMA_MIN}")
    _, (d_mu_a, d_sigma_a, d_sigma_b) = pair_rows(
        mu_a, mu_b, np.sqrt(sigma_a), np.sqrt(sigma_b), grad=True)
    return d_mu_a, d_sigma_a, -d_mu_a, d_sigma_b


def euclidean_squared(a, b):
    """Squared Euclidean distance, reduced over the last axis."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    _check_same_shape(a, b, "a", "b")
    return pair_rows(a, b)[0]
