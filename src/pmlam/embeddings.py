"""Trainable Gaussian embedding tables.

Each entity (user or item) owns a mean vector ``mu`` and a diagonal-covariance
vector ``sigma``. Tables are kept inside the unit sphere by :func:`project`
after every optimizer step, and sampled via the location-scale transform
``value = mu + sqrt(sigma) * eps`` so samples stay differentiable in both
parameters.
"""

from dataclasses import dataclass

import numpy as np

from .distance import SIGMA_MIN

SIGMA_MAX = 1.0
# How far past 1 a checked table's row norms may lie: flooring sigma after
# renormalization can exceed the norm bound by O(h * SIGMA_MIN^2).
NORM_SLACK = 1e-9

# initial scales of init_table
MU_STD = 0.01
SIGMA0 = 0.1
SIGMA_JITTER = 0.1


@dataclass
class GaussianEmbeddingTable:
    """Per-entity Gaussian parameters: ``mu`` and ``sigma`` are (n, h) arrays."""

    mu: np.ndarray
    sigma: np.ndarray

    @property
    def n(self):
        return self.mu.shape[0]

    @property
    def h(self):
        return self.mu.shape[1]

    def check(self):
        """Check the table invariants; raises ValueError naming the first one broken."""
        if self.mu.ndim != 2 or self.sigma.shape != self.mu.shape:
            raise ValueError(f"mu {self.mu.shape} and sigma {self.sigma.shape} are not "
                             f"one (n, h) shape")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.sigma))):
            raise ValueError("a value is not finite")
        with np.errstate(over="ignore"):  # a square that overflows is inf, and fails
            if not np.all(np.linalg.norm(self.mu, axis=1) <= 1.0 + NORM_SLACK):
                raise ValueError("a mu row lies outside the unit ball")
        if not (np.all(self.sigma >= SIGMA_MIN) and np.all(self.sigma <= SIGMA_MAX)):
            raise ValueError(f"a sigma value lies outside [{SIGMA_MIN}, {SIGMA_MAX}]")
        if not np.all(np.linalg.norm(self.sigma, axis=1) <= 1.0 + NORM_SLACK):
            raise ValueError("a sigma row lies outside the unit ball")


@dataclass
class SampledEmbedding:
    """One reparameterized draw: ``value = mu + sqrt(sigma) * noise``."""

    value: np.ndarray
    noise: np.ndarray


def init_table(n_entities, h, seed):
    """Create a table with mu ~ N(0, MU_STD^2) i.i.d. and sigma near SIGMA0.

    Variances draw from SIGMA0 * U[1 - SIGMA_JITTER, 1 + SIGMA_JITTER]: an
    exactly uniform sigma table is a stationary saddle of the distance gradient (all
    sqrt-variance differences cancel), so a little spread is needed for the
    covariance channel to train at all. The result is projected, so all
    invariants hold from the start. Deterministic for a fixed seed.
    """
    if h < 1:
        raise ValueError("latent dimension must be >= 1")
    rng = np.random.default_rng(seed)
    mu = rng.normal(0.0, MU_STD, size=(n_entities, h))
    sigma = SIGMA0 * rng.uniform(1.0 - SIGMA_JITTER, 1.0 + SIGMA_JITTER,
                                 size=(n_entities, h))
    table = GaussianEmbeddingTable(mu, sigma)
    project(table)
    return table


def sample(table, index, rng):
    """Draw one reparameterized sample for row ``index``, retaining the noise."""
    noise = rng.standard_normal(table.h)
    value = table.mu[index] + np.sqrt(table.sigma[index]) * noise
    return SampledEmbedding(value, noise)


# Rows renormalize only when the norm exceeds 1 by more than this; the dead
# band absorbs ulp-level and clamp-floor drift so project is exactly
# idempotent, at the cost of a <=1e-9 slack on the norm bound.
_NORM_TRIGGER = 1.0 + 1e-10


def _shrink_long_rows(x):
    """Divide each row of ``x`` whose norm passes _NORM_TRIGGER by that norm, in place.

    Returns whether any row did. When none does, nothing is written: the
    other rows would be divided by 1.0, which leaves them as they are.
    """
    norm = np.linalg.norm(x, axis=1, keepdims=True)
    over = norm > _NORM_TRIGGER
    if not over.any():
        return False
    np.divide(x, np.where(over, norm, 1.0), out=x)
    return True


def project(table, sigma=True):
    """Pull every row back inside the unit sphere, in place.

    mu rows are radially projected onto the unit ball; sigma rows are clamped
    to [SIGMA_MIN, SIGMA_MAX], renormalized, and re-floored so the elementwise
    bounds stay exact. When no row's norm passes the dead band, the division
    is skipped, and the re-floor with it. ``sigma=False`` leaves the
    variances alone, for a run whose distance does not read them.
    Idempotent.
    """
    _shrink_long_rows(table.mu)
    if not sigma:
        return
    np.clip(table.sigma, SIGMA_MIN, SIGMA_MAX, out=table.sigma)
    if _shrink_long_rows(table.sigma):
        np.maximum(table.sigma, SIGMA_MIN, out=table.sigma)
