import numpy as np
import pytest
import scipy.linalg

from pmlam.distance import (SIGMA_MIN, euclidean_squared, pair_rows, w2_squared,
                            w2_squared_grad)

from helpers import assert_grad_close, numeric_grad


def trace_form_diagonal(mu_a, sigma_a, mu_b, sigma_b):
    """Independent oracle: the matrix trace form on actual diagonal matrices."""
    A = np.diag(sigma_a)
    B = np.diag(sigma_b)
    root_a = scipy.linalg.sqrtm(A).real
    cross = scipy.linalg.sqrtm(root_a @ B @ root_a).real
    d_mu = mu_a - mu_b
    return float(d_mu @ d_mu + np.trace(A + B - 2 * cross))


def test_identical_gaussians_have_zero_distance():
    mu = np.array([0.3, -0.2, 0.5])
    sigma = np.array([0.1, 0.4, 0.2])
    assert w2_squared(mu, sigma, mu, sigma) == 0.0


def test_point_masses_reduce_to_euclidean():
    mu_a, mu_b = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
    zero = np.zeros(2)
    assert w2_squared(mu_a, zero, mu_b, zero) == euclidean_squared(mu_a, mu_b)


def test_hand_evaluated_case():
    # mu diff contributes 2, sqrt-variance diff contributes 2 * 0.25
    got = w2_squared([1.0, 0.0], [0.25, 0.25], [0.0, 1.0], [1.0, 1.0])
    assert got == pytest.approx(2.5, abs=1e-15)


def test_matches_trace_form_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = rng.integers(1, 9)
        mu_a, mu_b = rng.normal(size=h), rng.normal(size=h)
        sig_a, sig_b = rng.uniform(0.01, 2.0, h), rng.uniform(0.01, 2.0, h)
        fast = w2_squared(mu_a, sig_a, mu_b, sig_b)
        slow = trace_form_diagonal(mu_a, sig_a, mu_b, sig_b)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_symmetry_and_nonnegativity():
    rng = np.random.default_rng(3)
    mu = rng.normal(size=(64, 5))
    sigma = rng.uniform(0.01, 1.0, size=(64, 5))
    for i in range(0, 64, 2):
        ab = w2_squared(mu[i], sigma[i], mu[i + 1], sigma[i + 1])
        ba = w2_squared(mu[i + 1], sigma[i + 1], mu[i], sigma[i])
        assert ab == ba
        assert ab >= 0.0


def test_triangle_inequality_on_the_metric():
    rng = np.random.default_rng(11)
    n = 10_000
    mu = rng.normal(size=(n, 3, 4))
    sigma = rng.uniform(0.0, 1.5, size=(n, 3, 4))
    d_ab = np.sqrt(w2_squared(mu[:, 0], sigma[:, 0], mu[:, 1], sigma[:, 1]))
    d_bc = np.sqrt(w2_squared(mu[:, 1], sigma[:, 1], mu[:, 2], sigma[:, 2]))
    d_ac = np.sqrt(w2_squared(mu[:, 0], sigma[:, 0], mu[:, 2], sigma[:, 2]))
    assert np.all(d_ac <= d_ab + d_bc + 1e-12)


def test_batch_shape():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=(8, 3))
    sigma = rng.uniform(0.1, 1.0, size=(8, 3))
    out = w2_squared(mu, sigma, mu[::-1], sigma[::-1])
    assert out.shape == (8,)


def test_gradients_zero_at_minimum():
    mu = np.array([0.2, -0.1])
    sigma = np.array([0.3, 0.6])
    for g in w2_squared_grad(mu, sigma, mu, sigma):
        assert np.all(g == 0.0)


def test_sigma_gradients_vanish_when_variances_match():
    rng = np.random.default_rng(5)
    mu_a, mu_b = rng.normal(size=3), rng.normal(size=3)
    sigma = rng.uniform(0.2, 0.8, 3)
    _, d_sig_a, _, d_sig_b = w2_squared_grad(mu_a, sigma, mu_b, sigma)
    assert np.all(d_sig_a == 0.0) and np.all(d_sig_b == 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(20):
        h = int(rng.integers(1, 7))
        mu_a, mu_b = rng.normal(size=h), rng.normal(size=h)
        sig_a, sig_b = rng.uniform(0.05, 1.0, h), rng.uniform(0.05, 1.0, h)
        grads = w2_squared_grad(mu_a, sig_a, mu_b, sig_b)
        points = [mu_a, sig_a, mu_b, sig_b]
        for slot in range(4):
            def f(x, slot=slot):
                args = list(points)
                args[slot] = x
                return w2_squared(*args)
            num = numeric_grad(f, points[slot].copy(), step=1e-5)
            assert_grad_close(grads[slot], num, rtol=1e-6, atol=1e-9)


def test_contract_violations():
    with pytest.raises(ValueError):
        w2_squared([1.0, 2.0], [0.1, 0.1], [1.0], [0.1])
    with pytest.raises(ValueError):
        w2_squared([1.0], [-0.1], [0.0], [0.1])
    with pytest.raises(ValueError):
        w2_squared_grad([1.0], [SIGMA_MIN / 2], [0.0], [0.1])
    with pytest.raises(ValueError):
        euclidean_squared([1.0, 2.0], [1.0])


def test_euclidean_cases():
    assert euclidean_squared([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert euclidean_squared([1.0, 2.0], [1.0, 0.0]) == 4.0
    d2, (d_mu_a, d_sigma_a, d_sigma_b) = pair_rows(np.array([[1.0, 2.0], [0.0, 0.0]]),
                                                   np.array([[1.0, 0.0], [1.0, 1.0]]),
                                                   grad=True)
    np.testing.assert_array_equal(d2, [4.0, 2.0])
    np.testing.assert_array_equal(d_mu_a, [[0.0, 4.0], [-2.0, -2.0]])
    assert d_sigma_a is None and d_sigma_b is None
