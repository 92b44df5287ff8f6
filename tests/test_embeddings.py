import numpy as np
import pytest

from pmlam.distance import SIGMA_MIN
from pmlam.embeddings import GaussianEmbeddingTable, init_table, project, sample

from helpers import ZeroNoise, random_table


def test_init_shape_and_determinism():
    a = init_table(100, 50, seed=3)
    b = init_table(100, 50, seed=3)
    assert a.mu.shape == (100, 50) and a.sigma.shape == (100, 50)
    np.testing.assert_array_equal(a.mu, b.mu)
    np.testing.assert_array_equal(a.sigma, b.sigma)
    c = init_table(100, 50, seed=4)
    assert not np.array_equal(a.mu, c.mu)


def test_init_rows_start_inside_unit_ball():
    # with std 0.01 at h=50 the row norm concentrates near 0.07
    table = init_table(100_000, 50, seed=0)
    norms = np.linalg.norm(table.mu, axis=1)
    assert norms.max() <= 1.0
    assert norms.mean() == pytest.approx(0.0705, abs=0.005)
    table.check()


def test_sample_zero_noise_returns_mean():
    table = init_table(4, 3, seed=1)
    s = sample(table, 2, ZeroNoise())
    np.testing.assert_array_equal(s.value, table.mu[2])
    np.testing.assert_array_equal(s.noise, np.zeros(3))


def test_sample_with_floor_variance_stays_near_mean():
    table = GaussianEmbeddingTable(np.zeros((1, 4)), np.full((1, 4), SIGMA_MIN))
    rng = np.random.default_rng(0)
    s = sample(table, 0, rng)
    assert np.all(np.abs(s.value) <= np.sqrt(SIGMA_MIN) * np.abs(s.noise) + 1e-15)


def test_sample_value_reconstructs_from_noise():
    table = random_table(6, 5, np.random.default_rng(2))
    rng = np.random.default_rng(9)
    for i in (0, 3, 5):
        s = sample(table, i, rng)
        expect = table.mu[i] + np.sqrt(table.sigma[i]) * s.noise
        np.testing.assert_array_equal(s.value, expect)


def test_sample_is_unbiased_monte_carlo():
    n_draws = 100_000
    table = random_table(1, 4, np.random.default_rng(7))
    rng = np.random.default_rng(123)
    values = np.array([sample(table, 0, rng).value for _ in range(n_draws)])
    mean_tol = 3.0 * np.sqrt(table.sigma[0] / n_draws)
    assert np.all(np.abs(values.mean(axis=0) - table.mu[0]) < mean_tol)
    # variance of the sample variance is ~2 sigma^2 / n
    var_tol = 3.0 * table.sigma[0] * np.sqrt(2.0 / n_draws)
    assert np.all(np.abs(values.var(axis=0) - table.sigma[0]) < var_tol)


def test_project_leaves_interior_points_alone():
    mu = np.array([[0.3, 0.4]])  # norm 0.5
    sigma = np.array([[0.2, 0.2]])
    t = GaussianEmbeddingTable(mu.copy(), sigma.copy())
    project(t)
    np.testing.assert_array_equal(t.mu, mu)
    np.testing.assert_array_equal(t.sigma, sigma)


def test_project_radial_cases():
    t = GaussianEmbeddingTable(np.array([[3.0, 4.0]]), np.array([[2.0, 2.0]]))
    project(t)
    np.testing.assert_allclose(t.mu, [[0.6, 0.8]], atol=1e-15)
    # clamp to (1, 1) first, then scale down to the unit ball
    np.testing.assert_allclose(t.sigma, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-15)


def test_project_is_idempotent_and_valid():
    rng = np.random.default_rng(10)
    t = GaussianEmbeddingTable(rng.normal(0, 2, (50, 8)),
                               rng.normal(0, 2, (50, 8)))
    project(t)
    t.check()
    snapshot = (t.mu.copy(), t.sigma.copy())
    project(t)
    np.testing.assert_array_equal(t.mu, snapshot[0])
    np.testing.assert_array_equal(t.sigma, snapshot[1])


@pytest.mark.parametrize("where, value, message", [
    ("mu", np.nan, "a value is not finite"),
    ("sigma", np.inf, "a value is not finite"),
    ("mu", 1e300, "a mu row lies outside the unit ball"),
    ("sigma", SIGMA_MIN / 2, "a sigma value lies outside"),
    ("sigma", 1.5, "a sigma value lies outside")])
def test_check_raises_value_error_naming_the_broken_invariant(where, value, message):
    t = init_table(5, 3, seed=0)
    getattr(t, where)[2, 1] = value
    with pytest.raises(ValueError, match=message):
        t.check()
    with pytest.raises(ValueError, match="not one .n, h. shape"):
        GaussianEmbeddingTable(np.zeros((2, 3)), np.full((2, 4), 0.1)).check()
