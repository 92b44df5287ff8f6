import copy

import numpy as np
import pytest

from pmlam import margin_net
from pmlam.distance import euclidean_squared
from pmlam.margin_net import (MarginNetParams, backward, forward, indicator,
                              indicator_dim, init_margin_net, margin_input)

from helpers import (assert_grad_close, margin_input_backward, margin_input_grad,
                     numeric_grad, reparam_backward)


def zero_net(h, hidden, mode="squared-diff"):
    d = indicator_dim(mode, h)
    return MarginNetParams(W1=np.zeros((hidden, d)), b1=np.zeros(hidden),
                           W2=np.zeros(hidden), b2=np.zeros(1))


def test_indicator_hand_case():
    s = indicator([1.0, 2.0], [1.0, 0.0], [0.0, 0.0])
    np.testing.assert_array_equal(s, [0.0, 4.0, 1.0, 4.0, 1.0, 0.0])


def test_indicator_coincident_points():
    u = np.array([0.5, -0.3, 0.1])
    np.testing.assert_array_equal(indicator(u, u, u), np.zeros(9))


def test_indicator_blocks():
    rng = np.random.default_rng(0)
    u, vp, vn = rng.normal(size=(3, 6))
    s = indicator(u, vp, vn)
    assert np.sum(s[:6]) == pytest.approx(euclidean_squared(u, vp))
    assert np.sum(s[6:12]) == pytest.approx(euclidean_squared(u, vn))
    np.testing.assert_array_equal(s[12:], s[6:12] - s[:6])  # exact identity
    assert np.all(s[:12] >= 0)


def test_forward_zero_network_gives_log2():
    net = zero_net(4, 8)
    m, _ = forward(net, np.ones((3, 12)))
    np.testing.assert_allclose(m, np.log(2.0), rtol=0, atol=1e-15)


def test_forward_overflow_safe():
    net = zero_net(2, 2)
    net.b2[0] = 30.0
    m, _ = forward(net, np.zeros((1, 6)))
    assert m[0] == pytest.approx(30.0, abs=1e-12)
    net.b2[0] = 1000.0
    m, _ = forward(net, np.zeros((1, 6)))
    assert np.isfinite(m[0]) and m[0] == pytest.approx(1000.0)


def test_forward_strictly_positive():
    rng = np.random.default_rng(3)
    net = init_margin_net(5, 7, rng)
    s = rng.normal(0, 50, size=(200, 15))
    m, _ = forward(net, s)
    assert np.all(m > 0)


def test_backward_zero_upstream():
    rng = np.random.default_rng(4)
    net = init_margin_net(3, 4, rng)
    s = rng.normal(size=(5, 9))
    m, cache = forward(net, s)
    grads = backward(net, cache, np.zeros(5))
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(margin_input_grad(net, cache, np.zeros(5)) == 0)


@pytest.mark.parametrize("h", [2, 8, 50])
def test_param_gradients_match_finite_differences(h):
    rng = np.random.default_rng(h)
    net = init_margin_net(h, h, rng)
    s = rng.normal(size=(4, 3 * h))
    upstream = rng.normal(size=4)

    def loss_at(net_now):
        m, _ = forward(net_now, s)
        return float(np.dot(upstream, m))

    m, cache = forward(net, s)
    grads = backward(net, cache, upstream)
    for name, arr in net.params().items():
        def f(x, name=name):
            trial = copy.deepcopy(net)
            trial.params()[name][...] = x
            return loss_at(trial)
        num = numeric_grad(f, arr.copy(), step=1e-5)
        assert_grad_close(grads[name], num, rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("mode", ["squared-diff", "concat", "sum"])
def test_input_gradients_match_finite_differences(mode):
    h = 5
    rng = np.random.default_rng(11)
    net = init_margin_net(h, 6, rng, mode=mode)
    u, vp, vn = rng.normal(size=(3, h))
    upstream = np.array([1.3])

    def loss_from_inputs(u_, vp_, vn_):
        s = margin_input(mode, u_, vp_, vn_)
        m, _ = forward(net, s)
        return float(upstream[0] * m[0])

    s = margin_input(mode, u, vp, vn)
    _, cache = forward(net, s)
    ds = margin_input_grad(net, cache, upstream)
    du, dvp, dvn = margin_input_backward(mode, u[None, :], vp[None, :],
                                         vn[None, :], ds)
    for vec, analytic, slot in ((u, du, 0), (vp, dvp, 1), (vn, dvn, 2)):
        def f(x, slot=slot):
            args = [u, vp, vn]
            args[slot] = x
            return loss_from_inputs(*args)
        num = numeric_grad(f, vec.copy(), step=1e-5)
        assert_grad_close(analytic[0], num, rtol=1e-5, atol=1e-9)


def test_gradient_through_sampling_with_frozen_noise():
    # margin as a function of (mu, sigma) with the noise draw held fixed
    h = 4
    rng = np.random.default_rng(21)
    net = init_margin_net(h, 5, rng)
    mu = rng.normal(size=(3, h)) * 0.5
    sigma = rng.uniform(0.2, 0.8, size=(3, h))
    noise = rng.standard_normal((3, h))

    def margin_at(mu_, sigma_):
        vals = mu_ + np.sqrt(sigma_) * noise
        s = margin_input("squared-diff", vals[0], vals[1], vals[2])
        m, _ = forward(net, s)
        return float(m[0])

    vals = mu + np.sqrt(sigma) * noise
    s = margin_input("squared-diff", vals[0], vals[1], vals[2])
    _, cache = forward(net, s)
    ds = margin_input_grad(net, cache, np.array([1.0]))
    parts = margin_input_backward("squared-diff", vals[0][None], vals[1][None],
                                  vals[2][None], ds)
    d_mu = np.zeros_like(mu)
    d_sigma = np.zeros_like(sigma)
    for row, d_val in enumerate(parts):
        d_mu[row], d_sigma[row] = reparam_backward(d_val[0], sigma[row], noise[row])

    num_mu = numeric_grad(lambda x: margin_at(x, sigma), mu.copy(), step=1e-5)
    num_sigma = numeric_grad(lambda x: margin_at(mu, x), sigma.copy(), step=1e-5)
    assert_grad_close(d_mu, num_mu, rtol=1e-5, atol=1e-9)
    assert_grad_close(d_sigma, num_sigma, rtol=1e-5, atol=1e-9)


def test_feature_width_validation():
    net = zero_net(3, 2)
    with pytest.raises(ValueError):
        forward(net, np.zeros((1, 5)))
    with pytest.raises(ValueError):
        margin_net.margin_input("bogus", np.zeros(3), np.zeros(3), np.zeros(3))
