import numpy as np
import pytest

from pmlam.distance import DistanceKind
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from pmlam.margin_net import init_margin_net

from helpers import assert_grad_close, numeric_grad, random_table

W2 = DistanceKind.W2_SQUARED
EUC = DistanceKind.EUCLIDEAN_SQUARED


def toy_setup(seed=0, n_users=3, n_items=4, h=2):
    rng = np.random.default_rng(seed)
    users = random_table(n_users, h, rng)
    items = random_table(n_items, h, rng)
    return users, items, rng


def make_batch(relation, rng, n_anchor, n_other, rows=8, h=None):
    b = TripletBatch(relation,
                     anchors=rng.integers(0, n_anchor, rows),
                     positives=rng.integers(0, n_other, rows),
                     negatives=rng.integers(0, n_other, rows))
    if h is not None:
        b.attach_noise(h, rng)
    return b


def hinge_arguments(batch, users, items, kind, margins):
    from pmlam.losses import _gather
    mu_a, sig_a, mu_p, sig_p, mu_n, sig_n, _ = _gather(batch, users, items)
    if kind is W2:
        d2p = np.sum((mu_a - mu_p) ** 2, 1) + np.sum((np.sqrt(sig_a) - np.sqrt(sig_p)) ** 2, 1)
        d2n = np.sum((mu_a - mu_n) ** 2, 1) + np.sum((np.sqrt(sig_a) - np.sqrt(sig_n)) ** 2, 1)
    else:
        d2p = np.sum((mu_a - mu_p) ** 2, 1)
        d2n = np.sum((mu_a - mu_n) ** 2, 1)
    return d2p - d2n + margins


def direct_loss(batch, users, items, kind, margins):
    """Reference hinge mean computed from the raw parameter arrays."""
    args = hinge_arguments(batch, users, items, kind, margins)
    return float(np.mean(np.maximum(args, 0.0)))


def tables_with(users, items, key, arr):
    parts = {"user_mu": users.mu, "user_sigma": users.sigma,
             "item_mu": items.mu, "item_sigma": items.sigma}
    parts[key] = arr
    return (GaussianEmbeddingTable(parts["user_mu"], parts["user_sigma"]),
            GaussianEmbeddingTable(parts["item_mu"], parts["item_sigma"]))


def test_singleton_batch_equals_scalar_hinge():
    users, items, _ = toy_setup()
    b = TripletBatch("ui", np.array([1]), np.array([2]), np.array([0]))
    ev = batch_inner(b, users, items, W2, ("fixed", 1.0))
    assert ev.loss == pytest.approx(direct_loss(b, users, items, W2, 1.0), abs=1e-15)


def test_batch_mean_is_permutation_invariant():
    users, items, rng = toy_setup(3)
    b = make_batch("ui", rng, 3, 4, rows=10)
    perm = rng.permutation(10)
    b2 = TripletBatch("ui", b.anchors[perm], b.positives[perm], b.negatives[perm])
    e1 = batch_inner(b, users, items, W2, ("fixed", 0.7))
    e2 = batch_inner(b2, users, items, W2, ("fixed", 0.7))
    assert e1.loss == pytest.approx(e2.loss, abs=1e-15)


def test_inactive_hinges_give_zero_loss_and_gradient():
    users, items, _ = toy_setup(1)
    items.mu[0] = users.mu[0]
    items.sigma[0] = users.sigma[0]
    items.mu[3] = -users.mu[0]
    b = TripletBatch("ui", np.array([0, 0]), np.array([0, 0]), np.array([3, 3]))
    ev = batch_inner(b, users, items, W2, ("fixed", 0.0), grad_theta=True)
    assert ev.loss == 0.0 and ev.active.sum() == 0
    assert all(np.all(g == 0) for g in ev.theta_grads.values())


def test_adaptive_needs_noise_for_gaussian_runs():
    users, items, rng = toy_setup(2)
    net = init_margin_net(2, 3, rng)
    b = make_batch("ui", rng, 3, 4)
    with pytest.raises(ValueError):
        batch_inner(b, users, items, W2, "adaptive", phi=net)


@pytest.mark.parametrize("relation", ["ui", "uu", "ii"])
@pytest.mark.parametrize("kind", [W2, EUC])
def test_theta_gradient_fd_margins_held_constant(relation, kind):
    users, items, rng = toy_setup(5)
    shapes = {"ui": (3, 4), "uu": (3, 3), "ii": (4, 4)}[relation]
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 0.4  # keep generated margins O(1) so most hinges engage
    b = make_batch(relation, rng, *shapes, h=2)
    ev = batch_inner(b, users, items, kind, "adaptive", phi=net, grad_theta=True)
    base_margins = ev.margins
    args = hinge_arguments(b, users, items, kind, base_margins)
    assert ev.active.sum() > 0, "degenerate instance: no active hinge"
    assert np.abs(args).min() > 1e-4, "instance too close to the hinge kink"
    # margins are constants w.r.t. the tables on this path
    for key, ref in (("user_mu", users.mu), ("user_sigma", users.sigma),
                     ("item_mu", items.mu), ("item_sigma", items.sigma)):
        def f(x, key=key):
            uu, ii = tables_with(users, items, key, x)
            return direct_loss(b, uu, ii, kind, base_margins)
        num = numeric_grad(f, ref.copy(), step=1e-6)
        assert_grad_close(ev.theta_grads[key], num, rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("kind", [W2, EUC])
def test_theta_gradient_fd_with_margin_path_enabled(kind):
    users, items, rng = toy_setup(9)
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 0.4
    b = make_batch("ui", rng, 3, 4, h=2)
    ev = batch_inner(b, users, items, kind, "adaptive", phi=net,
                     grad_theta=True, margin_grad_to_theta=True)
    # oracle re-runs the full forward (frozen noise), so the margin term moves
    for key, ref in (("user_mu", users.mu), ("user_sigma", users.sigma),
                     ("item_mu", items.mu), ("item_sigma", items.sigma)):
        def f(x, key=key):
            uu, ii = tables_with(users, items, key, x)
            return batch_inner(b, uu, ii, kind, "adaptive", phi=net).loss
        num = numeric_grad(f, ref.copy(), step=1e-6)
        assert_grad_close(ev.theta_grads[key], num, rtol=1e-5, atol=1e-8)


def test_phi_gradient_matches_fd():
    users, items, rng = toy_setup(13)
    net = init_margin_net(2, 4, rng)
    net.b2[0] = 0.4
    b = make_batch("ui", rng, 3, 4, h=2)
    ev = batch_inner(b, users, items, W2, "adaptive", phi=net, grad_phi=True)
    for name, arr in net.params().items():
        def f(x, name=name):
            trial = net.copy()
            trial.params()[name][...] = x
            return batch_inner(b, users, items, W2, "adaptive", phi=trial).loss
        num = numeric_grad(f, arr.copy(), step=1e-5)
        assert_grad_close(ev.phi_grads[name], num, rtol=1e-5, atol=1e-9)


def test_outer_at_zero_step_proxy_equals_inner_fixed():
    users, items, rng = toy_setup(17)
    b = make_batch("ui", rng, 3, 4)
    outer = batch_outer(b, users, items, W2, m=1.0, grad_theta=False)
    inner = batch_inner(b, users, items, W2, ("fixed", 1.0))
    assert outer.loss == inner.loss


def test_outer_theta_gradient_matches_fd():
    users, items, rng = toy_setup(19)
    b = make_batch("ui", rng, 3, 4)
    ev = batch_outer(b, users, items, W2, m=1.0, grad_theta=True)
    for key, ref in (("user_mu", users.mu), ("item_sigma", items.sigma)):
        def f(x, key=key):
            uu, ii = tables_with(users, items, key, x)
            return direct_loss(b, uu, ii, W2, 1.0)
        num = numeric_grad(f, ref.copy(), step=1e-6)
        assert_grad_close(ev.theta_grads[key], num, rtol=1e-5, atol=1e-9)


def test_gradient_accumulates_into_supplied_buffers():
    users, items, rng = toy_setup(29)
    b1 = make_batch("ui", rng, 3, 4)
    b2 = make_batch("uu", rng, 3, 3)
    acc = zero_theta_grads(users, items)
    batch_inner(b1, users, items, W2, ("fixed", 1.0), grad_theta=True, out_grads=acc)
    snapshot = {k: v.copy() for k, v in acc.items()}
    batch_inner(b2, users, items, W2, ("fixed", 1.0), grad_theta=True, out_grads=acc)
    solo = zero_theta_grads(users, items)
    batch_inner(b2, users, items, W2, ("fixed", 1.0), grad_theta=True, out_grads=solo)
    for k in acc:
        np.testing.assert_allclose(acc[k], snapshot[k] + solo[k], atol=1e-15)
