import copy

import numpy as np
import pytest

from pmlam import bilevel, losses
from pmlam.bilevel import build_proxy
from pmlam.buffers import BufferPool
from pmlam.config import make_config
from pmlam.data import split_five_fold
from pmlam.distance import SIGMA_MIN, DistanceKind
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from pmlam.margin_net import init_margin_net
from pmlam.synth import planted_clusters

from helpers import (add_at_theta_grads, assert_grad_close, inner_theta_grads,
                     numeric_grad, random_table)

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
    mu_a, (mu_p, mu_n), rt_a, rt_o, _ = _gather(batch, users, items, kind)
    if kind is W2:
        rt_p, rt_n = rt_o
        d2p = np.sum((mu_a - mu_p) ** 2, 1) + np.sum((rt_a - rt_p) ** 2, 1)
        d2n = np.sum((mu_a - mu_n) ** 2, 1) + np.sum((rt_a - rt_n) ** 2, 1)
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
    theta_grads = inner_theta_grads(b, users, items, kind, net)
    # the differences re-run the full forward (frozen noise), so the margin term moves
    for key, ref in (("user_mu", users.mu), ("user_sigma", users.sigma),
                     ("item_mu", items.mu), ("item_sigma", items.sigma)):
        def f(x, key=key):
            uu, ii = tables_with(users, items, key, x)
            return batch_inner(b, uu, ii, kind, "adaptive", phi=net).loss
        num = numeric_grad(f, ref.copy(), step=1e-6)
        assert_grad_close(theta_grads[key], num, rtol=1e-5, atol=1e-8)


def test_phi_gradient_matches_fd():
    users, items, rng = toy_setup(13)
    net = init_margin_net(2, 4, rng)
    net.b2[0] = 0.4
    b = make_batch("ui", rng, 3, 4, h=2)
    ev = batch_inner(b, users, items, W2, "adaptive", phi=net, grad_phi=True)
    for name, arr in net.params().items():
        def f(x, name=name):
            trial = copy.deepcopy(net)
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


@pytest.mark.parametrize("relation", ["ui", "uu", "ii"])
def test_w2_gather_floors_and_roots_like_a_per_row_reference(relation):
    from pmlam.losses import _gather
    users, items, rng = toy_setup(23, n_users=5, n_items=6, h=3)
    users.sigma[1, 0] = -0.2  # proxy and probe tables hold such entries
    users.sigma[3, 2] = 0.5 * SIGMA_MIN
    items.sigma[2, 1] = -1e-12
    items.sigma[4, 0] = SIGMA_MIN  # on the floor, so live
    n_anchor, n_other = {"ui": (5, 6), "uu": (5, 5), "ii": (6, 6)}[relation]
    b = make_batch(relation, rng, n_anchor, n_other, rows=40)
    a_t, o_t = {"ui": (users, items), "uu": (users, users), "ii": (items, items)}[relation]
    mu_a, mu_o, rt_a, rt_o, live = _gather(b, users, items, W2, BufferPool())
    np.testing.assert_array_equal(mu_a, a_t.mu[b.anchors])
    np.testing.assert_array_equal(mu_o, np.stack([o_t.mu[b.positives], o_t.mu[b.negatives]]))
    np.testing.assert_array_equal(rt_a, np.sqrt(np.maximum(a_t.sigma[b.anchors], SIGMA_MIN)))
    for rt, rows in ((rt_o[0], b.positives), (rt_o[1], b.negatives)):
        np.testing.assert_array_equal(rt, np.sqrt(np.maximum(o_t.sigma[rows], SIGMA_MIN)))
    assert live is not None
    np.testing.assert_array_equal(live[0], a_t.sigma[b.anchors] >= SIGMA_MIN)
    np.testing.assert_array_equal(
        live[1], np.stack([o_t.sigma[b.positives], o_t.sigma[b.negatives]]) >= SIGMA_MIN)
    assert not live[0].all() or not live[1].all()
    # tables with no floored entry give no mask
    clean_users, clean_items, _ = toy_setup(23, n_users=5, n_items=6, h=3)
    assert _gather(b, clean_users, clean_items, W2)[4] is None


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


@pytest.mark.parametrize("relation", ["ui", "uu", "ii"])
@pytest.mark.parametrize("kind", [W2, EUC])
def test_sparse_scatter_matches_add_at_reference(relation, kind):
    users, items, rng = toy_setup(31, n_users=5, n_items=6, h=3)
    users.sigma[1, 0] = -0.2  # a proxy-like entry below the floor
    items.sigma[2, 1] = 1e-9
    n_anchor, n_other = {"ui": (5, 6), "uu": (5, 5), "ii": (6, 6)}[relation]
    b = make_batch(relation, rng, n_anchor, n_other, rows=64)
    for ids in (b.anchors, b.positives, b.negatives):
        assert len(np.unique(ids)) < len(ids)  # every role repeats indices
    acc = {k: rng.normal(size=v.shape) for k, v in zero_theta_grads(users, items).items()}
    ref = {k: v.copy() for k, v in acc.items()}
    ev = batch_inner(b, users, items, kind, ("fixed", 0.5), grad_theta=True, out_grads=acc)
    assert 0 < ev.active.sum() < len(b)
    add_at_theta_grads(b, users, items, kind, ev.active, ref)
    for key in acc:
        np.testing.assert_allclose(acc[key], ref[key], rtol=1e-12, atol=0)


@pytest.mark.parametrize("margin_mode", [("fixed", 0.5), "adaptive"])
def test_euclidean_call_ignores_sigma(margin_mode):
    users, items, rng = toy_setup(37)
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 0.4
    b = make_batch("ui", rng, 3, 4, rows=16)
    nan_users = GaussianEmbeddingTable(users.mu, np.full_like(users.sigma, np.nan))
    nan_items = GaussianEmbeddingTable(items.mu, np.full_like(items.sigma, np.nan))
    kwargs = dict(phi=net, grad_theta=True, grad_phi=True)
    ev = batch_inner(b, users, items, EUC, margin_mode, **kwargs)
    ev_nan = batch_inner(b, nan_users, nan_items, EUC, margin_mode, **kwargs)
    assert ev.active.sum() > 0
    assert ev_nan.loss == ev.loss
    for key in ("user_mu", "item_mu"):
        np.testing.assert_array_equal(ev_nan.theta_grads[key], ev.theta_grads[key])
    for key in ("user_sigma", "item_sigma"):
        assert np.all(ev_nan.theta_grads[key] == 0.0)


def counting_selection(monkeypatch):
    """Route losses.selection_matrix through a wrapper that logs each build."""
    built = []
    real = losses.selection_matrix

    def counted(rows, n_rows):
        built.append((len(rows), n_rows))
        return real(rows, n_rows)

    monkeypatch.setattr(losses, "selection_matrix", counted)
    return built


def test_selection_built_once_and_reused_by_outer_pass(monkeypatch):
    built = counting_selection(monkeypatch)
    users, items, rng = toy_setup(41)
    net = init_margin_net(2, 3, rng)
    b = make_batch("ui", rng, 3, 4, rows=8, h=2)
    grads = zero_theta_grads(users, items)
    batch_inner(b, users, items, W2, "adaptive", phi=net, grad_theta=True, out_grads=grads)
    assert built == [(8, 3), (16, 4)]  # anchors into users, (pos, neg) into items
    selection = b.selection(3, 4)
    proxy_users, proxy_items = build_proxy(users, items, grads, 0.1)
    batch_outer(b, proxy_users, proxy_items, W2, m=1.0, grad_theta=True)
    batch_inner(b, proxy_users, proxy_items, W2, "adaptive", phi=net, grad_phi=True)
    assert built == [(8, 3), (16, 4)]
    assert all(a is c for a, c in zip(b.selection(3, 4), selection))


def test_training_builds_one_selection_per_batch(monkeypatch):
    built = counting_selection(monkeypatch)
    sampled = []
    real_sample = bilevel.sampler.sample_triplets

    def counted_sample(*args):
        sampled.append(real_sample(*args))
        return sampled[-1]

    monkeypatch.setattr(bilevel.sampler, "sample_triplets", counted_sample)
    ds, _, _ = planted_clusters(n_users=20, n_items=20, seed=0, p_in=0.8, p_out=0.1)
    cfg = make_config(file_values={"h": "4", "hidden": "4", "epochs": "1",
                                   "batch_size": "32", "pool_size": "8",
                                   "relations": "ui,uu,ii", "sim_threshold": "0.3"})
    bilevel.train(ds, split_five_fold(ds, seed=0)[0], cfg)
    assert {b.relation for b in sampled} == {"ui", "uu", "ii"}
    assert len(built) == 2 * len(sampled)


@pytest.mark.parametrize("kind", [W2, DistanceKind.EUCLIDEAN_SQUARED])
def test_phi_grads_do_not_depend_on_theta_grads(kind):
    users, items, rng = toy_setup(41)
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 0.4
    b = make_batch("ui", rng, 3, 4, rows=16, h=2)
    alone = batch_inner(b, users, items, kind, "adaptive", phi=net, grad_phi=True)
    both = batch_inner(b, users, items, kind, "adaptive", phi=net, grad_phi=True,
                       grad_theta=True)
    assert alone.phi_grads.keys() == both.phi_grads.keys()
    for name, g in alone.phi_grads.items():
        np.testing.assert_array_equal(both.phi_grads[name], g)


POOL_PASSES = {  # batch_inner keywords of each kind of pass a training step makes
    "inner": dict(grad_theta=True, grad_phi=True),
    "outer": dict(grad_theta=True),
    "probe": dict(grad_phi=True),
}


def pool_pass(name, b, users, items, kind, net, ws):
    kwargs = dict(POOL_PASSES[name], ws=ws)
    if name == "outer":
        return batch_outer(b, users, items, kind, **kwargs)
    return batch_inner(b, users, items, kind, "adaptive", phi=net, **kwargs)


def eval_arrays(ev):
    """Every array a BatchEval holds, by name, copied."""
    out = {"loss": np.array(ev.loss), "margins": ev.margins.copy(), "active": ev.active.copy()}
    for prefix, grads in (("theta", ev.theta_grads), ("phi", ev.phi_grads)):
        out.update((f"{prefix}.{k}", g.copy()) for k, g in (grads or {}).items())
    return out


def assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("kind", [W2, EUC])
@pytest.mark.parametrize("name", sorted(POOL_PASSES))
def test_a_reused_pool_gives_the_results_of_fresh_calls(name, kind):
    users, items, rng = toy_setup(43, n_users=5, n_items=7, h=3)
    users.sigma[2, 1] = -0.1  # floored in the gather, as at a probe's tables
    net = init_margin_net(3, 4, rng)
    net.b2[0] = 0.6
    ws = BufferPool()
    for rows in (8, 40, 16, 3, 0, 40):  # grow, shrink, empty, regrow
        batch_rng = np.random.default_rng(rows)
        b = make_batch("ui", batch_rng, 5, 7, rows=rows)
        b.attach_noise(3, np.random.default_rng([rows, 1]), ws)
        pooled = eval_arrays(pool_pass(name, b, users, items, kind, net, ws))
        b.attach_noise(3, np.random.default_rng([rows, 1]))
        fresh = eval_arrays(pool_pass(name, b, users, items, kind, net, None))
        assert_same_arrays(pooled, fresh)


def test_a_returned_batch_eval_is_unchanged_by_later_calls_on_its_pool():
    users, items, rng = toy_setup(47, n_users=5, n_items=7, h=3)
    net = init_margin_net(3, 4, rng)
    ws = BufferPool()
    b = make_batch("ui", rng, 5, 7, rows=24)
    b.attach_noise(3, rng, ws)
    kept = []
    for name in sorted(POOL_PASSES):
        ev = pool_pass(name, b, users, items, W2, net, ws)
        kept.append((ev, eval_arrays(ev)))
    for rows in (12, 24, 48):  # smaller and equal batches write over the same buffers
        other = make_batch("uu", rng, 5, 5, rows=rows)
        other.attach_noise(3, rng, ws)
        for name in sorted(POOL_PASSES):
            pool_pass(name, other, users, items, W2, net, ws)
    for ev, snapshot in kept:
        assert_same_arrays(eval_arrays(ev), snapshot)


def test_attach_noise_into_a_pool_draws_the_numbers_of_three_draws():
    ws = BufferPool()
    for rows in (30, 10):  # the second draw reuses the first one's buffer
        b = make_batch("ii", np.random.default_rng(rows), 6, 6, rows=rows)
        pooled_rng, fresh_rng, rng = (np.random.default_rng(rows) for _ in range(3))
        b.attach_noise(4, pooled_rng, ws)
        pooled = (b.noise_anchor, b.noise_pos, b.noise_neg)
        b.attach_noise(4, fresh_rng)
        fresh = (b.noise_anchor, b.noise_pos, b.noise_neg)
        for got, unpooled in zip(pooled, fresh):
            want = rng.standard_normal((rows, 4))
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(unpooled, want)
        assert pooled_rng.bit_generator.state == rng.bit_generator.state
