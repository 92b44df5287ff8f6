import copy

import numpy as np
import pytest

import pmlam.bilevel as bilevel
from pmlam.bilevel import (Adam, NumericFailure, build_proxy,
                           darts_hypergradient, phi_step, theta_dict,
                           theta_step, train)
from pmlam.checkpoint import _collect_arrays
from pmlam.cli import _config_from_args, build_parser
from pmlam.config import make_config
from pmlam.data import FoldSplit, filter_iterative, split_five_fold
from pmlam.distance import DistanceKind
from pmlam.losses import TripletBatch, batch_inner, batch_outer
from pmlam.margin_net import init_margin_net
from pmlam.synth import planted_clusters

import golden_runs
from helpers import (ReferenceAdam, Sgd, inner_theta_grads, random_table,
                     reference_exclusions, reference_transpose_rows)

W2 = DistanceKind.W2_SQUARED


# ---------------------------------------------------------------------------
# optimizers


def test_zero_gradient_leaves_parameters_alone():
    opt = Adam(0.05)
    params = {"w": np.array([0.3, 0.7])}
    before = params["w"].copy()
    for _ in range(3):
        opt.step(params, {"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], before)


def test_adam_step_magnitude_with_steady_gradients():
    opt = Adam(alpha=0.01)
    params = {"w": np.array([5.0])}
    for _ in range(20):
        before = params["w"].copy()
        opt.step(params, {"w": np.array([3.0])})
        assert np.all(np.abs(params["w"] - before) <= 0.01 * (1 + 1e-8))


def test_adam_matches_the_reference_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    shapes = {"w": (7, 3), "b": (3,), "c": (1,), "frozen": (4, 2)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref_params = {name: arr.copy() for name, arr in params.items()}
    opt, ref = Adam(0.05), ReferenceAdam(0.05)
    for t in range(8):
        zero = t in (2, 5)  # whole steps of zero gradients, after moments have built up
        grads = {name: np.zeros(shape) if zero else rng.normal(size=shape)
                 for name, shape in shapes.items() if name != "frozen"}
        opt.step(params, grads)
        # the reference sees an explicit zero gradient where Adam sees none
        ref.step(ref_params, {**grads, "frozen": np.zeros(shapes["frozen"])})
        for name in shapes:
            np.testing.assert_array_equal(params[name], ref_params[name])
            np.testing.assert_array_equal(opt.m[name], ref.m[name])
            np.testing.assert_array_equal(opt.v[name], ref.v[name])
    assert opt.t == ref.t == 8
    assert list(opt.m) == list(opt.v) == list(shapes)  # params' order, so one layout
    assert not opt.m["frozen"].any() and not opt.v["frozen"].any()


# ---------------------------------------------------------------------------
# proxy and hypergradient


def test_proxy_zero_step_and_zero_gradient():
    rng = np.random.default_rng(0)
    users, items = random_table(3, 2, rng), random_table(4, 2, rng)
    zeros = {k: np.zeros_like(v) for k, v in theta_dict(users, items).items()}
    pu, pi = build_proxy(users, items, zeros, alpha=0.5)
    np.testing.assert_array_equal(pu.mu, users.mu)
    np.testing.assert_array_equal(pi.sigma, items.sigma)
    grads = {k: rng.normal(size=v.shape) for k, v in theta_dict(users, items).items()}
    pu, pi = build_proxy(users, items, grads, alpha=0.0)
    np.testing.assert_array_equal(pu.mu, users.mu)


def test_proxy_matches_sgd_step_and_keeps_inputs_intact():
    rng = np.random.default_rng(1)
    users, items = random_table(3, 2, rng), random_table(4, 2, rng)
    grads = {k: rng.normal(size=v.shape) for k, v in theta_dict(users, items).items()}
    snap_u, snap_i = copy.deepcopy(users), copy.deepcopy(items)
    pu, pi = build_proxy(users, items, grads, alpha=0.01)
    np.testing.assert_array_equal(users.mu, snap_u.mu)
    np.testing.assert_array_equal(items.sigma, snap_i.sigma)

    # a plain gradient step, no projection
    np.testing.assert_allclose(pu.mu, users.mu - 0.01 * grads["user_mu"], atol=1e-15)
    np.testing.assert_allclose(pu.sigma, users.sigma - 0.01 * grads["user_sigma"],
                               atol=1e-15)
    np.testing.assert_allclose(pi.mu, items.mu - 0.01 * grads["item_mu"], atol=1e-15)


def test_scalar_engine_hypergradient():
    # inner (x - p)^2, outer x~^2 at x=1, p=0, alpha=0.1: exact value 0.32
    alpha = 0.1
    theta = {"x": np.array([1.0])}
    phi = np.array([0.0])
    inner_grad = 2.0 * (theta["x"] - phi)
    x_tilde = theta["x"] - alpha * inner_grad
    v = {"x": 2.0 * x_tilde}

    def grad_phi_fn(t):
        return {"p": -2.0 * (t["x"] - phi)}

    hyper = darts_hypergradient(theta, v, alpha, eps_fd=1e-2,
                                grad_phi_fn=grad_phi_fn)
    exact = 4.0 * alpha * x_tilde[0]
    assert exact == pytest.approx(0.32, abs=1e-15)
    assert hyper["p"][0] == pytest.approx(0.32, abs=1e-4)


def test_hypergradient_zero_outer_gradient_skips_perturbation():
    theta = {"x": np.array([1.0])}
    called = []

    def grad_phi_fn(t):
        called.append(1)
        return {"p": np.array([1.0])}

    assert darts_hypergradient(theta, {"x": np.zeros(1)}, 0.1, 1e-2,
                               grad_phi_fn) is None
    assert not called


def test_full_model_hypergradient_vs_fd_on_phi():
    # 2 users / 3 items, margins big enough that every hinge stays engaged
    rng = np.random.default_rng(33)
    users = random_table(2, 2, rng, mu_scale=0.3)
    items = random_table(3, 2, rng, mu_scale=0.3)
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 1.0
    alpha, eps_fd = 0.1, 1e-2
    b = TripletBatch("ui", np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2]),
                     np.array([2, 2, 0, 0]))
    b.attach_noise(2, rng)

    def inner_grads(net_now):
        return inner_theta_grads(b, users, items, W2, net_now)

    def outer_of(net_now):
        pu, pi = build_proxy(users, items, inner_grads(net_now), alpha)
        return batch_outer(b, pu, pi, W2, m=1.0, grad_theta=False).loss

    base = batch_inner(b, users, items, W2, "adaptive", phi=net)
    assert np.all(base.active), "test instance needs all hinges active"

    grads = inner_grads(net)
    pu, pi = build_proxy(users, items, grads, alpha)
    ov = batch_outer(b, pu, pi, W2, m=1.0, grad_theta=True)
    assert np.all(ov.active), "outer hinges must stay active too"

    def grad_phi_fn(theta_arrays):
        from pmlam.embeddings import GaussianEmbeddingTable
        tu = GaussianEmbeddingTable(theta_arrays["user_mu"], theta_arrays["user_sigma"])
        ti = GaussianEmbeddingTable(theta_arrays["item_mu"], theta_arrays["item_sigma"])
        return batch_inner(b, tu, ti, W2, "adaptive", phi=net,
                           grad_phi=True).phi_grads

    hyper = darts_hypergradient(theta_dict(users, items), ov.theta_grads,
                                alpha, eps_fd, grad_phi_fn)
    for name, arr in net.params().items():
        flat = arr.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + 1e-4
            fp = outer_of(net)
            flat[i] = keep - 1e-4
            fm = outer_of(net)
            flat[i] = keep
            num[i] = (fp - fm) / 2e-4
        np.testing.assert_allclose(hyper[name].ravel(), num, rtol=1e-2,
                                   atol=1e-7)


def test_phi_step_decay_direction():
    rng = np.random.default_rng(2)
    phis = {"ui": init_margin_net(2, 3, rng)}
    snap = copy.deepcopy(phis["ui"])
    phi_step(phis, None, lam=0.0, opt=Sgd(0.1))
    np.testing.assert_array_equal(phis["ui"].W1, snap.W1)
    phi_step(phis, None, lam=0.01, opt=Sgd(0.1))
    assert np.all(np.abs(phis["ui"].W1) <= np.abs(snap.W1) + 1e-15)
    moved = np.abs(snap.W1) > 0
    assert np.all(np.abs(phis["ui"].W1[moved]) < np.abs(snap.W1[moved]))


# ---------------------------------------------------------------------------
# training loop


def quick_config(**kw):
    base = dict(h=4, hidden=4, epochs=4, batch_size=64, neg_samples=2,
                pool_size=16, refresh_period=2, eval_every=2, seed=0,
                relations=("ui",), margin_mode="adaptive", sim_threshold=0.5)
    base.update(kw)
    return make_config(**base)


def planted_fold(seed=0, **kw):
    ds, _, _ = planted_clusters(seed=seed, **kw)
    return ds, split_five_fold(ds, seed=seed)[0]


def test_zero_epochs_returns_initialization():
    ds, fold = planted_fold()
    cfg = quick_config(epochs=0)
    result = train(ds, fold, cfg)
    from pmlam.embeddings import init_table  # init scales live in embeddings
    exp_users = init_table(ds.n_users, cfg.h, np.random.SeedSequence([cfg.seed, 0]))
    np.testing.assert_array_equal(result.users.mu, exp_users.mu)
    assert result.trace == [] and result.evals == []


def test_euclidean_training_leaves_the_variance_tables_as_initialised():
    from pmlam.embeddings import init_table
    ds, fold = planted_fold()
    for outer_batch in ("same", "fresh"):
        cfg = quick_config(distance_kind="euclidean", outer_batch=outer_batch)
        result = train(ds, fold, cfg)
        for key, table, n, stream in (("user", result.users, ds.n_users, 0),
                                      ("item", result.items, ds.n_items, 1)):
            start = init_table(n, cfg.h, np.random.SeedSequence([cfg.seed, stream]))
            assert table.sigma.tobytes() == start.sigma.tobytes()
            assert not np.array_equal(table.mu, start.mu)  # the means did train
            opt = result.opt_theta
            assert not opt.m[f"{key}_sigma"].any() and not opt.v[f"{key}_sigma"].any()
        assert list(result.opt_theta.m) == ["user_mu", "user_sigma", "item_mu", "item_sigma"]


def test_training_is_deterministic():
    ds, fold = planted_fold()
    cfg = quick_config(relations=("ui", "uu", "ii"))
    r1 = train(ds, fold, cfg)
    r2 = train(ds, fold, cfg)
    assert [row.csv() for row in r1.trace] == [row.csv() for row in r2.trace]
    np.testing.assert_array_equal(r1.users.mu, r2.users.mu)
    np.testing.assert_array_equal(r1.items.sigma, r2.items.sigma)
    e1 = [(e, rep.recall, rep.ndcg) for e, rep in r1.evals]
    e2 = [(e, rep.recall, rep.ndcg) for e, rep in r2.evals]
    assert e1 == e2


def test_relation_with_only_empty_pools_adds_no_loss():
    # identical training rows make every user a neighbor of every other, so
    # every uu pool is empty and every uu batch has no rows
    ds = filter_iterative([(f"u{u}", f"i{i}") for u in range(4) for i in range(6)],
                          min_user=1, min_item=1)
    fold = FoldSplit(fold_index=0, rng_seed=0, train_rows=[np.arange(3)] * 4,
                     test_rows=[np.array([3])] * 4)
    result = train(ds, fold, quick_config(relations=("ui", "uu"), epochs=2))
    assert [row.uu for row in result.trace] == [0.0, 0.0]
    assert all(np.isfinite(row.inner) and row.ui > 0.0 for row in result.trace)


def test_inner_loss_decreases_on_separable_toy():
    ds, fold = planted_fold(n_users=4, n_items=4, n_clusters=2)
    cfg = quick_config(margin_mode="fixed:1.0", epochs=50, eval_every=50,
                       alpha=0.01)
    result = train(ds, fold, cfg)
    first = np.mean([r.inner for r in result.trace[:5]])
    last = np.mean([r.inner for r in result.trace[-5:]])
    assert last < first


def test_tables_stay_valid_after_every_step(monkeypatch):
    ds, fold = planted_fold()
    cfg = quick_config(epochs=3, relations=("ui", "uu", "ii"))
    real_step = bilevel.theta_step
    checked = []

    def checking_step(users, items, grads, opt):
        real_step(users, items, grads, opt)
        users.check()
        items.check()
        checked.append(1)

    monkeypatch.setattr(bilevel, "theta_step", checking_step)
    result = train(ds, fold, cfg)
    assert checked, "no optimizer step ran"
    result.users.check()
    result.items.check()


def test_margin_modes_per_relation():
    ds, fold = planted_fold()
    cfg = quick_config(relations=("ui", "uu", "ii"), margin_mode="adaptive",
                       margin_mode_uu="fixed:1.0", margin_mode_ii="fixed:1.0",
                       epochs=2)
    result = train(ds, fold, cfg)
    assert set(result.phis) == {"ui"}


def test_non_finite_losses_abort_with_diagnostic(monkeypatch):
    ds, fold = planted_fold()
    cfg = quick_config(epochs=1)
    real = bilevel.batch_inner

    def poisoned(*args, **kw):
        ev = real(*args, **kw)
        ev.loss = float("nan")
        return ev

    monkeypatch.setattr(bilevel, "batch_inner", poisoned)
    with pytest.raises(NumericFailure, match="batch heads"):
        train(ds, fold, cfg)


def test_joint_step_makes_one_inner_call_per_relation(monkeypatch):
    ds, fold = planted_fold()
    cfg = quick_config(relations=("ui", "uu", "ii"), joint_margin_training=True,
                       epochs=2)
    calls, real_inner = [], bilevel.batch_inner
    steps, real_step = [], bilevel.theta_step

    def counting_inner(batch, *args, **kw):
        calls.append(batch.relation)
        return real_inner(batch, *args, **kw)

    def counting_step(*args):
        steps.append(sorted(calls))
        calls.clear()
        real_step(*args)

    monkeypatch.setattr(bilevel, "batch_inner", counting_inner)
    monkeypatch.setattr(bilevel, "theta_step", counting_step)
    train(ds, fold, cfg)
    assert len(steps) > 1
    assert all(step == ["ii", "ui", "uu"] for step in steps)


@pytest.mark.parametrize("p_in, p_out", [(0.7, 0.1), (0.5, 0.05), (1.0, 0.0)])
def test_item_rows_and_pool_exclusions_match_references(monkeypatch, p_in, p_out):
    # p_in=0.7 leaves three users without neighbors; p_in=0.5 leaves four
    # items without training users and six without neighbors; p_in=1 gives
    # exact blocks
    ds, fold = planted_fold(n_users=24, n_items=30, n_clusters=3, p_in=p_in,
                            p_out=p_out)
    cfg = quick_config(relations=("ui", "uu", "ii"), epochs=1)
    rows_in, built, excluded = {}, {}, []
    real_build, real_refresh = bilevel.simgraph.build, bilevel.sampler.refresh_pool

    def recording_build(rows, n_cols, tau):
        kind = "user" if n_cols == ds.n_items else "item"  # items' rows hold users
        rows_in[kind] = rows
        built[kind] = real_build(rows, n_cols, tau)
        return built[kind]

    def recording_refresh(exclusions, *args, **kw):
        excluded.append(exclusions)
        return real_refresh(exclusions, *args, **kw)

    monkeypatch.setattr(bilevel.simgraph, "build", recording_build)
    monkeypatch.setattr(bilevel.sampler, "refresh_pool", recording_refresh)
    train(ds, fold, cfg)
    expect_items = reference_transpose_rows(list(fold.train_rows), ds.n_items)
    assert len(rows_in["item"]) == ds.n_items
    for got, want in zip(rows_in["item"], expect_items, strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    ui, uu, ii = excluded  # one refresh, in relation order
    assert ui is fold.train_rows
    for got_rows, nbr in ((uu, built["user"]), (ii, built["item"])):
        expect = reference_exclusions(list(nbr.neighbors))
        assert len(got_rows) == len(expect)
        for got, want in zip(got_rows, expect, strict=True):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def saved_form(state):
    """What a checkpoint of ``state`` holds, arrays as bytes, with its trace and evals."""
    arrays, opt_meta = _collect_arrays(state)
    return ([(name, arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in arrays.items()],
            opt_meta, state.rng_states, [row.csv() for row in state.trace], state.evals)


@pytest.mark.parametrize("run", sorted(golden_runs.RUNS))
def test_a_state_copied_without_pools_runs_on_as_the_whole_run(run):
    # the golden run's config, on data whose pools are a draw from more
    # candidates than a pool holds, so a pool rebuilt from the wrong stream shows
    ds, fold = planted_fold(seed=4, n_users=40, n_items=60, n_clusters=4, p_in=0.7,
                            p_out=0.05)
    cfg = _config_from_args(build_parser().parse_args(["train", "-", *golden_runs.RUNS[run]]))
    assert (cfg.epochs, cfg.refresh_period) == (6, 3)
    setup = bilevel.set_up(ds, fold, cfg, say=print)
    assert min(universe - setup.exclusions[rel].lens().max()
               for rel, universe in setup.universes.items()) > cfg.pool_size
    whole = bilevel.init_state(ds, setup)
    copies = []
    while whole.epoch < cfg.epochs:
        if whole.epoch in (3, 4):  # a refresh epoch comes next, then one between refreshes
            copies.append(copy.deepcopy(whole))
            copies[-1].pools = None
        bilevel.run_epoch(setup, whole, say=print)
    assert saved_form(whole) == saved_form(train(ds, fold, cfg))
    for state in copies:
        for _ in range(state.epoch, cfg.epochs):
            bilevel.run_epoch(setup, state, say=print)
        assert saved_form(state) == saved_form(whole)


def test_theta_step_projects():
    rng = np.random.default_rng(11)
    users, items = random_table(3, 2, rng), random_table(4, 2, rng)
    grads = {k: 100.0 * np.ones_like(v) for k, v in theta_dict(users, items).items()}
    theta_step(users, items, grads, Sgd(1.0))
    users.check()
    items.check()
