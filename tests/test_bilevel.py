import copy
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

import pmlam.bilevel as bilevel
from pmlam.bilevel import (Adam, NumericFailure, build_proxy,
                           darts_hypergradient, phi_params, phi_step, theta_dict,
                           theta_step, train)
from pmlam.buffers import BufferPool
from pmlam import checkpoint, data
from pmlam.checkpoint import _collect_arrays
from pmlam.cli import _config_from_args, build_parser
from pmlam.config import config_strings, make_config
from pmlam.data import FoldSplit, save_dataset, save_folds, split_five_fold
from pmlam.distance import DistanceKind
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from pmlam.margin_net import init_margin_net
from pmlam.synth import planted_clusters

import golden_runs
from helpers import (ReferenceAdam, Sgd, filter_pairs, inner_theta_grads, random_table,
                     reference_exclusions, reference_transpose_rows,
                     scipy_modules_of_a_fresh_run)

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
        return batch_outer(b, pu, pi, W2).loss

    base = batch_inner(b, users, items, W2, net)
    assert np.all(base.active), "test instance needs all hinges active"

    grads = inner_grads(net)
    pu, pi = build_proxy(users, items, grads, alpha)
    v = zero_theta_grads(pu, pi, W2)
    ov = batch_outer(b, pu, pi, W2, grads=v)
    assert np.all(ov.active), "outer hinges must stay active too"

    def grad_phi_fn(theta_arrays):
        from pmlam.embeddings import GaussianEmbeddingTable
        tu = GaussianEmbeddingTable(theta_arrays["user_mu"], theta_arrays["user_sigma"])
        ti = GaussianEmbeddingTable(theta_arrays["item_mu"], theta_arrays["item_sigma"])
        return batch_inner(b, tu, ti, W2, net, grad_phi=True).phi_grads

    hyper = darts_hypergradient(theta_dict(users, items), v,
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


def three_relation_step(seed=61, h=3):
    """Tables, noisy W2 batches of ui, uu and ii, their margin nets, and the outer gradient."""
    rng = np.random.default_rng(seed)
    users, items = random_table(5, h, rng), random_table(7, h, rng)
    users.sigma[2, 1] = -0.1  # floored in the gather, as at a probe's tables
    batches = {}
    for rel, (n_a, n_o), rows in (("ui", (5, 7), 12), ("uu", (5, 5), 8), ("ii", (7, 7), 10)):
        b = TripletBatch(rel, rng.integers(0, n_a, rows), rng.integers(0, n_o, rows),
                         rng.integers(0, n_o, rows))
        b.attach_noise(h, rng)
        batches[rel] = b
    nets = {rel: init_margin_net(h, 4, rng) for rel in batches}
    grads = zero_theta_grads(users, items, W2)
    for rel, b in batches.items():
        batch_inner(b, users, items, W2, nets[rel], grads=grads)
    pu, pi = build_proxy(users, items, grads, 0.1)
    v = zero_theta_grads(users, items, W2)
    for b in batches.values():
        batch_outer(b, pu, pi, W2, grads=v)
    return users, items, batches, nets, v


def test_hypergradient_with_a_worker_equals_the_serial_call():
    users, items, batches, nets, v = three_relation_step()
    ws, probe_ws = BufferPool(), BufferPool()
    calls = []

    def grad_phi_fn(t, plus=False):
        calls.append((plus, threading.current_thread() is threading.main_thread()))
        tu = GaussianEmbeddingTable(t["user_mu"], t["user_sigma"])
        ti = GaussianEmbeddingTable(t["item_mu"], t["item_sigma"])
        return phi_params({rel: batch_inner(b, tu, ti, W2, nets[rel], grad_phi=True,
                                            ws=probe_ws if plus else ws).phi_grads
                           for rel, b in batches.items()})

    theta = theta_dict(users, items)
    serial = darts_hypergradient(theta, v, 0.1, 1e-2, grad_phi_fn)
    assert calls == [(False, True), (False, True)]
    calls.clear()
    with ThreadPoolExecutor(max_workers=1) as worker:
        threaded = darts_hypergradient(theta, v, 0.1, 1e-2, grad_phi_fn, worker)
    assert sorted(calls) == [(False, True), (True, False)]  # the + probe ran on the worker
    assert [key.split(".")[0] for key in threaded] == [rel for rel in ("ui", "uu", "ii")
                                                       for _ in range(4)]
    assert list(threaded) == list(serial)
    for key, g in serial.items():
        assert np.array_equal(threaded[key], g), key


@pytest.mark.parametrize("threaded", [False, True])
def test_hypergradient_written_into_given_arrays_equals_the_allocating_call(threaded):
    users, items, batches, nets, v = three_relation_step()
    theta = theta_dict(users, items)
    theta_bytes = {k: a.tobytes() for k, a in theta.items()}
    probes = {}  # + or - -> {key: (array, its bytes)} as the probe read them

    def grad_phi_fn(t, plus=False):
        probes["+" if plus or "+" not in probes else "-"] = {k: (a, a.tobytes())
                                                             for k, a in t.items()}
        tu = GaussianEmbeddingTable(t["user_mu"], t["user_sigma"])
        ti = GaussianEmbeddingTable(t["item_mu"], t["item_sigma"])
        return phi_params({rel: batch_inner(b, tu, ti, W2, nets[rel], grad_phi=True).phi_grads
                           for rel, b in batches.items()})

    def call(direction, out=None):
        probes.clear()
        with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as worker:
            return darts_hypergradient(theta, direction, 0.1, 1e-2, grad_phi_fn, worker, out=out)

    v_bytes = {k: a.tobytes() for k, a in v.items()}
    want = call(v)
    want_probes = dict(probes)
    assert {k: a.tobytes() for k, a in v.items()} == v_bytes  # a call without out keeps v
    # as training calls it: the + probe over proxy-shaped arrays, the - probe over v
    plus_out, consumed = {k: np.full_like(a, np.nan) for k, a in theta.items()}, copy.deepcopy(v)
    got = call(consumed, out=(plus_out, consumed))
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    for sign, written in (("+", plus_out), ("-", consumed)):
        for k, a in written.items():
            assert probes[sign][k][0] is a
            assert probes[sign][k][1] == want_probes[sign][k][1] == a.tobytes()
    assert {k: a.tobytes() for k, a in theta.items()} == theta_bytes

    # a direction over some tables: only its keys are written, and theta goes in as it is
    part = {k: v[k] for k in ("user_mu", "item_sigma")}
    part_bytes = {k: a.tobytes() for k, a in part.items()}
    want = call(part)
    want_probes = dict(probes)
    outs = tuple({k: np.full_like(a, np.nan) for k, a in theta.items()} for _ in "+-")
    got = call(part, out=outs)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)
    for sign, written in zip("+-", outs):
        assert probes[sign]["user_sigma"][0] is theta["user_sigma"]
        assert probes[sign]["item_mu"][0] is theta["item_mu"]
        for k in theta:
            if k in part:
                assert probes[sign][k][0] is written[k]
                assert written[k].tobytes() == want_probes[sign][k][1]
            else:
                assert np.isnan(written[k]).all(), k
    assert {k: a.tobytes() for k, a in part.items()} == part_bytes
    assert {k: a.tobytes() for k, a in theta.items()} == theta_bytes


def test_noise_drawn_on_the_worker_equals_serial_draws_in_relation_order():
    h, rng = 3, np.random.default_rng(71)
    batches = {rel: TripletBatch(rel, *(rng.integers(0, 5, rows) for _ in range(3)))
               for rel, rows in (("ui", 9), ("uu", 4), ("ii", 6))}
    drawn, serial = np.random.default_rng(5), np.random.default_rng(5)
    ws = BufferPool()
    with ThreadPoolExecutor(max_workers=1) as worker:
        # as a step queues them: its own ii noise, then the next step's ui noise
        # into that step's turn; later steps draw over the first ones' buffers
        for step, on in enumerate((worker, worker, None)):
            queue = [("ii", 0), ("ui", (step + 1) % 2)]
            pending = [bilevel._queue(on, batches[rel].attach_noise, h, drawn,
                                      out=batches[rel].noise_buffer(ws, h, turn))
                       for rel, turn in queue]
            assert on is not None or all(future.done() for future in pending)
            for future, (rel, turn) in zip(pending, queue):
                assert future.result(timeout=60) is None
                b = batches[rel]
                np.testing.assert_array_equal(b.noise, serial.standard_normal((3, len(b), h)))
                assert np.shares_memory(b.noise, b.noise_buffer(ws, h, turn))
                assert not np.shares_memory(b.noise, b.noise_buffer(ws, h, 1 - turn))
    assert batches["uu"].noise is None
    assert drawn.bit_generator.state == serial.bit_generator.state


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


def test_no_thread_outlives_train_and_the_noise_is_drawn_on_the_worker(monkeypatch):
    ds, fold = planted_fold()
    drawn_on = []
    real_attach = TripletBatch.attach_noise

    def recording_attach(self, *args, **kwargs):
        drawn_on.append(threading.current_thread())
        return real_attach(self, *args, **kwargs)

    monkeypatch.setattr(TripletBatch, "attach_noise", recording_attach)
    cfg = quick_config(relations=("ui", "uu", "ii"), epochs=2)
    before = threading.enumerate()
    train(ds, fold, cfg)  # a batch of 64 x 4 rows runs on one thread
    assert drawn_on and set(drawn_on) == {threading.main_thread()}
    assert threading.enumerate() == before
    drawn_on.clear()
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    train(ds, fold, cfg)
    assert drawn_on and threading.main_thread() not in drawn_on
    assert threading.enumerate() == before


@pytest.mark.parametrize("run", sorted(golden_runs.RUNS))
def test_training_with_the_worker_equals_training_without(run, monkeypatch):
    ds, fold = planted_fold(seed=4, n_users=40, n_items=60, n_clusters=4, p_in=0.7,
                            p_out=0.05)
    cfg = _config_from_args(build_parser().parse_args(["train", "-", *golden_runs.RUNS[run]]))
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: False)
    serial = saved_form(train(ds, fold, cfg))
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter between the threads far more often
    try:
        threaded = saved_form(train(ds, fold, cfg))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def big_step_run(**kw):
    """Data and a config whose steps' (B, h) row arrays hold 2^13 elements.

    At that size numpy lets go of the interpreter lock, so the worker and the
    calling thread overlap. Each epoch ends in a short batch.
    """
    ds, fold = planted_fold(seed=4, n_users=120, n_items=160, n_clusters=4, p_in=0.5,
                            p_out=0.05)
    cfg = quick_config(**{**dict(h=8, hidden=8, batch_size=1024, pool_size=32,
                                 relations=("ui", "uu", "ii"), sim_threshold=0.3), **kw})
    per_batch = cfg.batch_size // cfg.neg_samples
    assert per_batch * cfg.neg_samples * cfg.h >= bilevel.WORKER_MIN_ELEMENTS
    assert len(fold.train_rows.indices) % per_batch > 0
    return ds, fold, cfg


@pytest.mark.parametrize("outer_batch", bilevel.OUTER_BATCHES)
def test_a_threaded_train_of_big_steps_equals_the_serial_one(outer_batch, monkeypatch):
    ds, fold, cfg = big_step_run(epochs=2, refresh_period=1, eval_every=1,
                                 outer_batch=outer_batch)
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: False)
    serial = saved_form(train(ds, fold, cfg))
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = saved_form(train(ds, fold, cfg))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_a_threaded_train_that_first_imports_expit_on_both_threads_writes_the_serial_bytes(
        tmp_path):
    # In a fresh interpreter the first margin-net backward imports scipy.special, and with the
    # worker that first call is the two probes, one on each thread.
    ds, fold, cfg = big_step_run(epochs=1)
    d = tmp_path / "data"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=4))
    trains_on = data.load_folds(data.DataFiles(d), ds)[0].train_rows  # big_step_run's fold
    for got, expect in ((trains_on.indptr, fold.train_rows.indptr),
                        (trains_on.indices, fold.train_rows.indices)):
        np.testing.assert_array_equal(got, expect)
    (tmp_path / "run.cfg").write_text("".join(f"{key} = {value}\n"
                                             for key, value in config_strings(cfg).items()))
    digests = []
    for worker in (False, True):
        run = tmp_path / f"worker-{worker}"
        loaded = scipy_modules_of_a_fresh_run(
            ["train", str(d), "--out-dir", str(run), "--quiet", "--config",
             str(tmp_path / "run.cfg")], worker=worker)
        assert "scipy.special" in loaded
        digests.append(hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def record_pools(monkeypatch):
    """Thread name -> {id: pool} of the pools the steps' passes run in, filled as they run."""
    pools = {}
    real_inner = bilevel.batch_inner

    def recording_inner(*args, **kwargs):
        on = "main" if threading.current_thread() is threading.main_thread() else "worker"
        pools.setdefault(on, {})[id(kwargs["ws"])] = kwargs["ws"]
        return real_inner(*args, **kwargs)

    monkeypatch.setattr(bilevel, "batch_inner", recording_inner)
    return pools


def test_the_plus_probe_borrows_the_step_pool_s_variance_gradient_rows(monkeypatch):
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    train(*big_step_run(epochs=1))
    (step,), (plus,) = pools["main"].values(), pools["worker"].values()
    assert set(plus._buffers) == {"mu", "rt", "root.user", "root.item"}
    assert set(plus._borrowed) == {"dmu", "da1"}
    assert plus._borrowed["dmu"] is step._buffers["drt"]
    assert plus._borrowed["da1"] is step._buffers["d_sigma_a"]


def test_the_plus_probe_writes_no_buffer_the_minus_probe_used(monkeypatch):
    # The + probe is held until the - probe has written all its arrays, and those arrays are
    # compared after the + probe: a buffer the two share shows as changed, however briefly it
    # is live and whatever the two threads' timing.
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    ds, fold, cfg = big_step_run(epochs=1)
    real_hypergradient, real_get = bilevel.darts_hypergradient, BufferPool.get
    got, probes, changed = [], [], []  # got: (name, view) of the - probe's arrays
    recording = threading.Event()

    def recording_get(pool, name, shape):
        view = real_get(pool, name, shape)
        if recording.is_set() and threading.current_thread() is threading.main_thread():
            got.append((name, view))
        return view

    def ordered_hypergradient(theta, v, alpha, eps_fd, grad_phi_fn, worker=None, out=None):
        minus_written, written = threading.Event(), []

        def ordered(theta_arrays, plus=False):
            probes.append(plus)
            if plus:
                assert minus_written.wait(timeout=60)
                return grad_phi_fn(theta_arrays, plus=True)
            got.clear()
            recording.set()
            try:
                grads = grad_phi_fn(theta_arrays)
            finally:
                recording.clear()
            written.extend((name, view, view.copy()) for name, view in got)
            minus_written.set()
            return grads

        hyper = real_hypergradient(theta, v, alpha, eps_fd, ordered, worker, out)
        assert written
        changed.extend(name for name, view, before in written
                       if not np.array_equal(view, before, equal_nan=True))
        return hyper

    monkeypatch.setattr(BufferPool, "get", recording_get)
    monkeypatch.setattr(bilevel, "darts_hypergradient", ordered_hypergradient)
    ordered_run = saved_form(train(ds, fold, cfg))
    assert probes.count(True) == probes.count(False) > 0
    assert changed == []
    monkeypatch.setattr(bilevel, "darts_hypergradient", real_hypergradient)
    assert ordered_run == saved_form(train(ds, fold, cfg))


def test_a_euclidean_fixed_margin_step_gathers_no_variance_roots(monkeypatch):
    pools = record_pools(monkeypatch)
    ds, fold = planted_fold()
    train(ds, fold, quick_config(distance_kind="euclidean", margin_mode="fixed:1.0", epochs=1))
    (step,) = pools["main"].values()
    assert set(step._buffers) == {"mu", "dmu"}  # the scatter's anchor rows go over mu


@pytest.mark.parametrize("worker", [False, True])
def test_a_euclidean_train_never_writes_the_variance_tables(worker, monkeypatch):
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: worker)
    ds, fold = planted_fold()
    cfg = quick_config(distance_kind="euclidean", relations=("ui", "uu", "ii"), epochs=2)
    setup = bilevel.set_up(ds, fold, cfg, lambda msg: None)
    state = bilevel.init_state(ds, setup)
    assert setup.margins == {"ui": None, "uu": None, "ii": None}  # every step runs the probes
    sigmas = state.users.sigma, state.items.sigma
    saved = [sigma.tobytes() for sigma in sigmas]
    for sigma in sigmas:
        sigma.flags.writeable = False  # the proxy shares them: a write there raises
    for _ in range(cfg.epochs):
        bilevel.run_epoch(setup, state, lambda msg: None)
    assert state.users.sigma is sigmas[0] and state.items.sigma is sigmas[1]
    assert [sigma.tobytes() for sigma in sigmas] == saved


def test_the_steps_give_back_the_blas_thread_count_they_lowered(monkeypatch):
    calls, cores = bilevel._openblas_thread_calls(), len(os.sched_getaffinity(0))
    if calls is None or cores < 2:
        pytest.skip("needs two cores and an OpenBLAS whose thread count can be set")
    get, set_threads = calls
    seen = []  # BLAS threads while the steps run
    real_check, real_inner = bilevel._check_finite, bilevel.batch_inner

    def recording_check(*args):
        seen.append(get())
        return real_check(*args)

    def failing_inner(*args, **kwargs):
        seen.append(get())
        raise RuntimeError("a pass failed")

    monkeypatch.setattr(bilevel, "_check_finite", recording_check)
    monkeypatch.setattr(bilevel, "_worker_pays", lambda batch_rows, h: True)
    ds, fold = planted_fold()
    old = get()
    set_threads(cores)  # the library's default where no variable sets it
    try:
        for eps_fd, inner, error in ((1e-2, real_inner, None),  # ends
                                     (1e308, real_inner, NumericFailure),  # exit 3
                                     (1e-2, failing_inner, RuntimeError)):
            seen.clear()
            monkeypatch.setattr(bilevel, "batch_inner", inner)
            cfg = quick_config(relations=("ui", "uu", "ii"), epochs=1, eps_fd=eps_fd)
            with np.errstate(all="ignore"), (pytest.raises(error) if error else nullcontext()):
                train(ds, fold, cfg)
            assert seen and set(seen) == {cores - 1}, error
            assert get() == cores, error
    finally:
        set_threads(old)


def openblas_thread_getter(libs, folder):
    """The thread-count getter of the one OpenBLAS in ``libs`` under ``folder``, or None."""
    held = [lib for lib in libs if f"{os.sep}{folder}{os.sep}" in lib]
    if len(held) != 1:
        return None
    dll = ctypes.CDLL(held[0])
    names = ["scipy_openblas_get_num_threads", *(get for get, _ in bilevel.OPENBLAS_THREAD_CALLS)]
    getter = next((getattr(dll, name) for name in names if hasattr(dll, name)), None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


def test_the_thread_setter_acts_on_numpy_s_openblas_and_not_scipy_s():
    # scipy.special maps scipy's own OpenBLAS beside numpy's: the steps must lower numpy's
    import scipy.special  # noqa: F401
    calls, cores = bilevel._openblas_thread_calls(), len(os.sched_getaffinity(0))
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    numpy_threads = openblas_thread_getter(libs, "numpy.libs")
    scipy_threads = openblas_thread_getter(libs, "scipy.libs")
    if calls is None or cores < 2 or numpy_threads is None or scipy_threads is None:
        pytest.skip("needs two cores and an OpenBLAS of numpy's own and of scipy's own")
    _, set_threads = calls
    old, scipy_old = numpy_threads(), scipy_threads()
    new = 1 if old > 1 else 2
    set_threads(new)
    try:
        assert (numpy_threads(), scipy_threads()) == (new, scipy_old)
    finally:
        set_threads(old)


def test_the_worker_starts_under_the_library_default_thread_count():
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip("one core: the steps run serially")
    code = textwrap.dedent("""
        import json, threading
        from pmlam import bilevel
        import test_bilevel

        default = bilevel._blas_threads()
        seen = set()  # (live threads, BLAS threads) while the steps run
        real_check = bilevel._check_finite

        def recording_check(*args):
            seen.add((threading.active_count(), bilevel._blas_threads()))
            return real_check(*args)

        bilevel._check_finite = recording_check
        bilevel.train(*test_bilevel.big_step_run(epochs=1))
        print(json.dumps([default, sorted(seen), bilevel._blas_threads()]))
    """)
    env = {var: value for var, value in os.environ.items()
           if var not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    default, seen, after = json.loads(out.splitlines()[-1])
    if default is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can ask")
    assert seen == [[2, min(default, cores - 1)]]  # the worker, beside BLAS leaving a core
    assert after == default


@pytest.mark.parametrize("blas_threads, cores, batch_rows, h, pays", [
    (1, 2, 4096, 2, True),  # 2^13 elements and a core BLAS leaves free
    (1, 2, 4095, 2, False),
    (2, 2, 5000, 50, True),  # BLAS on every core: the steps have it leave one
    (2, 4, 5000, 50, True),
    (1, 1, 5000, 50, False),
    (None, 2, 5000, 50, False),  # a BLAS that cannot be asked
])
def test_the_worker_runs_only_on_big_steps_with_a_core_blas_leaves(monkeypatch, blas_threads,
                                                                    cores, batch_rows, h, pays):
    monkeypatch.setattr(bilevel, "_blas_threads", lambda: blas_threads)
    monkeypatch.setattr(bilevel.os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert bilevel._worker_pays(batch_rows, h) is pays


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_threads_reads_the_count_openblas_runs(threads):
    code = "from pmlam import bilevel; print(bilevel._blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    if out == ["None"]:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can ask")
    assert out == [str(threads)]


def test_relation_with_only_empty_pools_adds_no_loss():
    # identical training rows make every user a neighbor of every other, so
    # every uu pool is empty and every uu batch has no rows
    ds = filter_pairs([(f"u{u}", f"i{i}") for u in range(4) for i in range(6)],
                      min_user=1, min_item=1)
    fold = FoldSplit(fold_index=0, train_rows=[np.arange(3)] * 4,
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


def test_set_up_gives_each_training_relation_its_margin_in_config_order():
    ds, fold = planted_fold(seed=4)
    cfg = quick_config(relations=("ui", "uu", "ii"), margin_mode_uu="fixed:1.0")
    setup = bilevel.set_up(ds, fold, cfg, say=print)
    assert setup.margins == {"ui": None, "uu": 1.0, "ii": None}
    assert list(setup.margins) == ["ui", "uu", "ii"]


def test_a_relation_without_pairs_gets_no_net(tmp_path):
    ds, fold = planted_fold(n_users=60, n_items=40, n_clusters=2, p_in=0.4, p_out=0.03)
    cfg = quick_config(relations=("ui", "uu"), sim_threshold=1.0, epochs=1)
    said = []
    setup = bilevel.set_up(ds, fold, cfg, say=said.append)
    assert said[0].startswith("uu: 0 pairs")
    assert setup.margins == {"ui": None}
    state = bilevel.init_state(ds, setup)
    bilevel.run_epoch(setup, state, say=said.append)
    assert list(state.phis) == ["ui"]
    assert {name.split(".")[0] for name in state.opt_phi.m} == {"ui"}
    path = tmp_path / "checkpoint.bin"
    checkpoint.save(path, state, {})
    _, loaded = checkpoint.load(path)
    assert list(loaded.phis) == ["ui"]
    names = list(_collect_arrays(loaded)[0])  # the file's directory, as load checks
    assert any(name.startswith("phi.ui.") for name in names)
    assert any(name.startswith("opt.phi.m.ui.") for name in names)
    assert not [name for name in names if ".uu." in name]


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


def test_non_finite_joint_margin_gradient_aborts_before_the_step(monkeypatch):
    ds, fold = planted_fold()
    cfg = quick_config(relations=("ui", "uu", "ii"), joint_margin_training=True, epochs=1)
    real = bilevel.batch_inner

    def poisoned(batch, *args, **kw):
        ev = real(batch, *args, **kw)
        if batch.relation == "uu" and ev.phi_grads is not None:
            ev.phi_grads["b1"][0] = np.inf
        return ev

    monkeypatch.setattr(bilevel, "batch_inner", poisoned)
    stepped = []
    monkeypatch.setattr(bilevel, "phi_step", lambda *args: stepped.append(args))
    with pytest.raises(NumericFailure, match="non-finite joint margin gradient at epoch 0 "
                                             "iteration 0; batch heads"):
        train(ds, fold, cfg)
    assert not stepped


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
def test_a_state_copied_without_pools_runs_on_as_the_whole_run(run, tmp_path):
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
    checkpoint.save(tmp_path / "whole.bin", whole, {})
    for state in copies:
        # and through the file: a state saved after epoch k, loaded, given epoch k
        k = state.epoch
        checkpoint.save(tmp_path / f"after-{k}.bin", state, {})
        _, loaded = checkpoint.load(tmp_path / f"after-{k}.bin")
        assert (loaded.epoch, loaded.pools) == (cfg.epochs, None)
        loaded.epoch = k
        for resumed in (state, loaded):
            for _ in range(resumed.epoch, cfg.epochs):
                bilevel.run_epoch(setup, resumed, say=print)
        assert saved_form(state) == saved_form(whole)
        assert [row.csv() for row in loaded.trace] == [row.csv() for row in whole.trace[k:]]
        assert loaded.evals == [(epoch, report) for epoch, report in whole.evals if epoch >= k]
        checkpoint.save(tmp_path / f"resumed-{k}.bin", loaded, {})
        assert (tmp_path / f"resumed-{k}.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()


def test_theta_step_projects():
    rng = np.random.default_rng(11)
    users, items = random_table(3, 2, rng), random_table(4, 2, rng)
    grads = {k: 100.0 * np.ones_like(v) for k, v in theta_dict(users, items).items()}
    theta_step(users, items, grads, Sgd(1.0))
    users.check()
    items.check()
