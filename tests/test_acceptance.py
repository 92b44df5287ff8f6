"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The MovieLens ablation (criterion 7) needs the raw ratings file on
disk and skips with instructions when it is absent; a self-contained twin of
the same ordering checks runs on generated data either way.
"""

import copy
import os
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.special import ndtri

from pmlam.bilevel import (build_proxy, darts_hypergradient, theta_dict,
                           train)
from pmlam.cli import ABLATION_VARIANTS
from pmlam.config import make_config
from pmlam.data import filter_iterative, ingest, split_five_fold
from pmlam.distance import DistanceKind, pair_rows, w2_squared, w2_squared_grad
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.evaluator import evaluate
from pmlam.losses import TripletBatch, batch_inner, batch_outer, zero_theta_grads
from pmlam.margin_net import backward, forward, init_margin_net, margin_input
from pmlam.synth import planted_clusters

from helpers import (inner_theta_grads, margin_input_backward, margin_input_grad,
                     random_table)

W2 = DistanceKind.W2_SQUARED
EUC = DistanceKind.EUCLIDEAN_SQUARED

ML100K_ENV = "PMLAM_ML100K"
ML100K_DEFAULT = os.path.join(os.path.dirname(__file__), "..", "data",
                              "ml-100k", "u.data")


def report(criterion, ok, detail):
    print(f"criterion {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: W2 kernel against two independent oracles


def trace_form_diagonal(mu_a, sig_a, mu_b, sig_b):
    A, B = np.diag(sig_a), np.diag(sig_b)
    root_a = scipy.linalg.sqrtm(A).real
    cross = scipy.linalg.sqrtm(root_a @ B @ root_a).real
    d = mu_a - mu_b
    return float(d @ d + np.trace(A + B - 2 * cross))


def transport_coordinate(mu1, s1, mu2, s2):
    # 1-D optimal transport cost between the quantile functions
    f = lambda q: ((mu1 + np.sqrt(s1) * ndtri(q))
                   - (mu2 + np.sqrt(s2) * ndtri(q))) ** 2
    val, _ = quad(f, 0.0, 1.0, limit=200)
    return val


def test_criterion_1_w2_kernel_oracles():
    rng = np.random.default_rng(101)
    start = time.time()
    worst_trace, worst_transport = 0.0, 0.0
    for _ in range(1000):
        h = int(rng.integers(1, 4))
        mu = rng.normal(size=(2, h))
        sig = rng.uniform(0.01, 2.0, size=(2, h))
        fast = w2_squared(mu[0], sig[0], mu[1], sig[1])
        slow = trace_form_diagonal(mu[0], sig[0], mu[1], sig[1])
        worst_trace = max(worst_trace, abs(fast - slow))
        transported = sum(transport_coordinate(mu[0][d], sig[0][d],
                                               mu[1][d], sig[1][d])
                          for d in range(h))
        worst_transport = max(worst_transport, abs(fast - transported))
    elapsed = time.time() - start
    ok = worst_trace < 1e-12 and worst_transport < 1e-3 and elapsed < 10.0
    report(1, ok, f"trace-form err {worst_trace:.2e}, transport err "
                  f"{worst_transport:.2e}, {elapsed:.1f}s over 1000 pairs")


# ---------------------------------------------------------------------------
# criterion 2: every analytic gradient against central finite differences


def directional_rel_err(f, x0, analytic_flat, rng, step=1e-6):
    d = rng.normal(size=x0.size)
    d /= np.linalg.norm(d)
    num = (f(x0 + step * d.reshape(x0.shape))
           - f(x0 - step * d.reshape(x0.shape))) / (2 * step)
    ana = float(analytic_flat @ d)
    scale = max(abs(num), abs(ana), 1e-8)
    return abs(num - ana) / scale


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    for h in (2, 8, 50):
        for _ in range(100):
            # distance kernel, all four argument blocks at once
            mu = rng.normal(size=(2, h))
            sig = rng.uniform(0.05, 1.0, size=(2, h))
            grads = w2_squared_grad(mu[0], sig[0], mu[1], sig[1])
            packed = np.concatenate([mu[0], sig[0], mu[1], sig[1]])

            def dist_at(x):
                a, b, c, d = np.split(x, 4)
                return w2_squared(a, np.abs(b), c, np.abs(d))

            worst = max(worst, directional_rel_err(
                dist_at, packed, np.concatenate(grads), rng))

            # the Euclidean rows training runs; d_mu_b = -d_mu_a
            _, (ga, _, _) = pair_rows(mu[0], mu[1], grad=True)
            worst = max(worst, directional_rel_err(
                lambda x: float(np.sum((x[:h] - x[h:]) ** 2)),
                np.concatenate([mu[0], mu[1]]), np.concatenate([ga, -ga]), rng))

            # margin net: parameters and embedding inputs
            net = init_margin_net(h, h, rng)
            u, vp, vn = rng.normal(size=(3, h))
            upstream = rng.normal(size=1)
            s = margin_input("squared-diff", u, vp, vn)
            m, cache = forward(net, s)
            ds = margin_input_grad(net, cache, upstream)  # backward consumes the cache
            phi_grads = backward(net, cache, upstream)
            names = list(net.params())
            packed_phi = np.concatenate([net.params()[n].ravel() for n in names])
            sizes = np.cumsum([net.params()[n].size for n in names])[:-1]

            def net_at(x):
                trial = copy.deepcopy(net)
                for n, part in zip(names, np.split(x, sizes)):
                    trial.params()[n][...] = part.reshape(trial.params()[n].shape)
                mm, _ = forward(trial, s)
                return float(upstream[0] * mm[0])

            worst = max(worst, directional_rel_err(
                net_at, packed_phi,
                np.concatenate([phi_grads[n].ravel() for n in names]), rng,
                step=1e-5))

            du, dvp, dvn = margin_input_backward("squared-diff", u[None], vp[None],
                                                 vn[None], ds)

            def inputs_at(x):
                a, b, c = np.split(x, 3)
                mm, _ = forward(net, margin_input("squared-diff", a, b, c))
                return float(upstream[0] * mm[0])

            worst = max(worst, directional_rel_err(
                inputs_at, np.concatenate([u, vp, vn]),
                np.concatenate([du[0], dvp[0], dvn[0]]), rng, step=1e-5))

    # batch losses on a small toy, margins held constant w.r.t. the tables
    for trial in range(100):
        trial_rng = np.random.default_rng(3000 + trial)
        users = random_table(3, 2, trial_rng)
        items = random_table(4, 2, trial_rng)
        net = init_margin_net(2, 3, trial_rng)
        net.b2[0] = 0.4
        b = TripletBatch("ui", trial_rng.integers(0, 3, 6),
                         trial_rng.integers(0, 4, 6), trial_rng.integers(0, 4, 6))
        b.attach_noise(2, trial_rng)
        grads = zero_theta_grads(users, items, W2)
        ev = batch_inner(b, users, items, W2, net, grads=grads, grad_phi=True)
        margins = ev.margins
        keys = ("user_mu", "user_sigma", "item_mu", "item_sigma")
        packed = np.concatenate([theta_dict(users, items)[k].ravel() for k in keys])
        sizes = np.cumsum([theta_dict(users, items)[k].size for k in keys])[:-1]

        def loss_at(x):
            parts = dict(zip(keys, np.split(x, sizes)))
            uu = GaussianEmbeddingTable(parts["user_mu"].reshape(3, 2),
                                        np.abs(parts["user_sigma"].reshape(3, 2)))
            ii = GaussianEmbeddingTable(parts["item_mu"].reshape(4, 2),
                                        np.abs(parts["item_sigma"].reshape(4, 2)))
            mu_a, mu_p, mu_n = uu.mu[b.anchors], ii.mu[b.positives], ii.mu[b.negatives]
            ra = np.sqrt(uu.sigma[b.anchors])
            rp, rn = np.sqrt(ii.sigma[b.positives]), np.sqrt(ii.sigma[b.negatives])
            d2p = np.sum((mu_a - mu_p) ** 2, 1) + np.sum((ra - rp) ** 2, 1)
            d2n = np.sum((mu_a - mu_n) ** 2, 1) + np.sum((ra - rn) ** 2, 1)
            return float(np.mean(np.maximum(d2p - d2n + margins, 0.0)))

        analytic = np.concatenate([grads[k].ravel() for k in keys])
        worst = max(worst, directional_rel_err(loss_at, packed, analytic,
                                               trial_rng))
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 60.0
    report(2, ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: hypergradient, scalar engine and full model


def test_criterion_3_hypergradient():
    start = time.time()
    # (a) scalar engine: inner (x-p)^2, outer x~^2 at x=1, p=0, alpha=0.1
    alpha = 0.1
    theta = {"x": np.array([1.0])}
    x_tilde = theta["x"] - alpha * 2.0 * theta["x"]
    v = {"x": 2.0 * x_tilde}
    hyper = darts_hypergradient(theta, v, alpha, 1e-2,
                                lambda t: {"p": -2.0 * t["x"]})
    scalar_err = abs(hyper["p"][0] - 0.32)

    # (b) full model on a 2-user / 3-item toy vs direct differences on phi
    rng = np.random.default_rng(33)
    users = random_table(2, 2, rng, mu_scale=0.3)
    items = random_table(3, 2, rng, mu_scale=0.3)
    net = init_margin_net(2, 3, rng)
    net.b2[0] = 1.0
    b = TripletBatch("ui", np.array([0, 0, 1, 1]), np.array([0, 1, 1, 2]),
                     np.array([2, 2, 0, 0]))
    b.attach_noise(2, rng)

    def inner_grads(net_now):
        return inner_theta_grads(b, users, items, W2, net_now)

    def outer_of(net_now):
        pu, pi = build_proxy(users, items, inner_grads(net_now), alpha)
        return batch_outer(b, pu, pi, W2).loss

    pu, pi = build_proxy(users, items, inner_grads(net), alpha)
    v = zero_theta_grads(pu, pi, W2)
    batch_outer(b, pu, pi, W2, grads=v)

    def grad_phi_fn(t):
        tu = GaussianEmbeddingTable(t["user_mu"], t["user_sigma"])
        ti = GaussianEmbeddingTable(t["item_mu"], t["item_sigma"])
        return batch_inner(b, tu, ti, W2, net, grad_phi=True).phi_grads

    hyper = darts_hypergradient(theta_dict(users, items), v,
                                alpha, 1e-2, grad_phi_fn)
    worst_rel = 0.0
    for name, arr in net.params().items():
        flat = arr.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + 1e-4
            fp = outer_of(net)
            flat[i] = keep - 1e-4
            fm = outer_of(net)
            flat[i] = keep
            num = (fp - fm) / 2e-4
            ana = hyper[name].ravel()[i]
            worst_rel = max(worst_rel,
                            abs(ana - num) / max(abs(ana), abs(num), 1e-6))
    elapsed = time.time() - start
    ok = scalar_err < 1e-4 and worst_rel < 1e-2 and elapsed < 30.0
    report(3, ok, f"scalar engine err {scalar_err:.2e}, full-model rel err "
                  f"{worst_rel:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: joint optimization collapses margins, bilevel training does not


def test_criterion_4_margin_collapse():
    joint_margins, bilevel_margins = [], []
    for seed in (0, 1, 2):
        ds, _, _ = planted_clusters(20, 20, 2, seed=seed)
        fold = split_five_fold(ds, seed=seed)[0]
        base = dict(epochs=200, eval_every=1000, seed=seed, relations=("ui",),
                    batch_size=50)
        joint = train(ds, fold, make_config(joint_margin_training=True, **base))
        bilevel = train(ds, fold, make_config(**base))
        joint_margins.append(joint.trace[-1].mean_margin)
        bilevel_margins.append(bilevel.trace[-1].mean_margin)
    ok = max(joint_margins) < 0.05 and min(bilevel_margins) > 0.2
    report(4, ok, f"joint margins {[f'{m:.3f}' for m in joint_margins]} < 0.05, "
                  f"bilevel {[f'{m:.3f}' for m in bilevel_margins]} > 0.2")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def brute_force_metrics(users, items, fold, k, kind):
    recalls, ndcgs = [], []
    for u in range(users.n):
        test = fold.test_rows[u]
        if len(test) == 0:
            continue
        scored = []
        for i in range(items.n):
            if i in fold.train_rows[u]:
                continue
            if kind is W2:
                d = w2_squared(users.mu[u], users.sigma[u],
                               items.mu[i], items.sigma[i])
            else:
                d = float(np.sum((users.mu[u] - items.mu[i]) ** 2))
            scored.append((d, i))
        scored.sort()
        top = [i for _, i in scored[:k]]
        recalls.append(sum(i in test for i in top) / len(test))
        dcg = sum(1.0 / np.log2(p + 2) for p, i in enumerate(top) if i in test)
        idcg = sum(1.0 / np.log2(p + 2) for p in range(min(k, len(test))))
        ndcgs.append(dcg / idcg)
    return float(np.mean(recalls)), float(np.mean(ndcgs))


def test_criterion_5_metric_oracles():
    from pmlam.data import FoldSplit
    rng = np.random.default_rng(505)
    users = random_table(10, 4, rng)
    items = random_table(30, 4, rng)
    train_rows, test_rows = [], []
    for u in range(10):
        d = np.sort(rng.choice(30, size=10, replace=False))
        train_rows.append(d[:7])
        test_rows.append(d[7:])
    fold = FoldSplit(0, train_rows, test_rows)
    worst = 0.0
    for k in (5, 10):
        rep = evaluate(users, items, fold, ks=(k,), kind=W2)
        r, n = brute_force_metrics(users, items, fold, k, W2)
        worst = max(worst, abs(rep.recall[k] - r), abs(rep.ndcg[k] - n))

    # random embeddings: expected R@10 over n items is 10/n
    n_items, n_users, k = 100, 200, 10
    seed_means = []
    for seed in range(5):
        srng = np.random.default_rng(900 + seed)
        u_tab = random_table(n_users, 8, srng)
        i_tab = random_table(n_items, 8, srng)
        rows_test = [np.sort(srng.choice(n_items, 5, replace=False))
                     for _ in range(n_users)]
        rows_train = [np.array([], dtype=int)] * n_users
        rep = evaluate(u_tab, i_tab, FoldSplit(0, rows_train, rows_test),
                       ks=(k,), kind=W2)
        seed_means.append(rep.recall[k])
    grand = float(np.mean(seed_means))
    se = float(np.std(seed_means, ddof=1) / np.sqrt(len(seed_means)))
    expected = k / n_items
    ok = worst < 1e-12 and abs(grand - expected) <= 3 * se
    report(5, ok, f"oracle gap {worst:.2e}; random R@10 {grand:.4f} vs "
                  f"{expected:.4f} (3se = {3 * se:.4f})")


# ---------------------------------------------------------------------------
# criterion 6: end-to-end on planted clusters


def test_criterion_6_planted_end_to_end():
    start = time.time()
    ds, _, _ = planted_clusters(20, 20, 2, seed=0)
    fold = split_five_fold(ds, seed=0)[0]
    cfg = make_config(epochs=300, eval_every=100, seed=0)
    result = train(ds, fold, cfg)
    rep = evaluate(result.users, result.items, fold, (5,), cfg.kind())
    elapsed = time.time() - start
    ok = rep.recall[5] >= 0.9 and elapsed < 120.0
    report(6, ok, f"R@5 = {rep.recall[5]:.3f} after 300 epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 7: ablation ordering (MovieLens when available, plus a
# self-contained twin on generated data)


def run_ablation(ds, fold, variants, seeds, **cfg_kw):
    means = {}
    for variant in variants:
        overrides = dict(ABLATION_VARIANTS[variant])
        overrides["relations"] = tuple(overrides["relations"].split(","))
        scores = []
        for seed in seeds:
            cfg = make_config(seed=seed, eval_every=10_000, **overrides, **cfg_kw)
            result = train(ds, fold, cfg)
            scores.append(evaluate(result.users, result.items, fold, (10,),
                                   cfg.kind()).recall[10])
        means[variant] = float(np.mean(scores))
    return means


def ordering_ok(means):
    rel_gain = (means[8] - means[1]) / means[1]
    return (means[8] > means[1] and rel_gain >= 0.05
            and means[6] >= means[3] and means[2] >= means[1]), rel_gain


def test_criterion_7_twin_ordering_on_generated_data():
    means = {}
    for seed in (0, 1, 2):
        ds, _, _ = planted_clusters(100, 80, 2, seed=seed, p_in=0.5, p_out=0.04,
                                    n_noise_items=40, p_noise=0.06,
                                    activity=(0.3, 1.0))
        fold = split_five_fold(ds, seed=seed)[0]
        part = run_ablation(ds, fold, (1, 2, 3, 6, 8), (seed,), h=16, hidden=16,
                            epochs=100, batch_size=500, sim_threshold=0.25)
        for v, r in part.items():
            means.setdefault(v, []).append(r)
    means = {v: float(np.mean(r)) for v, r in means.items()}
    ok, rel_gain = ordering_ok(means)
    report("7-twin", ok,
           f"means {({v: round(r, 4) for v, r in sorted(means.items())})}, "
           f"full model vs baseline {rel_gain:+.1%}")


@pytest.mark.slow
def test_criterion_7_movielens_ablation():
    path = os.environ.get(ML100K_ENV, ML100K_DEFAULT)
    if not os.path.exists(path):
        pytest.skip(f"MovieLens-100K ratings not found; place u.data at "
                    f"{ML100K_DEFAULT} or set ${ML100K_ENV}")
    ds = filter_iterative(*ingest(path, rating_threshold=4.0), min_user=10, min_item=5)
    fold = split_five_fold(ds, seed=0)[0]
    means = run_ablation(ds, fold, (1, 2, 3, 6, 8), (0, 1, 2),
                         epochs=60, sim_threshold=0.4)
    ok, rel_gain = ordering_ok(means)
    report(7, ok,
           f"means {({v: round(r, 4) for v, r in sorted(means.items())})}, "
           f"full model vs baseline {rel_gain:+.1%}")


# ---------------------------------------------------------------------------
# criterion 8: adaptive margins discriminate similar from dissimilar negatives


def margin_separation(result, ds, fold, labels, seed):
    rng = np.random.default_rng(seed + 100)
    same_m, cross_m = [], []
    for u in range(ds.n_users):
        tr = fold.train_rows[u]
        full = np.union1d(tr, fold.test_rows[u])
        unseen = np.setdiff1d(np.arange(ds.n_items), full)
        for pos in tr:
            same = unseen[labels[unseen] == labels[pos]]
            cross = unseen[labels[unseen] != labels[pos]]
            if len(same) == 0 or len(cross) == 0:
                continue
            for neg, out in ((rng.choice(same), same_m),
                             (rng.choice(cross), cross_m)):
                s = margin_input("squared-diff", result.users.mu[u],
                                 result.items.mu[pos], result.items.mu[neg])
                m, _ = forward(result.phis["ui"], np.atleast_2d(s))
                out.append(m[0])
    return float(np.mean(same_m)), float(np.mean(cross_m))


def test_criterion_8_margin_case_study():
    pairs = []
    for seed in (0, 1, 2):
        ds, _, labels = planted_clusters(60, 40, 2, seed=seed,
                                         p_in=0.4, p_out=0.03)
        fold = split_five_fold(ds, seed=seed)[0]
        # deterministic embeddings isolate the margin module; fresh outer
        # batches measure the proxy step on held-out triplets, which is what
        # rewards sparing similar items and pushing dissimilar ones
        cfg = make_config(epochs=800, eval_every=10_000, seed=seed,
                          relations=("ui",), distance_kind="euclidean",
                          margin_mode="adaptive", outer_batch="fresh",
                          lam=1e-6, batch_size=100, h=10, hidden=10)
        result = train(ds, fold, cfg)
        pairs.append(margin_separation(result, ds, fold, np.asarray(labels), seed))
    ok = all(same < cross for same, cross in pairs)
    report(8, ok, "mean margins (same-cluster vs cross-cluster): "
           + ", ".join(f"{s:.3f} < {c:.3f}" for s, c in pairs))


# ---------------------------------------------------------------------------
# criterion 9: bit-identical reruns


def test_criterion_9_determinism(tmp_path):
    from pmlam.cli import main
    from pmlam.data import save_dataset, save_folds
    ds, _, _ = planted_clusters(seed=4)
    d = tmp_path / "data"
    save_dataset(d, ds)
    save_folds(d, split_five_fold(ds, seed=4))
    args = ["train", str(d), "--quiet", "--seed", "7",
            "--h", "8", "--hidden", "8", "--epochs", "6", "--batch-size", "64",
            "--pool-size", "16", "--refresh-period", "3", "--eval-every", "2"]
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(args + ["--out-dir", str(out)]) == 0
        assert main(["evaluate", str(d), str(out / "checkpoint.bin"),
                     "--out", str(out / "report.csv")]) == 0
        outs.append(((out / "trace.csv").read_bytes(), (out / "report.csv").read_bytes()))
    ok = outs[0] == outs[1]
    report(9, ok, f"trace {len(outs[0][0])} bytes and report "
                  f"{len(outs[0][1])} bytes identical across reruns")
