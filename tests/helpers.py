"""Shared test utilities: finite-difference and set oracles, small builders."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from pmlam.data import (FOLDS_MAGIC, FoldSplit, IdColumn, InteractionDataset, ParseError, Rows,
                        filter_iterative, seal)
from pmlam.distance import SIGMA_MIN, DistanceKind
from pmlam.embeddings import GaussianEmbeddingTable
from pmlam.losses import batch_inner, zero_theta_grads
from pmlam.margin_net import forward, margin_input


def numeric_grad(f, x, step=1e-6):
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        fp = f(x)
        flat[i] = keep - step
        fm = f(x)
        flat[i] = keep
        gf[i] = (fp - fm) / (2 * step)
    return g


def directional_grad(f, x, direction, step=1e-6):
    """Central-difference derivative of f along a direction."""
    x = np.asarray(x, float)
    d = np.asarray(direction, float)
    return (f(x + step * d) - f(x - step * d)) / (2 * step)


def cosine_binary(row_a, row_b):
    """Cosine similarity |A & B| / sqrt(|A| |B|) between two sorted index sets."""
    row_a, row_b = np.asarray(row_a), np.asarray(row_b)
    if len(row_a) == 0 or len(row_b) == 0:
        raise ValueError("cosine similarity of an empty interaction row")
    inter = len(np.intersect1d(row_a, row_b, assume_unique=True))
    return inter / np.sqrt(len(row_a) * len(row_b))


def write_item_labels(dir_path, ds, item_labels):
    """The two-column ``item_labels.txt`` the margin case study reads, in ``dir_path``."""
    os.makedirs(dir_path, exist_ok=True)
    with open(os.path.join(dir_path, "item_labels.txt"), "w") as f:
        for i, ext in enumerate(ds.item_ids):
            f.write(f"{ext}\t{item_labels[i]}\n")


def dataset_digest(ds):
    """Content hash over the interaction structure (ids excluded)."""
    hasher = hashlib.sha256()
    hasher.update(ds.indptr.tobytes())
    hasher.update(ds.indices.tobytes())
    return hasher.hexdigest()[:16]


def reference_split_five_fold(ds, seed, n_folds=5):
    """Fold splits built user by user and fold by fold, the oracle for ``data.Folds``.

    Each user's row is shuffled with the same draws as ``data.split_five_fold``
    and dealt round-robin; fold k's test row is what fold k was dealt.
    """
    rng = np.random.default_rng(seed)
    fold_of = []  # per user: fold label aligned with the shuffled row
    perms = []
    for u in range(ds.n_users):
        row = ds.row(u)
        perm = rng.permutation(len(row))
        perms.append(row[perm])
        fold_of.append(np.arange(len(row)) % n_folds)
    splits = []
    for k in range(n_folds):
        train_rows, test_rows = [], []
        for u in range(ds.n_users):
            mask = fold_of[u] == k
            test_rows.append(np.sort(perms[u][mask]))
            train_rows.append(np.sort(perms[u][~mask]))
        splits.append(FoldSplit(fold_index=k, train_rows=train_rows, test_rows=test_rows))
    return splits


class RawRating(NamedTuple):
    user_ext_id: str
    item_ext_id: str
    rating: float
    timestamp: int | None = None


def parse_line(line, line_no):
    """One data line -> RawRating; the delimiter is whichever of tab/comma splits it."""
    raw = line.rstrip("\n")
    parts = raw.split("\t")
    if len(parts) < 3:  # the split with more fields, so an error counts the fields seen
        parts = max(parts, raw.split(","), key=len)
    if not 3 <= len(parts) <= 4:
        raise ParseError(f"line {line_no}: expected 3 or 4 fields, got {len(parts)}: {raw!r}")
    user, item = parts[0].strip(), parts[1].strip()
    if not user or not item:
        raise ParseError(f"line {line_no}: empty user or item id")
    try:
        rating = float(parts[2])
    except ValueError:
        raise ParseError(f"line {line_no}: bad rating {parts[2]!r}") from None
    if not math.isfinite(rating):
        raise ParseError(f"line {line_no}: non-finite rating")
    ts = None
    if len(parts) == 4 and parts[3].strip():
        try:
            ts = int(float(parts[3]))
        except (ValueError, OverflowError):  # int(inf) overflows
            raise ParseError(f"line {line_no}: bad timestamp {parts[3]!r}") from None
    return RawRating(user, item, rating, ts)


def reference_ingest(path, rating_threshold=4.0):
    """``data.ingest`` as one :func:`parse_line` call and record per line: its oracle.

    It reads plain UTF-8, so a byte-order mark stays in the first id, and its
    ParseError names the line but not the file.
    """
    pairs = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            r = parse_line(line, line_no)
            if r.rating >= rating_threshold:
                pairs[r.user_ext_id, r.item_ext_id] = None
    if not pairs:
        raise ValueError(f"{path}: no positives at rating threshold {rating_threshold}")
    return list(pairs)


def scipy_modules_of_a_fresh_run(argv=None, worker=None):
    """The ``scipy`` modules a fresh interpreter holds once it has run ``pmlam`` command ``argv``.

    With ``argv`` None it only imports ``pmlam.cli``. ``worker``, when not
    None, turns the steps' worker thread on or off whatever the step size.
    The command must exit 0. It runs in a new process because this module
    imports ``scipy.special`` itself.
    """
    code = textwrap.dedent("""
        import json, sys
        from pmlam import bilevel
        from pmlam.cli import main
        argv, worker = json.loads(sys.argv[1])
        if worker is not None:
            bilevel._worker_pays = lambda batch_rows, h: worker
        if argv is not None and main(argv) != 0:
            raise SystemExit(f"{argv[0]} failed")
        print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code, json.dumps([argv, worker])], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    return json.loads(out.splitlines()[-1])


DAMAGES = ("bit flip", "set byte", "cut", "duplicated line", "deleted line")


def damage(blob, how, rng):
    """``blob`` damaged ``how``, with the place (and byte) drawn from ``rng``.

    ``how`` is one of ``DAMAGES``.
    """
    out = bytearray(blob)
    at = int(rng.integers(len(blob)))
    if how == "bit flip":
        out[at] ^= 1 << int(rng.integers(8))
    elif how == "set byte":
        out[at] = int(rng.integers(256))
    elif how == "cut":
        del out[at:]
    else:
        lines = blob.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        lines[i:i + 1] = [lines[i]] * (2 if how == "duplicated line" else 0)
        out = b"".join(lines)
    return bytes(out)


def forge(path, edit):
    """Rewrite prepared-data file ``path`` as ``edit(text)`` and re-seal its directory.

    The digests in ``SHA256SUMS`` then pin the edited bytes, so only the
    readers' own checks can tell the edit: a forged seal.
    """
    path.write_text(edit(path.read_text()))
    seal(path.parent)


def reference_folds_text(splits, seed):
    """The ``folds.txt`` text of the splits drawn with ``seed``, labels recovered user by user."""
    lines = [FOLDS_MAGIC, f"seed {seed}", f"folds {len(splits)}"]
    for u in range(len(splits[0].test_rows)):
        items = np.concatenate([s.test_rows[u] for s in splits])
        labels = np.concatenate([np.full(len(s.test_rows[u]), s.fold_index)
                                 for s in splits])
        lines.append(" ".join(map(str, labels[np.argsort(items)])))
    return "\n".join(lines) + "\n"


def reference_pairwise_distances(users, items, kind, user_idx=None):
    """``evaluator.pairwise_distances`` as one expression per term: its bit-for-bit oracle."""
    mu_u = users.mu if user_idx is None else users.mu[user_idx]
    d2 = (
        np.sum(mu_u ** 2, axis=1)[:, None]
        + np.sum(items.mu ** 2, axis=1)[None, :]
        - 2.0 * mu_u @ items.mu.T
    )
    if kind is DistanceKind.W2_SQUARED:
        ru = np.sqrt(users.sigma if user_idx is None else users.sigma[user_idx])
        ri = np.sqrt(items.sigma)
        d2 += (
            np.sum(ru ** 2, axis=1)[:, None]
            + np.sum(ri ** 2, axis=1)[None, :]
            - 2.0 * ru @ ri.T
        )
    return np.maximum(d2, 0.0)


def reference_top_k(d2, k):
    """``evaluator.top_k`` with its tie handling run on every row: its oracle."""
    k = min(k, d2.shape[1])
    if k == 0:
        return np.empty((len(d2), 0), dtype=np.int64)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    below = d2 < kth
    tie = d2 == kth
    need = k - below.sum(axis=1, keepdims=True)
    cols = np.nonzero(below | (tie & (np.cumsum(tie, axis=1) <= need)))[1]
    cols = cols.reshape(len(d2), k)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def reference_transpose_rows(rows, n_cols):
    """Rows of the transposed binary matrix, built id by id: a transpose's oracle."""
    cols = [[] for _ in range(n_cols)]
    for r_idx, row in enumerate(rows):
        for c in row:
            cols[c].append(r_idx)
    return [np.array(sorted(c), dtype=np.int64) for c in cols]


def id_column(keys):
    """``keys`` as an :class:`IdColumn` whose codes a dict numbers by first appearance.

    An oracle for ``ingest``'s codes, which number ids by their first line,
    positive or not.
    """
    code = {key: n for n, key in enumerate(dict.fromkeys(keys))}
    return IdColumn(np.fromiter(map(code.__getitem__, keys), np.int64, len(keys)), list(code))


def filter_pairs(pairs, min_user=10, min_item=5):
    """``data.filter_iterative`` of a list of ``(user, item)`` pairs, given as its two columns."""
    return filter_iterative(id_column([u for u, _ in pairs]), id_column([i for _, i in pairs]),
                            min_user, min_item)


def reference_filter_iterative(pairs, min_user=10, min_item=5):
    """``data.filter_iterative`` with per-pair dict loops: its oracle."""
    pairs = list(dict.fromkeys(pairs))
    while True:
        user_deg, item_deg = {}, {}
        for u, i in pairs:
            user_deg[u] = user_deg.get(u, 0) + 1
            item_deg[i] = item_deg.get(i, 0) + 1
        kept = [(u, i) for u, i in pairs
                if user_deg[u] >= min_user and item_deg[i] >= min_item]
        if len(kept) == len(pairs):
            break
        pairs = kept
    if not pairs:
        raise ValueError("dataset eliminated by filtering")
    user_map, item_map = {}, {}
    for u, i in pairs:
        user_map.setdefault(u, len(user_map))
        item_map.setdefault(i, len(item_map))
    rows = Rows.from_pairs(np.array([user_map[u] for u, _ in pairs]),
                           np.array([item_map[i] for _, i in pairs]), len(user_map))
    return InteractionDataset(
        n_users=len(user_map), n_items=len(item_map),
        indptr=rows.indptr, indices=rows.indices,
        user_ids=list(user_map), item_ids=list(item_map),
    )


def reference_exclusions(neighbors):
    """Each entity's neighbors plus itself, one ``np.union1d`` per entity."""
    return [np.union1d(neighbors[a], [a]) for a in range(len(neighbors))]


def validate_membership(batch, exclusions):
    """Check each triplet against its anchor's sorted exclusion set.

    The positive must lie inside the set and the negative outside it.
    """
    for a, p, n in zip(batch.anchors, batch.positives, batch.negatives):
        excl = exclusions[a]
        j = np.searchsorted(excl, n)
        if j < len(excl) and excl[j] == n:
            raise AssertionError(f"negative {n} inside exclusion set of anchor {a}")
        i = np.searchsorted(excl, p)
        if i >= len(excl) or excl[i] != p:
            raise AssertionError(f"positive {p} outside positive set of anchor {a}")


def add_at_theta_grads(batch, users, items, kind, active, grads):
    """Reference table gradient of a batch's mean hinge, added row by row.

    The distance-term gradient with the hinge pattern ``active`` held fixed,
    written out per role and added into ``grads`` with ``np.add.at``.
    Variances below SIGMA_MIN are floored and pass no gradient.
    """
    tables = {"user": users, "item": items}
    a_key, o_key = {"ui": ("user", "item"), "uu": ("user", "user"),
                    "ii": ("item", "item")}[batch.relation]
    a_t, o_t = tables[a_key], tables[o_key]
    w = (active / len(batch))[:, None]
    mu_a, mu_p, mu_n = (a_t.mu[batch.anchors], o_t.mu[batch.positives],
                        o_t.mu[batch.negatives])
    np.add.at(grads[a_key + "_mu"], batch.anchors,
              2.0 * w * (mu_a - mu_p) - 2.0 * w * (mu_a - mu_n))
    np.add.at(grads[o_key + "_mu"], batch.positives, -2.0 * w * (mu_a - mu_p))
    np.add.at(grads[o_key + "_mu"], batch.negatives, 2.0 * w * (mu_a - mu_n))
    if kind is not DistanceKind.W2_SQUARED:
        return
    raw = (a_t.sigma[batch.anchors], o_t.sigma[batch.positives],
           o_t.sigma[batch.negatives])
    live_a, live_p, live_n = (r >= SIGMA_MIN for r in raw)
    rt_a, rt_p, rt_n = (np.sqrt(np.maximum(r, SIGMA_MIN)) for r in raw)
    np.add.at(grads[a_key + "_sigma"], batch.anchors,
              w * ((1.0 - rt_p / rt_a) - (1.0 - rt_n / rt_a)) * live_a)
    np.add.at(grads[o_key + "_sigma"], batch.positives, w * (1.0 - rt_a / rt_p) * live_p)
    np.add.at(grads[o_key + "_sigma"], batch.negatives, -w * (1.0 - rt_a / rt_n) * live_n)


def margin_input_grad(params, cache, upstream):
    """dL/ds of the margin net's features, for dL/dm ``upstream`` per row.

    ``cache`` is the one :func:`pmlam.margin_net.forward` returned; the
    chain is the parameter backward pass's, carried one layer further.
    """
    s, z, a2 = cache
    da2 = np.asarray(upstream, float) * expit(a2)
    da1 = da2[:, None] * params.W2 * (1.0 - z * z)
    return da1 @ params.W1


def margin_input_backward(mode, u, v_pos, v_neg, ds):
    """Chain feature grads ``ds`` back to the three embedding inputs."""
    if mode == "squared-diff":
        h = u.shape[-1]
        d_chi_pos = ds[..., :h] - ds[..., 2 * h:]
        d_chi_neg = ds[..., h:2 * h] + ds[..., 2 * h:]
        dp = 2.0 * (u - v_pos)
        dn = 2.0 * (u - v_neg)
        du = d_chi_pos * dp + d_chi_neg * dn
        return du, -d_chi_pos * dp, -d_chi_neg * dn
    if mode == "concat":
        h = u.shape[-1]
        return ds[..., :h].copy(), ds[..., h:2 * h].copy(), ds[..., 2 * h:].copy()
    if mode == "sum":
        return ds.copy(), ds.copy(), ds.copy()
    raise ValueError(f"unknown indicator mode {mode!r}")


def reparam_backward(d_value, sigma, noise):
    """Chain a sampled-embedding grad to (mu, sigma) grads.

    With value = mu + sqrt(sigma) * noise: d/dmu = d_value and
    d/dsigma = d_value * noise / (2 sqrt(sigma)).
    """
    return d_value, d_value * noise / (2.0 * np.sqrt(sigma))


def inner_theta_grads(batch, users, items, kind, phi):
    """Table gradient of a batch's adaptive-margin mean hinge, margin term included.

    ``batch_inner`` gives the distance term's gradient with the margins held
    constant; the margin net's gradient w.r.t. its embedding inputs (means,
    or for W2 the samples ``mu + sqrt(sigma) * noise`` at the batch's frozen
    noise) is added to it row by row with ``np.add.at``, under the same hinge
    pattern. The net's features are those of its ``mode``. Variances below
    SIGMA_MIN are floored and pass no gradient. The accumulator holds the
    tables ``kind``'s distance reads.
    """
    grads = zero_theta_grads(users, items, kind)
    ev = batch_inner(batch, users, items, kind, phi, grads=grads)
    tables = {"user": users, "item": items}
    a_key, o_key = {"ui": ("user", "item"), "uu": ("user", "user"),
                    "ii": ("item", "item")}[batch.relation]
    a_t, o_t = tables[a_key], tables[o_key]
    noise = (None,) * 3 if batch.noise is None else batch.noise
    roles = ((a_key, a_t, batch.anchors, noise[0]),
             (o_key, o_t, batch.positives, noise[1]),
             (o_key, o_t, batch.negatives, noise[2]))
    mus = [t.mu[ids] for _, t, ids, _ in roles]
    if kind is DistanceKind.W2_SQUARED:
        raw = [t.sigma[ids] for _, t, ids, _ in roles]
        sigmas = [np.maximum(r, SIGMA_MIN) for r in raw]
        inputs = [mu + np.sqrt(sig) * noise
                  for mu, sig, (_, _, _, noise) in zip(mus, sigmas, roles)]
    else:
        inputs = mus
    _, cache = forward(phi, margin_input(phi.mode, *inputs))
    ds = margin_input_grad(phi, cache, ev.active / max(len(batch), 1))
    d_inputs = margin_input_backward(phi.mode, *inputs, ds)
    for i, ((key, _, ids, noise), d_value) in enumerate(zip(roles, d_inputs)):
        if kind is DistanceKind.W2_SQUARED:
            d_value, d_sigma = reparam_backward(d_value, sigmas[i], noise)
            np.add.at(grads[key + "_sigma"], ids, d_sigma * (raw[i] >= SIGMA_MIN))
        np.add.at(grads[key + "_mu"], ids, d_value)
    return grads


class Sgd:
    """Plain gradient step over a dict of named arrays, an optimizer stand-in."""

    def __init__(self, alpha):
        self.alpha = alpha

    def step(self, params, grads):
        for name, g in grads.items():
            params[name] -= self.alpha * g


class ReferenceAdam:
    """Adam written as its formula reads, a fresh array per operation.

    The oracle of :class:`pmlam.bilevel.Adam`: moments come into being at a
    parameter's first gradient, and every step updates every parameter
    named in ``grads``.
    """

    def __init__(self, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
        self.alpha, self.beta1, self.beta2, self.eps = alpha, beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            params[name] -= self.alpha * m_hat / (np.sqrt(v_hat) + self.eps)


def assert_grad_close(analytic, numeric, rtol=1e-5, atol=1e-8):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def random_table(n, h, rng, sigma_low=0.05, sigma_high=0.9, mu_scale=0.5):
    """A valid embedding table with variances away from the clamp floor."""
    mu = rng.uniform(-mu_scale, mu_scale, size=(n, h))
    mu /= np.maximum(np.linalg.norm(mu, axis=1, keepdims=True), 1.0)
    sigma = rng.uniform(sigma_low, sigma_high, size=(n, h))
    sigma /= np.maximum(np.linalg.norm(sigma, axis=1, keepdims=True), 1.0)
    return GaussianEmbeddingTable(mu, sigma)


class ZeroNoise:
    """Stand-in rng whose normal draws are all zero (test hook)."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())
