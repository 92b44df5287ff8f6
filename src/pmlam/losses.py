"""Margin ranking losses over triplet batches.

The same hinge ``[d2_pos - d2_neg + margin]_+`` backs both phases of
training. A pass takes one margin: a margin net
(:class:`~pmlam.margin_net.MarginNetParams`, which carries its feature
mode) for the inner objective's per-triplet margins, or a number, as in the
fixed-margin ablations and the outer objective, which uses
:data:`OUTER_MARGIN` at proxy parameters. Batch reduction is the mean.

Each call of :func:`batch_inner` runs three stages:

1. gather: the anchor rows and the stacked (positive, negative) rows of the
   tables its distance reads; variances are floored and rooted once per
   table and the roots gathered; a Euclidean call reads no variances;
2. distance and hinge: :func:`distance.pair_rows` gives both squared
   distances and, when ``grads`` is given, their gradient rows from the
   same differences; margins come from the margin net or the number;
3. one scatter into the accumulator ``grads`` (:func:`zero_theta_grads`),
   when given: one sparse product per table role, through the anchor and
   (positive, negative) selection matrices that the batch builds once and
   keeps, so the outer pass over the same batch reuses them.

Gradients w.r.t. the embedding tables follow the distance term only: the
margins are constants there, and reach the tables only through the bilevel
hypergradient (:mod:`pmlam.bilevel`).

Relations share one implementation: "ui" compares users against items,
"uu" users against users, "ii" items against items.

Buffers: a pass writes its arrays into a :class:`~pmlam.buffers.BufferPool`
``ws`` that the caller owns and passes to every pass; with none, each call
uses a fresh one. A pool name is one lifetime, and each array that is born
after another has died goes over it:

- ``mu``: the gathered mean rows, (3, B, h), anchors first. In a W2 pass
  with a margin net the features (B, 3h at most) go over them once the
  sampled inputs exist. In a Euclidean pass the net's inputs *are* the
  mean rows, so its features go into ``features``. Last, once the net's
  backward pass has read the features, the scatter's anchor rows;
- ``rt``: the gathered variance roots, (3, B, h); then the sampled inputs
  ``mu + rt * noise``; then, once the features exist, the net's hidden
  layer ``z``. A Euclidean pass with a fixed margin has no ``rt``;
- ``root.user`` and ``root.item``: the tables' floored variance roots;
- ``dmu``, ``drt`` and ``d_sigma_a``: the distance differences and gradient
  rows (:func:`distance.pair_rows`); ``da1``: the net's hidden gradient.

Those arrays are scratch: the next pass on the same pool writes over them.
Nothing a pass returns is a view of the pool: a :class:`BatchEval`'s
margins, active mask and margin-net gradients, and the accumulators it adds
into, stay valid after later passes. A batch's noise,
:attr:`TripletBatch.noise`, is one (3, B, h) block laid out as ``mu`` and
``rt`` are. Training draws it (:meth:`TripletBatch.attach_noise`) into the
pool's ``noise.<relation>.<turn>`` buffer (:meth:`TripletBatch.noise_buffer`),
so it is valid until the next draw into the same buffer.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import margin_net
from .buffers import BufferPool
from .data import Rows
from .distance import SIGMA_MIN, DistanceKind, pair_rows

RELATIONS = ("ui", "uu", "ii")
OUTER_MARGIN = 1.0  # the margin of every outer-objective triplet


def selection_matrix(rows, n_rows):
    """(n_rows, len(rows)) CSR matrix with a one at (rows[j], j) for every j.

    Its product with a stack of gradient rows sums each table row's
    contributions in batch order.
    """
    return Rows.from_pairs(rows, np.arange(len(rows)), n_rows).matrix(len(rows))


@dataclass
class TripletBatch:
    """Index triples for one relation, plus optional frozen sampling noise.

    ``noise`` is the (3, B, h) standard-normal block, anchor, positive and
    negative rows in that order, for the margin net's reparameterized
    inputs; it is attached once per batch so that repeated evaluations
    (proxy, hypergradient probes) see identical samples. It is the array
    :meth:`attach_noise` drew into; in training that is a pool buffer, which
    lives as long as the module docstring says. The scatter's selection
    matrices are kept on the batch, which owns them.
    """

    relation: str
    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    noise: np.ndarray | None = None
    _selection: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not (len(self.anchors) == len(self.positives) == len(self.negatives)):
            raise ValueError("anchor/positive/negative arrays must have equal length")

    def __len__(self):
        return len(self.anchors)

    @cached_property
    def others(self):
        """Positives then negatives, the row order of the other-role gather."""
        return np.concatenate([self.positives, self.negatives])

    def selection(self, n_anchor_rows, n_other_rows):
        """Anchor and other-role selection matrices, built on the first call and kept."""
        if self._selection is None:
            self._selection = (selection_matrix(self.anchors, n_anchor_rows),
                               selection_matrix(self.others, n_other_rows))
        return self._selection

    def noise_buffer(self, ws, h, turn=0):
        """The pool's (3, B, h) ``noise.<relation>.<turn>`` buffer, for :meth:`attach_noise`.

        A relation whose next batch's noise is drawn while its current one
        is read takes two turns.
        """
        return ws.get(f"noise.{self.relation}.{turn}", (3, len(self), h))

    def attach_noise(self, h, rng, out=None):
        """Draw anchor, positive and negative noise, in that order, with one call.

        One (3, B, h) draw takes the same numbers from ``rng`` as three (B, h)
        draws. It goes into ``out`` when given (training passes
        :meth:`noise_buffer`), else into a new array. The call gets nothing
        from a pool, so it can run on a thread other than the pool's owner.
        """
        if out is None:
            out = np.empty((3, len(self), h))
        self.noise = rng.standard_normal(out=out)


@dataclass
class BatchEval:
    """Loss value, the margins and active hinges, and the margin-net gradients if asked for."""

    loss: float
    margins: np.ndarray
    active: np.ndarray
    phi_grads: dict | None = None


def zero_theta_grads(users, items, kind):
    """Zero gradient accumulators for the tables that ``kind``'s distance reads.

    W2 reads all four tables; the Euclidean kernel reads the means only, so
    a Euclidean accumulator has no variance entries and a step that follows
    it leaves the variance tables alone.
    """
    params = ("mu", "sigma") if kind is DistanceKind.W2_SQUARED else ("mu",)
    return {f"{key}_{param}": np.zeros_like(getattr(table, param))
            for key, table in (("user", users), ("item", items)) for param in params}


def _role_keys(relation):
    """(anchor, other) table names, also the accumulator prefixes, of a relation."""
    return {"ui": ("user", "item"), "uu": ("user", "user"),
            "ii": ("item", "item")}[relation]


def _take(table, rows, out):
    """``table[rows]`` written into ``out``.

    ``np.take`` copies through a temporary when it must raise on a bad index,
    so the bounds are checked here and the take clips.
    """
    if len(rows) and not (rows.min() >= 0 and rows.max() < len(table)):
        raise IndexError(f"row index outside a table of {len(table)} rows")
    return np.take(table, rows, axis=0, out=out, mode="clip")


def _take_rows(anchor_table, other_table, batch, out):
    """The batch's anchor rows into ``out[0]`` and its other-role rows into ``out[1:]``."""
    _take(anchor_table, batch.anchors, out[0])
    _take(other_table, batch.others, out[1:].reshape(-1, out.shape[2]))
    return out


def _gather(batch, users, items, kind, ws=None):
    """Rows one pass reads: the (3, B, h) blocks ``(mu, rt, live)``.

    Each block holds the anchor rows, then the positive rows, then the
    negative rows. ``mu`` is the pool's ``mu`` buffer and ``rt`` its ``rt``
    buffer.
    Variances are read only for W2 (otherwise ``rt`` and ``live`` are None),
    floored at SIGMA_MIN and returned as their square roots: proxy and
    hypergradient probes evaluate at unprojected parameters where sigma may
    drift below SIGMA_MIN or negative; the floor keeps sqrt defined. The
    floor and root are taken once over each table the relation reads, into
    the pool's ``root.user`` or ``root.item`` buffer, and the roots are then
    gathered; a table has fewer entries than the rows a batch reads of it.
    ``live`` is None when no entry of those tables is floored, else the rows
    of their masks of unfloored entries: gradients w.r.t. floored
    coordinates are zero through the clamp.
    """
    ws = ws or BufferPool()
    tables = {"user": users, "item": items}
    a_key, o_key = _role_keys(batch.relation)
    B, h = len(batch), tables[o_key].mu.shape[1]
    mu = _take_rows(tables[a_key].mu, tables[o_key].mu, batch, ws.get("mu", (3, B, h)))
    if kind is not DistanceKind.W2_SQUARED:
        return mu, None, None
    sigmas = {key: tables[key].sigma for key in (a_key, o_key)}  # one entry for uu and ii
    roots = {}
    for key, sigma in sigmas.items():
        roots[key] = np.maximum(sigma, SIGMA_MIN, out=ws.get(f"root.{key}", sigma.shape))
        np.sqrt(roots[key], out=roots[key])
    rt = _take_rows(roots[a_key], roots[o_key], batch, ws.get("rt", (3, B, h)))
    live = None
    if min(sigma.min(initial=np.inf) for sigma in sigmas.values()) < SIGMA_MIN:
        masks = {key: sigma >= SIGMA_MIN for key, sigma in sigmas.items()}
        live = _take_rows(masks[a_key], masks[o_key], batch, np.empty((3, B, h), bool))
    return mu, rt, live


def _margin_inputs(batch, kind, mu, rt):
    """Embedding inputs of the margin net: sampled for Gaussian runs, means otherwise.

    The samples ``mu + rt * noise`` are written over the variance roots
    ``rt``, which are dead once :func:`distance.pair_rows` has returned.
    """
    if kind is not DistanceKind.W2_SQUARED:
        return mu
    if batch.noise is None:
        raise ValueError("adaptive margins with Gaussian embeddings need attached noise")
    np.multiply(rt, batch.noise, out=rt)
    rt += mu
    return rt


def _scatter(batch, rows, w, live, grads, ws):
    """Add the hinge-weighted distance-gradient rows into ``grads``.

    ``rows`` are :func:`distance.pair_rows`'s (2, B, h) gradients, positive
    pair first, and are overwritten; ``d2_pos`` enters the hinge with weight
    ``+w`` and ``d2_neg`` with ``-w``. The anchor rows of the mean part and
    then of the variance part go over the pool's ``mu`` block, which is dead
    by then: the gathered means have fed the distance and the net's
    features, and the net's backward pass has read the features. Each table
    role gets one sparse product per parameter. Floored variances pass no
    gradient.

    The adds into ``grads`` must keep their order, or the bits move. For
    ``uu`` and ``ii`` the anchor role and the other role both add a term
    into the *same* table, anchor first, so a relation's pass run into a
    zero accumulator of its own and added afterwards rounds
    ``g + (a + o)`` where training rounds ``(g + a) + o``. Every table
    takes its terms in relation order, and within a relation the anchor
    role's before the other role's.
    """
    a_key, o_key = _role_keys(batch.relation)
    sel_a, sel_o = batch.selection(len(grads[a_key + "_mu"]), len(grads[o_key + "_mu"]))
    coef = np.stack([w, -w])[:, :, None]
    d_mu, d_sig_a, d_sig_o = rows
    parts = [("mu", d_mu, d_mu, -coef)]  # d_mu_b = -d_mu_a
    if d_sig_a is not None:
        parts.append(("sigma", d_sig_a, d_sig_o, coef))
    for param, d_a, rows_o, c in parts:
        rows_a = np.subtract(d_a[0], d_a[1], out=ws.get("mu", d_a.shape[1:]))
        rows_a *= w[:, None]
        rows_o *= c
        if param == "sigma" and live is not None:
            rows_a *= live[0]
            rows_o *= live[1:]
        grads[f"{a_key}_{param}"] += sel_a @ rows_a
        grads[f"{o_key}_{param}"] += sel_o @ rows_o.reshape(-1, rows_o.shape[2])


def batch_inner(batch, users, items, kind, margin, grads=None, grad_phi=False, ws=None):
    """Mean hinge loss of one batch plus requested gradients.

    ``margin`` is a margin net, read with the features of its ``mode``, or
    the number every triplet gets. The distance term's table gradients, the
    margins held constant, are added into ``grads`` when it is given;
    ``grad_phi`` asks for the net's gradients (a number has none). ``ws`` is
    the pool the pass's row arrays go into (see the module docstring).
    """
    ws = ws or BufferPool()
    B = len(batch)
    mu, rt, live = _gather(batch, users, items, kind, ws)
    roots = (None, None) if rt is None else (rt[0], rt[1:])
    d2, rows = pair_rows(mu[0], mu[1:], *roots, grad=grads is not None, ws=ws)

    adaptive = isinstance(margin, margin_net.MarginNetParams)
    if adaptive:
        hidden = len(margin.b1)
        inputs = _margin_inputs(batch, kind, mu, rt)
        # W2 inputs are samples in ``rt``, so the means are dead; Euclidean inputs are the means
        features = "mu" if kind is DistanceKind.W2_SQUARED else "features"
        s = margin_net.margin_input(
            margin.mode, *inputs,
            out=ws.get(features, (B, margin_net.indicator_dim(margin.mode, mu.shape[2]))))
        margins, cache = margin_net.forward(margin, s, out=ws.get("rt", (B, hidden)))
    else:
        margins = np.full(B, float(margin))

    arg = d2[0] - d2[1] + margins
    active = arg > 0.0  # boundary counts as inactive
    # an empty batch (every sampled anchor had an empty pool) adds nothing
    loss = float(np.sum(arg[active])) / B if B else 0.0

    w = active.astype(float) / max(B, 1)  # per-row weight of the mean reduction
    phi_grads = (margin_net.backward(margin, cache, w, out=ws.get("da1", (B, hidden)))
                 if grad_phi and adaptive else None)
    if grads is not None:
        _scatter(batch, rows, w, live, grads, ws)
    return BatchEval(loss, margins, active, phi_grads)


def batch_outer(batch, users, items, kind, grads=None, ws=None):
    """:func:`batch_inner` with margin :data:`OUTER_MARGIN`, at (typically proxy) parameters."""
    return batch_inner(batch, users, items, kind, OUTER_MARGIN, grads=grads, ws=ws)
