"""Synthetic implicit-feedback data with planted block structure.

Users and items are split into clusters; a user interacts with items of the
own cluster with probability ``p_in`` and with foreign items with
probability ``p_out``. With the default (1.0, 0.0) the blocks are exact, so
an ideal model retrieves held-out items perfectly, which makes these sets
usable as ground-truth oracles for end-to-end checks.
"""

import os

import numpy as np

from .data import InteractionDataset, as_rows


def planted_clusters(n_users=20, n_items=20, n_clusters=2, seed=0,
                     p_in=1.0, p_out=0.0, n_noise_items=0, p_noise=0.05,
                     activity=(1.0, 1.0)):
    """Build a clustered dataset; returns (dataset, user_labels, item_labels).

    ``n_noise_items`` appends a popularity tail of items outside every
    cluster (label ``n_clusters``), each liked with probability ``p_noise``
    regardless of the user's cluster. ``activity`` scales each user's
    interaction probabilities by a uniform draw from the given range, which
    produces heterogeneous profile sizes.
    """
    if n_users % n_clusters or n_items % n_clusters:
        raise ValueError("cluster count must divide both entity counts")
    rng = np.random.default_rng(seed)
    user_labels = np.arange(n_users) * n_clusters // n_users
    item_labels = np.concatenate([np.arange(n_items) * n_clusters // n_items,
                                  np.full(n_noise_items, n_clusters)])
    n_total = n_items + n_noise_items
    act = rng.uniform(activity[0], activity[1], size=n_users)
    chunks = []
    for u in range(n_users):
        same = user_labels[u] == item_labels
        prob = np.where(same, p_in, p_out)
        prob[n_items:] = p_noise
        row = np.flatnonzero(rng.random(n_total) < prob * act[u])
        if len(row) == 0:  # keep every user trainable
            own = np.flatnonzero(same)
            row = own[rng.integers(0, len(own), size=1)]
        chunks.append(row)
    rows = as_rows(chunks)
    ds = InteractionDataset(
        n_users=n_users, n_items=n_total, indptr=rows.indptr, indices=rows.indices,
        user_ids=[f"u{u}" for u in range(n_users)],
        item_ids=[f"i{i}" for i in range(n_total)],
    )
    return ds, user_labels, item_labels


def load_item_labels(dir_path, ds):
    path = os.path.join(dir_path, "item_labels.txt")
    by_ext, line_of = {}, {}
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if line.strip():
                ext, tab, label = line.rstrip("\n").partition("\t")
                if not tab:
                    raise ValueError(f"{path}:{line_no}: expected '<item id><TAB><label>'")
                if ext in line_of:
                    raise ValueError(f"{path}:{line_no}: item {ext!r} repeats line "
                                     f"{line_of[ext]}")
                by_ext[ext], line_of[ext] = label, line_no
    try:
        return [by_ext[ext] for ext in ds.item_ids]
    except KeyError as missing:
        raise ValueError(f"{path}: no label for item {missing}") from None
