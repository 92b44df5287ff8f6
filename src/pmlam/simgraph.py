"""Neighbor sets from thresholded cosine similarity on binary interactions.

Two users are neighbors when the cosine similarity between their binary
interaction rows reaches a threshold tau; item-item neighborhoods use the
transposed matrix. Interaction rows and neighbor sets are :class:`~pmlam.data.Rows`.
:func:`build` runs a sparse matrix product so only co-rated pairs are ever
scored, and results can be cached to disk keyed by the dataset content, fold,
and threshold.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .data import (Rows, as_rows, atomic_write, first_row_outside, header_count,
                   header_value, read_index_rows, write_index_rows)

NBR_MAGIC = "PMLAM-NBR v1"


@dataclass
class NeighborSets:
    kind: str            # "user" | "item"
    tau: float
    neighbors: Rows      # per-entity sorted ids; a list of arrays is converted

    def __post_init__(self):
        self.neighbors = as_rows(self.neighbors)

    def degree(self):
        return self.neighbors.lens()


def build(rows, n_cols, tau, kind="user"):
    """Neighbor sets over the row entities of a binary interaction matrix.

    ``rows`` are :class:`Rows` of sorted item indices, one per entity; pass
    transposed rows to get item-item sets. Pairs with similarity >= tau become
    mutual neighbors; self-loops are dropped. Entities with an empty row end
    up with empty neighbor sets.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    x = rows.matrix(n_cols)
    co = (x @ x.T).tocoo()  # co-rating counts; touches only co-rated pairs
    deg = rows.lens()
    i, j = co.row, co.col
    keep = (i != j) & (co.data / np.sqrt(deg[i] * deg[j]) >= tau)
    return NeighborSets(kind=kind, tau=float(tau),
                        neighbors=Rows.from_pairs(i[keep], j[keep], len(rows)))


def rows_digest(rows):
    """Content hash of :class:`Rows`, row by row, for keying neighbor caches."""
    rows_bytes = b"".join(np.asarray(r, dtype=np.int64).tobytes() + b"|" for r in rows)
    return hashlib.sha256(rows_bytes).hexdigest()[:16]


def save(path, nbr):
    def body(f):
        f.write(f"{NBR_MAGIC}\n")
        f.write(f"kind {nbr.kind}\n")
        f.write(f"tau {nbr.tau!r}\n")
        f.write(f"n {len(nbr.neighbors)}\n")
        write_index_rows(f, nbr.neighbors)

    atomic_write(path, body)


def load(path, n_rows=None):
    """Read cached neighbor sets; a cut file or a wrong row count is rejected.

    ``n_rows``, when given, is the number of entities the caller expects.
    """
    with open(path) as f:
        if f.readline().rstrip("\n") != NBR_MAGIC:
            raise ValueError(f"{path}: not a {NBR_MAGIC} file")
        kind = header_value(f, path, 2, "kind")
        tau = float(header_value(f, path, 3, "tau"))
        n = header_count(f, path, 4, "n")
        if n_rows is not None and n != n_rows:
            raise ValueError(f"{path}:4: holds {n} rows, {n_rows} requested")
        neighbors = read_index_rows(f, path, 5, n, "neighbor rows")
    bad = first_row_outside(neighbors, n)
    if bad is not None:
        raise ValueError(f"{path}:{bad + 5}: neighbor index outside [0, {n})")
    return NeighborSets(kind=kind, tau=tau, neighbors=neighbors)


def build_or_load(cache_dir, rows, n_cols, tau, kind, fold_index):
    """Build neighbor sets, reusing a disk cache when the inputs match."""
    if cache_dir is None:
        return build(rows, n_cols, tau, kind=kind)
    key = f"{kind}_f{fold_index}_t{tau:g}_{rows_digest(rows)}"
    path = os.path.join(cache_dir, f"neighbors_{key}.txt")
    if os.path.exists(path):
        return load(path, len(rows))
    nbr = build(rows, n_cols, tau, kind=kind)
    os.makedirs(cache_dir, exist_ok=True)
    save(path, nbr)
    return nbr
