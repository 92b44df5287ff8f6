"""Neighbor sets from thresholded cosine similarity on binary interactions.

Two users are neighbors when the cosine similarity between their binary
interaction rows reaches a threshold tau; item-item neighborhoods use the
transposed matrix. The builder runs a sparse matrix product so only co-rated
pairs are ever scored, and results can be cached to disk keyed by the
dataset content, fold, and threshold.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import (atomic_write, first_row_outside, header_count, header_value,
                   read_index_rows, write_index_rows)

NBR_MAGIC = "PMLAM-NBR v1"


@dataclass
class NeighborSets:
    kind: str            # "user" | "item"
    tau: float
    neighbors: list      # per-entity sorted index arrays

    @property
    def n(self):
        return len(self.neighbors)

    def degree(self):
        return np.array([len(v) for v in self.neighbors])


def build(rows, n_cols, tau, kind="user"):
    """Neighbor sets over the row entities of a binary interaction matrix.

    ``rows`` holds one sorted item-index array per entity; pass transposed
    rows to get item-item sets. Pairs with similarity >= tau become mutual
    neighbors; self-loops are dropped. Entities with an empty row end up with
    empty neighbor sets.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, r in enumerate(rows):
        indptr[i + 1] = indptr[i] + len(r)
    indices = np.concatenate(rows) if n else np.empty(0, np.int64)
    x = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n_cols))

    co = (x @ x.T).tocoo()  # co-rating counts; touches only co-rated pairs
    deg = np.asarray(x.sum(axis=1)).ravel()
    i, j, c = co.row, co.col, co.data
    keep = i != j
    i, j, c = i[keep], j[keep], c[keep]
    sim = c / np.sqrt(deg[i] * deg[j])
    keep = sim >= tau
    i, j = i[keep], j[keep]

    neighbors = [np.empty(0, dtype=np.int64) for _ in range(n)]
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    bounds = np.searchsorted(i, np.arange(n + 1))
    for a in range(n):
        neighbors[a] = j[bounds[a]:bounds[a + 1]].astype(np.int64)
    return NeighborSets(kind=kind, tau=float(tau), neighbors=neighbors)


def rows_digest(rows):
    """Content hash of a row-list, for keying neighbor caches."""
    hasher = hashlib.sha256()
    for r in rows:
        hasher.update(np.asarray(r, dtype=np.int64).tobytes())
        hasher.update(b"|")
    return hasher.hexdigest()[:16]


def save(path, nbr):
    def body(f):
        f.write(f"{NBR_MAGIC}\n")
        f.write(f"kind {nbr.kind}\n")
        f.write(f"tau {nbr.tau!r}\n")
        f.write(f"n {nbr.n}\n")
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
