"""Checkpoint serialization.

Byte layout of a checkpoint file:

    line 1        ASCII magic "PMLAM-CKPT v1" + newline
    8 bytes       little-endian uint64: length of the JSON header
    header        UTF-8 JSON: config (string map), fold index, array
                  directory [{name, shape, dtype} ...], optimizer metadata,
                  RNG stream states and, when training recorded them, the
                  SHA-256 of each file of the dataset it read
                  (``data_sha256``, file name -> hex digest)
    payload       the arrays from the directory, concatenated in order,
                  C-contiguous raw bytes

Arrays cover both embedding tables, every margin net, and the optimizer
moment buffers. Writes go to a temp file and are renamed into place.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .config import RETIRED_KEYS, RunConfig, config_strings, make_config
from .data import DATA_FILES, atomic_write, file_digests
from .embeddings import GaussianEmbeddingTable
from .margin_net import MarginNetParams

CKPT_MAGIC = b"PMLAM-CKPT v1\n"


@dataclass
class Checkpoint:
    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    phis: dict                 # relation -> MarginNetParams
    cfg: RunConfig
    fold_index: int
    rng_states: dict
    opt_theta: dict            # {"kind", "alpha", "t"}; moments live in arrays
    opt_phi: dict
    data_sha256: dict | None   # file name -> digest; None in older checkpoints


def _collect_arrays(result):
    arrays = {
        "user_mu": result.users.mu, "user_sigma": result.users.sigma,
        "item_mu": result.items.mu, "item_sigma": result.items.sigma,
    }
    for rel, net in result.phis.items():
        for name, arr in net.params().items():
            arrays[f"phi.{rel}.{name}"] = arr
    opt_meta = {}
    for tag, opt in (("theta", result.opt_theta), ("phi", result.opt_phi)):
        if opt is None:
            continue
        state = opt.state()
        opt_meta[tag] = {"kind": state["kind"], "alpha": state["alpha"],
                         "t": state["t"]}
        for slot, buffers in state["slots"].items():
            for name, arr in buffers.items():
                arrays[f"opt.{tag}.{slot}.{name}"] = arr
    return arrays, opt_meta


def save(path, result, fold_index=0, data_sha256=None):
    """Write a TrainResult (see bilevel.train) as a checkpoint file.

    ``data_sha256`` (:func:`~pmlam.data.file_digests` of the dataset trained
    on) is recorded when given, so :func:`check_data` can pin the run to it.
    """
    arrays, opt_meta = _collect_arrays(result)
    directory = [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                 for k, v in arrays.items()]
    header = {
        "config": config_strings(result.cfg),
        "fold_index": fold_index,
        "arrays": directory,
        "optimizers": opt_meta,
        "rng_states": result.rng_states,
    }
    if data_sha256 is not None:
        header["data_sha256"] = data_sha256
    header = json.dumps(header).encode()

    def body(f):
        f.write(CKPT_MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr).tobytes())

    atomic_write(path, body, mode="wb")


def load(path):
    """Read a checkpoint; a cut payload, trailing bytes or a damaged header are rejected.

    A header entry that is missing (an array directory, a table) or names an
    unknown dtype raises ValueError naming the file and the entry.
    """
    try:
        return _read(path)
    except KeyError as e:
        raise ValueError(f"{path}: header has no {e.args[0]!r} entry") from None
    except TypeError as e:  # np.dtype of an unknown name
        raise ValueError(f"{path}: bad header entry: {e}") from None


def _read(path):
    with open(path, "rb") as f:
        if f.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a {CKPT_MAGIC.decode().strip()} file")
        header_len = int.from_bytes(f.read(8), "little")
        raw = f.read(header_len)
        if len(raw) != header_len:
            raise ValueError(f"{path}: header needs {header_len} bytes, "
                             f"file ends after {len(raw)}")
        header = json.loads(raw.decode())
        arrays = {}
        for entry in header["arrays"]:
            name, shape = entry["name"], tuple(entry["shape"])
            dtype = np.dtype(entry["dtype"])
            size = (int(np.prod(shape)) if shape else 1) * dtype.itemsize
            buf = f.read(size)
            if len(buf) != size:
                raise ValueError(f"{path}: array {name!r} needs {size} bytes, "
                                 f"file ends after {len(buf)}")
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")

    digests = header.get("data_sha256")
    if digests is not None and not isinstance(digests, dict):
        raise ValueError(f"{path}: bad header entry 'data_sha256'")
    # a retired key loads whatever value an older checkpoint recorded for it
    cfg = make_config(file_values={k: v for k, v in header["config"].items()
                                   if k not in RETIRED_KEYS})
    users = GaussianEmbeddingTable(arrays["user_mu"], arrays["user_sigma"])
    items = GaussianEmbeddingTable(arrays["item_mu"], arrays["item_sigma"])
    phis = {}
    for rel in cfg.relations:
        key = f"phi.{rel}.W1"
        if key in arrays:
            phis[rel] = MarginNetParams(
                W1=arrays[key], b1=arrays[f"phi.{rel}.b1"],
                W2=arrays[f"phi.{rel}.W2"], b2=arrays[f"phi.{rel}.b2"])
    return Checkpoint(
        users=users, items=items, phis=phis, cfg=cfg,
        fold_index=header["fold_index"],
        rng_states=header["rng_states"],
        opt_theta=header["optimizers"].get("theta", {}),
        opt_phi=header["optimizers"].get("phi", {}),
        data_sha256=digests,
    )


def check_data(ck, dir_path, path):
    """Reject a dataset directory whose files differ from those ``ck`` was trained on.

    A checkpoint without digests, written before they were recorded, is let
    through: :func:`check_fits` is then its only check.
    """
    if ck.data_sha256 is None:
        return
    found = file_digests(dir_path)
    for name in DATA_FILES:
        if found[name] != ck.data_sha256.get(name):
            raise ValueError(f"{os.path.join(dir_path, name)}: differs from the file "
                             f"{path} was trained on (SHA-256 mismatch)")


def check_fits(ck, ds, path):
    """Reject a checkpoint whose tables do not match the dataset's shape."""
    if (ck.users.n, ck.items.n) != (ds.n_users, ds.n_items):
        raise ValueError(f"{path}: tables hold {ck.users.n} users x {ck.items.n} "
                         f"items, the dataset has {ds.n_users} x {ds.n_items}")
