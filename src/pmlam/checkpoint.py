"""Checkpoint serialization.

Byte layout of a checkpoint file:

    line 1        ASCII magic "PMLAM-CKPT v1" + newline
    8 bytes       little-endian uint64: length of the JSON header
    header        UTF-8 JSON: config (string map), fold index, array
                  directory [{name, shape, dtype} ...], optimizer metadata,
                  RNG stream states and the SHA-256 of each file of the
                  dataset it was trained on (``data_sha256``, file name ->
                  hex digest)
    payload       the arrays from the directory, concatenated in order,
                  C-contiguous raw bytes

Arrays cover both embedding tables, every margin net, and the optimizer
moment buffers. Writes go to a temp file and are renamed into place.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bilevel import theta_dict
from .config import RunConfig, config_strings, make_config
from .data import DATA_FILES, atomic_write
from .embeddings import GaussianEmbeddingTable
from .margin_net import MarginNetParams

CKPT_MAGIC = b"PMLAM-CKPT v1\n"


# The arrays ranking reads: both embedding tables.
TABLE_ARRAYS = ("user_mu", "user_sigma", "item_mu", "item_sigma")


@dataclass
class Tables:
    """What ranking reads of a checkpoint (:func:`load_tables`)."""

    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    cfg: RunConfig
    fold_index: int
    data_sha256: dict          # file name -> digest of the data trained on


@dataclass
class Checkpoint(Tables):
    """All of a checkpoint (:func:`load`)."""

    phis: dict                 # relation -> MarginNetParams
    rng_states: dict
    opt_theta: dict            # {"kind", "alpha", "t"}; moments live in arrays
    opt_phi: dict


def _collect_arrays(state):
    arrays = theta_dict(state.users, state.items)
    for rel, net in state.phis.items():
        for name, arr in net.params().items():
            arrays[f"phi.{rel}.{name}"] = arr
    opt_meta = {}
    for tag, opt in (("theta", state.opt_theta), ("phi", state.opt_phi)):
        opt_meta[tag] = {"kind": opt.kind, "alpha": opt.alpha, "t": opt.t}
        for slot, buffers in (("m", opt.m), ("v", opt.v)):
            for name, arr in buffers.items():
                arrays[f"opt.{tag}.{slot}.{name}"] = arr
    return arrays, opt_meta


def save(path, state, data_sha256, fold_index=0):
    """Write a :class:`~pmlam.bilevel.TrainState` as a checkpoint file.

    ``data_sha256`` (:meth:`~pmlam.data.DataFiles.digests` of the files
    trained on, the bytes that were parsed) is recorded so that
    :func:`check_data` can pin the run to them.
    """
    arrays, opt_meta = _collect_arrays(state)
    directory = [{"name": k, "shape": list(v.shape), "dtype": str(v.dtype)}
                 for k, v in arrays.items()]
    header = {
        "config": config_strings(state.cfg),
        "fold_index": fold_index,
        "arrays": directory,
        "optimizers": opt_meta,
        "rng_states": state.rng_states,
        "data_sha256": data_sha256,
    }
    header = json.dumps(header).encode()

    def body(f):
        f.write(CKPT_MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr).tobytes())

    atomic_write(path, body, mode="wb")


def load(path):
    """Read a checkpoint, every array of it; the nets get the config's feature mode.

    Beside what :func:`_read` rejects, a missing or non-finite net array is rejected.
    """
    header, arrays, tables = _read(path)
    try:
        phis = {rel: MarginNetParams(**{name: arrays[f"phi.{rel}.{name}"]
                                        for name in ("W1", "b1", "W2", "b2")},
                                     mode=tables.cfg.indicator_mode)
                for rel in tables.cfg.relations if f"phi.{rel}.W1" in arrays}
    except KeyError as e:
        raise ValueError(f"{path}: header has no {e.args[0]!r} entry") from None
    for rel, net in phis.items():
        bad = [name for name, arr in net.params().items() if not np.all(np.isfinite(arr))]
        if bad:
            raise ValueError(f"{path}: {rel} margin net: array {bad[0]!r} holds a "
                             f"non-finite value")
    return Checkpoint(**vars(tables), phis=phis, rng_states=header["rng_states"],
                      opt_theta=header["optimizers"].get("theta", {}),
                      opt_phi=header["optimizers"].get("phi", {}))


def load_tables(path):
    """What ranking needs of a checkpoint, reading no array but the tables' four.

    The header and size checks of :func:`load` all apply.
    """
    return _read(path, TABLE_ARRAYS)[2]


def _read(path, names=None):
    """The checked header, the arrays in ``names`` (every one when None) and the :class:`Tables`.

    Each of these raises ValueError naming the file: a header length past
    the end of the file, a header that is not JSON, an entry that is missing
    or of the wrong JSON type (see :data:`HEADER_SCHEMA`) or names an
    unknown dtype, an array directory that needs more bytes than the file
    has or leaves trailing bytes, a config key or value that
    :func:`~pmlam.config.make_config` rejects, and a table that breaks
    :meth:`~pmlam.embeddings.GaussianEmbeddingTable.check`.
    """
    with open(path, "rb") as f:
        if f.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise ValueError(f"{path}: not a {CKPT_MAGIC.decode().strip()} file")
        header_len = int.from_bytes(f.read(8), "little")
        file_size = os.fstat(f.fileno()).st_size
        if header_len > file_size - f.tell():  # checked before a read of that size
            raise ValueError(f"{path}: header needs {header_len} bytes, "
                             f"file ends after {file_size - f.tell()}")
        raw = f.read(header_len)
        try:
            header = json.loads(raw.decode())
        except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
            raise ValueError(f"{path}: header is not valid JSON: {e}") from None
        _check_header(path, header)
        where = _locate(path, header["arrays"], f.tell(), file_size)
        missing = [name for name in TABLE_ARRAYS if name not in where]
        if missing:
            raise ValueError(f"{path}: header has no {missing[0]!r} entry")
        arrays = {}
        for name in where if names is None else names:
            offset, shape, dtype = where[name]
            arrays[name] = np.empty(shape, dtype)
            f.seek(offset)
            if f.readinto(arrays[name]) != arrays[name].nbytes:
                raise ValueError(f"{path}: array {name!r} was cut while it was read")
    try:
        cfg = make_config(file_values=header["config"])
    except ValueError as e:
        raise ValueError(f"{path}: bad header entry 'config': {e}") from None
    users = GaussianEmbeddingTable(arrays["user_mu"], arrays["user_sigma"])
    items = GaussianEmbeddingTable(arrays["item_mu"], arrays["item_sigma"])
    for what, table in (("user", users), ("item", items)):
        try:
            table.check()
        except ValueError as e:
            raise ValueError(f"{path}: {what} table: {e}") from None
    if users.h != items.h:
        raise ValueError(f"{path}: user rows have {users.h} dimensions, item rows {items.h}")
    return header, arrays, Tables(users=users, items=items, cfg=cfg,
                                  fold_index=header["fold_index"],
                                  data_sha256=header["data_sha256"])


def _locate(path, directory, offset, file_size):
    """Array name -> (offset, shape, dtype), for arrays laid out in order from ``offset``.

    The arrays must fill the file from ``offset`` to ``file_size`` exactly.
    """
    where = {}
    for entry in directory:
        name = entry["name"]
        try:
            dtype = np.dtype(entry["dtype"])
        except (TypeError, ValueError, SyntaxError):  # numpy parses some names as code
            raise ValueError(f"{path}: bad header entry: data type {entry['dtype']!r} "
                             f"not understood") from None
        if dtype.kind != "f":  # save writes only floats; raw bytes fit no object type
            raise ValueError(f"{path}: array {name!r} has dtype {dtype}, not a float type")
        size = math.prod(entry["shape"]) * dtype.itemsize
        if offset + size > file_size:
            raise ValueError(f"{path}: array {name!r} needs {size} bytes, "
                             f"file ends after {file_size - offset}")
        where[name] = offset, tuple(entry["shape"]), dtype
        offset += size
    if offset < file_size:
        raise ValueError(f"{path}: trailing bytes after the last array")
    return where


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_string_map(value):  # JSON object keys are always strings
    return isinstance(value, dict) and all(isinstance(v, str) for v in value.values())


def _is_directory(value):
    return isinstance(value, list) and all(
        isinstance(entry, dict) and isinstance(entry.get("name"), str)
        and isinstance(entry.get("dtype"), str) and isinstance(entry.get("shape"), list)
        and all(map(_is_count, entry["shape"])) for entry in value)


# Header entry -> (test of its JSON value, what the test asks for).
HEADER_SCHEMA = {
    "config": (_is_string_map, "an object of strings"),
    "fold_index": (_is_count, "an integer >= 0"),
    "arrays": (_is_directory,
               "a list of {name: string, shape: [integer >= 0, ...], dtype: string}"),
    "optimizers": (lambda value: isinstance(value, dict), "an object"),
    "rng_states": (lambda value: isinstance(value, dict), "an object"),
    "data_sha256": (_is_string_map, "an object of strings"),
}


def _check_header(path, header):
    """Reject a header with an entry missing or of the wrong JSON type."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key, (ok, what) in HEADER_SCHEMA.items():
        if key not in header:
            raise ValueError(f"{path}: header has no {key!r} entry")
        if not ok(header[key]):
            raise ValueError(f"{path}: bad header entry {key!r}: expected {what}")


def check_data(ck, found, dir_path, path):
    """Reject dataset files whose digests ``found`` differ from those ``ck`` was trained on."""
    for name in DATA_FILES:
        if found[name] != ck.data_sha256.get(name):
            raise ValueError(f"{os.path.join(dir_path, name)}: differs from the file "
                             f"{path} was trained on (SHA-256 mismatch)")


def check_fits(ck, n_users, n_items, path):
    """Reject a checkpoint whose tables do not match the dataset's shape."""
    if (ck.users.n, ck.items.n) != (n_users, n_items):
        raise ValueError(f"{path}: tables hold {ck.users.n} users x {ck.items.n} "
                         f"items, the dataset has {n_users} x {n_items}")
