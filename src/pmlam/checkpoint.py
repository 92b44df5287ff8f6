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
moment buffers. :func:`_collect_arrays` is the one owner of the layout: it
names a :class:`~pmlam.bilevel.TrainState`'s arrays in file order and gives
its optimizer metadata. :func:`save` writes what it gives, and :func:`load`
rebuilds the state and requires the file to hold exactly what it gives for
that state. Writes go to a temp file and are renamed into place.

This module checks a file against itself only. Whether a checkpoint fits
the dataset it is used with (table shapes, ``data_sha256`` and fold index)
is :meth:`~pmlam.data.DataFiles.check_run`'s to say.
"""

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bilevel import Adam, TrainState, phi_params, theta_dict
from .config import RunConfig, config_strings, make_config
from .data import atomic_write
from .embeddings import GaussianEmbeddingTable
from .margin_net import init_margin_net

CKPT_MAGIC = b"PMLAM-CKPT v1\n"


# The arrays ranking reads: both embedding tables.
TABLE_ARRAYS = ("user_mu", "user_sigma", "item_mu", "item_sigma")


@dataclass
class Tables:
    """The header facts of a checkpoint and its tables (:func:`load_tables`)."""

    users: GaussianEmbeddingTable
    items: GaussianEmbeddingTable
    cfg: RunConfig
    fold_index: int
    data_sha256: dict          # file name -> digest of the data trained on


def _optimizers(state):
    """Header tag -> (optimizer, the arrays it steps), for both optimizers of ``state``."""
    return {"theta": (state.opt_theta, theta_dict(state.users, state.items)),
            "phi": (state.opt_phi,
                    phi_params({rel: net.params() for rel, net in state.phis.items()}))}


def _collect_arrays(state):
    """A checkpoint of ``state``: its arrays, name -> array in file order, and optimizer data."""
    arrays = theta_dict(state.users, state.items)
    optimizers = _optimizers(state)
    _, phi_arrays = optimizers["phi"]
    for key, arr in phi_arrays.items():
        arrays[f"phi.{key}"] = arr
    opt_meta = {}
    for tag, (opt, _) in optimizers.items():
        opt_meta[tag] = {"kind": opt.kind, "alpha": opt.alpha, "t": opt.t}
        for slot, buffers in (("m", opt.m), ("v", opt.v)):
            for name, arr in buffers.items():
                arrays[f"opt.{tag}.{slot}.{name}"] = arr
    return arrays, opt_meta


def save(path, state, data_sha256, fold_index=0):
    """Write a :class:`~pmlam.bilevel.TrainState` as a checkpoint file.

    ``data_sha256`` (:meth:`~pmlam.data.DataFiles.digests` of the files
    trained on, the bytes that were parsed) is recorded so that
    :meth:`~pmlam.data.DataFiles.check_run` can pin the run to them.
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
    """The :class:`Tables` and the :class:`~pmlam.bilevel.TrainState` a checkpoint holds.

    The state has the file's tables (the same objects as the ``Tables``'),
    margin nets in the config's feature mode, both ``Adam``s with their
    step counts and moments, and both generators; ``epoch`` is
    ``cfg.epochs``, as the file does not record it, the trace and
    evaluations are empty, and the pools are None (``run_epoch`` rebuilds
    them). Beside what :func:`load_tables` rejects, each of these raises
    ValueError naming the file: a directory that is not exactly what
    :func:`_collect_arrays` gives for the rebuilt state (names, order,
    shapes, dtypes), an ``optimizers`` or ``rng_states`` entry that
    :func:`save` would not write for it, and a non-finite net array.
    """
    with open(path, "rb") as f:
        header, where, tables = _read(path, f)
        state = _rebuild(path, header, where, tables)
        for name, arr in _collect_arrays(state)[0].items():
            if name not in TABLE_ARRAYS:  # _read has read the tables
                _read_into(path, f, where[name][0], name, arr)
    for rel, net in state.phis.items():
        bad = [name for name, arr in net.params().items() if not np.all(np.isfinite(arr))]
        if bad:
            raise ValueError(f"{path}: {rel} margin net: array {bad[0]!r} holds a "
                             f"non-finite value")
    return tables, state


def _rebuild(path, header, where, tables):
    """The state a checkpoint describes, its arrays not yet read; checks the file's layout.

    The nets are those of the config's adaptive relations whose arrays the
    directory lists: a relation without training pairs has none.
    """
    cfg = tables.cfg
    rngs = {}
    for key, value in header["rng_states"].items():
        rngs[key] = np.random.Generator(np.random.PCG64(0))
        try:
            rngs[key].bit_generator.state = value
        except (TypeError, KeyError, OverflowError, ValueError) as e:
            raise ValueError(f"{path}: bad header entry 'rng_states': {key!r}: {e}") from None
    try:
        state = TrainState(users=tables.users, items=tables.items, phis={}, cfg=cfg,
                           opt_theta=Adam(cfg.alpha), opt_phi=Adam(cfg.alpha),
                           rng_sampler=rngs["sampler"], rng_noise=rngs["noise"],
                           epoch=cfg.epochs)
    except KeyError as e:
        raise ValueError(f"{path}: bad header entry 'rng_states': no {e.args[0]!r} "
                         f"state") from None
    _require(path, "rng_states", header["rng_states"], state.rng_states)

    table_names = _collect_arrays(state)[0].keys()
    for rel in cfg.relations:
        if cfg.margin_mode_for(rel) is None:
            net = init_margin_net(cfg.h, cfg.hidden, np.random.default_rng(0),
                                  mode=cfg.indicator_mode)  # its values are read over
            net_names = _collect_arrays(replace(state, phis={rel: net}))[0].keys() - table_names
            if net_names & where.keys():
                state.phis[rel] = net

    optimizers = header["optimizers"]
    for tag, (opt, params) in _optimizers(state).items():
        entry = optimizers.get(tag)
        t = entry.get("t") if isinstance(entry, dict) else None
        if not _is_count(t):
            raise ValueError(f"{path}: bad header entry 'optimizers': {tag!r} needs a 't' "
                             f"that is an integer >= 0")
        opt.t = t
        if t:  # a step gives moments to every array the optimizer steps
            opt.allocate(params)
    arrays, opt_meta = _collect_arrays(state)
    _require(path, "optimizers", optimizers, opt_meta)
    _check_layout(path, where, arrays)
    return state


def _require(path, entry, found, written):
    """Reject header entry ``found`` unless it is what :func:`save` writes, ``written``.

    Values compare as JSON text, so a type or key order of their own differs too.
    """
    def same(a, b):
        return json.dumps(a) == json.dumps(b)

    if same(found, written):
        return
    for key in [*written, *found]:
        if key not in found:
            raise ValueError(f"{path}: bad header entry {entry!r}: no {key!r}")
        if key not in written:
            raise ValueError(f"{path}: bad header entry {entry!r}: unknown key {key!r}")
        if not same(found[key], written[key]):
            raise ValueError(f"{path}: bad header entry {entry!r}: {key!r} is "
                             f"{found[key]!r}, expected {written[key]!r}")
    raise ValueError(f"{path}: bad header entry {entry!r}: keys in the order "
                     f"{list(found)}, expected {list(written)}")


def _check_layout(path, where, arrays):
    """Reject a directory ``where`` whose names, order, shapes or dtypes are not ``arrays``'."""
    for name in where:
        if name not in arrays:
            raise ValueError(f"{path}: unknown array {name!r}")
    for name in arrays:
        if name not in where:
            raise ValueError(f"{path}: header has no {name!r} entry")
    for (name, (_, shape, dtype)), (expected, arr) in zip(where.items(), arrays.items()):
        if name != expected:
            raise ValueError(f"{path}: array {name!r} is listed where {expected!r} belongs")
        if (shape, dtype) != (arr.shape, arr.dtype):
            raise ValueError(f"{path}: array {name!r} has shape {shape} and dtype {dtype}, "
                             f"expected {arr.shape} and {arr.dtype}")


def load_tables(path):
    """The :class:`Tables` of a checkpoint, reading no array but the tables' four.

    The header and size checks of :func:`_read` all apply.
    """
    with open(path, "rb") as f:
        return _read(path, f)[2]


def _read(path, f):
    """The checked header, the array directory (see :func:`_locate`) and the :class:`Tables`.

    ``f`` is ``path`` opened for binary reads, at its start; of the arrays,
    only the tables are read. Each of these raises ValueError naming the
    file: a header length past the end of the file, a header that is not
    JSON, an entry that is missing or of the wrong JSON type (see
    :data:`HEADER_SCHEMA`) or names an unknown dtype, an array listed twice,
    an array directory that needs more bytes than the file has or leaves
    trailing bytes, a config key or value that
    :func:`~pmlam.config.make_config` rejects, a table entry that is not
    float64 or not the config's ``h`` columns wide, and a table that breaks
    :meth:`~pmlam.embeddings.GaussianEmbeddingTable.check`.
    """
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
    try:
        cfg = make_config(file_values=header["config"])
    except ValueError as e:
        raise ValueError(f"{path}: bad header entry 'config': {e}") from None
    arrays = {}
    for name in TABLE_ARRAYS:
        if name not in where:
            raise ValueError(f"{path}: header has no {name!r} entry")
        offset, shape, dtype = where[name]
        expected = (*shape[:1], cfg.h)  # save writes float64 (n, h) tables
        if (shape, dtype) != (expected, np.float64):
            raise ValueError(f"{path}: array {name!r} has shape {shape} and dtype {dtype}, "
                             f"expected {expected} and float64")
        arrays[name] = np.empty(shape, dtype)
        _read_into(path, f, offset, name, arrays[name])
    users = GaussianEmbeddingTable(arrays["user_mu"], arrays["user_sigma"])
    items = GaussianEmbeddingTable(arrays["item_mu"], arrays["item_sigma"])
    for what, table in (("user", users), ("item", items)):
        try:
            table.check()
        except ValueError as e:
            raise ValueError(f"{path}: {what} table: {e}") from None
    return header, where, Tables(users=users, items=items, cfg=cfg,
                                 fold_index=header["fold_index"],
                                 data_sha256=header["data_sha256"])


def _read_into(path, f, offset, name, arr):
    """Read array ``name`` of file ``f``, which starts at ``offset``, into ``arr``."""
    f.seek(offset)
    if f.readinto(arr) != arr.nbytes:
        raise ValueError(f"{path}: array {name!r} was cut while it was read")


def _locate(path, directory, offset, file_size):
    """Array name -> (offset, shape, dtype), for arrays laid out in order from ``offset``.

    The arrays must fill the file from ``offset`` to ``file_size`` exactly.
    """
    where = {}
    for entry in directory:
        name = entry["name"]
        if name in where:
            raise ValueError(f"{path}: array {name!r} is listed twice")
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

