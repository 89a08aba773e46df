"""Versioned JSON persistence for every fitted model kind.

Document shape: {"format_version": 2, "model": kind, "embedding": provider
config, "params": hyperparameters, "state": fitted state}. Each kind's params
and state come from its `kinds.KINDS` entry, whose state holds numpy arrays.
This module alone converts them: each array is stored as {"dtype": "<f8" (or
"<i8" for tree node ids), "shape": [...], "b64": base64 of its little-endian
bytes}, which round-trips bit for bit and parses as one JSON string. A
document of any other format version is refused: its model must be retrained.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import secrets

import numpy as np

from . import embed
from .kinds import KINDS

FORMAT_VERSION = 2
_DTYPES = {"<f8": np.float64, "<i8": np.intp}  # stored dtype -> dtype in memory
_ARRAY_KEYS = {"dtype", "shape", "b64"}


class PersistError(ValueError):
    pass


@contextlib.contextmanager
def _malformed(what: str):
    """Reports any error of a wrongly shaped document as a PersistError."""
    try:
        yield
    except PersistError:
        raise
    except (TypeError, AttributeError, LookupError, ArithmeticError, ValueError,
            RecursionError) as exc:
        raise PersistError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def _encode(value):
    """`value` with every numpy array in it replaced by its v2 document."""
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if not isinstance(value, np.ndarray):
        return value
    dtype = value.dtype.newbyteorder("<").str
    if dtype not in _DTYPES:
        raise PersistError(f"cannot store an array of dtype {value.dtype}")
    raw = value.astype(dtype, copy=False).tobytes()
    return {"dtype": dtype, "shape": list(value.shape),
            "b64": base64.b64encode(raw).decode("ascii")}


def _decode_array(doc: dict, where: str) -> np.ndarray:
    if set(doc) != _ARRAY_KEYS:
        raise PersistError(f"{where}: an array holds exactly the keys 'dtype', "
                           f"'shape' and 'b64', not {sorted(doc)}")
    dtype, shape, b64 = doc["dtype"], doc["shape"], doc["b64"]
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise PersistError(f"{where}: dtype {dtype!r} is not one of {sorted(_DTYPES)}")
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise PersistError(f"{where}: shape {shape!r} is not a list of non-negative "
                           f"integers")
    try:
        raw = base64.b64decode(b64, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise PersistError(f"{where}: invalid base64: {exc}") from exc
    size = math.prod(shape) * np.dtype(dtype).itemsize
    if size != len(raw):  # before any allocation of `shape`
        raise PersistError(f"{where}: shape {shape} takes {size:,} bytes, the data "
                           f"holds {len(raw):,}")
    return np.frombuffer(raw, dtype=dtype).astype(_DTYPES[dtype]).reshape(shape)


def _decode(value, where: str = "state"):
    """Inverse of `_encode`: a JSON object with array keys becomes an array."""
    if not isinstance(value, dict):
        return value
    if value.keys() & _ARRAY_KEYS:
        return _decode_array(value, where)
    return {key: _decode(item, f"{where}.{key}") for key, item in value.items()}


def model_to_doc(kind: str, model, embedding_config: dict) -> dict:
    if kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    params, state = KINDS[kind].to_state(model)
    return {"format_version": FORMAT_VERSION, "model": kind,
            "embedding": embedding_config, "params": params, "state": _encode(state)}


def model_from_doc(doc: dict):
    """Returns (kind, model, embedding_config) of a document."""
    if not isinstance(doc, dict):
        raise PersistError("a model document is a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise PersistError(f"model format_version {version!r} is not read (only "
                           f"{FORMAT_VERSION} is): retrain the model")
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    params, state = doc.get("params"), doc.get("state")
    if not (isinstance(params, dict) and isinstance(state, dict)):
        raise PersistError("a model document's params and state are JSON objects")
    with _malformed(f"{kind} model"):
        model = KINDS[kind].from_state(params, _decode(state))
    return kind, model, doc.get("embedding")


@contextlib.contextmanager
def atomic_open(path):
    """A text file to write, newlines untranslated as `csv` needs, that replaces
    `path` only when the block completes. The file's mode follows the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.getpid()}-{secrets.token_hex(8)}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the user's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def require_folders(paths, made=None) -> None:
    """Raises an OSError naming the first of `paths` that is a folder or whose folder
    is missing, so a command fails before any work. A folder that holds folder
    `made`, which the command makes, counts as present; a file at `made` does not."""
    if made is not None and os.path.lexists(made) and not os.path.isdir(made):
        raise NotADirectoryError(f"cannot make directory {made}: a file is there")
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder) and (
                made is None or os.path.commonpath([folder, os.path.abspath(made)]) != folder):
            raise FileNotFoundError(f"no directory to write {path}")


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def remove_file(path) -> None:
    """Deletes file `path` if it exists."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def save_model(path, kind: str, model, embedding_config: dict) -> None:
    # Streamed, so a save never holds the whole text and its encoded bytes: on
    # a 400-row demo experiment, writing one string raised peak RSS by ~7 MB.
    with atomic_open(path) as fh:
        json.dump(model_to_doc(kind, model, embedding_config), fh, sort_keys=True)


@contextlib.contextmanager
def naming(path):
    """Reports a ValueError or LookupError raised in the block as a PersistError
    whose message starts with `path`, so an error in an input file names the file.
    An UnsupportedEmbedding passes as it is: it is about the provider, not the file."""
    try:
        yield
    except embed.UnsupportedEmbedding:
        raise
    except (ValueError, LookupError) as exc:
        raise PersistError(f"{path}: {exc}") from exc


def read_text(path) -> str:
    """The text of UTF-8 file `path`; bytes that are not UTF-8 are an error naming it."""
    with naming(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()


def load_model(path):
    """(kind, model, embedding config) of model file `path`; an error in the file
    names it."""
    with naming(path):
        with open(path, "r", encoding="utf-8") as fh, _malformed("model JSON"):
            doc = json.load(fh)
        return model_from_doc(doc)


def provider_from_config(cfg: dict):
    """The embedding provider a model file's `embedding` config describes. An
    external one is refused before its vectors file is opened: its vectors are
    keyed by submission id, so it cannot embed a new file."""
    name = cfg.get("provider") if isinstance(cfg, dict) else None
    if name == embed.TfIdfProvider.name:
        with _malformed("embedding config"):
            return embed.TfIdfProvider.from_config(cfg)
    if name == embed.ExternalProvider.name:
        raise embed.UnsupportedEmbedding(embed.NO_AD_HOC_CODE)
    raise PersistError(f"unknown embedding provider {name!r}")
