"""Versioned JSON persistence for every fitted model kind.

Document shape: {"format_version": 1, "model": kind, "embedding": provider
config, "params": hyperparameters, "state": fitted state}. Each kind's
params and state come from its `kinds.KINDS` entry. Trees serialize as nested
{"feature", "threshold", "left", "right"} / {"leaf"} nodes, which
`tabular.trees_to_doc`/`trees_from_doc` convert to and from node arrays; JSON
nests one level per tree level, so a tree is limited to about 1,000 levels.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

from . import embed
from .kinds import KINDS

FORMAT_VERSION = 1


class PersistError(ValueError):
    pass


@contextlib.contextmanager
def _malformed(what: str):
    """Reports any error of a wrongly shaped document as a PersistError."""
    try:
        yield
    except (TypeError, AttributeError, LookupError, ArithmeticError, ValueError,
            RecursionError) as exc:
        raise PersistError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def model_to_doc(kind: str, model, embedding_config: dict) -> dict:
    if kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    params, state = KINDS[kind].to_state(model)
    return {"format_version": FORMAT_VERSION, "model": kind,
            "embedding": embedding_config, "params": params, "state": state}


def model_from_doc(doc: dict):
    """Returns (kind, model, embedding_config)."""
    if not isinstance(doc, dict):
        raise PersistError("a model document is a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise PersistError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    params, state = doc.get("params"), doc.get("state")
    if not (isinstance(params, dict) and isinstance(state, dict)):
        raise PersistError("a model document's params and state are JSON objects")
    with _malformed(f"{kind} model"):
        model = KINDS[kind].from_state(params, state)
    return kind, model, doc.get("embedding")


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except OSError as exc:  # name the user's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(path, kind: str, model, embedding_config: dict) -> None:
    doc = model_to_doc(kind, model, embedding_config)
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh, _malformed(f"model file {path}"):
        doc = json.load(fh)
    return model_from_doc(doc)


def provider_from_config(cfg: dict):
    provider = cfg.get("provider") if isinstance(cfg, dict) else None
    if provider == "external":
        path, seq_len = cfg.get("path"), cfg.get("L")
        if not isinstance(path, str) or type(seq_len) is not int:
            raise PersistError("an external embedding config holds a 'path' string "
                               "and an integer 'L'")
        return embed.load_external_embeddings(path, seq_len=seq_len)
    if provider != "tfidf":
        raise PersistError(f"unknown embedding provider {provider!r}")
    with _malformed("embedding config"):
        return embed.TfIdfProvider.from_config(cfg)
