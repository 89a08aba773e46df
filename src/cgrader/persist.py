"""Versioned JSON persistence for every fitted model kind.

Document shape: {"format_version": 1, "model": kind, "embedding": provider
config, "params": hyperparameters, "state": fitted state}. Each kind's
params and state come from its `kinds.KINDS` entry; trees serialize as nested
{"feature", "threshold", "left", "right"} / {"leaf"} nodes.
"""

from __future__ import annotations

import json
import os
import tempfile

from . import embed
from .kinds import KINDS

FORMAT_VERSION = 1


class PersistError(ValueError):
    pass


def model_to_doc(kind: str, model, embedding_config: dict) -> dict:
    if kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    params, state = KINDS[kind].to_state(model)
    return {"format_version": FORMAT_VERSION, "model": kind,
            "embedding": embedding_config, "params": params, "state": state}


def model_from_doc(doc: dict):
    """Returns (kind, model, embedding_config)."""
    if doc.get("format_version") != FORMAT_VERSION:
        raise PersistError(
            f"unsupported format_version {doc.get('format_version')!r}"
        )
    kind = doc["model"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    model = KINDS[kind].from_state(doc.get("params", {}), doc.get("state", {}))
    return kind, model, doc.get("embedding", {})


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
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
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_doc(json.load(fh))


def provider_from_config(cfg: dict):
    provider = cfg.get("provider")
    if provider == "tfidf":
        return embed.TfIdfProvider.from_config(cfg)
    if provider == "external":
        return embed.load_external_embeddings(cfg["path"], seq_len=cfg.get("L", embed.DEFAULT_SEQ_LEN))
    raise PersistError(f"unknown embedding provider {provider!r}")
