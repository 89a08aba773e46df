"""Code-to-vector providers.

Two interchangeable sources: a JSON-Lines file of precomputed vectors
(produced offline by an external embedding model and joined on submission
id), and a built-in deterministic hashed TF-IDF so the whole pipeline runs
with no external artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .clex import significant_tokens, tokenize
from .neural import TokenSequences

DEFAULT_TFIDF_DIM = 256
DEFAULT_SEQ_LEN = 512


class EmbeddingFormatError(ValueError):
    """Bad vector file contents."""


class EmbeddingLookupError(LookupError):
    """No stored vector for the requested id."""


class UnsupportedEmbedding(ValueError):
    """Provider cannot embed this kind of input."""


NO_AD_HOC_CODE = "external vector files cannot embed ad-hoc code; use the tfidf provider"


class ArrayTooLarge(ValueError):
    """An array sized by an input has more bytes than can be allocated."""


def checked_zeros(shape: tuple, name: str, dtype=np.float64) -> np.ndarray:
    """Zeros of `shape`; if they cannot be allocated, an error naming `name`."""
    try:
        return np.zeros(shape, dtype=dtype)
    except (MemoryError, ValueError):  # ValueError: more bytes than an array may hold
        raise ArrayTooLarge(f"{name}: the {shape} array needs "
                            f"{np.dtype(dtype).itemsize * math.prod(shape):,} bytes, "
                            f"more than can be allocated") from None


@dataclass(frozen=True)
class Embedding:
    pooled: np.ndarray  # (d,)
    sequence: TokenSequences | np.ndarray | None  # (L, d) or None; external: <= L rows


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 1 << 64


def fnv1a_64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) % _U64
    return h


@dataclass(frozen=True, eq=False)
class TfIdfProvider:
    """Deterministic hashed TF-IDF embeddings fitted on a token corpus.

    Each provider has a lexing memo of its own, of bucket ids: while it lives,
    each distinct code text is lexed once and each distinct token text hashed
    once. Each command builds its own provider, so no memo crosses commands.
    """

    d: int
    L: int
    doc_count: int
    doc_freq: np.ndarray  # (d,) ints
    idf: np.ndarray = field(init=False, repr=False)  # (d,)
    _codes: dict = field(default_factory=dict, init=False, repr=False)  # code -> buckets
    _texts: dict = field(default_factory=dict, init=False, repr=False)  # token -> bucket

    name = "tfidf"

    def __post_init__(self):  # `fit` calls it again once doc_freq is filled
        idf = np.log((1.0 + self.doc_count) / (1.0 + self.doc_freq)) + 1.0
        object.__setattr__(self, "idf", idf)

    @classmethod
    def fit(cls, codes: list[str], d: int = DEFAULT_TFIDF_DIM,
            L: int = DEFAULT_SEQ_LEN) -> "TfIdfProvider":
        """Document frequencies of `codes`; the provider keeps their lexing."""
        if d < 8:
            raise ValueError(f"hash dimension must be >= 8, got {d}")
        if not codes:
            raise ValueError("cannot fit TF-IDF on an empty corpus")
        provider = cls(d, L, len(codes), checked_zeros((d,), f"dim {d}", np.int64))
        for code in codes:
            provider.doc_freq[list(set(provider._buckets(code)))] += 1
        provider.__post_init__()
        return provider

    def embed_rows(self, rows) -> tuple[np.ndarray, TokenSequences]:
        """(pooled (N, d), sequences (N, L, d)) of the rows' code."""
        return self._embed([row.code for row in rows], "seq_len")

    def embed_code(self, code: str) -> Embedding:
        pooled, sequences = self._embed([code], "L")
        return Embedding(pooled[0], sequences[0])

    def _buckets(self, code: str) -> list[int]:
        """The bucket in [0, d) of each significant token of `code`, in order."""
        buckets = self._codes.get(code)
        if buckets is None:
            buckets = self._codes[code] = [
                self._bucket(tok.text) for tok in significant_tokens(tokenize(code))]
        return buckets

    def _bucket(self, text: str) -> int:
        bucket = self._texts.get(text)
        if bucket is None:
            bucket = self._texts[text] = fnv1a_64(text) % self.d
        return bucket

    def _embed(self, codes: list[str], name: str) -> tuple[np.ndarray, TokenSequences]:
        """An allocation that fails names `name` and L."""
        shape = (len(codes), self.L)
        ids = checked_zeros(shape, f"{name} {self.L}", np.int32)
        values = checked_zeros(shape, f"{name} {self.L}")
        pooled = np.zeros((len(codes), self.d))
        for i, code in enumerate(codes):
            buckets = self._buckets(code)
            if buckets:
                counts = np.bincount(buckets, minlength=self.d).astype(np.float64)
                vector = (counts / len(buckets)) * self.idf
                # one dot per code: a batched row sum can differ in the last bit
                norm = math.sqrt(float(vector @ vector))
                pooled[i] = vector / norm if norm > 0 else vector
            kept = buckets[: self.L]
            ids[i, : len(kept)] = kept
            values[i, : len(kept)] = self.idf[kept]
        return pooled, TokenSequences(ids, values, self.d)

    def config(self) -> dict:
        return {"provider": self.name, "d": self.d, "L": self.L,
                "doc_count": self.doc_count, "doc_freq": self.doc_freq.tolist()}

    @classmethod
    def from_config(cls, cfg: dict) -> "TfIdfProvider":
        d, L, doc_count = cfg["d"], cfg["L"], cfg["doc_count"]
        if not all(type(n) is int for n in (d, L, doc_count, *cfg["doc_freq"])):
            raise ValueError(f"d, L, doc_count and doc_freq hold integers, not d={d!r:.20}, "
                             f"L={L!r:.20}, doc_count={doc_count!r:.20}")
        doc_freq = np.asarray(cfg["doc_freq"], dtype=np.int64)
        if d < 8 or min(L, doc_count) < 0 or doc_freq.shape != (d,) or np.any(doc_freq < 0):
            raise ValueError(f"bad TF-IDF config: d={d}, L={L}, doc_count={doc_count}")
        return cls(d, L, doc_count, doc_freq)


@dataclass(frozen=True, eq=False)
class ExternalProvider:
    """Precomputed vectors keyed by submission id (JSON Lines)."""

    table: dict  # id -> Embedding, its sequence unpadded: at most L rows
    d: int
    L: int
    path: str = ""

    name = "external"

    def embed_rows(self, rows) -> tuple[np.ndarray, np.ndarray | None]:
        """(pooled (N, d), sequences (N, L, d) or None): the stored vectors of the
        rows' ids, so nothing is lexed. Sequences are padded here; None unless
        every row has one."""
        records = []
        for row in rows:
            try:
                records.append(self.table[row.id])
            except KeyError:
                raise EmbeddingLookupError(f"no stored vector for id {row.id!r}") from None
        pooled = np.zeros((len(records), self.d))
        for i, record in enumerate(records):
            pooled[i] = record.pooled
        if any(record.sequence is None for record in records):
            return pooled, None
        sequences = checked_zeros((len(records), self.L, self.d), f"seq_len {self.L}")
        for i, record in enumerate(records):
            sequences[i, : len(record.sequence)] = record.sequence
        return pooled, sequences

    def config(self) -> dict:
        return {"provider": self.name, "path": self.path, "L": self.L}


_EXTERNAL_KEYS = ("id", "pooled", "sequence")


def _vector_record(line: str, d: int | None, seq_len: int):
    """(id, pooled, sequence or None) of one JSON-Lines record; d=None infers it."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or "id" not in obj or "pooled" not in obj:
        raise ValueError("object must have 'id' and 'pooled'")
    unknown = sorted(key for key in obj if key not in _EXTERNAL_KEYS)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown}; allowed keys are 'id', "
                         f"'pooled' and 'sequence' (per-token vectors)")
    if isinstance(obj["id"], bool) or not isinstance(obj["id"], (str, int)):
        raise ValueError("'id' must be a string or an integer")
    pooled = np.asarray(obj["pooled"], dtype=np.float64)
    if pooled.ndim != 1 or d not in (None, pooled.shape[0]) or not np.isfinite(pooled).all():
        raise ValueError(f"pooled vector of shape {pooled.shape} must be finite and "
                         f"1-D{'' if d is None else f' of length {d}'}")
    d = pooled.shape[0]
    sequence = None
    if obj.get("sequence") is not None:
        rows = np.asarray(obj["sequence"], dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != d or not np.isfinite(rows).all():
            raise ValueError(f"sequence rows must be finite and x-by-{d}")
        sequence = rows[:seq_len].copy()  # not a view: the rows past seq_len go
    return str(obj["id"]), pooled, sequence


def _numbered_lines(fh):
    """(line number, bytes) of each line of a binary file, counted as a text
    reader counts them: `\n`, `\r\n` and a bare `\r` each end a line."""
    number = 0
    for chunk in fh:  # split at b"\n" only
        body = chunk[:-2] if chunk.endswith(b"\r\n") else chunk.rstrip(b"\n")
        for line in body.split(b"\r"):
            number += 1
            yield number, line


def load_external_embeddings(path, seq_len: int = DEFAULT_SEQ_LEN) -> ExternalProvider:
    """Load `{"id", "pooled", "sequence"?}` JSON-Lines vectors; other keys are rejected,
    and so is an id that repeats (`1` and `"1"` are one id)."""
    table: dict[str, Embedding] = {}
    lines: dict[str, int] = {}  # id -> its line
    d = None
    with open(path, "rb") as fh:
        for line_num, raw in _numbered_lines(fh):
            try:  # decoded line by line, so an undecodable byte names its line
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                sub_id, pooled, sequence = _vector_record(line, d, seq_len)
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise EmbeddingFormatError(f"{path}: line {line_num}: {exc}") from exc
            if sub_id in lines:
                raise EmbeddingFormatError(f"{path}: line {line_num}: id {sub_id!r} "
                                           f"repeats line {lines[sub_id]}")
            lines[sub_id] = line_num
            d = pooled.shape[0]
            table[sub_id] = Embedding(pooled, sequence)
    if d is None:
        raise EmbeddingFormatError(f"{path}: no vectors found")
    return ExternalProvider(table, d, seq_len, str(path))


# Provider names, as in configs, model files and `--embedding`.
PROVIDERS = (TfIdfProvider.name, ExternalProvider.name)
