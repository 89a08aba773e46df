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
    """Bad vector file or embedding config contents."""


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


class TokenBuckets:
    """Maps a code text to the hash bucket in [0, d) of each of its significant
    tokens, in order.

    While the object lives, each distinct code text is lexed once and each
    distinct token text hashed once. It holds bucket ids, not tokens. Its
    owner scopes it to one command step (`pipeline.prepare`, one `embed_code`),
    so no memo outlives the call that made it.
    """

    def __init__(self, d: int):
        self.d = d
        self._codes: dict[str, list[int]] = {}
        self._texts: dict[str, int] = {}

    def __call__(self, code: str) -> list[int]:
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


@dataclass(frozen=True, eq=False)
class TfIdfProvider:
    """Deterministic hashed TF-IDF embeddings fitted on a token corpus."""

    d: int
    L: int
    doc_count: int
    doc_freq: np.ndarray  # (d,) ints
    idf: np.ndarray = field(init=False, repr=False)  # (d,)

    name = "tfidf"
    embeds_code = True  # any source text, so `grade` can score a new file

    def __post_init__(self):
        idf = np.log((1.0 + self.doc_count) / (1.0 + self.doc_freq)) + 1.0
        object.__setattr__(self, "idf", idf)

    @classmethod
    def fit(cls, codes: list[str], d: int = DEFAULT_TFIDF_DIM, L: int = DEFAULT_SEQ_LEN,
            memo: TokenBuckets | None = None) -> "TfIdfProvider":
        """Document frequencies of `codes`. `memo`, of dimension `d`, may be shared
        with the embedding of the same run; by default a fresh one."""
        if d < 8:
            raise ValueError(f"hash dimension must be >= 8, got {d}")
        if not codes:
            raise ValueError("cannot fit TF-IDF on an empty corpus")
        memo = memo or TokenBuckets(d)
        doc_freq = checked_zeros((d,), f"dim {d}", np.int64)
        for code in codes:
            doc_freq[list(set(memo(code)))] += 1
        return cls(d, L, len(codes), doc_freq)

    @classmethod
    def build(cls, codes: list[str], d: int, L: int, vectors=None,
              memo: TokenBuckets | None = None) -> "TfIdfProvider":
        """The provider of a run whose train part holds `codes`."""
        return cls.fit(codes, d=d, L=L, memo=memo)

    def embed_rows(self, rows, memo: TokenBuckets | None = None
                   ) -> tuple[np.ndarray, TokenSequences]:
        """(pooled (N, d), sequences (N, L, d)) of the rows' code; `memo` as in `fit`."""
        return self._embed([row.code for row in rows], "seq_len",
                           memo or TokenBuckets(self.d))

    def embed_code(self, code: str) -> Embedding:
        """One file, lexed by a memo of its own: a second call lexes it again."""
        pooled, sequences = self._embed([code], "L", TokenBuckets(self.d))
        return Embedding(pooled[0], sequences[0])

    def _embed(self, codes: list[str], name: str,
               memo: TokenBuckets) -> tuple[np.ndarray, TokenSequences]:
        """An allocation that fails names `name` and L."""
        shape = (len(codes), self.L)
        ids = checked_zeros(shape, f"{name} {self.L}", np.int32)
        values = checked_zeros(shape, f"{name} {self.L}")
        pooled = np.zeros((len(codes), self.d))
        for i, code in enumerate(codes):
            buckets = memo(code)
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
        try:
            d, L, doc_count = int(cfg["d"]), int(cfg["L"]), int(cfg["doc_count"])
            doc_freq = np.asarray(cfg["doc_freq"], dtype=np.int64)
            if (d < 8 or min(L, doc_count) < 0 or doc_freq.shape != (d,)
                    or np.any(doc_freq < 0)):
                raise ValueError(f"bad TF-IDF config: d={d}, L={L}, doc_count={doc_count}")
            return cls(d, L, doc_count, doc_freq)
        except (TypeError, LookupError, ArithmeticError, ValueError, RecursionError) as exc:
            raise EmbeddingFormatError(
                f"malformed embedding config: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ExternalProvider:
    """Precomputed vectors keyed by submission id (JSON Lines)."""

    table: dict  # id -> Embedding, its sequence unpadded: at most L rows
    d: int
    L: int
    path: str = ""

    name = "external"
    embeds_code = False  # only the ids in its file

    @classmethod
    def build(cls, codes: list[str], d: int, L: int, vectors=None,
              memo=None) -> "ExternalProvider":
        """The provider of a run: the file `vectors`; `codes`, `d` and `memo` play
        no part."""
        if vectors is None:
            raise ValueError("external provider needs a vectors path")
        return load_external_embeddings(vectors, seq_len=L)

    def embed_rows(self, rows, memo=None) -> tuple[np.ndarray, np.ndarray | None]:
        """(pooled (N, d), sequences (N, L, d) or None): the stored vectors of the
        rows' ids, so nothing is lexed and `memo` plays no part. Sequences are
        padded here; None unless every row has one."""
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

    def embed_code(self, code: str) -> Embedding:
        raise UnsupportedEmbedding(NO_AD_HOC_CODE)

    def config(self) -> dict:
        return {"provider": self.name, "path": self.path, "L": self.L}

    @classmethod
    def from_config(cls, cfg: dict) -> "ExternalProvider":
        path, L = cfg.get("path"), cfg.get("L")
        if not isinstance(path, str) or type(L) is not int or L < 0:
            raise EmbeddingFormatError("an external embedding config holds a 'path' "
                                       "string and an integer 'L' >= 0")
        return load_external_embeddings(path, seq_len=L)


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


def load_external_embeddings(path, seq_len: int = DEFAULT_SEQ_LEN) -> ExternalProvider:
    """Load `{"id", "pooled", "sequence"?}` JSON-Lines vectors; other keys are rejected."""
    table: dict[str, Embedding] = {}
    d = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                sub_id, pooled, sequence = _vector_record(line, d, seq_len)
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise EmbeddingFormatError(f"{path}: line {line_num}: {exc}") from exc
            d = pooled.shape[0]
            table[sub_id] = Embedding(pooled, sequence)
    if d is None:
        raise EmbeddingFormatError(f"{path}: no vectors found")
    return ExternalProvider(table, d, seq_len, str(path))


# Provider name (as in configs, model files and `--embedding`) -> class.
PROVIDERS = {provider.name: provider for provider in (TfIdfProvider, ExternalProvider)}
