"""Dataset model: CSV ingestion, seeded splitting, the score histogram."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .metrics import SCORE_MAX, SCORE_MIN
from .persist import write_csv

CSV_HEADER = ["id", "code", "score"]
DEFAULT_RATIOS = (0.5, 0.25, 0.25)


class DatasetError(ValueError):
    """Malformed or invalid corpus data."""


@dataclass(frozen=True)
class Submission:
    id: str
    code: str
    score: float

    def __post_init__(self):
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise DatasetError(f"submission {self.id!r}: score {self.score} "
                               f"outside [{SCORE_MIN:g}, {SCORE_MAX:g}]")
        if not self.code.strip():
            raise DatasetError(f"submission {self.id!r}: empty code")


@dataclass(frozen=True)
class Dataset:
    rows: tuple[Submission, ...]

    def __post_init__(self):
        ids = [row.id for row in self.rows]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DatasetError(f"duplicate submission id {dup!r}")

    def __len__(self):
        return len(self.rows)

    def scores(self) -> np.ndarray:
        return np.array([row.score for row in self.rows], dtype=np.float64)


@dataclass(frozen=True)
class SplitDataset:
    train: Dataset
    validation: Dataset
    test: Dataset


def load_dataset(path) -> Dataset:
    """Read an ``id,code,score`` CSV (RFC 4180, quoted multi-line code)."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise DatasetError(
                    f"{path}: expected header {','.join(CSV_HEADER)!r}, got {header}"
                )
            for record in reader:
                if len(record) != 3:
                    raise DatasetError(
                        f"{path}: line {reader.line_num}: expected 3 fields, "
                        f"got {len(record)}"
                    )
                sub_id, code, score_text = record
                try:
                    score = float(score_text)
                except ValueError:
                    raise DatasetError(
                        f"{path}: line {reader.line_num}: bad score {score_text!r}"
                    ) from None
                rows.append(Submission(sub_id, code, score))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DatasetError(
                f"{path}: line {reader.line_num}: malformed CSV: {exc}"
            ) from exc
    return Dataset(tuple(rows))


def save_dataset(ds: Dataset, path) -> None:
    write_csv(path, [CSV_HEADER, *([row.id, row.code, _format_score(row.score)]
                                   for row in ds.rows)])


def _format_score(score: float) -> str:
    return str(int(score)) if score == int(score) else repr(score)


def check_ratios(ratios, where: str = "split ratios") -> None:
    """Raises a DatasetError naming `where` unless `ratios` are three positive
    numbers summing to 1."""
    if len(ratios) != 3:
        raise DatasetError(f"{where} must be three numbers, got {ratios}")
    if not all(r > 0 for r in ratios):  # a NaN ratio fails here too
        raise DatasetError(f"{where} must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DatasetError(f"{where} must sum to 1, got {ratios}")


def split(ds: Dataset, ratios=DEFAULT_RATIOS, seed: int = 0) -> SplitDataset:
    """Shuffle with a seeded PRNG, then cut floor(N*r1) / floor(N*r2) / rest."""
    check_ratios(ratios)
    r1, r2, _ = ratios
    n = len(ds)
    if n < 3:
        raise DatasetError(f"need at least 3 rows to split, got {n}")
    n_train = math.floor(n * r1)
    n_val = math.floor(n * r2)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) == 0:
        raise DatasetError(f"split of {n} rows at {ratios} leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.split(perm, [n_train, n_train + n_val])
    return SplitDataset(*(Dataset(tuple(ds.rows[i] for i in idx)) for idx in parts))


def score_histogram(ds: Dataset) -> dict[float, int]:
    """Row count per exact score value."""
    return dict(Counter(row.score for row in ds.rows))
