"""The mark scale, regression metrics and the rows of the train/test report."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCORE_MIN, SCORE_MAX = 0.0, 10.0  # the mark scale of every score and clamped prediction
REPORT_COLUMNS = ["model", "split", "rmse", "mae", "r2", "mape"]


class MetricError(ValueError):
    pass


def _pair(y, yhat):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise MetricError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise MetricError("empty inputs")
    return y, yhat


def rmse(y, yhat) -> float:
    y, yhat = _pair(y, yhat)
    return math.sqrt(float(np.mean((y - yhat) ** 2)))


def mae(y, yhat) -> float:
    y, yhat = _pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def mape(y, yhat) -> float:
    """Mean absolute percentage error, in percent, over the nonzero targets.

    A 0 score has no relative error, so its rows are left out of the mean;
    NaN when every target is 0.
    """
    y, yhat = _pair(y, yhat)
    nonzero = y != 0
    if not nonzero.any():
        return math.nan
    y, yhat = y[nonzero], yhat[nonzero]
    return 100.0 * float(np.mean(np.abs(y - yhat) / np.abs(y)))


def r2(y, yhat) -> float:
    """Coefficient of determination; NaN when the targets have no variance (one
    row, or every target equal), since there is no spread to explain."""
    y, yhat = _pair(y, yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        return math.nan
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricsRow:
    model_name: str
    split_name: str  # "train", "validation" or "test"
    rmse: float
    mae: float
    r2: float
    mape: float


def evaluate(y, yhat, model_name: str, split_name: str) -> MetricsRow:
    return MetricsRow(
        model_name, split_name, rmse(y, yhat), mae(y, yhat), r2(y, yhat), mape(y, yhat)
    )
