"""Regression metrics and the train/test report table."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

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
    y, yhat = _pair(y, yhat)
    if y.size < 2:
        raise MetricError("R^2 needs at least 2 points")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        raise MetricError("R^2 undefined for constant targets")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricsRow:
    model_name: str
    split_name: str  # "train" or "test"
    rmse: float
    mae: float
    r2: float
    mape: float


@dataclass
class Report:
    rows: list[MetricsRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, row: MetricsRow):
        if any(
            (r.model_name, r.split_name) == (row.model_name, row.split_name)
            for r in self.rows
        ):
            raise MetricError(
                f"duplicate report row ({row.model_name}, {row.split_name})"
            )
        self.rows.append(row)


def evaluate(y, yhat, model_name: str, split_name: str) -> MetricsRow:
    return MetricsRow(
        model_name, split_name, rmse(y, yhat), mae(y, yhat), r2(y, yhat), mape(y, yhat)
    )


def render_report(report: Report) -> str:
    """CSV in the model order of `kinds.KINDS`, with 4-decimal values."""
    # Imported here: kinds imports tabular, which imports this module.
    from .kinds import KINDS

    order = list(KINDS)

    def order_key(row: MetricsRow):
        model_rank = (order.index(row.model_name) if row.model_name in KINDS
                      else len(order))
        split_rank = 0 if row.split_name == "train" else 1
        return (model_rank, row.model_name, split_rank)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in sorted(report.rows, key=order_key):
        writer.writerow(
            [
                row.model_name,
                row.split_name,
                f"{row.rmse:.4f}",
                f"{row.mae:.4f}",
                f"{row.r2:.4f}",
                f"{row.mape:.4f}",
            ]
        )
    return buf.getvalue()
