import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cgrader.metrics import (
    MetricError,
    MetricsRow,
    evaluate,
    mae,
    mape,
    r2,
    rmse,
)
from cgrader.pipeline import render_report

vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40
)


class TestRmse:
    def test_perfect(self):
        assert rmse([1, 2], [1, 2]) == 0.0

    def test_all_errors_one(self):
        assert rmse([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            rmse([1], [1, 2])

    def test_empty(self):
        with pytest.raises(MetricError):
            rmse([], [])


class TestMae:
    def test_perfect(self):
        assert mae([1, 2], [1, 2]) == 0.0

    def test_all_errors_one(self):
        assert mae([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert mae([0, 10], [5, 5]) == pytest.approx(5.0, abs=1e-15)


class TestMape:
    def test_perfect(self):
        assert mape([10, 5], [10, 5]) == 0.0

    def test_hand_value(self):
        assert mape([10, 5], [9, 6]) == pytest.approx(15.0, abs=1e-12)

    def test_zero_target_errors(self):
        # The error at a 0 target has no relative size: it is left out.
        assert mape([0, 5], [1, 4]) == pytest.approx(20.0, abs=1e-12)
        assert math.isnan(mape([0, 0], [1, 2]))


class TestR2:
    def test_perfect(self):
        assert r2([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_predictor(self):
        y = [1.0, 2.0, 3.0, 4.0]
        assert r2(y, [2.5] * 4) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_targets_nan(self):
        # No variance to explain: NaN, as MAPE is when every target is 0.
        assert math.isnan(r2([2, 2, 2], [1, 2, 3]))
        assert math.isnan(r2([2], [1]))
        assert math.isnan(evaluate([10, 10], [9, 10], "ridge", "test").r2)


@given(vectors, vectors)
@settings(max_examples=300)
def test_rmse_at_least_mae(y, yhat):
    n = min(len(y), len(yhat))
    y, yhat = y[:n], yhat[:n]
    assert rmse(y, yhat) >= mae(y, yhat) - 1e-12


@given(vectors)
@settings(max_examples=200)
def test_rmse_of_mean_is_population_std(y):
    mean = sum(y) / len(y)
    std = math.sqrt(sum((v - mean) ** 2 for v in y) / len(y))
    assert rmse(y, [mean] * len(y)) == pytest.approx(std, abs=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(0)
    y = rng.uniform(1, 10, 20)
    yhat = rng.uniform(1, 10, 20)
    perm = rng.permutation(20)
    for metric in (rmse, mae, mape, r2):
        assert metric(y, yhat) == pytest.approx(metric(y[perm], yhat[perm]), abs=1e-12)


class TestReport:
    def test_empty_render(self):
        assert list(render_report([], {})) == [["model", "split", "rmse", "mae", "r2",
                                                "mape"]]

    def test_fixed_order_and_round_trip(self):
        rows = [MetricsRow(name, split_name, 1.5, 1.0, 0.25, 20.0)
                for name in ["lstm", "rf", "cnn_rf"] for split_name in ["test", "train"]]
        lines = list(render_report(rows, {}))
        models = [line[0] for line in lines[1:]]
        assert models == ["rf", "rf", "lstm", "lstm", "cnn_rf", "cnn_rf"]
        splits = [line[1] for line in lines[1:]]
        assert splits == ["train", "test"] * 3
        assert lines[1][2:] == ["1.5000", "1.0000", "0.2500", "20.0000"]

    def test_error_column_only_on_failure(self):
        rows = [MetricsRow("rf", split_name, 1.5, 1.0, 0.25, 20.0)
                for split_name in ["train", "test"]]
        lines = list(render_report(rows, {"ridge": ValueError("fit failed")}))
        assert lines == [
            ["model", "split", "rmse", "mae", "r2", "mape", "error"],
            ["rf", "train", "1.5000", "1.0000", "0.2500", "20.0000", ""],
            ["rf", "test", "1.5000", "1.0000", "0.2500", "20.0000", ""],
            ["ridge", "", "", "", "", "", "fit failed"],
        ]
        assert "error" not in next(render_report(rows, {}))

    def test_evaluate_perfect_model(self):
        row = evaluate([3, 7, 9], [3, 7, 9], "rf", "test")
        assert (row.rmse, row.mae, row.mape) == (0.0, 0.0, 0.0)
        assert row.r2 == 1.0
