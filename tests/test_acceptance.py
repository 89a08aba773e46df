"""Acceptance gate: ten criteria, one test each, run in order.

Each test carries its own runtime budget where one applies. The conftest
terminal-summary hook prints one pass/fail line per criterion.
"""

import copy
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from cgrader import persist, synth
from cgrader.cli import EXIT_OK, main
from cgrader.clex import detokenize, tokenize
from cgrader.corpus import Dataset, Submission, load_dataset, save_dataset, split
from cgrader.hybrid import hybrid_fit, hybrid_predict
from cgrader.metrics import mae, mape, r2, rmse
from cgrader.neural import CnnRegressor, CnnSpec, LstmRegressor, LstmSpec, TrainConfig
from cgrader.neural import mse_loss, train
from cgrader.tabular import rf_predict, ridge_fit, tree_fit, tree_predict
from test_neural import max_relative_gradient_error, toy_cnn, toy_lstm
from test_tabular import oracle_ridge_gd, oracle_tree_predict

REPO_ROOT = Path(__file__).resolve().parent.parent
SEED_DIR = REPO_ROOT / "seeds"


class Budget:
    """Asserts the block finished inside the stated wall-clock limit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeds {self.seconds}s budget"
            )


def make_dataset(n, rng):
    rows = tuple(
        Submission(f"s{i:04d}", f"int main(void) {{ return {i}; }}\n",
                   float(rng.integers(0, 11)))
        for i in range(n)
    )
    return Dataset(rows=rows)


def test_criterion_01_split_arithmetic():
    with Budget(1.0):
        rng = np.random.default_rng(0)
        parts = split(make_dataset(765, rng), (0.5, 0.25, 0.25), seed=0)
        assert (len(parts.train), len(parts.validation), len(parts.test)) \
            == (382, 191, 192)
        for trial in range(100):
            n = int(rng.integers(4, 120))
            ds = make_dataset(n, rng)
            seed = int(rng.integers(0, 2**31))
            a = split(ds, (0.5, 0.25, 0.25), seed)
            b = split(ds, (0.5, 0.25, 0.25), seed)
            ids = sorted(
                row.id for part in (a.train, a.validation, a.test)
                for row in part.rows
            )
            assert ids == sorted(row.id for row in ds.rows)
            for pa, pb in zip((a.train, a.validation, a.test),
                              (b.train, b.validation, b.test)):
                assert [r.id for r in pa.rows] == [r.id for r in pb.rows]


def test_criterion_02_rubric_oracle():
    with Budget(1.0):
        rubric = synth.Rubric()
        attained = set()
        for kinds in synth.VALID_KIND_SETS:
            plan = synth.MutationPlan(kinds)
            if synth.MutationKind.HALF_COMPLETED in kinds:
                expected = rubric.half_completed_score
            else:
                expected = max(
                    rubric.floor,
                    rubric.full_marks
                    - sum(rubric.deductions[k] for k in kinds),
                )
            assert synth.score_for(plan, rubric) == expected
            attained.add(synth.score_for(plan, rubric))
        assert attained == {3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 10.0}
        with pytest.raises(ValueError):
            synth.MutationPlan(frozenset({
                synth.MutationKind.SYNTAX_ERROR, synth.MutationKind.LOGIC_ERROR
            }))


def test_criterion_03_lexer_fuzz():
    with Budget(30.0):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            n = int(rng.integers(0, 120))
            text = rng.integers(0, 256, n).astype(np.uint8).tobytes().decode(
                "latin-1"
            )
            assert detokenize(tokenize(text)) == text


def test_criterion_04_tree_oracle_equivalence():
    with Budget(60.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            while True:
                X = rng.normal(size=(n, 2))
                if len({tuple(row) for row in X}) == n:
                    break
            y = rng.uniform(0, 10, n)
            tree = tree_fit(X, y)
            assert np.array_equal(
                tree_predict(tree, X)[0], np.asarray(oracle_tree_predict(X, y))
            )


def test_criterion_05_ridge():
    rng = np.random.default_rng(11)
    for _ in range(50):
        X = rng.normal(size=(20, 5))
        y = rng.uniform(0, 10, 20)
        lam = float(rng.uniform(0.01, 10.0))
        model = ridge_fit(X, y, lam)
        w_ref, b_ref = oracle_ridge_gd(X, y, lam)
        assert np.max(np.abs(model.weights - w_ref)) < 1e-6
        assert abs(model.bias - b_ref) < 1e-6
    # y = 2x exactly: weight 2, bias 0.
    model = ridge_fit([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], 0.0)
    assert abs(model.weights[0] - 2.0) < 1e-12
    assert abs(model.bias) < 1e-12


def test_criterion_06_metric_oracles():
    assert abs(rmse([0, 0], [3, 4]) - np.sqrt(12.5)) < 1e-12
    assert abs(mae([0, 10], [5, 5]) - 5.0) < 1e-12
    assert abs(mape([10, 5], [9, 6]) - 15.0) < 1e-12
    assert abs(r2([1, 2, 3], [1, 2, 4]) - 0.5) < 1e-12
    assert r2([1, 2, 3], [1, 2, 3]) == 1.0
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n)
        yhat = rng.normal(size=n)
        assert rmse(y, yhat) >= mae(y, yhat) - 1e-12


def test_criterion_07_gradient_checks():
    with Budget(60.0):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(3, 6, 4))
            y = rng.uniform(0, 10, 3)
            assert max_relative_gradient_error(toy_cnn(seed=seed), X, y) < 1e-4
            assert max_relative_gradient_error(toy_lstm(seed=seed), X, y) < 1e-4


def test_criterion_08_early_stopping_contract():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(16, 6, 4))
    y = rng.uniform(0, 10, 16)
    Xv = rng.normal(size=(6, 6, 4))
    yv = rng.uniform(0, 10, 6)
    # Frozen weights: validation loss is constant, so stopping fires exactly
    # one patience window after the first epoch.
    for patience in (1, 3):
        model = toy_cnn(seed=1)
        cfg = TrainConfig(max_epochs=50, batch_size=4, learning_rate=0.0,
                          patience=patience)
        history = train(model, X, y, Xv, yv, cfg)
        assert history.best_epoch == 1
        assert history.stopped_epoch == 1 + patience
    # Real training: the window bound holds and the restored weights
    # reproduce the recorded best validation loss exactly.
    model = toy_lstm(seed=2, dropout=0.2)
    cfg = TrainConfig(max_epochs=40, batch_size=4, learning_rate=0.05,
                      patience=3, seed=9)
    history = train(model, X, y, Xv, yv, cfg)
    assert history.stopped_epoch - history.best_epoch <= cfg.patience
    pred, _ = model.forward(Xv)
    assert mse_loss(pred, yv)[0] == history.val_loss[history.best_epoch - 1]


def _experiment_config(data, out_dir):
    return {
        "data": str(data),
        "output": {
            "report": str(out_dir / "report.csv"),
            "curves": str(out_dir / "curves.csv"),
            "models_dir": str(out_dir / "models"),
        },
        "embedding": {"provider": "tfidf", "dim": 256, "seq_len": 16},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
        "train": {"max_epochs": 50, "batch_size": 64, "patience": 5},
        "models": {
            "rf": {"grid": {"max_depth": [8], "min_samples_leaf": [1]}},
            "ridge": {"grid": {"lambda": [1.0]}},
            "knn": {"grid": {"k": [5]}},
            "gbt": {"grid": {"n_rounds": [50], "learning_rate": [0.1],
                             "max_depth": [3]}},
        },
    }


def test_criterion_09_end_to_end_experiment(tmp_path):
    with Budget(300.0):
        seeds = [
            Submission(path.stem, path.read_text(encoding="utf-8"), 10.0)
            for path in sorted(SEED_DIR.glob("*.c"))
        ]
        assert len(seeds) >= 5
        ds, _ = synth.synthesize_with_plans(seeds, 400, synth.Rubric(),
                                            np.random.default_rng(0))
        data = tmp_path / "corpus.csv"
        save_dataset(ds, data)

        outputs = []
        for run in ("run1", "run2"):
            out_dir = tmp_path / run
            out_dir.mkdir()
            config = tmp_path / f"{run}.json"
            config.write_text(json.dumps(_experiment_config(data, out_dir)),
                              encoding="utf-8")
            assert main(["experiment", "--config", str(config)]) == EXIT_OK
            outputs.append(out_dir)

        report_path = outputs[0] / "report.csv"
        with open(report_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "split", "rmse", "mae", "r2", "mape"]
        assert len(rows) == 17  # gate (a): 16 metric rows
        with open(outputs[0] / "curves.csv", encoding="utf-8", newline="") as fh:
            curve_models = {row[0] for row in list(csv.reader(fh))[1:]}
        assert curve_models == {"cnn", "lstm", "cnn_rf", "lstm_rf"}

        by_key = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
        parts = split(load_dataset(data), (0.5, 0.25, 0.25), seed=0)
        y_train = parts.train.scores()
        y_test = parts.test.scores()
        baseline = rmse(y_test, np.full(len(y_test), y_train.mean()))
        assert by_key[("rf", "test")] < baseline  # gate (b)
        assert by_key[("rf", "train")] < by_key[("rf", "test")]  # gate (c)

        # gate (d): byte-identical outputs on re-run with the same seed
        for name in ("report.csv", "curves.csv"):
            assert (outputs[0] / name).read_bytes() \
                == (outputs[1] / name).read_bytes()
        for model_file in sorted((outputs[0] / "models").glob("*.json")):
            assert model_file.read_bytes() \
                == (outputs[1] / "models" / model_file.name).read_bytes()


def test_criterion_10_hybrid_composition():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(24, 6, 4))
    y = rng.uniform(0, 10, 24)
    Xv = rng.normal(size=(8, 6, 4))
    yv = rng.uniform(0, 10, 8)
    cfg = TrainConfig(max_epochs=3, batch_size=8, learning_rate=0.01)
    for net in (
        CnnRegressor(CnnSpec(conv_filters=3, kernel_size=3, pool_size=2,
                             dense_units=8), 6, 4),
        LstmRegressor(LstmSpec(units=5, dense_units=8), 6, 4),
    ):
        train(net, X, y, Xv, yv, cfg)
        before = copy.deepcopy(net.params)
        model = hybrid_fit(net, X, y, n_trees=5)
        X_new = rng.normal(size=(100, 6, 4))
        assert np.array_equal(
            hybrid_predict(model, X_new),
            rf_predict(model.head, model.feature_net.features(X_new)),
        )
        for key, arr in before.items():
            assert arr.tobytes() == model.feature_net.params[key].tobytes()
