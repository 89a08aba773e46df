import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cgrader import tabular
from cgrader.metrics import rmse
from cgrader.tabular import (
    FitError,
    RankDeficiencyError,
    TreeParams,
    gbt_fit,
    gbt_predict,
    grid_search_cv,
    kfold_split,
    knn_fit,
    knn_predict,
    rf_fit,
    rf_predict,
    ridge_fit,
    ridge_predict,
    tree_fit,
    tree_predict,
)


def ridge_family(X, y, params):
    return ridge_fit(X, y, params["lambda"])


def knn_family(X, y, params):
    return knn_fit(X, y, params["k"])


# --- independent oracles ---------------------------------------------------


def oracle_sse(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values)


def oracle_tree_predict(X, y):
    """Exhaustive-split CART built with plain Python loops.

    Returns predictions for the training rows themselves.
    """
    X = [list(row) for row in X]
    y = list(y)

    def build(indices):
        targets = [y[i] for i in indices]
        if len(indices) < 2 or len(set(targets)) == 1:
            return {"leaf": sum(targets) / len(targets)}
        best = None  # (score, feature, threshold, left, right)
        for feature in range(len(X[0])):
            values = sorted({X[i][feature] for i in indices})
            for lo, hi in zip(values, values[1:]):
                threshold = (lo + hi) / 2.0
                left = [i for i in indices if X[i][feature] <= threshold]
                right = [i for i in indices if X[i][feature] > threshold]
                score = oracle_sse([y[i] for i in left]) + oracle_sse(
                    [y[i] for i in right]
                )
                if best is None or score < best[0]:
                    best = (score, feature, threshold, left, right)
        if best is None:
            return {"leaf": sum(targets) / len(targets)}
        return {
            "feature": best[1],
            "threshold": best[2],
            "left": build(best[3]),
            "right": build(best[4]),
        }

    root = build(list(range(len(y))))

    def walk(node, x):
        while "leaf" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["leaf"]

    return [walk(root, x) for x in X]


def oracle_ridge_gd(X, y, lam, iters=20000):
    """Gradient descent on the ridge objective (unregularized intercept)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    w = np.zeros(X.shape[1])
    lipschitz = 2.0 * (np.linalg.norm(Xc, 2) ** 2 + lam)
    lr = 1.0 / lipschitz
    for _ in range(iters):
        grad = 2.0 * Xc.T @ (Xc @ w - yc) + 2.0 * lam * w
        w = w - lr * grad
    bias = y.mean() - w @ X.mean(axis=0)
    return w, bias


# --- decision tree ----------------------------------------------------------


class TestTree:
    def test_constant_targets_single_leaf(self):
        tree = tree_fit([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0])
        assert tree.feature[0] == -1 and tree.value[0] == 4.0

    def test_single_candidate_split(self):
        tree = tree_fit([[0.0], [1.0]], [0.0, 1.0])
        assert tree.threshold[0] == 0.5
        assert np.array_equal(tree_predict(tree, [[0.0], [1.0]])[0], [0.0, 1.0])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            X = rng.uniform(-5, 5, size=(n, 2))
            while len({tuple(row) for row in X}) < n:
                X = rng.uniform(-5, 5, size=(n, 2))
            y = rng.uniform(0, 10, size=n)
            tree = tree_fit(X, y)
            got = tree_predict(tree, X)[0]
            expected = oracle_tree_predict(X, y)
            assert np.array_equal(got, np.asarray(expected))

    def test_distinct_rows_fit_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 3))
        y = rng.uniform(0, 10, 30)
        tree = tree_fit(X, y)
        assert rmse(y, tree_predict(tree, X)[0]) == 0.0

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = rng.uniform(0, 10, 40)
        tree = tree_fit(X, y, TreeParams(max_depth=1))
        assert tree.feature[tree.left[0]] == -1 and tree.feature[tree.right[0]] == -1

    def test_min_samples_leaf(self):
        tree = tree_fit([[0.0], [1.0], [2.0]], [0.0, 5.0, 10.0],
                        TreeParams(min_samples_leaf=2))
        assert tree.feature[0] == -1

    def test_targets_whose_split_scores_overflow_are_rejected(self):
        # Squares of 2**549 overflow float64: the split scores would turn inf
        # or NaN and the root would split at 0.5, not at the SSE optimum.
        X = np.arange(1100.0)[:, None]
        with pytest.raises(FitError, match=r"len\(y\) \* sum\(y\*\*2\)"):
            tree_fit(X, 2.0 ** (np.arange(1100) - 550))

    def test_huge_in_range_targets_split_at_the_exact_optimum(self):
        X = np.arange(1100.0)[:, None]
        y = 2.0 ** (np.arange(1100) - 600)
        with np.errstate(over="raise", invalid="raise"):
            tree = tree_fit(X, y, TreeParams(max_depth=1))
        # Exact summed child SSE of splitting after the i smallest rows.
        ys = [Fraction(2) ** (i - 600) for i in range(1100)]
        total, total_sq = sum(ys), sum(v * v for v in ys)
        left = left_sq = 0
        sse = {}
        for i, v in enumerate(ys[:-1], start=1):
            left, left_sq = left + v, left_sq + v * v
            sse[i] = (left_sq - left * left / i + (total_sq - left_sq)
                      - (total - left) ** 2 / (1100 - i))
        assert tree.threshold[0] == min(sse, key=sse.get) - 0.5


# --- exactness against the split search and build as they were ---------------


def reference_best_split(X, y, feats, min_samples_leaf):
    """The split search before constant columns were dropped: every drawn
    column of the node is sorted and scored."""
    n = y.shape[0]
    Xf = X[:, feats]
    order = np.argsort(Xf, axis=0, kind="stable")
    Xs = np.take_along_axis(Xf, order, axis=0)
    ys = y[order]
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    left_n = np.arange(1, n, dtype=np.float64)[:, None]
    right_n = n - left_n
    left_sse = s2[:-1] - s1[:-1] ** 2 / left_n
    right_sse = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / right_n
    score = left_sse + right_sse
    valid = (
        (Xs[1:] > Xs[:-1])
        & (left_n >= min_samples_leaf)
        & (right_n >= min_samples_leaf)
    )
    if not valid.any():
        return None
    score = np.where(valid, score, np.inf)
    col, row = divmod(int(np.argmin(score.T)), n - 1)
    return int(feats[col]), (Xs[row, col] + Xs[row + 1, col]) / 2.0


def reference_tree_fit(X, y, params=TreeParams(), rng=None, leaf_value=None):
    """The recursive build on `reference_best_split`."""
    X, y = tabular.validate_features(X, y)
    if rng is None:
        rng = np.random.default_rng(params.seed)
    n_features = X.shape[1]
    m = math.ceil(params.feature_subsample * n_features)
    if leaf_value is None:
        leaf_value = lambda targets: float(np.mean(targets))
    nodes = []

    def build(idx, depth):
        node = len(nodes)
        nodes.append(None)
        targets = y[idx]
        stop = (
            (params.max_depth is not None and depth >= params.max_depth)
            or idx.shape[0] < params.min_samples_split
            or np.all(targets == targets[0])
        )
        if not stop:
            if m < n_features:
                feats = np.sort(rng.choice(n_features, size=m, replace=False))
            else:
                feats = np.arange(n_features)
            found = reference_best_split(X[idx], targets, feats, params.min_samples_leaf)
            if found is not None:
                feature, threshold = found
                mask = X[idx, feature] <= threshold
                left = build(idx[mask], depth + 1)
                nodes[node] = (feature, threshold, left, build(idx[~mask], depth + 1), 0.0)
                return node
        nodes[node] = (-1, 0.0, node, node, leaf_value(targets))
        return node

    build(np.arange(X.shape[0]), 0)
    return tabular.Trees.from_nodes([0], nodes)


def tied_data(rng):
    """Small integer-valued data full of ties: some all-zero columns, sparse
    columns, columns zero wherever column 0 is small (so constant in a
    subtree), duplicate rows, and targets with many equal values."""
    n = int(rng.integers(2, 41))
    p = int(rng.integers(1, 9))
    X = rng.integers(0, int(rng.integers(1, 5)), size=(n, p)).astype(np.float64)
    X[:, rng.random(p) < 0.4] *= rng.random((n, 1)) < 0.2
    X[:, rng.random(p) < 0.3] *= X[:, :1] > 1
    X[:, rng.random(p) < 0.2] = 0.0
    y = rng.integers(0, int(rng.integers(1, 6)), size=n) * rng.choice([0.5, 1.0, 2.5])
    rows = rng.integers(0, n, size=n) if rng.random() < 0.5 else np.arange(n)
    return X[rows], y[rows]


def random_tree_params(rng, subsample):
    return TreeParams(max_depth=[None, 2, 3][int(rng.integers(3))],
                      min_samples_split=int(rng.integers(2, 5)),
                      min_samples_leaf=int(rng.integers(1, 4)),
                      feature_subsample=subsample, seed=int(rng.integers(1000)))


def assert_same_trees(got, expected):
    for name, arr in vars(expected).items():
        assert getattr(got, name).dtype == arr.dtype, name
        assert np.array_equal(getattr(got, name), arr), name


class TestMatchesReferenceBuild:
    """Dropping constant columns and building from a stack leave every
    node array as the recursive full-width search made it."""

    def test_tree_fit(self):
        rng = np.random.default_rng(90)
        for _ in range(250):
            X, y = tied_data(rng)
            params = random_tree_params(rng, [1.0, 0.5, 1 / 3][int(rng.integers(3))])
            assert_same_trees(tree_fit(X, y, params), reference_tree_fit(X, y, params))

    def test_rf_fit(self, monkeypatch):
        rng = np.random.default_rng(91)
        cases = [(*tied_data(rng), random_tree_params(rng, [1.0, 1 / 3][i % 2]))
                 for i in range(150)]
        fits = [rf_fit(X, y, n_trees=3, params=params) for X, y, params in cases]
        monkeypatch.setattr(tabular, "tree_fit", reference_tree_fit)
        for (X, y, params), forest in zip(cases, fits):
            assert_same_trees(forest.trees, rf_fit(X, y, n_trees=3, params=params).trees)

    def test_gbt_fit(self, monkeypatch):
        rng = np.random.default_rng(92)
        cases = [(*tied_data(rng), [None, 2, 3][i % 3], float(rng.choice([0.0, 1.0])))
                 for i in range(150)]
        fit = lambda X, y, depth, l2: gbt_fit(X, y, n_rounds=4, learning_rate=0.5,
                                               max_depth=depth, leaf_l2=l2).trees
        fits = [fit(*case) for case in cases]
        monkeypatch.setattr(tabular, "tree_fit", reference_tree_fit)
        for case, trees in zip(cases, fits):
            assert_same_trees(trees, fit(*case))


# --- random forest ----------------------------------------------------------


class TestForest:
    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 3))
        y = rng.uniform(0, 10, 25)
        params = TreeParams(feature_subsample=1.0, seed=5)
        forest = rf_fit(X, y, n_trees=1, params=params, bootstrap=False)
        tree = tree_fit(X, y, params, rng=np.random.default_rng(
            np.random.SeedSequence(5).spawn(1)[0]))
        assert np.array_equal(rf_predict(forest, X), np.clip(tree_predict(tree, X)[0], 0, 10))

    def test_constant_targets(self):
        X = np.random.default_rng(0).normal(size=(12, 2))
        forest = rf_fit(X, np.full(12, 6.0), n_trees=5)
        assert np.all(rf_predict(forest, X) == 6.0)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.uniform(0, 10, 30)
        a = rf_predict(rf_fit(X, y, n_trees=10), X)
        b = rf_predict(rf_fit(X, y, n_trees=10), X)
        assert np.array_equal(a, b)

    def test_prediction_is_mean_within_tree_range(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        y = rng.uniform(0, 10, 40)
        forest = rf_fit(X, y, n_trees=7)
        grid = rng.normal(size=(20, 3))
        per_tree = tree_predict(forest.trees, grid)
        preds = rf_predict(forest, grid)
        assert np.all(preds >= per_tree.min(axis=0) - 1e-12)
        assert np.all(preds <= per_tree.max(axis=0) + 1e-12)

    def test_clamped_to_score_range(self):
        from cgrader.kinds import KINDS
        from cgrader.tabular import ForestModel

        leaves = [(-1, 0.0, 0, 0, 12.0), (-1, 0.0, 1, 1, 12.0)]
        model = ForestModel(tabular.Trees.from_nodes([0, 1], leaves), TreeParams())
        assert KINDS["rf"].predict(model, [[0.0]], None) == 10.0


# --- ridge ------------------------------------------------------------------


class TestRidge:
    def test_hand_example(self):
        model = ridge_fit([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], lam=0.0)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-12)
        assert model.bias == pytest.approx(0.0, abs=1e-12)

    def test_infinite_shrinkage(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = rng.uniform(0, 10, 20)
        model = ridge_fit(X, y, lam=1e12)
        assert np.all(np.abs(model.weights) < 1e-9)
        assert ridge_predict(model, X) == pytest.approx(
            np.full(20, y.mean()), abs=1e-6
        )

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            X = rng.normal(size=(20, 5))
            y = rng.uniform(0, 10, 20)
            model = ridge_fit(X, y, lam=1.0)
            w, b = oracle_ridge_gd(X, y, 1.0)
            assert np.allclose(model.weights, w, atol=1e-6)
            assert model.bias == pytest.approx(b, abs=1e-6)

    def test_rank_deficiency(self):
        X = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]
        with pytest.raises(RankDeficiencyError):
            ridge_fit(X, [1.0, 2.0, 3.0], lam=0.0)

    def test_optimality_under_perturbation(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 4))
        y = rng.uniform(0, 10, 25)
        lam = 0.5
        model = ridge_fit(X, y, lam)
        Xc = X - X.mean(axis=0)
        yc = y - y.mean()

        def objective(w):
            resid = Xc @ w - yc
            return resid @ resid + lam * (w @ w)

        base = objective(model.weights)
        for j in range(4):
            for delta in (1e-3, -1e-3):
                perturbed = model.weights.copy()
                perturbed[j] += delta
                assert objective(perturbed) >= base


# --- knn --------------------------------------------------------------------


class TestKnn:
    def test_exact_match(self):
        model = knn_fit([[0.0], [5.0]], [3.0, 9.0], k=1)
        assert knn_predict(model, [[5.0]]) == 9.0

    def test_k_equals_n_is_mean(self):
        y = [2.0, 4.0, 9.0]
        model = knn_fit([[0.0], [1.0], [2.0]], y, k=3)
        for x in ([[-10.0]], [[100.0]]):
            assert knn_predict(model, x) == pytest.approx(np.mean(y), abs=1e-12)

    def test_tie_breaks_to_lower_index(self):
        model = knn_fit([[1.0], [-1.0]], [3.0, 7.0], k=1)
        assert knn_predict(model, [[0.0]]) == 3.0

    def test_k_bounds(self):
        with pytest.raises(FitError):
            knn_fit([[0.0]], [1.0], k=2)

    def test_dimension_mismatch(self):
        model = knn_fit([[0.0, 1.0]], [1.0], k=1)
        with pytest.raises(FitError):
            knn_predict(model, [[0.0]])


# --- gradient boosting -------------------------------------------------------


class TestGbt:
    def test_zero_learning_rate_predicts_mean(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 2))
        y = rng.uniform(0, 10, 15)
        model = gbt_fit(X, y, n_rounds=5, learning_rate=0.0)
        assert np.all(gbt_predict(model, X) == pytest.approx(y.mean(), abs=1e-12))

    def test_single_round_matches_tree_on_residuals(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 2))
        y = rng.uniform(0, 10, 20)
        model = gbt_fit(X, y, n_rounds=1, learning_rate=1.0, max_depth=None,
                        leaf_l2=0.0)
        base = y.mean()
        tree = tree_fit(X, y - base, TreeParams(seed=0),
                        rng=np.random.default_rng(0))
        assert np.allclose(
            gbt_predict(model, X), np.clip(base + tree_predict(tree, X)[0], 0, 10)
        )

    def test_training_rmse_non_increasing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 4))
        y = rng.uniform(0, 10, 50)
        errors = []
        for rounds in range(1, 12):
            model = gbt_fit(X, y, n_rounds=rounds, learning_rate=0.5,
                            max_depth=2, leaf_l2=0.0)
            base = np.full(50, model.base)
            preds = base + model.learning_rate * np.sum(
                tree_predict(model.trees, X), axis=0)
            errors.append(rmse(y, preds))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


# --- cross-validation and grid search ----------------------------------------


class TestKfold:
    def test_even_folds(self):
        folds = kfold_split(10, k=5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_rule(self):
        folds = kfold_split(7, k=5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 1, 1, 1]

    def test_partition(self):
        folds = kfold_split(23, k=5, seed=3)
        joined = np.concatenate(folds)
        assert sorted(joined) == list(range(23))

    def test_k_too_large(self):
        with pytest.raises(FitError):
            kfold_split(3, k=5)


class TestGridSearch:
    @staticmethod
    def data():
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        y = np.clip(X @ np.array([1.0, -2.0, 0.5]) + 5 + rng.normal(0, 0.2, 30), 0, 10)
        return X, y

    def test_single_combo(self):
        X, y = self.data()
        result = grid_search_cv(ridge_family, ridge_predict, {"lambda": [1.0]}, X, y, seed=1)
        assert result.best_params == {"lambda": 1.0}
        assert len(result.table) == 1

    def test_determinism(self):
        X, y = self.data()
        a = grid_search_cv(knn_family, knn_predict, {"k": [1, 3, 5]}, X, y, seed=2)
        b = grid_search_cv(knn_family, knn_predict, {"k": [1, 3, 5]}, X, y, seed=2)
        assert a.table == b.table

    def test_matches_brute_force_oracle(self):
        X, y = self.data()
        grid = {"lambda": [0.01, 0.1, 1.0, 10.0]}
        result = grid_search_cv(ridge_family, ridge_predict, grid, X, y, k=5, seed=4)
        # Independent re-evaluation of every combo with its own loop.
        folds = kfold_split(30, k=5, seed=4)
        best = None
        for lam in grid["lambda"]:
            fold_scores = []
            for i in range(5):
                train_idx = np.concatenate([folds[j] for j in range(5) if j != i])
                model = ridge_fit(X[train_idx], y[train_idx], lam)
                yhat = ridge_predict(model, X[folds[i]])
                fold_scores.append(rmse(y[folds[i]], yhat))
            mean = float(np.mean(fold_scores))
            if best is None or mean < best[1]:
                best = ({"lambda": lam}, mean)
        assert result.best_params == best[0]
        means = [mean for _, _, mean in result.table]
        assert min(means) == pytest.approx(best[1], abs=1e-15)

    def test_empty_grid(self):
        X, y = self.data()
        with pytest.raises(FitError):
            grid_search_cv(ridge_family, ridge_predict, {}, X, y)
        with pytest.raises(FitError, match="no point"):
            grid_search_cv(ridge_family, ridge_predict, {"lambda": []}, X, y)

    def test_fit_error_names_combo(self):
        X, y = self.data()
        with pytest.raises(FitError, match="k"):
            grid_search_cv(knn_family, knn_predict, {"k": [1000]}, X, y)
