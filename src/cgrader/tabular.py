"""Statistical regressors written from first principles.

CART regression trees, bagged forests, ridge regression, k-nearest
neighbours, gradient-boosted trees, and k-fold grid search. Everything is
deterministic under a fixed seed; tree split ties break on (lower feature
index, lower threshold) so structure is reproducible across platforms.
Predictions are raw: `kinds` clips every kind's scores to the mark scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .metrics import rmse


class FitError(ValueError):
    pass


class RankDeficiencyError(FitError):
    pass


def validate_features(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad shapes X{X.shape} y{y.shape}")
    if X.shape[0] < 1:
        raise FitError("need at least one row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise FitError("non-finite feature or target values")
    return X, y


# ---------------------------------------------------------------------------
# CART regression tree


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    feature_subsample: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise FitError(f"max_depth must be None or >= 0, got {self.max_depth}")
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise FitError("min_samples_split >= 2 and min_samples_leaf >= 1 required")
        if not 0.0 < self.feature_subsample <= 1.0:
            raise FitError("feature_subsample must be in (0, 1]")


@dataclass
class Trees:
    """Regression trees as parallel node arrays, as in scikit-learn's `Tree`.

    Tree t starts at node `roots[t]`. Node i sends a row x to `left[i]` if
    ``x[feature[i]] <= threshold[i]``, else to `right[i]`. A leaf has feature
    -1, predicts `value` and is its own left and right child; unused slots hold 0.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def from_nodes(cls, roots, nodes) -> "Trees":
        """`nodes` lists (feature, threshold, left, right, value) by node id."""
        feature, threshold, left, right, value = zip(*nodes) if nodes else [()] * 5
        ids = lambda column: np.array(column, dtype=np.intp)
        return cls(ids(roots), ids(feature), np.array(threshold, dtype=np.float64),
                   ids(left), ids(right), np.array(value, dtype=np.float64))

    @classmethod
    def stack(cls, trees: list["Trees"]) -> "Trees":
        """One ensemble of `trees` in order; node ids shift past earlier trees."""
        starts = np.cumsum([0] + [t.feature.size for t in trees])
        parts = [(t.roots + s, t.feature, t.threshold, t.left + s, t.right + s, t.value)
                 for t, s in zip(trees, starts)]
        return cls(*map(np.concatenate, zip(*parts))) if trees else cls.from_nodes([], [])

    def check(self) -> "Trees":
        """Returns self if its arrays form trees, else raises ValueError.

        Ids are 1-D intp arrays and `threshold`/`value` 1-D float64 ones, all
        node arrays of one length. Every root and child id names a node; an
        internal node's children have larger ids than it has, and a leaf links
        to itself, so every walk from a root ends at a leaf.
        """
        for name, arr in vars(self).items():
            dtype = np.dtype(np.float64 if name in ("threshold", "value") else np.intp)
            if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == 1):
                raise ValueError(f"tree array {name!r} is not a 1-D {dtype} array")
            if name != "roots" and arr.size != self.feature.size:
                raise ValueError(f"tree array {name!r} has {arr.size} nodes, "
                                 f"'feature' has {self.feature.size}")
        ids = np.arange(self.feature.size)
        leaf = self.feature == -1
        links = np.where(leaf, (self.left == ids) & (self.right == ids),
                         (self.left > ids) & (self.right > ids)
                         & (self.left < ids.size) & (self.right < ids.size))
        bad = np.flatnonzero((self.feature < -1) | ~links)
        if bad.size:
            i = bad[0]
            raise ValueError(f"tree node {i} (feature {self.feature[i]}) links to "
                             f"{self.left[i]} and {self.right[i]}: a leaf (feature -1) "
                             f"links to itself, any other node to two later nodes "
                             f"below {ids.size}")
        if np.any((self.roots < 0) | (self.roots >= ids.size)):
            raise ValueError(f"a tree root is not one of the {ids.size} node ids")
        return self


def _best_split(Xf, y, feats, min_samples_leaf):
    """Minimal summed child SSE over midpoint thresholds of `feats`.

    `Xf` holds the node's rows of the columns `feats`, in increasing order.
    Columns constant over those rows have no threshold and are dropped before
    any sorting. Returns (feature, threshold) or None. Ties: lowest feature
    index, then lowest threshold.
    """
    n = y.shape[0]
    varies = (Xf[1:] != Xf[0]).any(axis=0)
    if not varies.all():
        feats, Xf = feats[varies], Xf[:, varies]
    order = np.argsort(Xf, axis=0, kind="stable")
    Xs = Xf[order, np.arange(feats.size)]
    ys = y[order]
    s1 = np.cumsum(ys, axis=0)
    s2 = np.cumsum(ys * ys, axis=0)
    # Candidate row i splits after the i + 1 smallest values; rows lo..hi-1
    # leave at least min_samples_leaf rows on each side.
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    left_n = np.arange(lo + 1, hi + 1, dtype=np.float64)[:, None]
    right_n = n - left_n
    a1, a2 = s1[lo:hi], s2[lo:hi]
    left_sse = a2 - a1 ** 2 / left_n
    right_sse = (s2[-1] - a2) - (s1[-1] - a1) ** 2 / right_n
    score = left_sse + right_sse
    valid = Xs[lo + 1 : hi + 1] > Xs[lo:hi]
    if not valid.any():
        return None
    score[~valid] = np.inf
    # Column-major, so the first minimum has the lowest feature, then threshold.
    col, row = divmod(int(np.argmin(score.T)), hi - lo)
    return int(feats[col]), (Xs[lo + row, col] + Xs[lo + row + 1, col]) / 2.0


def tree_fit(X, y, params: TreeParams = TreeParams(), rng=None, leaf_value=None) -> Trees:
    """Greedy CART regression tree. ``leaf_value`` overrides the leaf mean.

    Nodes are numbered depth-first, left child first, the order in which they
    draw their feature subsample from `rng`. The build keeps its pending right
    subtrees on a stack, so depth is limited by memory only.
    """
    X, y = validate_features(X, y)
    with np.errstate(over="ignore"):  # |split score| <= len(y) * sum(y**2)
        if not math.isfinite(y.size * float(y @ y)):
            raise FitError(f"targets too large for CART split scores: len(y) * "
                           f"sum(y**2) must stay below {np.finfo(np.float64).max:.4g}")
    if rng is None:
        rng = np.random.default_rng(params.seed)
    n_features = X.shape[1]
    m = math.ceil(params.feature_subsample * n_features)
    if leaf_value is None:
        leaf_value = lambda targets: float(targets.sum() / targets.size)
    nodes = []
    # (rows, depth, parent): the node popped next is its parent's left child,
    # numbered parent + 1, unless it names the parent whose right child it is.
    stack = [(np.arange(X.shape[0]), 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        node = len(nodes)
        if parent >= 0:
            nodes[parent][3] = node
        targets = y[idx]
        stop = (
            (params.max_depth is not None and depth >= params.max_depth)
            or idx.shape[0] < params.min_samples_split
            or np.all(targets == targets[0])
        )
        found = None
        if not stop:
            if m < n_features:
                feats = np.sort(rng.choice(n_features, size=m, replace=False))
            else:
                feats = np.arange(n_features)
            found = _best_split(X[idx[:, None], feats], targets, feats,
                                params.min_samples_leaf)
        if found is None:
            nodes.append((-1, 0.0, node, node, leaf_value(targets)))
            continue
        feature, threshold = found
        nodes.append([feature, threshold, node + 1, None, 0.0])
        mask = X[idx, feature] <= threshold
        stack.append((idx[~mask], depth + 1, node))
        stack.append((idx[mask], depth + 1, -1))
    return Trees.from_nodes([0], nodes)


def tree_predict(trees: Trees, X) -> np.ndarray:
    """Every tree's prediction for every row, shape (n_trees, n_rows): all trees
    step down one level at a time over all rows at once."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    node = np.repeat(trees.roots[:, None], X.shape[0], axis=1)
    rows = np.arange(X.shape[0])
    while True:
        feature = trees.feature[node]
        if np.all(feature < 0):
            return trees.value[node]
        node = np.where(X[rows, feature] <= trees.threshold[node],
                        trees.left[node], trees.right[node])


# ---------------------------------------------------------------------------
# Random forest


@dataclass
class ForestModel:
    trees: Trees
    tree_params: TreeParams
    bootstrap: bool = True


RF_DEFAULT_SUBSAMPLE = 1.0 / 3.0


def rf_fit(X, y, n_trees: int = 100, params: TreeParams | None = None,
           bootstrap: bool = True) -> ForestModel:
    X, y = validate_features(X, y)
    if n_trees < 1:
        raise FitError("n_trees must be >= 1")
    if params is None:
        params = TreeParams(feature_subsample=RF_DEFAULT_SUBSAMPLE)
    n = X.shape[0]
    seeds = np.random.SeedSequence(params.seed).spawn(n_trees)
    trees = []
    for tree_seed in seeds:
        rng = np.random.default_rng(tree_seed)
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(tree_fit(X[idx], y[idx], params, rng=rng))
    return ForestModel(Trees.stack(trees), params, bootstrap)


def rf_predict(model: ForestModel, X) -> np.ndarray:
    return np.mean(tree_predict(model.trees, X), axis=0)


# ---------------------------------------------------------------------------
# Ridge regression


@dataclass
class RidgeModel:
    weights: np.ndarray
    bias: float
    lam: float


def ridge_fit(X, y, lam: float = 1.0) -> RidgeModel:
    """Closed-form ridge on column-centered data; bias is unregularized."""
    X, y = validate_features(X, y)
    if lam < 0:
        raise FitError("lambda must be >= 0")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    if lam == 0 and np.linalg.matrix_rank(Xc) < X.shape[1]:
        raise RankDeficiencyError(
            "centered design is rank-deficient; lambda=0 has no unique solution"
        )
    gram = Xc.T @ Xc + lam * np.eye(X.shape[1])
    try:
        weights = scipy.linalg.solve(gram, Xc.T @ yc, assume_a="pos")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rank guard above
        raise RankDeficiencyError(str(exc)) from exc
    bias = float(y_mean - weights @ x_mean)
    return RidgeModel(weights, bias, lam)


def ridge_predict(model: RidgeModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return X @ model.weights + model.bias


# ---------------------------------------------------------------------------
# K-nearest neighbours


@dataclass
class KnnModel:
    X: np.ndarray
    y: np.ndarray
    k: int


def knn_fit(X, y, k: int = 5) -> KnnModel:
    X, y = validate_features(X, y)
    if not 1 <= k <= X.shape[0]:
        raise FitError(f"k={k} outside [1, {X.shape[0]}]")
    return KnnModel(X, y, k)


def knn_predict(model: KnnModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.X.shape[1]:
        raise FitError(f"dimension mismatch: {X.shape[1]} vs {model.X.shape[1]}")
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        dists = np.sqrt(np.sum((model.X - x) ** 2, axis=1))
        # Stable sort: equidistant neighbours resolve to the lower index.
        nearest = np.argsort(dists, kind="stable")[: model.k]
        out[i] = model.y[nearest].mean()
    return out


# ---------------------------------------------------------------------------
# Gradient-boosted trees


@dataclass
class GbtModel:
    base: float
    trees: Trees
    learning_rate: float
    leaf_l2: float


def gbt_fit(X, y, n_rounds: int = 100, learning_rate: float = 0.1,
            max_depth: int | None = 3, leaf_l2: float = 1.0,
            seed: int = 0) -> GbtModel:
    X, y = validate_features(X, y)
    if n_rounds < 1:
        raise FitError(f"n_rounds must be >= 1, got {n_rounds}")
    if not 0.0 <= learning_rate <= 1.0:
        raise FitError("learning_rate must be in [0, 1]")
    if leaf_l2 < 0:
        raise FitError("leaf_l2 must be >= 0")
    base = float(np.mean(y))
    pred = np.full_like(y, base)
    params = TreeParams(max_depth=max_depth, seed=seed)
    leaf_value = lambda targets: float(np.sum(targets) / (targets.shape[0] + leaf_l2))
    trees = []
    rng = np.random.default_rng(seed)
    for _ in range(n_rounds):
        residuals = y - pred
        tree = tree_fit(X, residuals, params, rng=rng, leaf_value=leaf_value)
        trees.append(tree)
        pred = pred + learning_rate * tree_predict(tree, X)[0]
    return GbtModel(base, Trees.stack(trees), learning_rate, leaf_l2)


def gbt_predict(model: GbtModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    preds = np.full(X.shape[0], model.base)
    for tree_preds in tree_predict(model.trees, X):
        preds = preds + model.learning_rate * tree_preds
    return preds


# ---------------------------------------------------------------------------
# Cross-validation and grid search


def kfold_split(n: int, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Seeded shuffle, then k contiguous chunks; first n%k are one larger."""
    if k > n:
        raise FitError(f"k={k} exceeds n={n}")
    if k < 1:
        raise FitError("k must be >= 1")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict
    table: list = field(default_factory=list)  # (params, fold_rmses, mean_rmse)


def grid_search_cv(fit, predict, grid: dict[str, list], X, y,
                   k: int = 5, seed: int = 0) -> GridSearchResult:
    """Exhaustive grid over k-fold mean RMSE; ties keep earliest grid order.

    `fit(X, y, params)` returns a model and `predict(model, X)` its scores.
    """
    if not grid or not all(grid.values()):
        raise FitError(f"grid {grid} has no point")
    X, y = validate_features(X, y)
    folds = kfold_split(X.shape[0], k=k, seed=seed)
    keys = list(grid.keys())
    table = []
    best = None
    for combo in itertools.product(*(grid[key] for key in keys)):
        params = dict(zip(keys, combo))
        fold_rmses = []
        for i in range(k):
            val_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
            try:
                model = fit(X[train_idx], y[train_idx], params)
                yhat = predict(model, X[val_idx])
            except Exception as exc:
                raise FitError(f"grid combo {params} failed: {exc}") from exc
            fold_rmses.append(rmse(y[val_idx], yhat))
        mean_rmse = float(np.mean(fold_rmses))
        table.append((params, fold_rmses, mean_rmse))
        if best is None or mean_rmse < best[1]:
            best = (params, mean_rmse)
    return GridSearchResult(best_params=best[0], table=table)
