"""The eight model kinds: how each one is fitted, predicts and is serialized.

`KINDS` is ordered as the report lists the kinds; the order also derives each
kind's seed (`model_seed`). Every entry calls the layer functions through
their module at call time (`tabular.rf_fit(...)`), never through a reference
taken at import, so rebinding a module attribute (a profiler, a test double)
reaches every call.

The hybrids own no net: `cnn_rf` and `lstm_rf` fit their forest head on the
features of the `cnn`/`lstm` net of the same run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hybrid, metrics, neural, tabular

CV_FOLDS = 5

# The JSON types of config, grid and model-file values, as `isinstance` reads them
NUMBER = int | float
JSON_TYPES = {str: "a string", int: "an integer", NUMBER: "a number", bool: "a boolean",
              int | None: "an integer or null"}


def is_json(value, json_type) -> bool:
    """Whether `value` is of `json_type`, one of JSON_TYPES; a boolean is no number."""
    return isinstance(value, bool) == (json_type is bool) and isinstance(value, json_type)


def _read(doc: dict, key: str, json_type=NUMBER):
    """`doc[key]` as it is written, if it is of `json_type`; else ValueError. A
    number is never coerced: 2.7 is no integer and "1" no number."""
    value = doc[key]
    if not is_json(value, json_type):
        raise ValueError(f"{key} must be {JSON_TYPES[json_type]}, not {value!r:.60}")
    return value


class KindError(ValueError):
    """A kind cannot be fitted on the inputs it was given."""


@dataclass(frozen=True)
class Split:
    """One embedded part of a corpus."""

    pooled: np.ndarray  # (N, d)
    # (N, L, d): TokenSequences (tfidf) or an array; None when the provider has none
    sequences: neural.TokenSequences | np.ndarray | None
    y: np.ndarray


@dataclass(frozen=True)
class TrainData:
    """The training inputs of one run, shared by every kind."""

    train: Split
    validation: Split  # the nets early-stop on it
    config: neural.TrainConfig  # net settings; each net runs under its kind's seed


@dataclass
class Fitted:
    model: object
    params: dict | None = None  # chosen hyperparameters of a pooled-vector kind
    history: neural.TrainingHistory | None = None  # the net's curve (nets, hybrids)


@dataclass(frozen=True)
class Kind:
    name: str
    fit: Callable  # (TrainData, config entry, seed, base net's Fitted) -> Fitted
    raw: Callable  # (model, pooled, sequences) -> scores before the clamp
    to_state: Callable  # model -> (params, state); state arrays stay numpy arrays
    from_state: Callable  # (params, state) -> model
    sequences: bool = False  # needs token sequences
    grid: dict | None = None  # default CV grid
    # the param keys a grid or config may set -> JSON type
    params: dict = dataclasses.field(default_factory=dict)
    base: str | None = None  # hybrids: the net kind whose features feed the head

    def predict(self, model, pooled, sequences) -> np.ndarray:
        """The model's scores clipped to the mark scale: the one clamp of every kind."""
        return np.clip(self.raw(model, pooled, sequences), metrics.SCORE_MIN,
                       metrics.SCORE_MAX)


# ---------------------------------------------------------------------------
# Pooled-vector kinds: k-fold grid search, then a refit on the whole split (a
# one-point grid skips the search)


def _pooled(name, fit, predict, to_state, from_state, grid, params) -> Kind:
    """`fit(X, y, params, seed)` and `predict(model, X)` work on pooled vectors."""

    def fit_kind(data, spec, seed, base):
        params = dict(spec.get("params") or {})
        chosen_grid = spec.get("grid", grid)
        if chosen_grid and all(len(values) == 1 for values in chosen_grid.values()):
            # one point: CV would only rank it first, so fit it once
            params.update({key: values[0] for key, values in chosen_grid.items()})
        elif chosen_grid:
            search = tabular.grid_search_cv(
                lambda X, y, p: fit(X, y, p, seed),
                lambda m, X: KINDS[name].predict(m, X, None),
                chosen_grid, data.train.pooled, data.train.y, k=CV_FOLDS, seed=seed,
            )
            params.update(search.best_params)
        return Fitted(fit(data.train.pooled, data.train.y, params, seed), params=params)

    return Kind(name, fit_kind, lambda model, pooled, sequences: predict(model, pooled),
                to_state, from_state, grid=grid, params=params)


def _given(p: dict, name: str) -> dict:
    """The entries of `p` under kind `name`'s param keys; an absent key keeps
    the callee's default."""
    return {key: p[key] for key in KINDS[name].params if key in p}


_TREE_TYPES = {"max_depth": int | None, "min_samples_split": int, "min_samples_leaf": int,
               "feature_subsample": NUMBER}


def _rf_fit(X, y, p, seed):
    forest = _given(p, "rf")
    tree = {key: forest.pop(key) for key in _TREE_TYPES if key in forest}
    params = tabular.TreeParams(**{
        "feature_subsample": tabular.RF_DEFAULT_SUBSAMPLE, "seed": seed, **tree})
    return tabular.rf_fit(X, y, params=params, **forest)


def _gbt_fit(X, y, p, seed):
    return tabular.gbt_fit(X, y, seed=seed, **_given(p, "gbt"))


def _trees(state, params, key) -> tabular.Trees:
    """The checked trees of `state`, if `params[key]` counts them."""
    trees, count = tabular.Trees(**state["trees"]).check(), _read(params, key, int)
    if count != trees.roots.size:
        raise ValueError(f"{key} is {count}, the state holds {trees.roots.size} trees")
    return trees


def _forest_to_state(model: tabular.ForestModel):
    params = {"n_trees": model.trees.roots.size, "bootstrap": model.bootstrap,
              **dataclasses.asdict(model.tree_params)}
    return params, {"trees": vars(model.trees)}


def _forest_from_state(params, state) -> tabular.ForestModel:
    types = {**_TREE_TYPES, "seed": int}
    tree_params = tabular.TreeParams(**{key: _read(params, key, types[key]) for key in types})
    trees = _trees(state, params, "n_trees")
    if not trees.roots.size:
        raise ValueError("a forest has at least one tree")
    return tabular.ForestModel(trees, tree_params, _read(params, "bootstrap", bool))


def _gbt_to_state(model: tabular.GbtModel):
    params = {"n_rounds": model.trees.roots.size, "learning_rate": model.learning_rate,
              "leaf_l2": model.leaf_l2}
    return params, {"base": model.base, "trees": vars(model.trees)}


def _gbt_from_state(params, state) -> tabular.GbtModel:
    return tabular.GbtModel(_read(state, "base"), _trees(state, params, "n_rounds"),
                            _read(params, "learning_rate"), _read(params, "leaf_l2"))


def _knn_from_state(params, state) -> tabular.KnnModel:
    return tabular.knn_fit(neural.float_array(state["X"], 2),
                           neural.float_array(state["y"], 1), _read(params, "k", int))


# ---------------------------------------------------------------------------
# Sequence kinds: the nets, and the forest heads on their features


def _net(name, net_cls, spec_cls) -> Kind:
    def fit(data, spec, seed, base):
        net = net_cls(spec_cls(), *data.train.sequences.shape[1:], seed=seed)
        history = neural.train(net, data.train.sequences, data.train.y,
                               data.validation.sequences, data.validation.y,
                               dataclasses.replace(data.config, seed=seed))
        return Fitted(net, history=history)

    def from_state(params, state):
        if params.get("stride", 1) != 1:  # cnn files once recorded a stride of 1
            raise ValueError(f"a conv stride of {params['stride']!r} is not supported")
        spec = spec_cls(**{f.name: _read(params, f.name,
                                         NUMBER if isinstance(f.default, float) else int)
                           for f in dataclasses.fields(spec_cls)})
        return net_cls(spec, _read(params, "seq_len", int), _read(params, "dim", int),
                       params=state)

    return Kind(name, fit, lambda model, pooled, sequences: model.predict(sequences),
                _net_to_state, from_state, sequences=True)


def _net_to_state(net):
    params = {**dataclasses.asdict(net.spec), "seq_len": net.seq_len, "dim": net.dim}
    return params, dict(net.params)


def _hybrid(name, base) -> Kind:
    def fit(data, spec, seed, base_fit):
        params = tabular.TreeParams(feature_subsample=tabular.RF_DEFAULT_SUBSAMPLE,
                                    seed=seed)
        model = hybrid.hybrid_fit(base_fit.model, data.train.sequences, data.train.y,
                                  rf_params=params)
        return Fitted(model, history=base_fit.history)

    def to_state(model):
        net_params, net_state = KINDS[base].to_state(model.feature_net)
        head_params, head_state = _forest_to_state(model.head)
        return {}, {"net": {"params": net_params, "state": net_state},
                    "head": {"params": head_params, "state": head_state}}

    def from_state(params, state):
        if params:
            raise ValueError("a hybrid keeps its params in its net and head")
        net = KINDS[base].from_state(state["net"]["params"], state["net"]["state"])
        head = _forest_from_state(state["head"]["params"], state["head"]["state"])
        return hybrid.HybridModel(net, head)

    return Kind(name, fit,
                lambda model, pooled, sequences: hybrid.hybrid_predict(model, sequences),
                to_state, from_state, sequences=True, base=base)


KINDS: dict[str, Kind] = {kind.name: kind for kind in (
    _pooled("rf", _rf_fit, lambda model, X: tabular.rf_predict(model, X),
            _forest_to_state, _forest_from_state,
            grid={"max_depth": [None, 8], "min_samples_split": [2, 4],
                  "min_samples_leaf": [1, 2]},
            params={"n_trees": int, "bootstrap": bool, **_TREE_TYPES}),
    _pooled("ridge",
            lambda X, y, p, seed: tabular.ridge_fit(X, y, lam=p.get("lambda", 1.0)),
            lambda model, X: tabular.ridge_predict(model, X),
            lambda m: ({"lambda": m.lam}, {"weights": m.weights, "bias": m.bias}),
            lambda p, s: tabular.RidgeModel(neural.float_array(s["weights"], 1),
                                            _read(s, "bias"), _read(p, "lambda")),
            grid={"lambda": [0.1, 1.0, 10.0]}, params={"lambda": NUMBER}),
    _pooled("gbt", _gbt_fit, lambda model, X: tabular.gbt_predict(model, X),
            _gbt_to_state, _gbt_from_state,
            grid={"n_rounds": [100], "learning_rate": [0.1], "max_depth": [3]},
            params={"n_rounds": int, "learning_rate": NUMBER, "max_depth": int | None,
                    "leaf_l2": NUMBER}),
    _pooled("knn",
            lambda X, y, p, seed: tabular.knn_fit(X, y, k=p.get("k", 5)),
            lambda model, X: tabular.knn_predict(model, X),
            lambda m: ({"k": m.k}, {"X": m.X, "y": m.y}),
            _knn_from_state, grid={"k": [3, 5, 7]}, params={"k": int}),
    _net("cnn", neural.CnnRegressor, neural.CnnSpec),
    _net("lstm", neural.LstmRegressor, neural.LstmSpec),
    _hybrid("cnn_rf", "cnn"),
    _hybrid("lstm_rf", "lstm"),
)}


def model_seed(base_seed: int, name: str) -> int:
    """The seed of kind `name`, from the run seed and the kind's place in KINDS."""
    index = list(KINDS).index(name)
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def fit(name: str, data: TrainData, base_seed: int, spec: dict | None = None,
        fitted: dict | None = None) -> Fitted:
    """Fit kind `name` under its own seed.

    `spec` is the kind's config entry ({"grid", "params"}). A hybrid takes its
    base net from `fitted` (kind -> Fitted of this run) and trains that net
    first, under the net's own seed, when it is absent.
    """
    kind = KINDS[name]
    if kind.sequences and data.train.sequences is None:
        raise KindError("embedding provider supplies no token sequences")
    base = None
    if kind.base is not None:
        base = (fitted or {}).get(kind.base)
        if base is None:
            base = fit(kind.base, data, base_seed)
    return kind.fit(data, spec or {}, model_seed(base_seed, name), base)
