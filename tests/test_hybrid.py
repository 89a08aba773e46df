import copy

import numpy as np
import pytest

from cgrader.hybrid import hybrid_fit, hybrid_predict
from cgrader.neural import CnnRegressor, CnnSpec, LstmRegressor, LstmSpec, TrainConfig, train
from cgrader.tabular import TreeParams, rf_predict

TOY_L, TOY_D = 6, 4
CNN_SPEC = CnnSpec(conv_filters=3, kernel_size=3, pool_size=2, dense_units=8)
LSTM_SPEC = LstmSpec(units=5, dropout=0.0, recurrent_dropout=0.0, dense_units=8)


def toy_data(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, TOY_L, TOY_D)), rng.uniform(0, 10, n)


def quick_cfg(seed=0):
    return TrainConfig(max_epochs=3, batch_size=4, learning_rate=0.01, seed=seed)


def trained_net(spec, X, y, Xv, yv, seed=0):
    """A net trained the way an experiment trains its CNN/LSTM."""
    net_cls = CnnRegressor if isinstance(spec, CnnSpec) else LstmRegressor
    net = net_cls(spec, TOY_L, TOY_D, seed=seed)
    history = train(net, X, y, Xv, yv, quick_cfg(seed))
    return net, history


def fit(spec, n_trees=5, rf_params=None, seed=0):
    X, y = toy_data(16, seed=1)
    Xv, yv = toy_data(5, seed=2)
    net, history = trained_net(spec, X, y, Xv, yv, seed=seed)
    model = hybrid_fit(net, X, y, params=rf_params, n_trees=n_trees)
    return model, history


class TestComposition:
    @pytest.mark.parametrize("kind,spec", [("cnn_rf", CNN_SPEC), ("lstm_rf", LSTM_SPEC)])
    def test_predict_equals_rf_over_features(self, kind, spec):
        model, _ = fit(spec)
        X, _ = toy_data(10, seed=3)
        direct = hybrid_predict(model, X)
        composed = rf_predict(model.head, model.feature_net.features(X))
        assert np.array_equal(direct, composed)

    def test_predictions_clamped(self):
        model, _ = fit(CNN_SPEC)
        X, _ = toy_data(20, seed=4)
        preds = hybrid_predict(model, X)
        assert np.all((preds >= 0.0) & (preds <= 10.0))

    def test_lstm_feature_width_matches_units(self):
        model, _ = fit(LSTM_SPEC)
        X, _ = toy_data(3, seed=5)
        assert model.feature_net.features(X).shape[1] == LSTM_SPEC.units


class TestFreezing:
    def test_net_unchanged_by_head_fit_and_prediction(self):
        X, y = toy_data(16, seed=1)
        Xv, yv = toy_data(5, seed=2)
        net, _ = trained_net(CNN_SPEC, X, y, Xv, yv)
        snapshot = copy.deepcopy(net.params)
        model = hybrid_fit(net, X, y, n_trees=5)
        hybrid_predict(model, toy_data(12, seed=6)[0])
        for key, arr in snapshot.items():
            assert np.array_equal(arr, model.feature_net.params[key])


class TestDeterminismAndDegeneracy:
    def test_same_seeds_identical_model(self):
        a, _ = fit(CNN_SPEC, seed=9)
        b, _ = fit(CNN_SPEC, seed=9)
        X, _ = toy_data(8, seed=7)
        assert np.array_equal(hybrid_predict(a, X), hybrid_predict(b, X))
        for key in a.feature_net.params:
            assert np.array_equal(a.feature_net.params[key], b.feature_net.params[key])

    def test_single_tree_head(self):
        from cgrader.tabular import tree_predict

        params = TreeParams(feature_subsample=1.0, seed=3)
        X, y = toy_data(16, seed=1)
        Xv, yv = toy_data(5, seed=2)
        net, _ = trained_net(CNN_SPEC, X, y, Xv, yv)
        model = hybrid_fit(net, X, y, params=params, n_trees=1)
        # Bootstrap is on by default, so compare against the head's own tree.
        feats = model.feature_net.features(X)
        assert np.array_equal(
            hybrid_predict(model, X),
            np.clip(tree_predict(model.head.trees, feats)[0], 0, 10),
        )

    def test_constant_scores_predict_constant(self):
        X, _ = toy_data(12, seed=8)
        y = np.full(12, 7.0)
        Xv, yv = toy_data(4, seed=9)
        net, _ = trained_net(CNN_SPEC, X, y, Xv, np.full(4, 7.0))
        model = hybrid_fit(net, X, y, n_trees=3)
        assert np.all(hybrid_predict(model, toy_data(6, seed=10)[0]) == 7.0)
