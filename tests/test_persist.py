import numpy as np
import pytest

from cgrader import persist
from cgrader.embed import TfIdfProvider
from cgrader.hybrid import hybrid_fit, hybrid_predict
from cgrader.neural import CnnRegressor, CnnSpec, LstmRegressor, LstmSpec, TrainConfig, train
from cgrader.tabular import (
    gbt_fit,
    gbt_predict,
    knn_fit,
    knn_predict,
    rf_fit,
    rf_predict,
    ridge_fit,
    ridge_predict,
)


def tab_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    y = rng.uniform(0, 10, 20)
    return X, y


def seq_data(seed=0, n=10):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 6, 4)), rng.uniform(0, 10, n)


def round_trip(tmp_path, kind, model, emb=None):
    path = tmp_path / f"{kind}.json"
    persist.save_model(path, kind, model, emb or {"provider": "none"})
    loaded_kind, loaded, emb_cfg = persist.load_model(path)
    assert loaded_kind == kind
    return loaded, emb_cfg


@pytest.mark.parametrize(
    "kind,fit,predict",
    [
        ("rf", lambda X, y: rf_fit(X, y, n_trees=5), rf_predict),
        ("ridge", lambda X, y: ridge_fit(X, y, 1.0), ridge_predict),
        ("knn", lambda X, y: knn_fit(X, y, 3), knn_predict),
        ("gbt", lambda X, y: gbt_fit(X, y, n_rounds=5), gbt_predict),
    ],
)
def test_tabular_round_trip(tmp_path, kind, fit, predict):
    X, y = tab_data()
    model = fit(X, y)
    loaded, _ = round_trip(tmp_path, kind, model)
    assert np.array_equal(predict(model, X), predict(loaded, X))


def test_cnn_round_trip(tmp_path):
    spec = CnnSpec(conv_filters=3, kernel_size=3, pool_size=2, dense_units=8)
    model = CnnRegressor(spec, 6, 4, seed=1)
    X, _ = seq_data()
    loaded, _ = round_trip(tmp_path, "cnn", model)
    assert np.array_equal(model.predict(X), loaded.predict(X))


def test_lstm_round_trip(tmp_path):
    spec = LstmSpec(units=5, dense_units=8)
    model = LstmRegressor(spec, 6, 4, seed=1)
    X, _ = seq_data()
    loaded, _ = round_trip(tmp_path, "lstm", model)
    assert np.array_equal(model.predict(X), loaded.predict(X))


def test_hybrid_round_trip(tmp_path):
    X, y = seq_data(n=16)
    Xv, yv = seq_data(seed=2, n=5)
    spec = CnnSpec(conv_filters=3, kernel_size=3, pool_size=2, dense_units=8)
    cfg = TrainConfig(max_epochs=2, batch_size=4, learning_rate=0.01)
    net = CnnRegressor(spec, 6, 4)
    train(net, X, y, Xv, yv, cfg)
    model = hybrid_fit(net, X, y, n_trees=3)
    loaded, _ = round_trip(tmp_path, "cnn_rf", model)
    assert np.array_equal(hybrid_predict(model, X), hybrid_predict(loaded, X))


def test_embedding_config_preserved(tmp_path):
    provider = TfIdfProvider.fit(["int x;", "int y;"], d=16, L=4)
    X, y = tab_data()
    model = ridge_fit(X, y, 1.0)
    _, emb_cfg = round_trip(tmp_path, "ridge", model, provider.config())
    clone = persist.provider_from_config(emb_cfg)
    a = provider.embed_code("int z;")
    b = clone.embed_code("int z;")
    assert np.array_equal(a.pooled, b.pooled)


def test_unknown_kind_rejected():
    with pytest.raises(persist.PersistError):
        persist.model_to_doc("svm", None, {})


def test_bad_version_rejected():
    with pytest.raises(persist.PersistError):
        persist.model_from_doc({"format_version": 99, "model": "rf"})
