import json

import numpy as np
import pytest

from cgrader import kinds, persist
from cgrader.embed import TfIdfProvider
from cgrader.neural import TrainConfig
from cgrader.tabular import ridge_fit, rf_predict


def tab_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    y = rng.uniform(0, 10, 20)
    return X, y


def train_data(seed=0, n=16):
    rng = np.random.default_rng(seed)
    sequences, val_sequences = rng.normal(size=(n, 6, 4)), rng.normal(size=(5, 6, 4))
    return kinds.TrainData(sequences.mean(axis=1), sequences, rng.uniform(0, 10, n),
                           val_sequences, rng.uniform(0, 10, 5),
                           TrainConfig(max_epochs=2, batch_size=4, learning_rate=0.01))


def round_trip(tmp_path, kind, model, emb=None):
    path = tmp_path / f"{kind}.json"
    persist.save_model(path, kind, model, emb or {"provider": "none"})
    loaded_kind, loaded, emb_cfg = persist.load_model(path)
    assert loaded_kind == kind
    return loaded, emb_cfg


SMALL_PARAMS = {"rf": {"n_trees": 5}, "gbt": {"n_rounds": 5}, "knn": {"k": 3}}


@pytest.mark.parametrize("kind", list(kinds.KINDS))
def test_round_trip(tmp_path, kind):
    data = train_data()
    spec = {"grid": {}, "params": SMALL_PARAMS.get(kind, {})}
    model = kinds.fit(kind, data, 0, spec).model
    loaded, _ = round_trip(tmp_path, kind, model)
    predict = kinds.KINDS[kind].predict
    assert np.array_equal(predict(model, data.pooled, data.sequences),
                          predict(loaded, data.pooled, data.sequences))


GOLDEN_RF = (
    '{"embedding": {"provider": "none"}, "format_version": 1, "model": "rf", '
    '"params": {"bootstrap": true, "feature_subsample": 1.0, "max_depth": null, '
    '"min_samples_leaf": 1, "min_samples_split": 2, "n_trees": 2, "seed": 0}, '
    '"state": {"trees": [{"feature": 1, "left": {"leaf": 2.0}, "right": '
    '{"feature": 0, "left": {"leaf": 4.0}, "right": {"leaf": 8.0}, '
    '"threshold": -0.5}, "threshold": 0.5}, {"leaf": 6.5}]}}'
)


def test_golden_forest_doc(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN_RF, encoding="utf-8")
    kind, model, emb = persist.load_model(path)
    # Depth-first node ids, left child first; a leaf is feature -1 and links to itself.
    assert model.trees.roots.tolist() == [0, 5]
    assert model.trees.feature.tolist() == [1, -1, 0, -1, -1, -1]
    assert model.trees.left.tolist() == [1, 1, 3, 3, 4, 5]
    assert model.trees.right.tolist() == [2, 1, 4, 3, 4, 5]
    X = [[0.0, 0.0], [-1.0, 1.0], [1.0, 1.0]]
    assert rf_predict(model, X).tolist() == [4.25, 5.25, 7.25]
    persist.save_model(tmp_path / "again.json", kind, model, emb)
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == GOLDEN_RF


def test_500_level_chain_tree(tmp_path):
    depth = 500
    tree = {"leaf": float(depth)}
    for level in reversed(range(depth)):
        tree = {"feature": 0, "threshold": level + 0.5, "left": {"leaf": float(level)},
                "right": tree}
    doc = json.loads(GOLDEN_RF)
    doc["params"]["n_trees"] = 1
    doc["state"]["trees"] = [tree]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    kind, model, emb = persist.load_model(path)
    X = np.arange(depth + 1, dtype=np.float64)[:, None]
    assert np.array_equal(rf_predict(model, X), np.clip(X[:, 0], 0, 10))
    assert persist.model_to_doc(kind, model, emb) == doc


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
