import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgrader import kinds, neural, persist, tabular
from cgrader.cli import main
from cgrader.embed import NO_AD_HOC_CODE, TfIdfProvider, UnsupportedEmbedding
from cgrader.neural import TrainConfig
from cgrader.tabular import (ForestModel, TreeParams, Trees, ridge_fit, rf_predict,
                              tree_fit)

MODELS_DIR = Path(__file__).resolve().parent / "data" / "models"  # one file per kind


def tab_data(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    y = rng.uniform(0, 10, 20)
    return X, y


def train_data(seed=0, n=16):
    rng = np.random.default_rng(seed)
    sequences, val_sequences = rng.normal(size=(n, 6, 4)), rng.normal(size=(5, 6, 4))
    return kinds.TrainData(
        kinds.Split(sequences.mean(axis=1), sequences, rng.uniform(0, 10, n)),
        kinds.Split(val_sequences.mean(axis=1), val_sequences, rng.uniform(0, 10, 5)),
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
    train = data.train
    assert np.array_equal(predict(model, train.pooled, train.sequences),
                          predict(loaded, train.pooled, train.sequences))


def test_nets_load_without_drawing_a_random_init(tmp_path, monkeypatch):
    data, fitted = train_data(), {}
    nets = [kind for kind in kinds.KINDS if kinds.KINDS[kind].sequences]
    for kind in nets:
        fitted[kind] = kinds.fit(kind, data, 0, None, fitted)
        persist.save_model(tmp_path / f"{kind}.json", kind, fitted[kind].model,
                           {"provider": "none"})

    def no_draws(*args):
        raise AssertionError("a loaded net drew a random init")

    monkeypatch.setattr(neural, "_glorot", no_draws)
    for kind in nets:
        _, loaded, _ = persist.load_model(tmp_path / f"{kind}.json")
        predict = kinds.KINDS[kind].predict
        assert np.array_equal(predict(loaded, None, data.train.sequences),
                              predict(fitted[kind].model, None, data.train.sequences))


# Each pooled kind's one grid point, and the tabular function that fits it.
ONE_POINT = {"rf": ({"max_depth": [3], "n_trees": [5]}, "rf_fit"),
             "ridge": ({"lambda": [0.5]}, "ridge_fit"),
             "gbt": ({"n_rounds": [5], "max_depth": [2]}, "gbt_fit"),
             "knn": ({"k": [3]}, "knn_fit")}


@pytest.mark.parametrize("kind", list(ONE_POINT))
def test_one_point_grid_is_fitted_once_as_params(tmp_path, monkeypatch, kind):
    grid, fit_name = ONE_POINT[kind]
    data, calls = train_data(n=20), []
    fit = getattr(tabular, fit_name)
    monkeypatch.setattr(tabular, fit_name, lambda *a, **kw: calls.append(1) or fit(*a, **kw))
    from_grid = kinds.fit(kind, data, 0, {"grid": grid})
    assert len(calls) == 1
    point = {key: values[0] for key, values in grid.items()}
    from_params = kinds.fit(kind, data, 0, {"grid": {}, "params": point})
    assert from_grid.params == from_params.params == point
    for name, fitted in (("grid", from_grid), ("params", from_params)):
        persist.save_model(tmp_path / f"{name}.json", kind, fitted.model,
                           {"provider": "none"})
    assert (tmp_path / "grid.json").read_bytes() == (tmp_path / "params.json").read_bytes()


# A forest of two trees in format v2: node ids "<i8", thresholds and values "<f8".
GOLDEN_RF_V2 = (
    '{"embedding": {"provider": "none"}, "format_version": 2, "model": "rf", '
    '"params": {"bootstrap": true, "feature_subsample": 1.0, "max_depth": null, '
    '"min_samples_leaf": 1, "min_samples_split": 2, "n_trees": 2, "seed": 0}, '
    '"state": {"trees": {'
    '"feature": {"b64": "AQAAAAAAAAD//////////wAAAAAAAAAA////////////////////////////////", '
    '"dtype": "<i8", "shape": [6]}, '
    '"left": {"b64": "AQAAAAAAAAABAAAAAAAAAAMAAAAAAAAAAwAAAAAAAAAEAAAAAAAAAAUAAAAAAAAA", '
    '"dtype": "<i8", "shape": [6]}, '
    '"right": {"b64": "AgAAAAAAAAABAAAAAAAAAAQAAAAAAAAAAwAAAAAAAAAEAAAAAAAAAAUAAAAAAAAA", '
    '"dtype": "<i8", "shape": [6]}, '
    '"roots": {"b64": "AAAAAAAAAAAFAAAAAAAAAA==", "dtype": "<i8", "shape": [2]}, '
    '"threshold": {"b64": "AAAAAAAA4D8AAAAAAAAAAAAAAAAAAOC/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", '
    '"dtype": "<f8", "shape": [6]}, '
    '"value": {"b64": "AAAAAAAAAAAAAAAAAAAAQAAAAAAAAAAAAAAAAAAAEEAAAAAAAAAgQAAAAAAAABpA", '
    '"dtype": "<f8", "shape": [6]}}}}'
)


def test_golden_forest_doc(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(GOLDEN_RF_V2, encoding="utf-8")
    kind, model, emb = persist.load_model(path)
    # Depth-first node ids, left child first; a leaf is feature -1 and links
    # to itself.
    assert model.trees.roots.tolist() == [0, 5]
    assert model.trees.feature.tolist() == [1, -1, 0, -1, -1, -1]
    assert model.trees.threshold.tolist() == [0.5, 0.0, -0.5, 0.0, 0.0, 0.0]
    assert model.trees.left.tolist() == [1, 1, 3, 3, 4, 5]
    assert model.trees.right.tolist() == [2, 1, 4, 3, 4, 5]
    assert model.trees.value.tolist() == [0.0, 2.0, 0.0, 4.0, 8.0, 6.5]
    X = [[0.0, 0.0], [-1.0, 1.0], [1.0, 1.0]]
    assert rf_predict(model, X).tolist() == [4.25, 5.25, 7.25]
    persist.save_model(tmp_path / "again.json", kind, model, emb)
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == GOLDEN_RF_V2


def chain_forest(depth):
    """One tree of `depth` levels on feature 0: a row x goes left to a leaf of
    value level % 10 at the first level with x <= level - depth + 0.5, and a row
    with x >= 0 reaches the last leaf, of value 7."""
    nodes = []
    for level in range(depth):
        node = len(nodes)
        nodes += [(0, level - depth + 0.5, node + 1, node + 2, 0.0),
                  (-1, 0.0, node + 1, node + 1, float(level % 10))]
    nodes.append((-1, 0.0, len(nodes), len(nodes), 7.0))
    return ForestModel(Trees.from_nodes([0], nodes), TreeParams())


def test_5000_level_chain_tree_saves_loads_and_grades(tmp_path, capsys):
    depth = 5000
    provider = TfIdfProvider.fit(["int x;", "int y;"], d=16, L=4)
    path = tmp_path / "chain.json"
    persist.save_model(path, "rf", chain_forest(depth), provider.config())
    kind, model, _ = persist.load_model(path)
    X = np.arange(-depth, 1, dtype=np.float64)[:, None]
    assert rf_predict(model, X).tolist() == [level % 10 for level in range(depth)] + [7.0]
    program = tmp_path / "prog.c"
    program.write_text("int main(void) { return 0; }", encoding="utf-8")
    assert main(["grade", "--model", str(path), "--code", str(program)]) == 0
    assert capsys.readouterr().out.strip() == "7.00"


def test_format_1_file_exits_2_asking_for_a_retrain(tmp_path, capsys):
    doc = json.loads((MODELS_DIR / "rf.json").read_text(encoding="utf-8"))
    doc["format_version"] = 1
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    program = tmp_path / "prog.c"
    program.write_text("int main(void) { return 0; }", encoding="utf-8")
    assert main(["grade", "--model", str(path), "--code", str(program)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "format_version 1 " in err[0] and "retrain" in err[0], err


def test_fitted_chain_deeper_than_the_recursion_limit_saves_loads_and_grades(
        tmp_path, capsys):
    # y = 3**i puts the best split just below the largest target at every
    # node, so the tree is a chain of n - 1 levels. Past about 640 levels the
    # squares overflow, so the test lowers the recursion limit below n.
    n = 400
    X = np.zeros((n, 16))
    X[:, 0] = np.arange(n) - (n - 1)
    y = 3.0 ** (np.arange(n) - n // 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(n - 100)
    try:
        trees = tree_fit(X, y)
    finally:
        sys.setrecursionlimit(limit)
    depth = np.zeros(trees.feature.size, dtype=int)
    for node in np.flatnonzero(trees.feature >= 0):
        depth[[trees.left[node], trees.right[node]]] = depth[node] + 1
    assert depth.max() == n - 1
    provider = TfIdfProvider.fit(["int x;", "int y;"], d=16, L=4)
    path = tmp_path / "fitted_chain.json"
    persist.save_model(path, "rf", ForestModel(trees, TreeParams()), provider.config())
    _, model, _ = persist.load_model(path)
    assert np.array_equal(kinds.KINDS["rf"].predict(model, X, None), np.clip(y, 0, 10))
    program = tmp_path / "prog.c"
    program.write_text("int main(void) { return 0; }", encoding="utf-8")
    assert main(["grade", "--model", str(path), "--code", str(program)]) == 0
    assert capsys.readouterr().out.strip() == "10.00"


@pytest.mark.parametrize("kind", list(kinds.KINDS))
def test_v1_file_predicts_recorded_values(tmp_path, kind):
    """Each file holds a model first written by the format v1 writer, with its
    predictions recorded then, and re-saved in format v2."""
    expected = json.loads((MODELS_DIR / "expected.json").read_text(encoding="utf-8"))
    loaded_kind, model, emb = persist.load_model(MODELS_DIR / f"{kind}.json")
    assert loaded_kind == kind
    embedded = [persist.provider_from_config(emb).embed_code(code)
                for code in expected["programs"]]
    pooled = np.array([e.pooled for e in embedded])
    sequences = np.array([e.sequence for e in embedded])
    predict = kinds.KINDS[kind].predict
    assert predict(model, pooled, sequences).tolist() == expected["predictions"][kind]
    persist.save_model(tmp_path / "again.json", kind, model, emb)
    assert ((tmp_path / "again.json").read_bytes()
            == (MODELS_DIR / f"{kind}.json").read_bytes())


def test_cnn_stride_is_read_only_as_1(tmp_path):
    # cnn files written before the stride was dropped record a stride of 1
    doc = json.loads((MODELS_DIR / "cnn.json").read_text(encoding="utf-8"))
    doc["params"]["stride"] = 1
    path = tmp_path / "stride.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _, model, emb = persist.load_model(path)
    persist.save_model(tmp_path / "again.json", "cnn", model, emb)
    assert (tmp_path / "again.json").read_bytes() == (MODELS_DIR / "cnn.json").read_bytes()
    doc["params"]["stride"] = 2
    with pytest.raises(persist.PersistError, match="stride of 2"):
        persist.model_from_doc(doc)


def grade_in_subprocess(tmp_path, model_path):
    """`cgrader grade` of a small program with model `model_path`, in a child
    process given 60 s."""
    (tmp_path / "prog.c").write_text("int x;", encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "cgrader.cli", "grade", "--model", str(model_path),
         "--code", str(tmp_path / "prog.c")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(persist.__file__).parents[1])})


@pytest.mark.parametrize("k", [0, -1, "rows + 1"])
def test_knn_k_outside_its_rows_exits_2(tmp_path, k):
    doc = json.loads((MODELS_DIR / "knn.json").read_text(encoding="utf-8"))
    rows = doc["state"]["X"]["shape"][0]
    doc["params"]["k"] = rows + 1 if k == "rows + 1" else k
    path = tmp_path / "knn.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # A subprocess, so that a warning printed on stderr counts as a line
    done = grade_in_subprocess(tmp_path, path)
    err = done.stderr.splitlines()
    assert done.returncode == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert "outside" in err[0], err


STORED_NUMBER_FAULTS = {  # case -> (golden kind, section, key, stored value, words)
    "rf_n_trees_not_its_tree_count": ("rf", "params", "n_trees", 999,
                                      "n_trees is 999, the state holds 3 trees"),
    "gbt_n_rounds_not_its_tree_count": ("gbt", "params", "n_rounds", 4,
                                        "n_rounds is 4, the state holds 3 trees"),
    "knn_k_fraction": ("knn", "params", "k", 2.7, "k must be an integer, not 2.7"),
    "knn_k_string": ("knn", "params", "k", "1", "k must be an integer, not '1'"),
    "knn_k_boolean": ("knn", "params", "k", True, "k must be an integer, not True"),
    "ridge_lambda_string": ("ridge", "params", "lambda", "1.0",
                            "lambda must be a number, not '1.0'"),
    "ridge_lambda_boolean": ("ridge", "params", "lambda", True,
                             "lambda must be a number, not True"),
    "cnn_conv_filters_fraction": ("cnn", "params", "conv_filters", 2.9,
                                  "conv_filters must be an integer, not 2.9"),
    "cnn_seq_len_fraction": ("cnn", "params", "seq_len", 4.5,
                             "seq_len must be an integer, not 4.5"),
    "gbt_n_rounds_string": ("gbt", "params", "n_rounds", "3",
                            "n_rounds must be an integer, not '3'"),
    "gbt_learning_rate_string": ("gbt", "params", "learning_rate", "0.1",
                                 "learning_rate must be a number, not '0.1'"),
    "lstm_dropout_string": ("lstm", "params", "dropout", "0.1",
                            "dropout must be a number, not '0.1'"),
    "tfidf_d_fraction": ("ridge", "embedding", "d", 8.7, "d=8.7"),
    "tfidf_L_boolean": ("ridge", "embedding", "L", True, "L=True"),
    "tfidf_doc_count_fraction": ("ridge", "embedding", "doc_count", 2.5, "doc_count=2.5"),
}


@pytest.mark.parametrize("case", list(STORED_NUMBER_FAULTS))
def test_stored_number_is_read_as_written_or_refused(tmp_path, capsys, case):
    kind, section, key, value, words = STORED_NUMBER_FAULTS[case]
    doc = json.loads((MODELS_DIR / f"{kind}.json").read_text(encoding="utf-8"))
    doc[section][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "prog.c").write_text("int x;", encoding="utf-8")
    assert main(["grade", "--model", str(path), "--code", str(tmp_path / "prog.c")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: malformed "), err
    assert words in err[0], err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_saved_file_mode_follows_the_umask(tmp_path, umask, mode):
    X, y = tab_data()
    old = os.umask(umask)
    try:
        persist.save_model(tmp_path / "ridge.json", "ridge", ridge_fit(X, y, 1.0),
                           {"provider": "none"})
    finally:
        os.umask(old)
    assert (tmp_path / "ridge.json").stat().st_mode & 0o777 == mode
    assert os.listdir(tmp_path) == ["ridge.json"]


def break_golden(case):
    """The v2 golden forest, over a TF-IDF that grades, with one fault `case`."""
    doc = json.loads(GOLDEN_RF_V2)
    doc["embedding"] = TfIdfProvider.fit(["int x;"], d=8, L=4).config()
    trees = doc["state"]["trees"]
    if case in ("<f4", ">f8", "|O"):
        trees["threshold"]["dtype"] = case
    elif case == "shape_mismatch":
        trees["value"]["shape"] = [5]
    elif case == "huge_shape":
        trees["value"]["shape"] = [10**12]
    elif case == "invalid_base64":
        trees["value"]["b64"] = "not base64!"
    else:  # (side, node, new child) edits; the first two make every walk loop
        edits = {"links_to_itself": [("left", 0, 0), ("right", 0, 0)],
                 "links_to_ancestor": [("left", 0, 2), ("left", 2, 0), ("right", 2, 0)],
                 "child_out_of_range": [("right", 0, 6)]}[case]
        for side, node, child in edits:
            ids = np.frombuffer(base64.b64decode(trees[side]["b64"]), "<i8").copy()
            ids[node] = child
            trees[side]["b64"] = base64.b64encode(ids.tobytes()).decode("ascii")
    return doc


MALFORMED_V2 = {  # fault -> words its error line names
    "<f4": ["dtype", "<f4"],
    ">f8": ["dtype", ">f8"],
    "|O": ["dtype", "|O"],
    "shape_mismatch": ["shape [5]", "bytes"],
    "huge_shape": ["shape [1000000000000]", "bytes"],
    "invalid_base64": ["base64"],
    "links_to_itself": ["tree node 0", "links to 0 and 0"],
    "links_to_ancestor": ["tree node 2", "links to 0 and 0"],
    "child_out_of_range": ["tree node 0", "links to 1 and 6"],
}


@pytest.mark.parametrize("case", list(MALFORMED_V2))
def test_malformed_v2_doc_exits_2(tmp_path, case):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(break_golden(case)), encoding="utf-8")
    # A subprocess with a time limit: a tree walk that never reaches a leaf
    # would otherwise hang the suite.
    done = grade_in_subprocess(tmp_path, path)
    err = done.stderr.splitlines()
    assert done.returncode == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert all(word in err[0] for word in MALFORMED_V2[case]), err


def test_embedding_config_preserved(tmp_path):
    provider = TfIdfProvider.fit(["int x;", "int y;"], d=16, L=4)
    X, y = tab_data()
    model = ridge_fit(X, y, 1.0)
    _, emb_cfg = round_trip(tmp_path, "ridge", model, provider.config())
    clone = persist.provider_from_config(emb_cfg)
    a = provider.embed_code("int z;")
    b = clone.embed_code("int z;")
    assert np.array_equal(a.pooled, b.pooled)


def test_external_config_is_refused_before_its_vectors_are_opened(tmp_path):
    cfg = {"provider": "external", "path": str(tmp_path / "missing.jsonl"), "L": 4}
    with pytest.raises(UnsupportedEmbedding, match=NO_AD_HOC_CODE):
        persist.provider_from_config(cfg)


def test_unknown_kind_rejected():
    with pytest.raises(persist.PersistError):
        persist.model_to_doc("svm", None, {})


def test_bad_version_rejected():
    with pytest.raises(persist.PersistError):
        persist.model_from_doc({"format_version": 99, "model": "rf"})
