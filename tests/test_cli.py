import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cgrader import persist, pipeline
from cgrader.cli import EXIT_FIT, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from cgrader.corpus import Dataset, Submission, load_dataset, save_dataset, split
from cgrader.embed import TfIdfProvider
from cgrader.kinds import KINDS
from cgrader.neural import CnnRegressor, CnnSpec
from cgrader.synth import Rubric, synthesize_with_plans
from cgrader.tabular import ForestModel, RidgeModel, TreeParams, Trees

SEED_CODE = """\
#include <stdio.h>
int main(void) {
    int total = 0;
    for (int i = 0; i < 10; i++) {
        total = total + i;
    }
    if (total >= 45) {
        printf("%d\\n", total);
    }
    while (total > 0) {
        total = total - 1;
    }
    return 0;
}
"""


@pytest.fixture
def seed_dir(tmp_path):
    d = tmp_path / "seeds"
    d.mkdir()
    (d / "sum.c").write_text(SEED_CODE, encoding="utf-8")
    return d


@pytest.fixture
def corpus_csv(tmp_path):
    seeds = [Submission("sum", SEED_CODE, 10.0)]
    ds, _ = synthesize_with_plans(seeds, 80, Rubric(), np.random.default_rng(0))
    path = tmp_path / "corpus.csv"
    save_dataset(ds, path)
    return path


class TestSynthCommand:
    def test_writes_corpus_and_plans(self, seed_dir, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        plans = tmp_path / "plans.csv"
        code = main([
            "synth", "--seeds", str(seed_dir), "--count", "30",
            "--out", str(out), "--seed", "1", "--plans", str(plans),
        ])
        assert code == EXIT_OK
        ds = load_dataset(out)
        assert len(ds) == 30
        with open(plans, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "kinds"]
        assert len(rows) == 31
        histogram = {}
        for row in ds.rows:
            histogram[row.score] = histogram.get(row.score, 0) + 1
        assert capsys.readouterr().out.splitlines() == [f"wrote 30 rows to {out}"] + [
            f"score {score:g}: {histogram[score]}" for score in sorted(histogram)]

    def test_empty_seed_dir_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "synth", "--seeds", str(empty), "--count", "5",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_USAGE

    def test_deterministic(self, seed_dir, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            main(["synth", "--seeds", str(seed_dir), "--count", "25",
                  "--out", str(path), "--seed", "7"])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrainCommand:
    def test_ridge_end_to_end(self, corpus_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main([
            "train", "--data", str(corpus_csv), "--model", "ridge",
            "--dim", "32", "--seq-len", "8", "--out", str(out), "--seed", "3",
        ])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "train: rmse=" in text and "validation: rmse=" in text
        kind, _, emb = persist.load_model(out)
        assert kind == "ridge"
        assert emb["provider"] == "tfidf"

    def test_failed_fit_leaves_no_model_file(self, corpus_csv, tmp_path, capsys):
        out, grid = tmp_path / "m.json", tmp_path / "grid.json"
        out.write_text('{"old": 1}', encoding="utf-8")
        grid.write_text('{"k": [1000]}', encoding="utf-8")
        code = main(["train", "--data", str(corpus_csv), "--model", "knn",
                     "--dim", "16", "--grid", str(grid), "--out", str(out)])
        assert code == EXIT_FIT
        assert capsys.readouterr().err.startswith("error: fit failed: k=1000")
        assert not out.exists()

    def test_unknown_model_kind_exits_2(self, corpus_csv, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(corpus_csv), "--model", "svm",
                  "--out", str(tmp_path / "m.json")])
        assert err.value.code == 2

    def test_missing_data_exits_2(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--model", "ridge", "--out", str(tmp_path / "m.json")])
        assert code == EXIT_USAGE

    def test_external_without_vectors_exits_2(self, corpus_csv, tmp_path):
        code = main(["train", "--data", str(corpus_csv), "--model", "ridge",
                     "--embedding", "external",
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_USAGE

    def test_constant_scores_train_with_r2_nan(self, corpus_csv, tmp_path, capsys):
        tens = tmp_path / "tens.csv"
        save_dataset(Dataset(tuple(dataclasses.replace(row, score=10.0)
                                   for row in load_dataset(corpus_csv).rows)), tens)
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(tens), "--model", "ridge", "--dim", "16",
                     "--seq-len", "4", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "validation: rmse=" in text and "r2=nan" in text
        assert persist.load_model(out)[0] == "ridge"


def _write_vectors(tmp_path, corpus_csv, lengths, d=6):
    """External vectors for every corpus row; row i's sequence holds
    lengths[i % len(lengths)] vectors, or is left out where that is None."""
    rng = np.random.default_rng(0)
    lines = []
    for i, row in enumerate(load_dataset(corpus_csv).rows):
        record = {"id": row.id, "pooled": rng.normal(size=d).tolist()}
        length = lengths[i % len(lengths)]
        if length is not None:
            record["sequence"] = rng.normal(size=(length, d)).tolist()
        lines.append(json.dumps(record))
    path = tmp_path / "vectors.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


class TestExternalSequences:
    """External sequences reach the nets, padded or cut to --seq-len."""

    @staticmethod
    def train(tmp_path, corpus_csv, model, vectors):
        return main(["train", "--data", str(corpus_csv), "--model", model,
                     "--embedding", "external", "--vectors", str(vectors),
                     "--seq-len", "8", "--max-epochs", "2",
                     "--out", str(tmp_path / f"{model}.json")])

    @pytest.mark.parametrize("model", ["cnn", "lstm"])
    def test_nets_train_on_sequences_shorter_and_longer_than_seq_len(
            self, model, tmp_path, corpus_csv, capsys):
        vectors = _write_vectors(tmp_path, corpus_csv, [3, 8, 20])
        assert self.train(tmp_path, corpus_csv, model, vectors) == EXIT_OK
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("validation: "))
        values = [float(field.split("=")[1]) for field in line.split()[1:]]
        assert len(values) == 4 and all(map(math.isfinite, values)), line
        assert persist.load_model(tmp_path / f"{model}.json")[0] == model

    def test_a_row_without_a_sequence_leaves_only_the_pooled_models(
            self, tmp_path, corpus_csv, capsys):
        vectors = _write_vectors(tmp_path, corpus_csv, [3, None, 20])
        assert self.train(tmp_path, corpus_csv, "ridge", vectors) == EXIT_OK
        capsys.readouterr()
        assert self.train(tmp_path, corpus_csv, "cnn", vectors) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: embedding provider supplies no token sequences\n")
        assert not (tmp_path / "cnn.json").exists()

    def test_a_net_without_sequences_removes_an_earlier_model_file(
            self, tmp_path, corpus_csv):
        vectors = _write_vectors(tmp_path, corpus_csv, [3, None, 20])
        (tmp_path / "cnn.json").write_text('{"old": 1}', encoding="utf-8")
        assert self.train(tmp_path, corpus_csv, "cnn", vectors) == EXIT_USAGE
        assert not (tmp_path / "cnn.json").exists()


# One settings set, given once as an experiment config and once as train flags.
SAME_RUN = {"dim": 16, "seq_len": 8, "seed": 2, "max_epochs": 2,
            "rf_grid": {"n_trees": [10], "max_depth": [4]}}


@pytest.fixture(scope="module")
def experiment_run(tmp_path_factory):
    """A corpus like `corpus_csv` and the model files of one experiment on it."""
    work = tmp_path_factory.mktemp("same-run")
    seeds = [Submission("sum", SEED_CODE, 10.0)]
    ds, _ = synthesize_with_plans(seeds, 80, Rubric(), np.random.default_rng(0))
    save_dataset(ds, work / "corpus.csv")
    (work / "rf-grid.json").write_text(json.dumps(SAME_RUN["rf_grid"]), encoding="utf-8")
    config = {
        "data": str(work / "corpus.csv"),
        "output": {"report": str(work / "report.csv"),
                   "curves": str(work / "curves.csv"),
                   "models_dir": str(work / "models")},
        "embedding": {"dim": SAME_RUN["dim"], "seq_len": SAME_RUN["seq_len"]},
        "split": {"seed": SAME_RUN["seed"]},
        "train": {"max_epochs": SAME_RUN["max_epochs"]},
        "models": {"rf": {"grid": SAME_RUN["rf_grid"]}},
    }
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", str(work / "config.json")]) == EXIT_OK
    return work


@pytest.mark.parametrize("kind", list(KINDS))
def test_train_writes_the_experiments_model_file(experiment_run, kind):
    out = experiment_run / f"train-{kind}.json"
    grid = ["--grid", str(experiment_run / "rf-grid.json")] if kind == "rf" else []
    assert main(["train", "--data", str(experiment_run / "corpus.csv"), "--model", kind,
                 "--dim", str(SAME_RUN["dim"]), "--seq-len", str(SAME_RUN["seq_len"]),
                 "--seed", str(SAME_RUN["seed"]),
                 "--max-epochs", str(SAME_RUN["max_epochs"]),
                 "--out", str(out), *grid]) == EXIT_OK
    assert out.read_bytes() == (experiment_run / "models" / f"{kind}.json").read_bytes()


class TestGradeCommand:
    def test_constant_model_prints_constant(self, tmp_path, capsys):
        provider = TfIdfProvider.fit([SEED_CODE], d=16, L=4)
        head = ForestModel(Trees.from_nodes([0], [(-1, 0.0, 0, 0, 7.0)]), TreeParams())
        path = tmp_path / "const.json"
        persist.save_model(path, "rf", head, provider.config())
        src = tmp_path / "prog.c"
        src.write_text(SEED_CODE, encoding="utf-8")
        code = main(["grade", "--model", str(path), "--code", str(src)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "7.00"

    def test_missing_model_exits_2(self, tmp_path):
        code = main(["grade", "--model", str(tmp_path / "nope.json"),
                     "--code", str(tmp_path / "nope.c")])
        assert code == EXIT_USAGE


class TestExperimentCommand:
    def make_config(self, tmp_path, corpus_csv, **overrides):
        doc = {
            "data": str(corpus_csv),
            "output": {
                "report": str(tmp_path / "report.csv"),
                "curves": str(tmp_path / "curves.csv"),
                "models_dir": str(tmp_path / "models"),
            },
            "embedding": {"provider": "tfidf", "dim": 32, "seq_len": 8},
            "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
            "train": {"max_epochs": 2, "batch_size": 16, "patience": 2},
            "models": {
                "rf": {"grid": {"max_depth": [4]}},
                "ridge": {"grid": {"lambda": [1.0]}},
                "knn": {"grid": {"k": [3]}},
                "gbt": {"grid": {"n_rounds": [5], "learning_rate": [0.1],
                                 "max_depth": [2]}},
            },
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path, doc

    def test_full_run_report_shape(self, tmp_path, corpus_csv):
        path, doc = self.make_config(tmp_path, corpus_csv)
        assert main(["experiment", "--config", str(path)]) == EXIT_OK
        with open(doc["output"]["report"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "split", "rmse", "mae", "r2", "mape"]
        assert len(rows) == 17  # 8 models x 2 splits
        assert [r[0] for r in rows[1:]] == [
            k for k in KINDS for _ in range(2)
        ]
        with open(doc["output"]["curves"], encoding="utf-8", newline="") as fh:
            curve_rows = list(csv.reader(fh))
        assert curve_rows[0] == ["model", "epoch", "train_loss", "val_loss"]
        assert {r[0] for r in curve_rows[1:]} == {"cnn", "lstm", "cnn_rf", "lstm_rf"}
        models_dir = tmp_path / "models"
        assert sorted(p.stem for p in models_dir.glob("*.json")) == sorted(KINDS)

    def test_hybrids_reuse_the_trained_net(self, tmp_path, corpus_csv):
        path, doc = self.make_config(tmp_path, corpus_csv)
        assert main(["experiment", "--config", str(path)]) == EXIT_OK
        docs = {kind: json.loads((tmp_path / "models" / f"{kind}.json").read_text())
                for kind in ("cnn", "lstm", "cnn_rf", "lstm_rf")}
        for net, hybrid in (("cnn", "cnn_rf"), ("lstm", "lstm_rf")):
            assert docs[hybrid]["state"]["net"] == {
                "params": docs[net]["params"], "state": docs[net]["state"]}
        # `train --model cnn_rf` trains the same net as `train --model cnn`.
        outputs = {}
        for kind in ("cnn", "cnn_rf"):
            out = tmp_path / f"train-{kind}.json"
            assert main(["train", "--data", str(corpus_csv), "--model", kind,
                         "--dim", "32", "--seq-len", "8", "--max-epochs", "2",
                         "--seed", "4", "--out", str(out)]) == EXIT_OK
            outputs[kind] = json.loads(out.read_text())
        assert outputs["cnn_rf"]["state"]["net"] == {
            "params": outputs["cnn"]["params"], "state": outputs["cnn"]["state"]}

    def test_failed_net_named_in_its_hybrid_error(self, tmp_path, corpus_csv):
        # Sequences shorter than the CNN kernel fail the CNN; the LSTM trains.
        path, doc = self.make_config(
            tmp_path, corpus_csv,
            embedding={"provider": "tfidf", "dim": 32, "seq_len": 2})
        assert main(["experiment", "--config", str(path)]) == EXIT_PARTIAL
        with open(doc["output"]["report"], encoding="utf-8", newline="") as fh:
            rows = {(r["model"], r["split"]): r for r in csv.DictReader(fh)}
        cnn_error = rows[("cnn", "")]["error"]
        assert "shorter than kernel" in cnn_error
        assert rows[("cnn_rf", "")]["error"] == f"base net cnn failed: {cnn_error}"
        assert rows[("lstm_rf", "test")]["error"] == ""

    def test_failed_kind_leaves_no_model_file(self, tmp_path, corpus_csv):
        models = tmp_path / "models"
        models.mkdir()
        (models / "knn.json").write_text("{}", encoding="utf-8")  # an earlier run's
        path, doc = self.make_config(tmp_path, corpus_csv)
        doc["models"]["knn"] = {"grid": {"k": [1000]}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["experiment", "--config", str(path)]) == EXIT_PARTIAL
        assert sorted(p.stem for p in models.glob("*.json")) == sorted(set(KINDS) - {"knn"})

    def test_a_net_that_fails_to_save_fails_alone(self, tmp_path, corpus_csv,
                                                  monkeypatch, capsys):
        models = tmp_path / "models"
        models.mkdir()
        (models / "cnn.json").write_text("{}", encoding="utf-8")  # an earlier run's
        save_model = persist.save_model

        def failing_for_cnn(path, kind, *rest):
            if kind == "cnn":
                raise OSError(f"disk full writing {path}")
            save_model(path, kind, *rest)

        monkeypatch.setattr(persist, "save_model", failing_for_cnn)
        path, doc = self.make_config(tmp_path, corpus_csv)
        assert main(["experiment", "--config", str(path)]) == EXIT_PARTIAL
        assert capsys.readouterr().err.splitlines() == [
            f"error: cnn: disk full writing {models / 'cnn.json'}"]
        with open(doc["output"]["report"], encoding="utf-8", newline="") as fh:
            rows = {(r["model"], r["split"]): r for r in csv.DictReader(fh)}
        assert rows[("cnn", "")]["error"] == f"disk full writing {models / 'cnn.json'}"
        assert rows[("cnn_rf", "test")]["error"] == ""
        assert sorted(p.stem for p in models.glob("*.json")) == sorted(set(KINDS) - {"cnn"})
        (tmp_path / "prog.c").write_text(SEED_CODE, encoding="utf-8")
        assert main(["grade", "--model", str(models / "cnn_rf.json"),
                     "--code", str(tmp_path / "prog.c")]) == EXIT_OK

    def test_missing_report_dir_exits_2_before_the_corpus_is_read(self, tmp_path,
                                                                  capsys):
        path, _ = self.make_config(
            tmp_path, tmp_path / "no-corpus.csv",
            output={"report": str(tmp_path / "missing" / "report.csv"),
                    "curves": str(tmp_path / "curves.csv"),
                    "models_dir": str(tmp_path / "models")})
        assert main(["experiment", "--config", str(path)]) == EXIT_USAGE
        assert "no directory to write" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()

    def test_outputs_may_go_in_the_folder_made_for_models_dir(self, tmp_path,
                                                             corpus_csv):
        run = tmp_path / "run"
        path, _ = self.make_config(tmp_path, corpus_csv,
                                   output={"report": str(run / "report.csv"),
                                           "curves": str(run / "curves.csv"),
                                           "models_dir": str(run / "models")})
        assert main(["experiment", "--config", str(path)]) == EXIT_OK
        assert (run / "report.csv").exists() and (run / "models" / "rf.json").exists()

    def test_zero_scores_are_valid(self, tmp_path, corpus_csv):
        ds = load_dataset(corpus_csv)
        rows = tuple(dataclasses.replace(row, score=0.0) if i % 4 == 0 else row
                     for i, row in enumerate(ds.rows))
        zero_csv = tmp_path / "zeros.csv"
        save_dataset(Dataset(rows), zero_csv)
        parts = split(load_dataset(zero_csv), (0.5, 0.25, 0.25), 0)
        assert 0.0 in parts.train.scores() and 0.0 in parts.test.scores()
        path, doc = self.make_config(tmp_path, zero_csv)
        assert main(["experiment", "--config", str(path)]) == EXIT_OK
        with open(doc["output"]["report"], encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            assert "error" not in reader.fieldnames
            assert len(list(reader)) == 16

    def test_unknown_vector_key_exits_2(self, tmp_path, corpus_csv):
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(
            "\n".join(json.dumps({"id": row.id, "pooled": [1.0, 2.0],
                                  "tokens": [[1.0, 2.0]]})
                      for row in load_dataset(corpus_csv).rows),
            encoding="utf-8")
        assert main(["train", "--data", str(corpus_csv), "--model", "ridge",
                     "--embedding", "external", "--vectors", str(vectors),
                     "--out", str(tmp_path / "m.json")]) == EXIT_USAGE
        path, _ = self.make_config(
            tmp_path, corpus_csv,
            embedding={"provider": "external", "vectors": str(vectors)})
        assert main(["experiment", "--config", str(path)]) == EXIT_USAGE

    def test_unknown_config_key_exits_2(self, tmp_path, corpus_csv):
        path, _ = self.make_config(tmp_path, corpus_csv, extra="oops")
        assert main(["experiment", "--config", str(path)]) == EXIT_USAGE

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["experiment", "--config", str(tmp_path / "no.json")]) \
            == EXIT_USAGE


README = Path(__file__).resolve().parent.parent / "README.md"


class TestConfigParsing:
    def test_readme_config_loads(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("### Experiment config"):]
        block = section[section.index("```json") + len("```json"):]
        doc = json.loads(block[:block.index("```")])
        cfg = pipeline.ExperimentConfig.from_dict(doc, base_dir="/cfg")
        assert cfg.data == "/cfg/corpus.csv"
        assert cfg.embedding_seq_len == 16
        assert cfg.grids["knn"] == {"grid": {"k": [3, 5, 7]}}
        assert cfg.train.patience == 5

    @pytest.mark.parametrize("section, value", [
        ("embedding", {"dim": "256"}),
        ("split", {"ratios": [0.5, "0.25", 0.25]}),
        ("split", {"seed": True}),
        ("train", {"learning_rate": [0.1]}),
        ("models", {"rf": {"grid": {"max_depth": 8}}}),
        ("models", {"knn": {"params": 3}}),
    ])
    def test_wrongly_typed_values_rejected(self, section, value):
        with pytest.raises(pipeline.ConfigError):
            pipeline.ExperimentConfig.from_dict({
                "data": "d.csv",
                "output": {"report": "r", "curves": "c", "models_dir": "m"},
                section: value,
            })

    def test_unknown_model_name_rejected(self):
        with pytest.raises(pipeline.ConfigError):
            pipeline.ExperimentConfig.from_dict({
                "data": "d.csv",
                "output": {"report": "r", "curves": "c", "models_dir": "m"},
                "models": {"svm": {}},
            })

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(pipeline.ConfigError):
            pipeline.ExperimentConfig.from_dict({
                "data": "d.csv",
                "output": {"report": "r", "curves": "c", "models_dir": "m"},
                "embedding": {"window": 5},
            })

    def test_defaults(self):
        cfg = pipeline.ExperimentConfig.from_dict({
            "data": "d.csv",
            "output": {"report": "r", "curves": "c", "models_dir": "m"},
        })
        assert cfg.embedding_provider == "tfidf"
        assert cfg.split_ratios == (0.5, 0.25, 0.25)
        assert cfg.train.max_epochs == 50
        assert cfg.train.batch_size == 64


def _experiment_config(tmp_path, corpus_csv, **overrides):
    doc = {
        "data": str(corpus_csv),
        "output": {"report": str(tmp_path / "report.csv"),
                   "curves": str(tmp_path / "curves.csv"),
                   "models_dir": str(tmp_path / "models")},
        "embedding": {"provider": "tfidf", "dim": 16, "seq_len": 4},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _ridge_doc(d=16, **overrides):
    """A valid ridge model document over a `d`-bucket TF-IDF."""
    provider = TfIdfProvider.fit([SEED_CODE], d=d, L=4)
    model = RidgeModel(np.zeros(d), 5.0, 1.0)
    doc = persist.model_to_doc("ridge", model, provider.config())
    doc.update(overrides)
    return doc


MODEL_FAULTS = {  # case -> the fields that break a valid ridge model document
    "model_format_1": {"format_version": 1},
    "model_kind_unknown": {"model": "svm"},
    "model_provider_unknown": {"embedding": {"provider": "nope"}},
    "model_params_malformed": {"params": {"lambda": "x"}},
}


GRID_FAULTS = {  # case -> (kind, a grid holding a value of the wrong JSON type)
    "grid_k_boolean": ("knn", {"k": [True]}),
    "grid_k_fraction": ("knn", {"k": [2.5]}),
    "grid_max_depth_string": ("gbt", {"max_depth": ["a"]}),
    "config_grid_k_boolean": ("knn", {"k": [True]}),
    "config_grid_k_fraction": ("knn", {"k": [2.5]}),
    "config_grid_max_depth_string": ("gbt", {"max_depth": ["a"]}),
}


CONFIG_VALUE_FAULTS = {  # case -> the config sections that break it
    "config_split_two_ratios": {"split": {"ratios": [0.5, 0.5]}},
    "config_split_ratios_sum_above_1": {"split": {"ratios": [0.5, 0.5, 0.5]}},
    "config_seq_len_negative": {"embedding": {"provider": "tfidf", "dim": 16,
                                              "seq_len": -1}},
    "config_external_without_vectors": {"embedding": {"provider": "external"}},
}


UNFIT_MODELS = {  # case -> the start of its error line, after the model file's name
    "model_ridge_d_unfit": "matmul: ",
    "model_rf_d_unfit": "index 100 is out of bounds",
    "model_cnn_L_unfit": "expected (batch, 16, 16), got (1, 32, 16)",
    "model_bias_nan": "the model predicts a non-finite score",
}


def _unfit_model_doc(case):
    """A model document that loads, but whose model fails on the embedding of a file."""
    if case == "model_ridge_d_unfit":  # 256 weights for 128 buckets
        return _ridge_doc(d=256, embedding=TfIdfProvider.fit([SEED_CODE], d=128,
                                                             L=4).config())
    if case == "model_bias_nan":
        doc = _ridge_doc()
        doc["state"]["bias"] = float("nan")
        return doc
    if case == "model_rf_d_unfit":  # a split on feature 100 of 64
        trees = Trees.from_nodes([0], [(100, 0.5, 1, 2, 0.0), (-1, 0.0, 1, 1, 1.0),
                                       (-1, 0.0, 2, 2, 2.0)])
        return persist.model_to_doc("rf", ForestModel(trees, TreeParams()),
                                    TfIdfProvider.fit([SEED_CODE], d=64, L=4).config())
    net = CnnRegressor(CnnSpec(), 16, 16, seed=0)  # 16 tokens in, for an L of 32
    return persist.model_to_doc("cnn", net,
                                TfIdfProvider.fit([SEED_CODE], d=16, L=32).config())


def _bad_input_argv(case, tmp_path, corpus_csv):
    missing = tmp_path / "missing-dir"
    program = tmp_path / "prog.c"
    program.write_text(SEED_CODE, encoding="utf-8")
    model = tmp_path / "model.json"
    if case == "synth_out_in_missing_dir":
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "sum.c").write_text(SEED_CODE, encoding="utf-8")
        return ["synth", "--seeds", str(seeds), "--count", "5",
                "--out", str(missing / "corpus.csv")]
    if case == "train_out_in_missing_dir":
        return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                "--seq-len", "4", "--out", str(missing / "model.json")]
    if case == "train_out_is_a_directory":
        (tmp_path / "outdir").mkdir()
        return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                "--seq-len", "4", "--out", str(tmp_path / "outdir")]
    if case in ("experiment_model_path_is_a_directory",
                "experiment_models_dir_is_a_file"):
        models = tmp_path / "old-models"
        if case == "experiment_models_dir_is_a_file":
            models.write_text("", encoding="utf-8")
        else:
            (models / "ridge.json").mkdir(parents=True)
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv,
            output={"report": str(tmp_path / "report.csv"),
                    "curves": str(tmp_path / "curves.csv"), "models_dir": str(models)})]
    if case == "config_not_json":
        (tmp_path / "config.json").write_text('{"data":\n', encoding="utf-8")
        return ["experiment", "--config", str(tmp_path / "config.json")]
    if case == "grid_not_json":
        (tmp_path / "grid.json").write_text('{"k":\n', encoding="utf-8")
        return ["train", "--data", str(corpus_csv), "--model", "knn", "--dim", "16",
                "--seq-len", "4", "--grid", str(tmp_path / "grid.json"),
                "--out", str(model)]
    if case in GRID_FAULTS:
        kind, grid = GRID_FAULTS[case]
        if case.startswith("config_"):
            return ["experiment", "--config", _experiment_config(
                tmp_path, corpus_csv, models={kind: {"grid": grid}})]
        (tmp_path / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
        return ["train", "--data", str(corpus_csv), "--model", kind, "--dim", "16",
                "--seq-len", "4", "--grid", str(tmp_path / "grid.json"),
                "--out", str(model)]
    if case in CONFIG_VALUE_FAULTS:
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv, **CONFIG_VALUE_FAULTS[case])]
    if case in MODEL_FAULTS:  # one of several model files a script grades with
        graded = tmp_path / f"{case}.json"
        graded.write_text(json.dumps(_ridge_doc(**MODEL_FAULTS[case])), encoding="utf-8")
        return ["grade", "--model", str(graded), "--code", str(program)]
    if case == "experiment_missing_data":
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv, data=str(tmp_path / "nope.csv"))]
    if case == "experiment_report_in_missing_dir":
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv,
            output={"report": str(missing / "report.csv"),
                    "curves": str(tmp_path / "curves.csv"),
                    "models_dir": str(tmp_path / "models")})]
    if case == "experiment_vectors_lack_an_id":
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text(
            "\n".join(json.dumps({"id": row.id, "pooled": [1.0, 2.0]})
                      for row in load_dataset(corpus_csv).rows[:-1]),
            encoding="utf-8")
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv,
            embedding={"provider": "external", "vectors": str(vectors)})]
    if case == "config_data_is_a_number":
        return ["experiment", "--config", _experiment_config(tmp_path, corpus_csv,
                                                              data=5)]
    if case == "config_output_is_a_number":
        return ["experiment", "--config", _experiment_config(tmp_path, corpus_csv,
                                                              output=5)]
    if case in ("config_nested_too_deep", "grid_nested_too_deep"):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        if case == "config_nested_too_deep":
            return ["experiment", "--config", str(deep)]
        return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                "--seq-len", "4", "--grid", str(deep), "--out", str(model)]
    if case in ("seq_len_too_large", "seq_len_negative"):
        seq_len = "1000000000000" if case == "seq_len_too_large" else "-5"
        return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "8",
                "--seq-len", seq_len, "--out", str(model)]
    if case in ("train_seed_negative", "split_not_numbers"):
        bad = ["--seed", "-1"] if case == "train_seed_negative" else ["--split", "a,b,c"]
        return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                "--seq-len", "4", *bad, "--out", str(model)]
    if case == "synth_seed_negative":
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "sum.c").write_text(SEED_CODE, encoding="utf-8")
        return ["synth", "--seeds", str(seeds), "--count", "5", "--seed", "-1",
                "--out", str(tmp_path / "synth.csv")]
    if case == "config_split_seed_negative":
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv, split={"seed": -1})]
    if case == "dim_too_large":  # 8e18 bytes: more than any address space holds
        return ["train", "--data", str(corpus_csv), "--model", "ridge",
                "--dim", str(10**18), "--seq-len", "4", "--out", str(model)]
    if case == "config_dim_too_large":
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv, embedding={"provider": "tfidf", "dim": 10**18})]
    if case in ("learning_rate_negative", "learning_rate_nan"):
        rate = "-1" if case == "learning_rate_negative" else "nan"
        return ["train", "--data", str(corpus_csv), "--model", "cnn", "--dim", "16",
                "--seq-len", "4", "--learning-rate", rate, "--out", str(model)]
    if case in ("config_learning_rate_negative", "config_learning_rate_infinite"):
        rate = -1.0 if case == "config_learning_rate_negative" else float("inf")
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv, train={"learning_rate": rate})]
    if case == "config_unknown_key":
        return ["experiment", "--config", _experiment_config(tmp_path, corpus_csv,
                                                              train={"seed": 1})]
    if case == "synth_seed_not_utf8":
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "sum.c").write_bytes(b"int main(void) { return 0; } /* \xff */\n")
        return ["synth", "--seeds", str(seeds), "--count", "5",
                "--out", str(tmp_path / "synth.csv")]
    if case == "vectors_not_utf8":
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_bytes(b'{"id": "\xff", "pooled": [1.0]}\n')
        return ["train", "--data", str(corpus_csv), "--model", "ridge",
                "--embedding", "external", "--vectors", str(vectors), "--seq-len", "4",
                "--out", str(model)]
    if case in ("tfidf_vectors_unread", "config_tfidf_vectors_unread",
                "config_tfidf_vectors_empty"):
        vectors = "" if case == "config_tfidf_vectors_empty" else str(tmp_path / "nope.jsonl")
        if case == "tfidf_vectors_unread":
            return ["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                    "--seq-len", "4", "--vectors", vectors, "--out", str(model)]
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv,
            embedding={"provider": "tfidf", "dim": 16, "vectors": vectors})]
    if case == "config_external_dim_unread":
        return ["experiment", "--config", _experiment_config(
            tmp_path, corpus_csv,
            embedding={"provider": "external", "dim": 16,
                       "vectors": str(tmp_path / "vectors.jsonl")})]
    if case == "train_external_dim_unread":  # vectors that would train without --dim
        vectors = _write_vectors(tmp_path, corpus_csv, [None], d=2)
        return ["train", "--data", str(corpus_csv), "--model", "ridge",
                "--embedding", "external", "--vectors", str(vectors),
                "--dim", "3", "--seq-len", "4", "--out", str(model)]
    if case == "code_not_utf8":
        program.write_bytes(b"int main(void) { return 0; } /* \xff */\n")
        graded = tmp_path / "graded.json"
        graded.write_text(json.dumps(_ridge_doc()), encoding="utf-8")
        return ["grade", "--model", str(graded), "--code", str(program)]
    if case in UNFIT_MODELS:
        model.write_text(json.dumps(_unfit_model_doc(case)), encoding="utf-8")
    elif case == "model_params_is_a_list":
        model.write_text(json.dumps(_ridge_doc(params=[])), encoding="utf-8")
    elif case == "model_is_a_list":
        model.write_text(json.dumps([_ridge_doc()]), encoding="utf-8")
    elif case == "model_nested_too_deep":
        model.write_text("[" * 100_000, encoding="utf-8")
    elif case == "model_feature_is_negative":  # an inner node with feature -1
        trees = Trees.from_nodes([0], [(-1, 0.5, 1, 2, 0.0), (-1, 0.0, 1, 1, 1.0),
                                       (-1, 0.0, 2, 2, 2.0)])
        doc = persist.model_to_doc("rf", ForestModel(trees, TreeParams()),
                                   _ridge_doc()["embedding"])
        model.write_text(json.dumps(doc), encoding="utf-8")
    elif case == "model_L_too_large":  # L int32 ids, 4e15 bytes: beyond any address space
        doc = _ridge_doc(d=256)
        doc["embedding"]["L"] = 10**15
        model.write_text(json.dumps(doc), encoding="utf-8")
    return ["grade", "--model", str(model), "--code", str(program)]


INPUT_ERRORS = [
    "synth_out_in_missing_dir",
    "train_out_in_missing_dir",
    "experiment_missing_data",
    "experiment_report_in_missing_dir",
    "experiment_vectors_lack_an_id",
    "config_data_is_a_number",
    "config_output_is_a_number",
    "model_params_is_a_list",
    "model_is_a_list",
    "model_nested_too_deep",
    "config_nested_too_deep",
    "grid_nested_too_deep",
    "seq_len_too_large",
    "seq_len_negative",
    "model_feature_is_negative",
    "model_L_too_large",
    "dim_too_large",
    "config_dim_too_large",
    "learning_rate_negative",
    "learning_rate_nan",
    "config_learning_rate_negative",
    "config_learning_rate_infinite",
    "train_seed_negative",
    "synth_seed_negative",
    "config_split_seed_negative",
    "split_not_numbers",
    "train_out_is_a_directory",
    "experiment_model_path_is_a_directory",
    "experiment_models_dir_is_a_file",
    "config_not_json",
    "grid_not_json",
    "config_unknown_key",
    "synth_seed_not_utf8",
    "vectors_not_utf8",
    "code_not_utf8",
    "tfidf_vectors_unread",
    "config_tfidf_vectors_unread",
    "config_tfidf_vectors_empty",
    "config_external_dim_unread",
    "train_external_dim_unread",
    *GRID_FAULTS,
    *MODEL_FAULTS,
    *UNFIT_MODELS,
]


class TestInputErrors:
    """Every input error exits 2 with exactly one `error:` line on stderr."""

    @pytest.mark.parametrize("case", INPUT_ERRORS)
    def test_exits_2_with_one_error_line(self, case, tmp_path, corpus_csv, capsys):
        argv = _bad_input_argv(case, tmp_path, corpus_csv)
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("case, words", [
        ("seq_len_too_large", ["seq_len", "bytes"]),
        ("seq_len_negative", ["seq_len"]),
        ("model_L_too_large", ["L 1000000000000000", "4,000,000,000,000,000 bytes"]),
    ])
    def test_seq_len_errors_name_seq_len(self, case, words, tmp_path, corpus_csv, capsys):
        assert main(_bad_input_argv(case, tmp_path, corpus_csv)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(word in err for word in words), err

    @pytest.mark.parametrize("case, words", [
        ("dim_too_large", ["dim 1000000000000000000", "8,000,000,000,000,000,000 bytes"]),
        ("config_dim_too_large", ["dim 1000000000000000000", "bytes"]),
        ("learning_rate_negative", ["learning_rate", "-1"]),
        ("learning_rate_nan", ["learning_rate", "nan"]),
        ("config_learning_rate_negative", ["learning_rate", "-1"]),
        ("config_learning_rate_infinite", ["learning_rate", "inf"]),
        ("train_seed_negative", ["--seed", "-1"]),
        ("synth_seed_negative", ["--seed", "-1"]),
        ("config_split_seed_negative", ["split.seed", "-1"]),
        ("split_not_numbers", ["--split", "a,b,c"]),
        ("experiment_report_in_missing_dir", ["no directory to write", "report.csv"]),
        ("train_out_is_a_directory", ["outdir: it is a directory"]),
        ("experiment_model_path_is_a_directory",
         ["old-models/ridge.json: it is a directory"]),
        ("experiment_models_dir_is_a_file", ["old-models: a file is there"]),
        ("config_not_json", ["config.json: Expecting value: line 2"]),
        ("grid_not_json", ["grid.json: Expecting value: line 2"]),
        ("model_format_1", ["model_format_1.json: model format_version 1 is not read"]),
        ("model_kind_unknown", ["model_kind_unknown.json: unknown model kind 'svm'"]),
        ("model_provider_unknown",
         ["model_provider_unknown.json: unknown embedding provider 'nope'"]),
        ("model_params_malformed",
         ["model_params_malformed.json: malformed ridge model: ValueError"]),
        ("config_unknown_key", ["config.json: unknown key 'seed' in train"]),
        ("synth_seed_not_utf8", ["sum.c: 'utf-8' codec can't decode byte 0xff"]),
        ("vectors_not_utf8", ["vectors.jsonl: line 1: 'utf-8' codec can't decode byte 0xff"]),
        ("code_not_utf8", ["prog.c: 'utf-8' codec can't decode byte 0xff"]),
        ("tfidf_vectors_unread", ["nope.jsonl is not read by the tfidf provider"]),
        ("config_tfidf_vectors_unread", ["nope.jsonl is not read by the tfidf provider"]),
        ("config_tfidf_vectors_empty", ["is not read by the tfidf provider"]),
        ("config_external_dim_unread",
         ["config.json: embedding.dim is not read by the external provider"]),
        ("train_external_dim_unread", ["--dim is not read by the external provider"]),
        ("grid_k_boolean", ["--grid", "grid.json.k[0] must be an integer"]),
        ("grid_k_fraction", ["--grid", "grid.json.k[0] must be an integer"]),
        ("grid_max_depth_string",
         ["--grid", "grid.json.max_depth[0] must be an integer or null"]),
        ("config_grid_k_boolean",
         ["config.json: models.knn.grid.k[0] must be an integer"]),
        ("config_grid_k_fraction",
         ["config.json: models.knn.grid.k[0] must be an integer"]),
        ("config_grid_max_depth_string",
         ["config.json: models.gbt.grid.max_depth[0] must be an integer or null"]),
        ("config_split_two_ratios",
         ["config.json: expected three split ratios, got (0.5, 0.5)"]),
        ("config_split_ratios_sum_above_1",
         ["config.json: split ratios must sum to 1, got (0.5, 0.5, 0.5)"]),
        ("config_seq_len_negative", ["config.json: seq_len must be >= 0, got -1"]),
        ("config_external_without_vectors",
         ["config.json: external provider needs a vectors path"]),
    ])
    def test_dim_and_rate_errors_name_the_input(self, case, words, tmp_path, corpus_csv,
                                                lexed, capsys):
        argv = _bad_input_argv(case, tmp_path, corpus_csv)
        lexed.clear()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert not (tmp_path / "models").exists() and not (tmp_path / "model.json").exists()
        assert lexed == []  # each error comes before any work

    @pytest.mark.parametrize("case", list(UNFIT_MODELS))
    def test_model_that_does_not_fit_its_embedding_names_its_file(self, case, tmp_path,
                                                                  corpus_csv, capsys):
        assert main(_bad_input_argv(case, tmp_path, corpus_csv)) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {tmp_path / 'model.json'}: {UNFIT_MODELS[case]}")

    def test_valid_model_still_grades(self, tmp_path, corpus_csv, capsys):
        argv = _bad_input_argv("valid_model", tmp_path, corpus_csv)
        (tmp_path / "model.json").write_text(json.dumps(_ridge_doc()), encoding="utf-8")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.strip() == "5.00"

    def test_missing_output_dir_names_the_given_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "report.csv"
        with pytest.raises(FileNotFoundError) as err:
            persist.atomic_write_text(target, "x")
        assert err.value.filename == str(target)
        assert ".tmp-" not in str(err.value)

    def test_train_checks_its_output_folder_before_any_work(self, tmp_path, corpus_csv,
                                                            lexed, capsys):
        out = tmp_path / "missing" / "m.json"
        made = sorted(tmp_path.rglob("*"))
        lexed.clear()
        assert main(["train", "--data", str(corpus_csv), "--model", "ridge", "--dim", "16",
                     "--seq-len", "4", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: no directory to write {out}"]
        assert lexed == [] and sorted(tmp_path.rglob("*")) == made

    def test_synth_checks_its_plans_folder_before_writing_the_corpus(self, seed_dir,
                                                                     tmp_path, capsys):
        out, plans = tmp_path / "corpus.csv", tmp_path / "missing" / "plans.csv"
        assert main(["synth", "--seeds", str(seed_dir), "--count", "5", "--out", str(out),
                     "--plans", str(plans)]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: no directory to write {plans}"]
        assert sorted(tmp_path.rglob("*")) == [seed_dir, seed_dir / "sum.c"]

    def test_train_seed_is_an_unknown_key(self, tmp_path, corpus_csv, capsys):
        config = _experiment_config(tmp_path, corpus_csv, train={"seed": 5})
        assert main(["experiment", "--config", config]) == EXIT_USAGE
        assert "unknown key 'seed' in train" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("kind, where, key", [
        ("gbt", "grid", "max_dpeth"),
        ("gbt", "params", "max_dpeth"),
        ("lstm_rf", "params", "n_trees"),  # the nets and hybrids take no keys
    ])
    def test_unknown_param_key_in_config_exits_2(self, kind, where, key, tmp_path,
                                                 corpus_csv, capsys):
        value = [3] if where == "grid" else 3
        config = _experiment_config(tmp_path, corpus_csv,
                                    models={kind: {where: {key: value}}})
        assert main(["experiment", "--config", config]) == EXIT_USAGE
        assert f"unknown key {key!r} in models.{kind}.{where}" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()  # before any model trains

    @pytest.mark.parametrize("kind, key", [("gbt", "max_dpeth"), ("cnn", "units")])
    def test_unknown_grid_key_in_train_exits_2(self, kind, key, tmp_path, corpus_csv,
                                               capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({key: [3]}), encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(corpus_csv), "--model", kind, "--dim", "16",
                     "--seq-len", "4", "--grid", str(grid), "--out", str(out)]) \
            == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"unknown key {key!r} in --grid {grid}" in captured.err
        assert "params:" not in captured.out and not out.exists()

    def test_bad_grid_file_exits_2(self, tmp_path, corpus_csv):
        grid = tmp_path / "grid.json"
        grid.write_text("[1, 2]", encoding="utf-8")
        assert main(["train", "--data", str(corpus_csv), "--model", "ridge",
                     "--grid", str(grid), "--out", str(tmp_path / "m.json")]) \
            == EXIT_USAGE

    def test_train_reads_its_grid_before_the_corpus(self, tmp_path, capsys):
        grid, data = tmp_path / "nope.json", tmp_path / "missing.csv"
        assert main(["train", "--data", str(data), "--model", "ridge",
                     "--grid", str(grid), "--out", str(tmp_path / "m.json")]) \
            == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(grid) in err[0] and str(data) not in err[0], err

    @pytest.mark.parametrize("model, grid, names", [
        ("knn", {"k": [1000]}, "k=1000"),
        ("gbt", {"n_rounds": [-3]}, "n_rounds"),
        ("rf", {"max_depth": [-1]}, "max_depth"),
    ], ids=["knn_k", "gbt_n_rounds", "rf_max_depth"])
    def test_fit_failure_still_exits_3(self, model, grid, names, tmp_path, corpus_csv,
                                       capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert main(["train", "--data", str(corpus_csv), "--model", model,
                     "--dim", "16", "--grid", str(path),
                     "--out", str(tmp_path / "m.json")]) == EXIT_FIT
        err = capsys.readouterr().err
        assert err.startswith("error: fit failed: ") and names in err, err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("k, code", [(40, EXIT_OK), (41, EXIT_FIT)])
    def test_one_point_grid_is_bounded_by_the_train_part(self, k, code, tmp_path,
                                                          corpus_csv, capsys):
        # 80 rows leave 40 to train on, and 32 in each CV fold's train part
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"k": [k]}), encoding="utf-8")
        assert main(["train", "--data", str(corpus_csv), "--model", "knn",
                     "--dim", "16", "--grid", str(grid),
                     "--out", str(tmp_path / "m.json")]) == code
        if code == EXIT_FIT:
            assert capsys.readouterr().err == "error: fit failed: k=41 outside [1, 40]\n"

    def test_empty_grid_list_in_train_exits_2(self, tmp_path, corpus_csv, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"k": []}', encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(corpus_csv), "--model", "knn", "--dim", "16",
                     "--grid", str(grid), "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"--grid {grid}.k must hold at least one value" in captured.err
        assert "params:" not in captured.out and not out.exists()

    def test_empty_grid_list_in_config_exits_2(self, tmp_path, corpus_csv, capsys):
        config = _experiment_config(tmp_path, corpus_csv,
                                    models={"knn": {"grid": {"k": []}}})
        assert main(["experiment", "--config", config]) == EXIT_USAGE
        assert "models.knn.grid.k must hold at least one value" in capsys.readouterr().err
        assert not (tmp_path / "models").exists()  # before any model trains

    @pytest.mark.parametrize("vectors", ["missing", "not_utf8"])
    def test_external_model_is_refused_before_its_vectors_are_read(
            self, vectors, tmp_path, corpus_csv, capsys):
        path = tmp_path / "vectors.jsonl"
        if vectors == "not_utf8":
            path.write_bytes(b'{"id": "\xff", "pooled": [1.0]}\n')
        model = tmp_path / "model.json"
        doc = _ridge_doc(embedding={"provider": "external", "path": str(path), "L": 4})
        model.write_text(json.dumps(doc), encoding="utf-8")
        program = tmp_path / "prog.c"
        program.write_text(SEED_CODE, encoding="utf-8")
        assert main(["grade", "--model", str(model), "--code", str(program)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: external vector files cannot embed ad-hoc code; "
            "use the tfidf provider\n")
