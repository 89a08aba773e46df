"""Property-based fuzzing of the four input loaders, through `cli.main`.

The loaders are the corpus CSV (`train`), the external vectors JSONL
(`train --embedding external`), the experiment config (`experiment`) and the
model JSON (`grade`). Whatever the input, `main` returns 0, 1, 2 or 3 and
never raises. Input built to be malformed exits 2 with exactly one stderr line
starting `error: `. No strategy starts an experiment: `run_experiment` is
replaced by a stub that fails the test if a config gets that far.
"""

import contextlib
import csv
import io
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from cgrader import kinds, persist, pipeline
from cgrader.cli import main
from cgrader.corpus import load_dataset, split
from cgrader.embed import TfIdfProvider
from cgrader.neural import TrainConfig

from dense import dense_array

FUZZ = settings(derandomize=True, deadline=None, max_examples=40,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

PROGRAMS = [
    "int main(void) { return 0; }",
    "#include <stdio.h>\nint main(void) { printf(\"%d\\n\", 1); return 0; }",
    "int f(int x) { return x * 2; }\nint main(void) { return f(3); }",
    "int main(void) { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }",
    "int main(void) { while (1) { break; } return 1; }",
    "/* comment only */ int x;",
]

# Replacements that are wrong in any place of a model or vectors document: no
# field there takes an object or an array of strings, and no field takes the
# string "x": a stored array's "b64" and "dtype" are strings, but "x" is
# neither valid base64 nor a dtype; "x" is a valid (unknown) vectors id.
WRONG = ["x", {"x": 1}, [["x"]]]

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20)
    | st.floats(-5, 20) | st.sampled_from([math.nan, math.inf]) | text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=12,
)


def run(argv):
    """(exit code, stderr lines) of one in-process `cgrader` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3)
    return code, err.getvalue().splitlines()


def assert_input_error(argv):
    code, err = run(argv)
    assert code == 2, err
    assert len(err) == 1 and err[0].startswith("error: "), err


def corpus_rows(n=12):
    return [(f"s{i:02d}", PROGRAMS[i % len(PROGRAMS)], str(3 + i % 8)) for i in range(n)]


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A shared directory holding a valid corpus and one program to grade."""
    root = tmp_path_factory.mktemp("fuzz")
    write_csv(root / "corpus.csv", ["id", "code", "score"], corpus_rows())
    (root / "prog.c").write_text(PROGRAMS[1], encoding="utf-8")
    return root


def train_argv(work, *extra):
    return ["train", "--data", work / "fuzzed.csv", "--model", "ridge", "--dim", "8",
            "--seq-len", "2", "--out", work / "model.json", *extra]


# ---------------------------------------------------------------------------
# Corpus CSV, via `train`

@FUZZ
@given(header=st.sampled_from([["id", "code", "score"], ["id", "code"]])
       | st.lists(text, max_size=4),
       rows=st.lists(st.tuples(text, st.sampled_from(PROGRAMS) | text,
                               st.sampled_from(["0", "3", "7.5", "10", "-1", "x"]) | text)
                     | st.lists(text, max_size=4), max_size=12),
       raw=st.none() | st.binary(max_size=80))
def test_any_corpus_csv(work, header, rows, raw):
    if raw is None:
        write_csv(work / "fuzzed.csv", header, rows)
    else:
        (work / "fuzzed.csv").write_bytes(raw)
    run(train_argv(work))


CSV_BREAKS = ["header", "field_count", "score_text", "score_range", "score_nan",
              "empty_code", "duplicate_id", "not_utf8", "too_few_rows"]


@FUZZ
@given(kind=st.sampled_from(CSV_BREAKS), row=st.integers(0, 11))
def test_malformed_corpus_csv_exits_2(work, kind, row):
    rows = [list(r) for r in corpus_rows()]
    header = ["id", "code", "score"]
    if kind == "header":
        header = ["id", "source", "score"]
    elif kind == "field_count":
        rows[row].append("extra")
    elif kind == "score_text":
        rows[row][2] = "ten"
    elif kind == "score_range":
        rows[row][2] = "10.5"
    elif kind == "score_nan":
        rows[row][2] = "nan"
    elif kind == "empty_code":
        rows[row][1] = "  \n"
    elif kind == "duplicate_id":
        rows[row][0] = rows[(row + 1) % len(rows)][0]
    elif kind == "too_few_rows":
        rows = rows[:2]
    write_csv(work / "fuzzed.csv", header, rows)
    if kind == "not_utf8":
        data = (work / "fuzzed.csv").read_bytes()
        (work / "fuzzed.csv").write_bytes(data[:40] + b"\xff\xfe" + data[40:])
    assert_input_error(train_argv(work))


def test_valid_corpus_trains(work):
    write_csv(work / "fuzzed.csv", ["id", "code", "score"], corpus_rows())
    assert run(train_argv(work)) == (0, [])


# ---------------------------------------------------------------------------
# External vectors JSONL, via `train --embedding external`

def vector_lines():
    rng = np.random.default_rng(0)
    return [{"id": sub_id, "pooled": rng.normal(size=3).round(3).tolist(),
             "sequence": rng.normal(size=(2, 3)).round(3).tolist()}
            for sub_id, _, _ in corpus_rows()]


def vectors_argv(work, lines):
    (work / "fuzzed.csv").write_text((work / "corpus.csv").read_text(encoding="utf-8"),
                                     encoding="utf-8")
    (work / "vectors.jsonl").write_text("\n".join(lines), encoding="utf-8")
    # no --dim: the external provider reads its d from the vectors, and refuses one
    return ["train", "--data", work / "fuzzed.csv", "--model", "ridge", "--embedding",
            "external", "--vectors", work / "vectors.jsonl", "--seq-len", "2",
            "--out", work / "model.json"]


@FUZZ
@given(data=st.data())
def test_any_vectors_jsonl(work, data):
    lines = [json.dumps(obj) for obj in vector_lines()]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] = data.draw(
            text | json_values.map(json.dumps)
            | st.fixed_dictionaries({"id": st.just(corpus_rows()[at][0])},
                                    optional={"pooled": json_values,
                                              "sequence": json_values}).map(json.dumps))
    run(vectors_argv(work, lines))


VECTOR_BREAKS = ["wrong_type", "missing_key", "unknown_key", "non_finite",
                 "dimension", "invalid_json", "not_an_object", "missing_id_line"]


def looked_up_rows(work):
    """Indices of the corpus rows `train` embeds: its train and validation parts."""
    parts = split(load_dataset(work / "corpus.csv"), (0.5, 0.25, 0.25), 0)
    ids = {row.id for part in (parts.train, parts.validation) for row in part.rows}
    return [i for i, (sub_id, _, _) in enumerate(corpus_rows()) if sub_id in ids]


@FUZZ
@given(kind=st.sampled_from(VECTOR_BREAKS), data=st.data(),
       key=st.sampled_from(["id", "pooled", "sequence"]), wrong=st.sampled_from(WRONG))
def test_malformed_vectors_jsonl_exits_2(work, kind, data, key, wrong):
    at = data.draw(st.sampled_from(looked_up_rows(work)))
    objs = vector_lines()
    obj = objs[at]
    if kind == "wrong_type":
        # An id is a string or an integer, so "x" is a valid (unknown) id.
        obj[key] = 1.5 if key == "id" and isinstance(wrong, str) else wrong
    elif kind == "missing_key":
        del obj["pooled" if key == "sequence" else key]  # `sequence` is optional
    elif kind == "unknown_key":
        obj["tokens"] = obj["sequence"]
    elif kind == "non_finite":
        obj["pooled"][0] = math.nan
    elif kind == "dimension":
        obj["pooled"].append(1.0)
    lines = [json.dumps(o) for o in objs]
    if kind == "invalid_json":
        lines[at] = lines[at][:-1]
    elif kind == "not_an_object":
        lines[at] = json.dumps([obj])
    elif kind == "missing_id_line":
        del lines[at]
    assert_input_error(vectors_argv(work, lines))


def test_valid_vectors_train(work):
    lines = [json.dumps(obj) for obj in vector_lines()]
    assert run(vectors_argv(work, lines)) == (0, [])


# ---------------------------------------------------------------------------
# Experiment config, via `experiment`

def base_config(work):
    return {
        "data": str(work / "corpus.csv"),
        "output": {"report": str(work / "report.csv"), "curves": str(work / "curves.csv"),
                   "models_dir": str(work / "models")},
        "embedding": {"provider": "tfidf", "dim": 8, "seq_len": 2},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": 0},
        "train": {"max_epochs": 1, "batch_size": 4, "learning_rate": 0.01, "patience": 1},
        "models": {"rf": {"grid": {"max_depth": [2]}, "params": {"n_trees": 2}}},
    }


# Every place the config's shape fixes a JSON type: path -> that type.
CONFIG_TYPES = {
    (): "object", ("data",): "string", ("output",): "object",
    ("output", "report"): "string", ("output", "curves"): "string",
    ("output", "models_dir"): "string", ("embedding",): "object",
    ("embedding", "provider"): "string", ("embedding", "dim"): "integer",
    ("embedding", "seq_len"): "integer", ("split",): "object",
    ("split", "ratios"): "array", ("split", "ratios", 1): "number",
    ("split", "seed"): "integer", ("train",): "object",
    ("train", "max_epochs"): "integer", ("train", "batch_size"): "integer",
    ("train", "learning_rate"): "number", ("train", "patience"): "integer",
    ("models",): "object", ("models", "rf"): "object",
    ("models", "rf", "grid"): "object", ("models", "rf", "grid", "max_depth"): "array",
    ("models", "rf", "params"): "object",
}
REQUIRED = [("data",), ("output",), ("output", "report"), ("output", "curves"),
            ("output", "models_dir")]


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    return {float: "number", str: "string", list: "array", dict: "object",
            type(None): "null"}[type(value)]


def fits(value, expected) -> bool:
    return json_type(value) == expected or (expected, json_type(value)) == ("number", "integer")


def replace_at(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


@pytest.fixture
def no_experiment(monkeypatch):
    def started(cfg):
        raise AssertionError("a fuzzed config started an experiment")

    monkeypatch.setattr(pipeline, "run_experiment", started)


@FUZZ
@given(content=text | json_values.map(json.dumps))
def test_any_config(work, no_experiment, content):
    (work / "config.json").write_text(content, encoding="utf-8")
    run(["experiment", "--config", work / "config.json"])


@FUZZ
@given(data=st.data())
def test_malformed_config_exits_2(work, no_experiment, data):
    doc = base_config(work)
    kind = data.draw(st.sampled_from(["wrong_type", "missing_key", "unknown_key",
                                      "provider", "train_seed"]))
    if kind == "wrong_type":
        path = data.draw(st.sampled_from(sorted(CONFIG_TYPES, key=str)))
        value = data.draw(json_values.filter(lambda v: not fits(v, CONFIG_TYPES[path])))
        doc = replace_at(doc, path, value)
    elif kind == "missing_key":
        *section, key = data.draw(st.sampled_from(REQUIRED))
        del (doc[section[0]] if section else doc)[key]
    elif kind == "unknown_key":
        section = data.draw(st.sampled_from([(), ("output",), ("embedding",), ("split",),
                                             ("train",), ("models",), ("models", "rf")]))
        target = doc
        for step in section:
            target = target[step]
        target[data.draw(st.sampled_from(["extra", "window", "svm", "tokens"]))] = 1
    elif kind == "provider":
        doc["embedding"]["provider"] = data.draw(text.filter(
            lambda t: t not in ("tfidf", "external")))
    else:
        doc["train"]["seed"] = 5
    (work / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    assert_input_error(["experiment", "--config", work / "config.json"])


# ---------------------------------------------------------------------------
# Model JSON, via `grade`

@pytest.fixture(scope="module")
def model_docs():
    """A small valid model document of every kind, fitted on 12 rows."""
    rng = np.random.default_rng(0)
    codes = PROGRAMS * 2
    provider = TfIdfProvider.fit(codes, d=8, L=4)
    embedded = [provider.embed_code(code) for code in codes]
    pooled = np.array([e.pooled for e in embedded])
    sequences = np.stack([dense_array(e.sequence) for e in embedded])
    y = rng.uniform(3, 10, len(codes))
    part = kinds.Split(pooled, sequences, y)
    data = kinds.TrainData(part, part, TrainConfig(max_epochs=1, batch_size=4))
    specs = {"rf": {"grid": {}, "params": {"n_trees": 2, "max_depth": 2}},
             "gbt": {"grid": {}, "params": {"n_rounds": 2, "max_depth": 2}},
             "ridge": {"grid": {}}, "knn": {"grid": {}, "params": {"k": 3}}}
    fitted, docs = {}, {}
    for name in kinds.KINDS:
        fitted[name] = kinds.fit(name, data, 0, specs.get(name), fitted)
        docs[name] = persist.model_to_doc(name, fitted[name].model, provider.config())
    return docs


def paths(value, prefix=()):
    """Every place in a JSON document: dict keys, and the first item of a list."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list) and value:
        yield from paths(value[0], prefix + (0,))


def grade(work, doc):
    (work / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    return ["grade", "--model", work / "model.json", "--code", work / "prog.c"]


def draw_path(data, doc):
    # Drawn by index, not by value: keys of the knn state are big arrays.
    places = list(paths(doc))
    return places[data.draw(st.integers(0, len(places) - 1))]


@FUZZ
@given(data=st.data(), name=st.sampled_from(list(kinds.KINDS)))
def test_any_model_json(work, model_docs, data, name):
    doc = json.loads(json.dumps(model_docs[name]))
    doc = replace_at(doc, draw_path(data, doc), data.draw(json_values))
    run(grade(work, doc))


@FUZZ
@given(data=st.data(), name=st.sampled_from(list(kinds.KINDS)),
       wrong=st.sampled_from(WRONG), delete=st.booleans())
def test_malformed_model_json_exits_2(work, model_docs, data, name, wrong, delete):
    doc = json.loads(json.dumps(model_docs[name]))
    path = draw_path(data, doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if delete and path and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        doc = replace_at(doc, path, wrong)
    assert_input_error(grade(work, doc))


@pytest.mark.parametrize("name", list(kinds.KINDS))
def test_valid_model_grades(work, model_docs, name):
    code, err = run(grade(work, model_docs[name]))
    assert (code, err) == (0, [])
