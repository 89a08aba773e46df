"""End-to-end experiment wiring: split, embed, tune, fit, evaluate, persist.

One shared split feeds all eight model kinds (`kinds.KINDS`) so the report
compares like with like. Statistical models tune on 5-fold CV inside the
training split; neural models early-stop on the validation split, and the
hybrids fit their forest heads on the features of this run's CNN and LSTM.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from . import embed, kinds, metrics, persist
from .corpus import DEFAULT_RATIOS, Dataset, check_ratios, load_dataset, split
from .neural import TRAIN_SETTINGS, TrainConfig, check_train_setting


class ConfigError(ValueError):
    pass


_REQUIRED = {"config": ("data", "output"), "output": ("report", "curves", "models_dir")}


def grid_schema(kind: str) -> dict:
    """A grid of `kind`: each of its param keys -> a list of values."""
    return {key: [json_type] for key, json_type in kinds.KINDS[kind].params.items()}


# A dict is a JSON object that may hold only its keys (`_REQUIRED` lists those it
# must hold), [T] a non-empty array of T, and a type of `kinds.JSON_TYPES` a JSON
# scalar of that type.
_SCHEMA = {
    "data": str,
    "output": {"report": str, "curves": str, "models_dir": str},
    "embedding": {"provider": str, "dim": int, "seq_len": int, "vectors": str},
    "split": {"ratios": [kinds.NUMBER], "seed": int},
    "train": {key: kinds.NUMBER if isinstance(getattr(TrainConfig, key), float) else int
              for key in TRAIN_SETTINGS},
    "models": {kind: {"grid": grid_schema(kind), "params": kinds.KINDS[kind].params}
               for kind in kinds.KINDS},
}


def check_json(value, schema, where: str, root: bool = True) -> None:
    """Raises ConfigError naming the first place where `value` leaves `schema`:
    `where` is the document's name at its root, then the key path inside it."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        for key, item in value.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in {where}")
            check_json(item, schema[key], key if root else f"{where}.{key}", False)
        for key in _REQUIRED.get(where, ()):
            if key not in value:
                raise ConfigError(f"{where} missing required key {key!r}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON array")
        if not value:
            raise ConfigError(f"{where} must hold at least one value")
        for i, item in enumerate(value):
            check_json(item, schema[0], f"{where}[{i}]", False)
    elif not kinds.is_json(value, schema):
        raise ConfigError(f"{where} must be {kinds.JSON_TYPES[schema]}")


def check_seed(seed: int, where: str) -> int:
    """`seed`, if numpy can seed a generator with it; else a ConfigError naming `where`."""
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class RunSettings:
    """What `prepare` reads: the corpus, its split and embedding, and the training
    settings given (`neural.TRAIN_SETTINGS` key -> value). No `dim` means the default."""

    data: str
    ratios: tuple | list = DEFAULT_RATIOS
    seed: int = 0
    provider: str = "tfidf"
    dim: int | None = None
    seq_len: int = embed.DEFAULT_SEQ_LEN
    vectors: str | None = None
    train: dict = field(default_factory=dict)

    def check(self, names: dict) -> None:
        """Raises a ValueError `<name> must ..., got <value>` unless `prepare` may run
        on these settings; `names` maps each field and training setting to its name."""
        for key, value in self.train.items():
            check_train_setting(key, value, names[key])
        check_ratios(self.ratios, names["ratios"])
        check_seed(self.seed, names["seed"])
        if self.seq_len < 0:
            raise ConfigError(f"{names['seq_len']} must be >= 0, got {self.seq_len}")
        if self.provider not in embed.PROVIDERS:
            raise ConfigError(f"{names['provider']} must be one of "
                              f"{', '.join(embed.PROVIDERS)}, got {self.provider}")
        unread = "dim" if self.provider == "external" else "vectors"
        if getattr(self, unread) is not None:  # each provider reads one of the two
            raise ConfigError(f"{names[unread]} must not be given under the {self.provider}"
                              f" provider, got {getattr(self, unread)}")
        if self.provider == "external" and self.vectors is None:
            raise ConfigError(f"{names['vectors']} must be given under the external "
                              "provider, got None")
        if self.dim is not None:
            embed.check_dim(self.dim, names["dim"])


# `RunSettings.check`'s names in a config, whose `split` and `embedding` keys are
# named as the fields they give
CONFIG_KEYS = {key: f"{section}.{key}" for section in ("split", "embedding", "train")
               for key in _SCHEMA[section]}


@dataclass
class ExperimentConfig:
    settings: RunSettings
    report_path: str
    curves_path: str
    models_dir: str
    grids: dict

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        check_json(doc, _SCHEMA, "config")
        resolve = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
        given = {key: value for section in ("split", "embedding")
                 for key, value in doc.get(section, {}).items()}
        if "vectors" in given:
            given["vectors"] = resolve(given["vectors"])
        settings = RunSettings(resolve(doc["data"]), train=doc.get("train", {}), **given)
        settings.check(CONFIG_KEYS)
        output = doc["output"]
        return cls(settings, resolve(output["report"]), resolve(output["curves"]),
                   resolve(output["models_dir"]), doc.get("models", {}))


def read_json(path):
    """The JSON document in file `path`; one that does not parse is a ConfigError
    naming `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
        except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc


def embed_dataset(provider, ds: Dataset):
    """Returns (pooled (N, d), sequences or None).

    TF-IDF sequences are a `neural.TokenSequences`: (N, L) bucket ids and their
    idf values, whose `.shape` alone reads (N, L, d). External sequences are a
    dense (N, L, d) array.
    """
    return provider.embed_rows(ds.rows)


def embed_split(provider, ds: Dataset) -> kinds.Split:
    return kinds.Split(*embed_dataset(provider, ds), ds.scores())


def prepare(settings: RunSettings):
    """The start of `train` and `experiment`: split, build the provider on the train
    part, and embed train and validation. Returns (TrainData, provider, the split's
    parts); the test part is left to the caller, so `train` never lexes it.

    A TF-IDF provider keeps the lexing of its fit, so each distinct code text is
    lexed once across all parts. `train` and `experiment` pass settings that
    passed `RunSettings.check`, before any file is read.
    """
    parts = split(load_dataset(settings.data), settings.ratios, settings.seed)
    if settings.provider == "tfidf":
        dim = embed.DEFAULT_TFIDF_DIM if settings.dim is None else settings.dim
        provider = embed.TfIdfProvider.fit([row.code for row in parts.train.rows],
                                           d=dim, L=settings.seq_len)
    else:
        provider = embed.load_external_embeddings(settings.vectors,
                                                  seq_len=settings.seq_len)
    data = kinds.TrainData(embed_split(provider, parts.train),
                           embed_split(provider, parts.validation),
                           TrainConfig(**settings.train))
    return data, provider, parts


def fit_and_score(names, data: kinds.TrainData, scored: dict, seed: int, specs: dict):
    """Fits the kinds `names` in order and scores each on every split of `scored`
    (name -> `kinds.Split`), writing no file. Returns (kind -> Fitted, report rows,
    kind -> exception of each failure); a hybrid whose net failed fails too, and a
    kind that reads sequences fails before its fit unless every split has them."""
    fitted, rows, errors = {}, [], {}
    no_sequences = any(part.sequences is None
                       for part in (data.train, data.validation, *scored.values()))
    for name in names:
        kind = kinds.KINDS[name]
        try:
            if kind.sequences and no_sequences:
                raise kinds.KindError("embedding provider supplies no token sequences")
            if kind.base in errors:
                raise kinds.KindError(f"base net {kind.base} failed: {errors[kind.base]}")
            trained = kinds.fit(name, data, seed, specs.get(name), fitted)
            rows += [metrics.evaluate(part.y, predict_kind(
                name, trained.model, part.pooled, part.sequences), name, split_name)
                for split_name, part in scored.items()]
            fitted[name] = trained
        except Exception as exc:
            errors[name] = exc
    return fitted, rows, errors


def predict_kind(kind: str, model, pooled, sequences):
    return kinds.KINDS[kind].predict(model, pooled, sequences)


def render_curves(histories: dict):
    """The rows of the loss-curve CSV, header first: each net's epochs in
    `kinds.KINDS` order with 6-decimal losses."""
    yield ["model", "epoch", "train_loss", "val_loss"]
    for kind in kinds.KINDS:
        history = histories.get(kind)
        if history is None:
            continue
        for epoch, (tr, val) in enumerate(
            zip(history.train_loss, history.val_loss), start=1
        ):
            yield [kind, epoch, f"{tr:.6f}", f"{val:.6f}"]


def render_report(rows: list, errors: dict):
    """The rows of the Table-II CSV, header first: `metrics.MetricsRow`s in
    `kinds.KINDS` order with 4-decimal values; an `error` column appears only when
    some kind failed."""
    tail = [""] if errors else []
    yield metrics.REPORT_COLUMNS + (["error"] if errors else [])
    by_key = {(row.model_name, row.split_name): row for row in rows}
    for kind in kinds.KINDS:
        if kind in errors:
            yield [kind, "", "", "", "", "", str(errors[kind])]
            continue
        for split_name in ("train", "test"):
            row = by_key.get((kind, split_name))
            if row is not None:
                yield [kind, split_name, f"{row.rmse:.4f}", f"{row.mae:.4f}",
                       f"{row.r2:.4f}", f"{row.mape:.4f}"] + tail


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Fits and scores every kind, then saves each fitted kind and writes the report
    and curves. Returns kind -> exception of each failure, in `kinds.KINDS` order; a
    failed kind leaves no model file, not even one of an earlier run."""
    paths = {name: os.path.join(cfg.models_dir, f"{name}.json") for name in kinds.KINDS}
    persist.require_folders(
        {"output.report": cfg.report_path, "output.curves": cfg.curves_path,
         **{f"output.models_dir's {name}.json": path for name, path in paths.items()}},
        {"data": cfg.settings.data, "embedding.vectors": cfg.settings.vectors},
        made=cfg.models_dir)
    data, provider, parts = prepare(cfg.settings)
    os.makedirs(cfg.models_dir, exist_ok=True)
    scored = {"train": data.train, "test": embed_split(provider, parts.test)}
    fitted, rows, errors = fit_and_score(kinds.KINDS, data, scored, cfg.settings.seed,
                                         cfg.grids)
    emb_config = provider.config()
    for name, path in paths.items():
        try:
            if name in fitted:
                persist.save_model(path, name, fitted[name].model, emb_config)
                continue
        except Exception as exc:
            errors[name] = exc
        persist.remove_file(path)
    errors = {name: errors[name] for name in kinds.KINDS if name in errors}
    histories = {name: trained.history for name, trained in fitted.items()
                 if trained.history is not None}
    persist.write_csv(cfg.report_path, render_report(rows, errors))
    persist.write_csv(cfg.curves_path, render_curves(histories))
    return errors
