"""End-to-end experiment wiring: split, embed, tune, fit, evaluate, persist.

One shared split feeds all eight model kinds (`kinds.KINDS`) so the report
compares like with like. Statistical models tune on 5-fold CV inside the
training split; neural models early-stop on the validation split, and the
hybrids fit their forest heads on the features of this run's CNN and LSTM.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass

from . import embed, kinds, metrics, persist
from .corpus import DEFAULT_RATIOS, Dataset, check_ratios, load_dataset, split
from .neural import TrainConfig


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
    "train": {"max_epochs": int, "batch_size": int, "learning_rate": kinds.NUMBER,
              "patience": int},
    "models": {kind: {"grid": grid_schema(kind), "params": kinds.KINDS[kind].params}
               for kind in kinds.KINDS},
}


def check_json(value, schema, where: str) -> None:
    """Raises ConfigError naming the first place where `value` leaves `schema`."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        for key, item in value.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in {where}")
            check_json(item, schema[key], key if where == "config" else f"{where}.{key}")
        for key in _REQUIRED.get(where, ()):
            if key not in value:
                raise ConfigError(f"{where} missing required key {key!r}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON array")
        if not value:
            raise ConfigError(f"{where} must hold at least one value")
        for i, item in enumerate(value):
            check_json(item, schema[0], f"{where}[{i}]")
    elif not kinds.is_json(value, schema):
        raise ConfigError(f"{where} must be {kinds.JSON_TYPES[schema]}")


def check_settings(ratios, provider_name: str, seq_len: int, vectors_path) -> None:
    """Raises a ValueError for split and embedding settings `prepare` cannot run
    with. `train` and `experiment` call it before they read any input file."""
    check_ratios(ratios)
    if seq_len < 0:
        raise ConfigError(f"seq_len must be >= 0, got {seq_len}")
    if provider_name == "external" and vectors_path is None:
        raise ConfigError("external provider needs a vectors path")
    if provider_name == "tfidf" and vectors_path is not None:
        raise ConfigError(f"vectors file {vectors_path} is not read by the tfidf provider")


def check_seed(seed: int, where: str) -> int:
    """`seed`, if numpy can seed a generator with it; else a ConfigError naming `where`."""
    if seed < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {seed}")
    return seed


@dataclass
class ExperimentConfig:
    data: str
    report_path: str
    curves_path: str
    models_dir: str
    embedding_provider: str
    embedding_dim: int
    embedding_seq_len: int
    embedding_vectors: str | None
    split_ratios: tuple
    seed: int
    grids: dict
    train: TrainConfig

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        check_json(doc, _SCHEMA, "config")
        output = doc["output"]
        emb = doc.get("embedding", {})
        provider = emb.get("provider", "tfidf")
        if provider not in embed.PROVIDERS:
            raise ConfigError(f"unknown embedding provider {provider!r}")
        if provider == "external" and "dim" in emb:
            raise ConfigError("embedding.dim is not read by the external provider")
        sp = doc.get("split", {})
        resolve = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
        cfg = cls(
            data=resolve(doc["data"]),
            report_path=resolve(output["report"]),
            curves_path=resolve(output["curves"]),
            models_dir=resolve(output["models_dir"]),
            embedding_provider=provider,
            embedding_dim=emb.get("dim", embed.DEFAULT_TFIDF_DIM),
            embedding_seq_len=emb.get("seq_len", embed.DEFAULT_SEQ_LEN),
            embedding_vectors=resolve(emb["vectors"]) if "vectors" in emb else None,
            split_ratios=tuple(sp.get("ratios", DEFAULT_RATIOS)),
            seed=check_seed(sp.get("seed", 0), "split.seed"),
            grids=doc.get("models", {}),
            train=TrainConfig(**doc.get("train", {})),
        )
        check_settings(cfg.split_ratios, provider, cfg.embedding_seq_len,
                       cfg.embedding_vectors)
        return cfg


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


def prepare(data_path, ratios, seed: int, provider_name: str, dim: int, seq_len: int,
            vectors_path, train_cfg: TrainConfig):
    """The start of `train` and `experiment`: split, build the provider on the train
    part, and embed train and validation. Returns (TrainData, provider, the split's
    parts); the test part is left to the caller, so `train` never lexes it.

    A TF-IDF provider keeps the lexing of its fit, so each distinct code text is
    lexed once across all parts. The settings are those `check_settings` passed.
    """
    parts = split(load_dataset(data_path), ratios, seed)
    if provider_name == "tfidf":
        provider = embed.TfIdfProvider.fit([row.code for row in parts.train.rows],
                                           d=dim, L=seq_len)
    else:
        provider = embed.load_external_embeddings(vectors_path, seq_len=seq_len)
    data = kinds.TrainData(embed_split(provider, parts.train),
                           embed_split(provider, parts.validation), train_cfg)
    return data, provider, parts


def fit_and_score(names, data: kinds.TrainData, scored: dict, seed: int, specs: dict):
    """Fits the kinds `names` in order and scores each on every split of `scored`
    (name -> `kinds.Split`), writing no file. Returns (kind -> Fitted, report rows,
    kind -> exception of each failure); a hybrid whose net failed fails too."""
    fitted, rows, errors = {}, [], {}
    for name in names:
        base = kinds.KINDS[name].base
        try:
            if base in errors:
                raise kinds.KindError(f"base net {base} failed: {errors[base]}")
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


def render_curves(histories: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "epoch", "train_loss", "val_loss"])
    for kind in kinds.KINDS:
        history = histories.get(kind)
        if history is None:
            continue
        for epoch, (tr, val) in enumerate(
            zip(history.train_loss, history.val_loss), start=1
        ):
            writer.writerow([kind, epoch, f"{tr:.6f}", f"{val:.6f}"])
    return buf.getvalue()


def render_report(rows: list, errors: dict) -> str:
    """Table-II CSV of `metrics.MetricsRow`s in `kinds.KINDS` order with 4-decimal
    values; an `error` column appears only when some kind failed."""
    tail = [""] if errors else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics.REPORT_COLUMNS + (["error"] if errors else []))
    by_key = {(row.model_name, row.split_name): row for row in rows}
    for kind in kinds.KINDS:
        if kind in errors:
            writer.writerow([kind, "", "", "", "", "", errors[kind]])
            continue
        for split_name in ("train", "test"):
            row = by_key.get((kind, split_name))
            if row is not None:
                writer.writerow(
                    [kind, split_name, f"{row.rmse:.4f}", f"{row.mae:.4f}",
                     f"{row.r2:.4f}", f"{row.mape:.4f}"] + tail
                )
    return buf.getvalue()


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Fits and scores every kind, then saves each fitted kind and writes the report
    and curves. Returns kind -> exception of each failure, in `kinds.KINDS` order; a
    failed kind leaves no model file, not even one of an earlier run."""
    paths = {name: os.path.join(cfg.models_dir, f"{name}.json") for name in kinds.KINDS}
    persist.require_folders([cfg.report_path, cfg.curves_path, *paths.values()],
                            made=cfg.models_dir)
    data, provider, parts = prepare(
        cfg.data, cfg.split_ratios, cfg.seed, cfg.embedding_provider, cfg.embedding_dim,
        cfg.embedding_seq_len, cfg.embedding_vectors, cfg.train)
    os.makedirs(cfg.models_dir, exist_ok=True)
    scored = {"train": data.train, "test": embed_split(provider, parts.test)}
    fitted, rows, errors = fit_and_score(kinds.KINDS, data, scored, cfg.seed, cfg.grids)
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
    persist.atomic_write_text(cfg.report_path, render_report(rows, errors))
    persist.atomic_write_text(cfg.curves_path, render_curves(histories))
    return errors
