"""End-to-end experiment wiring: split, embed, tune, fit, evaluate, persist.

One shared split feeds all eight model kinds (`kinds.KINDS`) so the report
compares like with like. Statistical models tune on 5-fold CV inside the
training split; neural models early-stop on the validation split, and the
hybrids fit their forest heads on the features of this run's CNN and LSTM.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from . import embed, kinds, metrics, persist
from .corpus import Dataset, load_dataset, split
from .neural import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    data: str
    report_path: str
    curves_path: str
    models_dir: str
    embedding_provider: str = "tfidf"
    embedding_dim: int = embed.DEFAULT_TFIDF_DIM
    embedding_seq_len: int = embed.DEFAULT_SEQ_LEN
    embedding_vectors: str | None = None
    split_ratios: tuple = (0.5, 0.25, 0.25)
    seed: int = 0
    grids: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "ExperimentConfig":
        def check_keys(obj, allowed, where):
            for key in obj:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r} in {where}")

        check_keys(doc, {"data", "embedding", "split", "models", "train", "output"},
                   "config")
        for required in ("data", "output"):
            if required not in doc:
                raise ConfigError(f"config missing required key {required!r}")
        output = doc["output"]
        check_keys(output, {"report", "curves", "models_dir"}, "output")
        emb = doc.get("embedding", {})
        check_keys(emb, {"provider", "dim", "seq_len", "vectors"}, "embedding")
        sp = doc.get("split", {})
        check_keys(sp, {"ratios", "seed"}, "split")
        train_doc = doc.get("train", {})
        check_keys(
            train_doc,
            {"max_epochs", "batch_size", "learning_rate", "patience", "seed"},
            "train",
        )
        models = doc.get("models", {})
        check_keys(models, kinds.KINDS, "models")
        grids = {}
        for kind, spec in models.items():
            check_keys(spec, {"grid", "params"}, f"models.{kind}")
            grids[kind] = spec
        provider = emb.get("provider", "tfidf")
        if provider not in ("tfidf", "external"):
            raise ConfigError(f"unknown embedding provider {provider!r}")
        resolve = lambda p: p if os.path.isabs(p) else os.path.join(base_dir, p)
        seed = sp.get("seed", 0)
        train_cfg = TrainConfig(
            max_epochs=train_doc.get("max_epochs", 50),
            batch_size=train_doc.get("batch_size", 64),
            learning_rate=train_doc.get("learning_rate", 1e-3),
            patience=train_doc.get("patience", 5),
            seed=train_doc.get("seed", seed),
        )
        return cls(
            data=resolve(doc["data"]),
            report_path=resolve(output["report"]),
            curves_path=resolve(output["curves"]),
            models_dir=resolve(output["models_dir"]),
            embedding_provider=provider,
            embedding_dim=emb.get("dim", embed.DEFAULT_TFIDF_DIM),
            embedding_seq_len=emb.get("seq_len", embed.DEFAULT_SEQ_LEN),
            embedding_vectors=resolve(emb["vectors"]) if emb.get("vectors") else None,
            split_ratios=tuple(sp.get("ratios", (0.5, 0.25, 0.25))),
            seed=seed,
            grids=grids,
            train=train_cfg,
        )


def build_provider(cfg_provider: str, train_ds: Dataset, dim: int, seq_len: int,
                   vectors_path=None):
    if cfg_provider == "tfidf":
        return embed.TfIdfProvider.fit(
            [row.code for row in train_ds.rows], d=dim, L=seq_len
        )
    if vectors_path is None:
        raise ConfigError("external provider needs a vectors path")
    return embed.load_external_embeddings(vectors_path, seq_len=seq_len)


def _embed_row(provider, row):
    try:
        return provider.embed_code(row.code)
    except embed.UnsupportedEmbedding:
        return provider.embed_by_id(row.id)


def embed_dataset(provider, ds: Dataset):
    """Returns (pooled (N,d), sequences (N,L,d) or None)."""
    pooled = np.empty((len(ds), provider.dimension))
    sequences = np.zeros((len(ds), provider.seq_len, provider.dimension))
    have_sequences = True
    for i, row in enumerate(ds.rows):
        e = _embed_row(provider, row)
        pooled[i] = e.pooled
        if e.sequence is None:
            have_sequences = False
        elif have_sequences:
            sequences[i] = e.sequence
    return pooled, sequences if have_sequences else None


def predict_kind(kind: str, model, pooled, sequences):
    return kinds.KINDS[kind].predict(model, pooled, sequences)


@dataclass
class ExperimentResult:
    report: metrics.Report
    histories: dict  # kind -> TrainingHistory (a hybrid holds its net's)
    errors: dict  # kind -> message
    report_text: str = ""
    curves_text: str = ""


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


def render_report_with_errors(report: metrics.Report, errors: dict) -> str:
    """Plain Table-II CSV; an extra `error` column appears only on failures."""
    if not errors:
        return metrics.render_report(report)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(metrics.REPORT_COLUMNS + ["error"])
    by_model = {}
    for row in report.rows:
        by_model.setdefault(row.model_name, {})[row.split_name] = row
    for kind in kinds.KINDS:
        if kind in errors:
            writer.writerow([kind, "", "", "", "", "", errors[kind]])
            continue
        for split_name in ("train", "test"):
            row = by_model.get(kind, {}).get(split_name)
            if row is None:
                continue
            writer.writerow(
                [kind, split_name, f"{row.rmse:.4f}", f"{row.mae:.4f}",
                 f"{row.r2:.4f}", f"{row.mape:.4f}", ""]
            )
    return buf.getvalue()


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    ds = load_dataset(cfg.data)
    parts = split(ds, cfg.split_ratios, cfg.seed)
    provider = build_provider(
        cfg.embedding_provider, parts.train, cfg.embedding_dim,
        cfg.embedding_seq_len, cfg.embedding_vectors,
    )
    X_train, S_train = embed_dataset(provider, parts.train)
    X_val, S_val = embed_dataset(provider, parts.validation)
    X_test, S_test = embed_dataset(provider, parts.test)
    y_train = parts.train.scores()
    y_val = parts.validation.scores()
    y_test = parts.test.scores()

    os.makedirs(cfg.models_dir, exist_ok=True)
    report = metrics.Report(
        metadata={"data": cfg.data, "seed": cfg.seed}
    )
    data = kinds.TrainData(X_train, S_train, y_train, S_val, y_val, cfg.train)
    fitted: dict = {}
    errors: dict = {}
    emb_config = provider.config()

    for name, kind in kinds.KINDS.items():
        try:
            if kind.base in errors:
                raise kinds.KindError(
                    f"base net {kind.base} failed: {errors[kind.base]}")
            trained = kinds.fit(name, data, cfg.seed, cfg.grids.get(name), fitted)
            fitted[name] = trained
            for split_name, pooled, sequences, y in (
                ("train", X_train, S_train, y_train),
                ("test", X_test, S_test, y_test),
            ):
                yhat = predict_kind(name, trained.model, pooled, sequences)
                report.add(metrics.evaluate(y, yhat, name, split_name))
            persist.save_model(os.path.join(cfg.models_dir, f"{name}.json"), name,
                               trained.model, emb_config)
        except Exception as exc:
            errors[name] = str(exc)

    histories = {name: trained.history for name, trained in fitted.items()
                 if trained.history is not None}
    result = ExperimentResult(report, histories, errors)
    result.report_text = render_report_with_errors(report, errors)
    result.curves_text = render_curves(histories)
    persist.atomic_write_text(cfg.report_path, result.report_text)
    persist.atomic_write_text(cfg.curves_path, result.curves_text)
    return result
