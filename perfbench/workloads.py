"""What each workload sets up, times and checks.

Set-up runs in the harness process; the job classes and `timed_loop` run
in the fresh child process that is measured. Every
cgrader call goes through the CLI entry point in-process, exactly as a
user's `cgrader ...` would.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

KINDS = ["rf", "ridge", "gbt", "knn", "cnn", "lstm", "cnn_rf", "lstm_rf"]
SEQ_KINDS = ["cnn", "lstm"]
WORKLOADS = ["experiment", "train-seq", "grade"]
SPLIT = [0.5, 0.25, 0.25]
DIM = 256
DEMO_SEQ_LEN = 16
# Fresh submissions come from a seed the corpus never uses.
SUBMISSION_SEED_OFFSET = 1_000_003
# train-seq fixes the split and initialisation seed: after one epoch the
# validation RMSE depends mostly on the initial weights, and the workload
# seed is meant to vary the data.
TRAIN_SEQ_MODEL_SEED = 0

# The grids of scripts/run_experiment.py.
DEMO_GRIDS = {
    "rf": {"max_depth": [None, 8], "min_samples_leaf": [1, 2]},
    "ridge": {"lambda": [0.1, 1.0, 10.0]},
    "knn": {"k": [3, 5, 7]},
    "gbt": {"n_rounds": [100], "learning_rate": [0.1], "max_depth": [3]},
}


@dataclass(frozen=True)
class Profile:
    rows: int = 400  # corpus rows, as in the demo
    heldout: int = 600  # fresh rows that heldout_rmse_best is measured on
    # of those, the files the grade loop cycles over: 25 rounds of eight
    # calls leave 10 samples above p95
    submissions: int = 25
    # grade calls with the models a training run made: 30 rounds of eight
    # leave 10 samples above p95 and grade the first 5 files twice
    post_calls: int = 240
    setups: int = 3  # set-up repetitions; setup_s is their median
    grade_setups: int = 2  # the grade set-up trains eight models
    # experiment: a fixed epoch budget (patience = max_epochs) in place of
    # the demo's early stopping, so every seed runs the same optimizer steps
    exp_epochs: int = 6
    # experiment: grids pinned to their first point. Pinning the forest's
    # grid (20 of its 21 forests are CV fits) makes one experiment take
    # under half the demo's time, so a run holds two or three of them.
    exp_pinned: tuple = ("rf",)
    seq_len: int = 256  # train-seq: covers every synthesized program
    seq_epochs: int = 1  # train-seq: fixed budget, patience = max_epochs
    grade_epochs: int = 1  # grade set-up: net epochs of the served models


DEMO = Profile()
SMOKE = Profile(rows=40, heldout=12, submissions=3, post_calls=2, exp_epochs=1,
                seq_len=32)


class SetupError(RuntimeError):
    pass


def cgrader(argv: list[str]) -> tuple[int, str]:
    """One in-process `cgrader` invocation: (exit code, captured stdout)."""
    from cgrader.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return code, buf.getvalue()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_files(paths: list[Path], base: Path) -> dict[str, str]:
    return {str(p.relative_to(base)): sha256_file(p) for p in sorted(paths)}


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up


def experiment_config(corpus: Path, out: Path, seed: int, epochs: int,
                      pinned=()) -> dict:
    """The demo config with a fixed epoch budget; the kinds in `pinned`
    take their grid's first point and skip CV."""
    models = {
        kind: ({"grid": {}, "params": {k: v[0] for k, v in grid.items()}}
               if kind in pinned else {"grid": grid})
        for kind, grid in DEMO_GRIDS.items()
    }
    return {
        "data": str(corpus),
        "output": {"report": str(out / "report.csv"),
                   "curves": str(out / "curves.csv"),
                   "models_dir": str(out / "models")},
        "embedding": {"provider": "tfidf", "dim": DIM, "seq_len": DEMO_SEQ_LEN},
        "split": {"ratios": SPLIT, "seed": seed},
        "train": {"max_epochs": epochs, "batch_size": 64, "patience": epochs},
        "models": models,
    }


def _synth(seeds_dir: Path, count: int, seed: int, out: Path) -> None:
    code, _ = cgrader(["synth", "--seeds", seeds_dir, "--count", count,
                       "--out", out, "--seed", seed])
    if code != 0:
        raise SetupError(f"cgrader synth exited {code}")


def setup(workload: str, seed: int, directory: Path, seeds_dir: Path,
          profile: Profile) -> list[Path]:
    """Make one workload's inputs in `directory`; returns the files made."""
    from cgrader.corpus import load_dataset

    directory.mkdir(parents=True)
    corpus = directory / "corpus.csv"
    _synth(seeds_dir, profile.rows, seed, corpus)
    if len(load_dataset(corpus)) != profile.rows:
        raise SetupError("synthesized corpus has the wrong row count")
    # train-seq grades a few files and takes its RMSE from validation.
    count = profile.submissions if workload == "train-seq" else profile.heldout
    heldout = directory / "heldout.csv"
    _synth(seeds_dir, count, seed + SUBMISSION_SEED_OFFSET, heldout)
    subs_dir = directory / "submissions"
    subs_dir.mkdir()
    for i, row in enumerate(load_dataset(heldout).rows[: profile.submissions]):
        (subs_dir / f"{i:03d}.c").write_text(row.code, encoding="utf-8")
    if workload == "grade":
        config = experiment_config(corpus, directory, seed, profile.grade_epochs,
                                   pinned=tuple(DEMO_GRIDS))
        config_path = directory / "train-config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _ = cgrader(["experiment", "--config", config_path])
        if code != 0:
            raise SetupError(f"training the served models exited {code}")
    # The training config names this directory, so it differs between set-ups.
    return [p for p in directory.rglob("*")
            if p.is_file() and p.name != "train-config.json"]


# ---------------------------------------------------------------------------
# Timed operations (child process)


def timed_loop(job, seconds: float) -> tuple[list[float], list[float]]:
    """Whole operations until `seconds` have passed, at least `job.min_ops`.

    Returns the wall and CPU seconds of each operation; `job.after_op`
    (digests, report parsing) runs outside the timed region.
    """
    wall, cpu = [], []
    start = time.perf_counter()
    while len(wall) < job.min_ops or time.perf_counter() - start < seconds:
        c0, t0 = time.process_time(), time.perf_counter()
        job.op(len(wall))
        wall.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        job.after_op()
    return wall, cpu


def read_report(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def parse_validation_rmse(stdout: str) -> float:
    for line in stdout.splitlines():
        if line.startswith("validation: rmse="):
            return float(line.split()[1].split("=")[1])
    return math.nan


class Experiment:
    """One `cgrader experiment` at the demo config, except a fixed epoch
    budget and the grids of `Profile.exp_pinned` pinned."""

    def __init__(self, spec: dict):
        self.out = Path(spec["work_dir"]) / "experiment"
        setup_dir = Path(spec["setup_dir"])
        profile = Profile(**spec["profile"])
        config = experiment_config(setup_dir / "corpus.csv", self.out, spec["seed"],
                                   profile.exp_epochs, profile.exp_pinned)
        self.config_path = Path(spec["work_dir"]) / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.min_ops = 1
        self.records = []

    def op(self, index: int) -> None:
        code, _ = cgrader(["experiment", "--config", self.config_path])
        self.records.append({"exit": code})

    def after_op(self) -> None:
        files = [self.out / "report.csv", self.out / "curves.csv",
                 *(self.out / "models").glob("*.json")]
        record = self.records[-1]
        record["digests"] = digest_files(files, self.out)
        rows = read_report(self.out / "report.csv")
        record["error_kinds"] = sorted({r["model"] for r in rows if r.get("error")})


class TrainSeq:
    """`cgrader train` of the CNN and the LSTM at a sequence length that
    covers whole programs, for a fixed number of epochs."""

    def __init__(self, spec: dict):
        from cgrader import neural

        profile = Profile(**spec["profile"])
        self.work = Path(spec["work_dir"])
        self.corpus = Path(spec["setup_dir"]) / "corpus.csv"
        self.seq_len = profile.seq_len
        self.epochs = profile.seq_epochs
        self.min_ops = 1
        self.records = []
        self.histories = []
        train = neural.train

        def observed(*args, **kwargs):
            history = train(*args, **kwargs)
            self.histories.append(history)
            return history

        neural.train = observed

    def op(self, index: int) -> None:
        record = {"exit": {}, "validation_rmse": {}}
        for kind in SEQ_KINDS:
            code, stdout = cgrader([
                "train", "--data", self.corpus, "--model", kind, "--dim", DIM,
                "--seq-len", self.seq_len, "--seed", TRAIN_SEQ_MODEL_SEED,
                "--out", self.work / f"{kind}.json",
                "--max-epochs", self.epochs, "--patience", self.epochs,
            ])
            record["exit"][kind] = code
            record["validation_rmse"][kind] = parse_validation_rmse(stdout)
        self.records.append(record)

    def after_op(self) -> None:
        record = self.records[-1]
        record["digests"] = digest_files(
            [self.work / f"{kind}.json" for kind in SEQ_KINDS], self.work)
        histories = self.histories[-len(SEQ_KINDS):]
        record["losses"] = [h.train_loss + h.val_loss for h in histories]
        record["epochs"] = [len(h.train_loss) for h in histories]


class Grade:
    """Closed loop, one client: round i grades submission i (cycling) with
    each model in turn, as `cgrader grade --model M --code F` would."""

    def __init__(self, spec: dict, tracer=None):
        models_dir = Path(spec["models_dir"])
        self.models = {kind: models_dir / f"{kind}.json" for kind in spec["kinds"]}
        self.subs = sorted(Path(spec["subs_dir"]).glob("*.c"))
        self.min_ops = spec["min_ops"]
        self.tracer = tracer
        self.records = []
        self.calls = []  # [kind, submission, exit code, stdout, ms]

    def op(self, index: int) -> None:
        sub = index % len(self.subs)
        for kind, model in self.models.items():
            if self.tracer is not None:
                self.tracer.request = len(self.calls)
            t0 = time.perf_counter()
            code, stdout = cgrader(["grade", "--model", model, "--code", self.subs[sub]])
            ms = (time.perf_counter() - t0) * 1e3
            self.calls.append([kind, sub, code, stdout.strip(), ms])
        if self.tracer is not None:
            self.tracer.request = None

    def after_op(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Checks run by the harness


def predict_saved(models_dir: Path, kinds: list[str], ds) -> dict:
    """Batch predictions of each saved model on `ds`, kind -> array."""
    from cgrader import persist, pipeline

    out, embedded = {}, None
    for kind in kinds:
        _, model, emb_config = persist.load_model(models_dir / f"{kind}.json")
        if embedded is None:
            provider = persist.provider_from_config(emb_config)
            embedded = pipeline.embed_dataset(provider, ds)
        out[kind] = pipeline.predict_kind(kind, model, *embedded)
    return out


def report_matches_models(corpus: Path, out: Path, seed: int) -> tuple[bool, str]:
    """Each model JSON, reloaded, reproduces its report.csv test RMSE."""
    from cgrader import metrics
    from cgrader.corpus import load_dataset, split

    test = split(load_dataset(corpus), tuple(SPLIT), seed).test
    expected = {r["model"]: r["rmse"] for r in read_report(out / "report.csv")
                if r["split"] == "test"}
    predictions = predict_saved(out / "models", KINDS, test)
    for kind, yhat in predictions.items():
        got = f"{metrics.rmse(test.scores(), yhat):.4f}"
        if got != expected.get(kind):
            return False, f"{kind}: report says {expected.get(kind)}, model gives {got}"
    return True, "all eight test RMSEs reproduced from the saved models"


def heldout_rmses(predictions: dict, ds) -> dict[str, float]:
    from cgrader import metrics

    return {kind: metrics.rmse(ds.scores(), yhat) for kind, yhat in predictions.items()}


def grades_match_predictions(calls: list[list], predictions: dict) -> tuple[bool, str]:
    """Every `cgrader grade` score equals the batch prediction for that file."""
    import numpy as np

    wrong = [(kind, sub, out) for kind, sub, _, out, _ in calls
             if out != f"{float(np.clip(predictions[kind][sub], 0.0, 10.0)):.2f}"]
    detail = f"{len(calls) - len(wrong)}/{len(calls)} grades equal the batch prediction"
    return not wrong, detail + (f"; first mismatch {wrong[0]}" if wrong else "")
