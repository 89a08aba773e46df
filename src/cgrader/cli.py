"""Command-line entry point.

Subcommands: synth (build a fault-injected corpus), train (fit one model),
grade (score a single C file), experiment (run all eight models and emit
the report + loss-curve CSVs).

Exit codes: 0 success, 1 partial experiment failure, 2 any input error (`main`
prints it as one `error:` line), 3 runtime fit error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import embed, kinds, persist, pipeline, synth
from .corpus import DEFAULT_RATIOS, Submission, save_dataset, score_histogram
from .neural import TRAIN_SETTINGS, TrainConfig

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_FIT = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_synth(args) -> int:
    persist.require_folders({"--out": args.out, "--plans": args.plans})
    rng = np.random.default_rng(pipeline.check_seed(args.seed, "--seed"))
    files = sorted(Path(args.seeds).glob("*.c"))
    if not files:
        raise ValueError(f"no .c seed files in {args.seeds}")
    rubric = synth.Rubric()
    seeds = [Submission(f.stem, persist.read_text(f), rubric.full_marks) for f in files]
    ds, plans = synth.synthesize_with_plans(seeds, args.count, rubric, rng)
    save_dataset(ds, args.out)
    if args.plans:
        persist.write_csv(args.plans, [["id", "kinds"], *(
            [row.id, "+".join(sorted(k.value for k in kinds))]
            for row, kinds in zip(ds.rows, plans))])
    histogram = score_histogram(ds)
    print(f"wrote {len(ds)} rows to {args.out}")
    for score in sorted(histogram):
        print(f"score {score:g}: {histogram[score]}")
    return EXIT_OK


# `pipeline.RunSettings.check`'s names in `train`
FLAGS = {"ratios": "--split", "seed": "--seed", "provider": "--embedding", "dim": "--dim",
         "seq_len": "--seq-len", "vectors": "--vectors",
         **{key: f"--{key.replace('_', '-')}" for key in TRAIN_SETTINGS}}


def cmd_train(args) -> int:
    persist.require_folders({"--out": args.out}, {"--data": args.data,
                                                  "--vectors": args.vectors,
                                                  "--grid": args.grid})
    try:
        ratios = [float(r) for r in args.split.split(",")]
    except ValueError:
        raise ValueError(
            f"--split must be comma-separated numbers, got {args.split!r}") from None
    settings = pipeline.RunSettings(
        args.data, ratios, args.seed, args.embedding, args.dim, args.seq_len,
        args.vectors, {key: getattr(args, key) for key in TRAIN_SETTINGS})
    settings.check(FLAGS)
    spec = {}
    if args.grid:
        spec["grid"] = pipeline.read_json(args.grid)
        with persist.naming(args.grid):
            pipeline.check_json(spec["grid"], pipeline.grid_schema(args.model), "grid")
    data, provider, _ = pipeline.prepare(settings)
    kind = args.model
    fitted, rows, errors = pipeline.fit_and_score(
        [kind], data, {"train": data.train, "validation": data.validation}, args.seed,
        {kind: spec})
    if errors:
        persist.remove_file(args.out)  # an earlier run's model must not pass for this one
        if isinstance(errors[kind], kinds.KindError):
            raise errors[kind]
        return _fail(EXIT_FIT, f"fit failed: {errors[kind]}")
    trained = fitted[kind]
    if trained.history is None:
        print(f"params: {trained.params}")
    else:
        print(f"stopped at epoch {trained.history.stopped_epoch}, "
              f"best epoch {trained.history.best_epoch}")
    for row in rows:
        print(f"{row.split_name}: rmse={row.rmse:.4f} mae={row.mae:.4f} "
              f"r2={row.r2:.4f} mape={row.mape:.4f}")
    persist.save_model(args.out, kind, trained.model, provider.config())
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_grade(args) -> int:
    kind, model, emb_config = persist.load_model(args.model)
    code = persist.read_text(args.code)
    with persist.naming(args.model):  # an embedding that does not fit the model
        embedding = persist.provider_from_config(emb_config).embed_code(code)
        score = pipeline.predict_kind(kind, model, embedding.pooled[None],
                                      embedding.sequence[None])[0]
        if not np.isfinite(score):
            raise ValueError("the model predicts a non-finite score")
    print(f"{score:.2f}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    doc = pipeline.read_json(args.config)
    with persist.naming(args.config):
        cfg = pipeline.ExperimentConfig.from_dict(
            doc, base_dir=str(Path(args.config).resolve().parent))
    errors = pipeline.run_experiment(cfg)
    print(f"report written to {cfg.report_path}")
    print(f"curves written to {cfg.curves_path}")
    for kind, message in errors.items():
        print(f"error: {kind}: {message}", file=sys.stderr)
    return EXIT_PARTIAL if errors else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it takes about as
    long as grading one file with a small model."""
    parser = argparse.ArgumentParser(
        prog="cgrader", description="Auto-grading pipeline for C assignments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a fault-injected corpus")
    p.add_argument("--seeds", required=True, help="directory of full-marks .c files")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output corpus CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plans", help="optional plan sidecar CSV (id,kinds)")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a single model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, choices=list(kinds.KINDS))
    p.add_argument("--embedding", choices=list(embed.PROVIDERS), default="tfidf")
    p.add_argument("--vectors", help="JSON-Lines vector file for --embedding external")
    p.add_argument("--dim", type=int, help=f"TF-IDF buckets (default "
                   f"{embed.DEFAULT_TFIDF_DIM}); not read by --embedding external")
    p.add_argument("--seq-len", type=int, default=embed.DEFAULT_SEQ_LEN)
    p.add_argument("--split", default=",".join(map(str, DEFAULT_RATIOS)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--grid", help="JSON file: param name -> list of values")
    for key in TRAIN_SETTINGS:
        default = getattr(TrainConfig, key)
        p.add_argument(FLAGS[key], type=type(default), default=default)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("grade", help="predict the score of one C file")
    p.add_argument("--model", required=True)
    p.add_argument("--code", required=True)
    p.set_defaults(fn=cmd_grade)

    p = sub.add_parser("experiment", help="run all eight models from a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    """Runs one subcommand; every input error exits 2 with one `error:` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, LookupError) as exc:
        return _fail(EXIT_USAGE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
