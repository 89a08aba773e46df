#!/usr/bin/env python3
"""Synthesize a corpus from the bundled seed programs and run all eight models.

Produces report.csv (Table-II-style metrics), curves.csv (per-epoch losses
for the neural and hybrid models), and one JSON file per fitted model.

Usage:
    python3 scripts/run_experiment.py --out runs/demo [--rows 400] [--seed 0]
"""

import argparse
import json
import sys
from pathlib import Path

from cgrader.cli import main as cgrader_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--rows", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seq-len", type=int, default=16,
                        help="token-sequence length fed to the neural models")
    parser.add_argument("--dim", type=int, default=256,
                        help="hashed TF-IDF dimensionality")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.csv"

    code = cgrader_main([
        "synth", "--seeds", str(REPO_ROOT / "seeds"),
        "--count", str(args.rows), "--out", str(corpus),
        "--seed", str(args.seed), "--plans", str(out / "plans.csv"),
    ])
    if code != 0:
        return code

    config = {
        "data": str(corpus),
        "output": {
            "report": str(out / "report.csv"),
            "curves": str(out / "curves.csv"),
            "models_dir": str(out / "models"),
        },
        "embedding": {"provider": "tfidf", "dim": args.dim,
                      "seq_len": args.seq_len},
        "split": {"ratios": [0.5, 0.25, 0.25], "seed": args.seed},
        # every other kind and the training take their defaults
        "models": {
            "rf": {"grid": {"max_depth": [None, 8], "min_samples_leaf": [1, 2]}},
        },
    }
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    code = cgrader_main(["experiment", "--config", str(config_path)])
    if code == 0:
        print((out / "report.csv").read_text(encoding="utf-8"))
    return code


if __name__ == "__main__":
    sys.exit(main())
