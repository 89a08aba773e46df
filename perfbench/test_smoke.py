"""Smoke test of the benchmark harness at a tiny size.

Runs every workload with and without tracing on a 40-row corpus, one
epoch and a handful of grades, and checks that the last line names every
metric with its unit. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "grade_ms_p95": "ms",
    "heldout_rmse_best": "points",
}
PER_LAYER = {
    "clex.tokenize.calls": "count", "clex.tokenize.s": "s", "clex.tokens": "count",
    "embed.fit.s": "s", "embed.rows": "count", "embed.rows.s": "s",
    "embed.seq_tensor_mb": "MB",
    "tabular.cv.s": "s", "tabular.cv.fits": "count",
    "tabular.tree_fit.calls": "count", "tabular.tree_fit.s": "s",
    "tabular.tree_predict.calls": "count", "tabular.tree_predict.s": "s",
    "tabular.rf_fit.s": "s", "tabular.gbt_fit.s": "s", "tabular.ridge_fit.s": "s",
    "tabular.knn_predict.s": "s",
    "neural.cnn.forward.s": "s", "neural.lstm.forward.s": "s",
    "neural.cnn.backward.s": "s", "neural.lstm.backward.s": "s",
    "neural.adam.s": "s", "neural.epochs": "count", "neural.steps": "count",
    "neural.samples_per_s": "1/s",
    "hybrid.fit.s": "s", "hybrid.head_fit.s": "s", "hybrid.predict.s": "s",
    "persist.save.s": "s", "persist.save.bytes": "bytes",
    "persist.load.s": "s", "persist.load.bytes": "bytes",
    **{f"grade.{k}.ms_p50": "ms"
       for k in ("rf", "ridge", "gbt", "knn", "cnn", "lstm", "cnn_rf", "lstm_rf")},
    "grade.load.ms_p50": "ms", "grade.embed.ms_p50": "ms", "grade.predict.ms_p50": "ms",
    "grade_ms_p50": "ms",
    "synth.s": "s", "corpus.load.s": "s", "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["experiment", "train-seq", "grade"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, unit in (PER_LAYER if trace == "1" else END_TO_END).items():
        assert units[name] == unit, name
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(tmp_path, "--workload", "experiment", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
