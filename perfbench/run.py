#!/usr/bin/env python3
"""Outside-in benchmark of cgrader.

Usage (from the root of a cgrader checkout):

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0

Workloads: experiment, train-seq, grade, or all (each in turn). The
harness makes the inputs from --seed, repeats the set-up and times its
median, then measures the workload in a fresh child process, which runs
whole operations until --seconds have passed. With --trace 1 it runs a
second, traced child and reports the per-layer metrics instead of the
end-to-end ones. It checks the program's outputs, prints one line per
metric, and ends with one JSON line:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

A results file with the environment, every metric, check and digest goes
to perfbench/out/results/. --smoke shrinks every size, for tests only.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads here or in a child: one client
# on one vCPU. On a shared 2-vCPU host a second BLAS thread spins on the
# other vCPU, whose contention changes from second to second.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_COVERAGE = 0.90

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "grade_ms_p95": "ms",
    "heldout_rmse_best": "points",
}
PER_LAYER = {
    "clex.tokenize.calls": "count",
    "clex.tokenize.s": "s",
    "clex.tokens": "count",
    "embed.fit.s": "s",
    "embed.rows": "count",
    "embed.rows.s": "s",
    "embed.seq_tensor_mb": "MB",
    "tabular.cv.s": "s",
    "tabular.cv.total_s": "s",
    "tabular.cv.fits": "count",
    "tabular.tree_fit.calls": "count",
    "tabular.tree_fit.s": "s",
    "tabular.tree_predict.calls": "count",
    "tabular.tree_predict.s": "s",
    "tabular.rf_fit.s": "s",
    "tabular.gbt_fit.s": "s",
    "tabular.ridge_fit.s": "s",
    "tabular.knn_predict.s": "s",
    "neural.train.total_s": "s",
    "neural.cnn.forward.s": "s",
    "neural.cnn.backward.s": "s",
    "neural.lstm.forward.s": "s",
    "neural.lstm.backward.s": "s",
    "neural.adam.s": "s",
    "neural.epochs": "count",
    "neural.steps": "count",
    "neural.samples_per_s": "1/s",
    "hybrid.fit.s": "s",
    "hybrid.fit.total_s": "s",
    "hybrid.head_fit.s": "s",
    "hybrid.predict.s": "s",
    "persist.save.s": "s",
    "persist.save.bytes": "bytes",
    "persist.load.s": "s",
    "persist.load.bytes": "bytes",
    # Per layer only: over ten seeds on a shared 2-vCPU machine it spread by
    # 30-38%, more than an end-to-end bound may allow (see README.md).
    "grade_ms_p50": "ms",
    **{f"grade.{kind}.ms_p50": "ms" for kind in workloads.KINDS},
    "grade.load.ms_p50": "ms",
    "grade.embed.ms_p50": "ms",
    "grade.predict.ms_p50": "ms",
    "synth.s": "s",
    "corpus.load.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class HarnessError(RuntimeError):
    pass


def latency_quantiles(values: list[float]) -> tuple[float, float]:
    """Harrell-Davis estimates of the median and the 95th percentile.

    Calls cycle over models whose latencies form separate clusters, so the
    plain median sits in a gap between two clusters and jumps with single
    samples; the Harrell-Davis estimator weighs all order statistics.
    """
    from scipy.stats.mstats import hdquantiles

    p50, p95 = hdquantiles(values, prob=[0.5, 0.95])
    return float(p50), float(p95)


# ---------------------------------------------------------------------------
# Environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over src/ and seeds/, which fix every output for a seed."""
    h = hashlib.sha256()
    for base in ("src", "seeds"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Child process: the measured run


def child_main(spec_path: Path) -> int:
    import cgrader.cli  # noqa: F401  (imports are not part of any operation)

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if spec["trace"] else None
    if spec["job"] == "experiment":
        job = workloads.Experiment(spec)
    elif spec["job"] == "train-seq":
        job = workloads.TrainSeq(spec)
    else:
        job = workloads.Grade(spec, tracer)
    if tracer is not None:
        tracing.instrument(tracer)
        tracer.phase = "main"
    wall, cpu = workloads.timed_loop(job, spec["seconds"])
    result = {
        "op_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": job.records,
        "calls": getattr(job, "calls", []),
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(wall), sum(wall), "main")
        Path(spec["spans"]).write_text(json.dumps(tracer.to_records()),
                                       encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_child(spec: dict, deadline: float) -> dict:
    spec_path = Path(spec["work_dir"]) / "spec.json"
    Path(spec["work_dir"]).mkdir(parents=True)
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("no time left for the measured run")
    try:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--child", str(spec_path)],
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"measured run exceeded {remaining:.0f} s") from exc
    if done.returncode != 0:
        raise HarnessError(f"measured run exited {done.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metrics and checks


def _score(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if 0.0 <= value <= 10.0 else None


def score_table(calls: list[list]) -> dict[str, str]:
    """First score of each (model, submission) pair."""
    table = {}
    for kind, sub, _, score, _ in calls:
        table.setdefault(f"{kind}:{sub}", score)
    return table


def end_to_end(child: dict, setup_s: list[float], heldout_rmse: float) -> dict:
    return {
        "wall_s": statistics.fmean(child["op_s"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": child["peak_rss_mb"],
        "grade_ms_p95": latency_quantiles([call[4] for call in child["calls"]])[1],
        "heldout_rmse_best": heldout_rmse,
    }


def outputs_digest(child: dict, covered: int) -> str:
    """One digest of what the run produced: artifacts and the grade scores
    of the first `covered` files."""
    artifacts = child["records"][0]["digests"] if child["records"] else {}
    scores = score_table([c for c in child["calls"] if c[1] < covered])
    doc = {"artifacts": artifacts, "scores": scores}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_outputs(workload: str, child: dict, profile) -> list[tuple[str, bool, str]]:
    checks = []
    records, calls = child["records"], child["calls"]
    bad = [c for c in calls if c[2] != 0 or _score(c[3]) is None]
    checks.append(("grades_exit_0_in_range", not bad,
                   f"{len(calls) - len(bad)}/{len(calls)} grade calls ok"))
    seen = {}
    repeats = mismatched = 0
    for kind, sub, _, score, _ in calls:
        key = (kind, sub)
        if key in seen:
            repeats += 1
            mismatched += seen[key] != score
        seen.setdefault(key, score)
    checks.append(("grades_repeat_exactly", mismatched == 0,
                   f"{repeats - mismatched}/{repeats} repeated grades identical"))
    if workload == "grade":
        expected = len(workloads.KINDS) * profile.submissions
        checks.append(("every_pair_graded", len(seen) == expected,
                       f"{len(seen)}/{expected} (model, submission) pairs"))
        return checks
    digests = {json.dumps(r["digests"], sort_keys=True) for r in records}
    checks.append(("ops_byte_identical", len(digests) == 1,
                   f"{len(records)} operation(s), {len(digests)} distinct outputs"))
    if workload == "experiment":
        exits = [r["exit"] for r in records]
        errors = sorted({k for r in records for k in r["error_kinds"]})
        checks.append(("experiment_exit_0", set(exits) == {0}, f"exit codes {exits}"))
        checks.append(("no_error_rows", not errors, f"error rows: {errors}"))
    else:
        exits = [code for r in records for code in r["exit"].values()]
        losses = [x for r in records for run in r["losses"] for x in run]
        epochs = {e for r in records for e in r["epochs"]}
        checks.append(("train_exit_0", set(exits) == {0}, f"exit codes {exits}"))
        checks.append(("losses_finite_fixed_epochs",
                       all(math.isfinite(x) for x in losses)
                       and epochs == {profile.seq_epochs},
                       f"{len(losses)} losses, epochs run {sorted(epochs)}"))
    return checks


def check_earlier_runs(key: str, digest: str) -> tuple[str, bool, str]:
    """Same seed, same source: same outputs as every earlier run here."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    earlier = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return ("same_as_earlier_runs", earlier == digest,
            f"outputs {digest[:16]}, earlier runs {earlier[:16]}")


def count_operations(workload: str, child: dict) -> tuple[int, int]:
    calls = child["calls"]
    attempted = len(calls)
    failed = sum(1 for c in calls if c[2] != 0 or _score(c[3]) is None)
    for record in child["records"]:
        if workload == "experiment":
            attempted += len(workloads.KINDS)
            failed += len(record["error_kinds"]) or (record["exit"] != 0)
        else:
            attempted += len(record["exit"])
            failed += sum(code != 0 for code in record["exit"].values())
    return attempted, failed


# ---------------------------------------------------------------------------
# One workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 profile, smoke: bool) -> dict:
    from cgrader.corpus import load_dataset

    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    run_dir = OUT / "work" / tag
    results_dir = OUT / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    # The set-ups call cgrader in-process; its imports are not set-up time.
    import cgrader.cli  # noqa: F401

    setups = profile.grade_setups if workload == "grade" else profile.setups
    try:
        setup_tracer = tracing.Tracer() if trace else None
        restore = tracing.instrument(setup_tracer) if trace else None
        setup_s, setup_digests = [], []
        try:
            for i in range(setups):
                if setup_tracer is not None:
                    setup_tracer.phase = f"setup{i}"
                directory = run_dir / f"setup{i}"
                t0 = time.perf_counter()
                files = workloads.setup(workload, seed, directory, ROOT / "seeds",
                                        profile)
                setup_s.append(time.perf_counter() - t0)
                setup_digests.append(workloads.combined(
                    workloads.digest_files(files, directory)))
        finally:
            if restore is not None:
                restore()
        setup_dir = run_dir / "setup0"
        modes = ["untraced", "traced"] if trace else ["untraced"]

        def measure(role: str, mode: str, **spec) -> dict:
            work = run_dir / f"{role}-{mode}"
            return run_child({
                **spec, "seed": seed, "profile": vars(profile),
                "setup_dir": str(setup_dir), "subs_dir": str(setup_dir / "submissions"),
                "trace": mode == "traced", "work_dir": str(work),
                "result": str(work / "result.json"),
                "spans": str(results_dir / f"{tag}.{role}.spans.json"),
            }, deadline)

        # The grade workload's loop is its measured run. The others train,
        # then a second fresh process grades with the models they produced,
        # a fixed number of calls.
        if workload == "grade":
            models_dir, kinds = setup_dir / "models", workloads.KINDS
            rounds = profile.submissions
            main = grading = {m: measure("grade", m, job="grade", seconds=seconds,
                                         models_dir=str(models_dir), kinds=kinds,
                                         min_ops=rounds)
                              for m in modes}
        else:
            main = {m: measure("main", m, job=workload, seconds=seconds) for m in modes}
            models_dir = run_dir / "main-untraced"
            if workload == "experiment":
                models_dir = models_dir / "experiment" / "models"
            kinds = workloads.KINDS if workload == "experiment" else workloads.SEQ_KINDS
            rounds = max(1, profile.post_calls // len(kinds))
            grading = {m: measure("grade", m, job="grade", seconds=0,
                                  models_dir=str(models_dir), kinds=kinds,
                                  min_ops=rounds)
                       for m in modes}
        # Files every run grades, however long it ran.
        covered = min(rounds, profile.submissions)
        children = {m: dict(main[m], calls=grading[m]["calls"]) for m in modes}
        if trace:
            children["traced"]["layers"] = {
                **main["traced"]["layers"],
                **{k: v for k, v in grading["traced"]["layers"].items()
                   if k.startswith("grade.")},
            }
        child = children["untraced"]
        heldout = load_dataset(setup_dir / "heldout.csv")
        predictions = workloads.predict_saved(models_dir, kinds, heldout)
        if workload == "train-seq":
            best = min(child["records"][0]["validation_rmse"].values())
        else:
            best = min(workloads.heldout_rmses(predictions, heldout).values())
        e2e = end_to_end(child, setup_s, best)

        checks = [("setup_repeats_identical", len(set(setup_digests)) == 1,
                   f"{len(setup_digests)} set-ups, "
                   f"{len(set(setup_digests))} distinct")]
        checks += check_outputs(workload, child, profile)
        checks.append(("grades_match_batch_predict",
                       *workloads.grades_match_predictions(child["calls"], predictions)))
        if workload == "experiment":
            ok, detail = workloads.report_matches_models(
                setup_dir / "corpus.csv", run_dir / "main-untraced" / "experiment", seed)
            checks.append(("report_matches_models", ok, detail))
        digest = outputs_digest(child, covered)
        profile_digest = hashlib.sha256(
            json.dumps(vars(profile), sort_keys=True).encode()).hexdigest()
        checks.append(check_earlier_runs(
            f"{workload} seed={seed} profile={profile_digest[:16]} "
            f"source={source_digest()}", digest))
        layers = None
        if trace:
            traced = children["traced"]
            layers = dict(traced["layers"])
            layers.update(tracing.setup_metrics(setup_tracer, setups))
            layers["grade_ms_p50"] = latency_quantiles([c[4] for c in child["calls"]])[0]
            for kind in workloads.KINDS:
                ms = [c[4] for c in child["calls"] if c[0] == kind]
                layers[f"grade.{kind}.ms_p50"] = statistics.median(ms) if ms else 0.0
            layers["process.cpu_s"] = sum(child["cpu_s"]) / len(child["cpu_s"])
            layers["trace.overhead_s"] = (statistics.fmean(traced["op_s"])
                                          - e2e["wall_s"])
            checks.append(("traced_outputs_identical",
                           outputs_digest(traced, covered) == digest,
                           "traced and untraced runs produced the same outputs"))
            checks.append(("trace_coverage", layers["trace.coverage"] >= MIN_COVERAGE,
                           f"top-level layer spans cover "
                           f"{layers['trace.coverage']:.1%} of wall_s"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = count_operations(workload, child)
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "profile": vars(profile), "environment": environment(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layers,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "op_s": child["op_s"], "setup_s_all": setup_s,
        "grade_samples": len(child["calls"]),
        "grade_ms_by_kind": {
            kind: statistics.median(c[4] for c in child["calls"] if c[0] == kind)
            for kind in {c[0] for c in child["calls"]}},
        "outputs_sha256": digest,
        "artifacts_sha256": child["records"][0]["digests"] if child["records"] else {},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1),
                                             encoding="utf-8")
    return result


def report(result: dict) -> dict:
    """Print one workload's metrics and checks; returns its metric dict."""
    trace = result["trace"]
    names = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(trace)}  "
          f"ops {len(result['op_s'])}  grade samples {result['grade_samples']}")
    if trace:
        for name, value in result["end_to_end"].items():
            print(f"   {name:<28} {value:>14.6f} {END_TO_END[name]}")
    for name, unit in names.items():
        print(f"   {name:<28} {values[name]:>14.6f} {unit}")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"   check {status} {check['name']}: {check['detail']}")
    return {name: {"value": values[name], "unit": unit} for name, unit in names.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["experiment", "train-seq", "grade", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, one epoch, a handful of grades")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "cgrader", ROOT / "seeds") if not p.is_dir()]
    if missing:
        print(f"error: {missing[0]} not found; run from a cgrader checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child_main(Path(args.child))
    profile = workloads.SMOKE if args.smoke else workloads.DEMO
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), profile, args.smoke))
        except (HarnessError, workloads.SetupError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    metrics = {}
    for result in results:
        for name, metric in report(result).items():
            metrics[name if len(results) == 1 else f"{result['workload']}.{name}"] = metric
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
