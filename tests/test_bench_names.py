"""The cgrader names that `perfbench` wraps or calls still exist.

`perfbench/run.py --trace 1` wraps each function in `perfbench/tracing.py`'s
TARGETS by name, and the benchmark's workloads call a few more. A rename
would otherwise show up only in the benchmark's own smoke test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("target", load_tracing().TARGETS, ids=lambda t: t[2])
def test_every_traced_target_resolves(target):
    module_name, path, _, _ = target
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{path} is gone"


@pytest.mark.parametrize("module_name, attr", [
    ("cgrader.cli", "main"),
    ("cgrader.corpus", "split"),
    ("cgrader.metrics", "rmse"),
    ("cgrader.persist", "load_model"),
    ("cgrader.persist", "provider_from_config"),
    ("cgrader.pipeline", "embed_dataset"),
    ("cgrader.pipeline", "predict_kind"),
])
def test_called_names_exist(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
