"""Every exported or benchmark-traced name resolves, so deletions cannot leave stale ones."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import qcorrkit

MODULES = sorted(f"qcorrkit.{info.name}" for info in pkgutil.iter_modules(qcorrkit.__path__))


@pytest.mark.parametrize("name", ["qcorrkit"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _traced_names() -> list[str]:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [f"{layer}.{dotted}" for layer, names in tracing.TRACED.items() for dotted in names]


@pytest.mark.parametrize("name", _traced_names())
def test_traced_names_resolve(name):
    layer, *attrs = name.split(".")
    owner = importlib.import_module(f"qcorrkit.{layer}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
