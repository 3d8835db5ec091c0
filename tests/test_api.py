"""Every exported name resolves, so deletions cannot leave stale exports."""

import importlib
import pkgutil

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
