"""The package exports every library name, every exported or benchmark-traced name resolves,
and every committed BENCH file names the machine, method and metric it measured."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
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


LIBRARY = ("correlation", "strategy", "tilted_chsh", "separating", "analysis", "seesaw")


def test_package_exports_every_library_name():
    expected = [name for mod in LIBRARY for name in importlib.import_module(f"qcorrkit.{mod}").__all__]
    assert sorted(qcorrkit.__all__) == sorted(expected + ["__version__"])
    assert {"certify_banded_truncation", "certify_strategy", "SeesawError"} <= set(qcorrkit.__all__)
    assert "certify_truncation" not in qcorrkit.__all__


def test_readme_imports_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"from qcorrkit import \((.*?)\)", readme, re.S)
    assert block
    names = {name.strip() for name in block.group(1).replace("\n", ",").split(",") if name.strip()}
    assert names and names <= set(qcorrkit.__all__), sorted(names - set(qcorrkit.__all__))


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


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_benchmark_names_resolve(script):
    # every attribute the benchmark reaches on a module it imports from qcorrkit
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / script).read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"qcorrkit.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qcorrkit"
        for alias in node.names
    }
    reached = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert reached
    missing = sorted(f"{name}.{attr}" for name, attr in reached if not hasattr(modules[name], attr))
    assert not missing, f"perfbench/{script} reaches missing names: {missing}"


@pytest.mark.parametrize("path", sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_bench_files_stay_comparable(path):
    # a speed claim is only comparable with the machine, method and metric it was measured on
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert {"nproc", "cpu", "blas", "numpy"} <= set(bench["machine"]), path.name
    assert "method" in bench and "claimed_metric" in bench, path.name
