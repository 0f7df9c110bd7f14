"""The package's export list matches what the package binds, and the
names the benchmark imports still resolve."""

import ast
from pathlib import Path
from types import ModuleType

import monocnf


def test_all_lists_exactly_the_public_names():
    for name in monocnf.__all__:
        assert hasattr(monocnf, name), name
    public = {
        name
        for name, value in vars(monocnf).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(monocnf.__all__) == sorted(public)


def test_benchmark_imports_still_resolve():
    # the benchmark imports these names, and it must keep running on a
    # later version of the package
    workloads = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(workloads.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "monocnf"
        for alias in node.names
    ]
    assert ("monocnf.solve", "DEFAULT_VAR_LIMIT") in imported
    for module, name in imported:
        exec(f"from {module} import {name}", {})  # ImportError if the name is gone
