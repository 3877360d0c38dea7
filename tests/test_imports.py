"""Every name a module imports is used in it (the package's __init__.py,
whose imports are its public re-exports, excepted), and every package module
imports at module level, never inside a function body; and every function
the benchmark's per-layer metrics name exists."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
from pathlib import Path

from lattmark import markets

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src" / "lattmark").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [entry for path in files for entry in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def function_local_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    return sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for fn in functions for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_no_imports_inside_functions():
    files = sorted((ROOT / "src" / "lattmark").glob("*.py"))
    found = [entry for path in files for entry in function_local_imports(path)]
    assert not found, "imports inside a function body (move them to module level):\n" + "\n".join(found)


def test_benchmark_per_layer_names_resolve():
    """The traced benchmark wraps each function its per-layer metrics name,
    and reads check_path_independence's exhaustive_limit default and
    markets.spec_universe when it hooks that check."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    functions = [n.split(".")[:2] for n in names if n.count(".") == 2 and n.endswith((".calls", ".self_s"))]
    missing = [
        f"{layer}.{name}" for layer, name in functions
        if getattr(getattr(importlib.import_module(f"lattmark.{layer}"), name, None), "__module__", None)
        != f"lattmark.{layer}"
    ]
    assert functions and not missing, missing
    assert "exhaustive_limit" in inspect.signature(markets.check_path_independence).parameters
    assert inspect.isfunction(markets.spec_universe) and markets.spec_universe.__module__ == "lattmark.markets"
