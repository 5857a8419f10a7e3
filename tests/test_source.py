"""Checks on the package's source text."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phaselab"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports that it neither uses nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import math\nfrom dataclasses import dataclass\n__all__ = ['math']\n")
    assert _unused_imports(tree) == ["dataclass (line 2)"]


def _probed_names(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, attribute) pairs that a script probes by name with
    getattr or hasattr on a phaselab module it imports with
    `from phaselab import module`, sorted."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "phaselab" for alias in node.names}
    probes = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2 and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
                and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            probes.append((modules[node.args[0].id], node.args[1].value))
    return sorted(probes)


def _missing(probes: list[tuple[str, str]]) -> list[str]:
    return [f"{module}.{name}" for module, name in probes
            if not hasattr(importlib.import_module(f"phaselab.{module}"), name)]


def test_every_name_the_benchmark_probes_exists():
    # perfbench/run.py skips work where a getattr or hasattr probe finds no
    # attribute, so a rename in src/ would pass there silently
    probes = _probed_names(ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")))
    assert ("dimer", "chain_operators") in probes and ("dimer", "_CHAIN_CACHE") in probes
    assert _missing(probes) == []


def test_a_missing_probed_name_is_found():
    tree = ast.parse("def f(lib, x):\n    from phaselab import dimer as d, homotopy\n"
                     "    getattr(d, 'no_such_name', None), hasattr(homotopy, 'StateLoop'), getattr(lib, 'x')\n")
    assert _probed_names(tree) == [("dimer", "no_such_name"), ("homotopy", "StateLoop")]
    assert _missing(_probed_names(tree)) == ["dimer.no_such_name"]
