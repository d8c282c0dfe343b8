"""The package's import structure: acyclic, and entry points load narrowly.

Short processes (every ``repro-fi`` call, pool and fabric worker, service
job) pay for whatever their first import drags in, so two properties are
pinned here:

* the module-level import graph of ``repro`` has no cycle, so any module
  imports cleanly as the first statement of a fresh interpreter;
* the simulator, the campaign model and the CLI load neither the service,
  the lint battery, the fabric, nor the application-level packages.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib.util import resolve_name
from pathlib import Path

import pytest

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(body: list[ast.stmt]):
    """Import statements that run when the module is imported."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _module_level_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, []))


def import_graph() -> dict[str, set[str]]:
    """Module -> the ``repro`` modules its module-level imports execute.

    Importing ``a.b.c`` executes ``a.b.c`` and each package above it that
    the importer is not itself inside.
    """
    files = {_module_name(p): p for p in PACKAGE_DIR.rglob("*.py")}
    packages = {name for name, p in files.items() if p.name == "__init__.py"}
    graph: dict[str, set[str]] = {}
    for name, path in files.items():
        package = name if name in packages else name.rpartition(".")[0]
        targets: set[str] = set()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree.body):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                base = resolve_name("." * node.level + (node.module or ""), package)
                imported = [base] + [
                    f"{base}.{alias.name}"
                    for alias in node.names
                    if f"{base}.{alias.name}" in files
                ]
            for module in imported:
                parts = module.split(".")
                for depth in range(1, len(parts) + 1):
                    target = ".".join(parts[:depth])
                    inside = name == target or name.startswith(target + ".")
                    if target in files and (depth == len(parts) or not inside):
                        targets.add(target)
        targets.discard(name)
        graph[name] = targets
    return graph


def cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components with more than one module (Tarjan)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found: list[list[str]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(graph[node]):
            if succ not in index:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                found.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            visit(node)
    return found


def test_graph_covers_the_package():
    graph = import_graph()
    assert "repro.cli" in graph
    assert "repro.systolic.array" in graph["repro.systolic.simulator"]
    # A package's own modules do not re-enter the package's __init__.
    assert "repro.systolic" not in graph["repro.systolic.simulator"]
    assert "repro.faults" in graph["repro.systolic.array"]


def test_import_graph_has_no_cycle():
    assert cycles(import_graph()) == []


def test_cycle_detection_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert cycles(graph) == [["a", "b", "c"]]


#: Subsystems a short-lived entry point must not pay for.
HEAVY = (
    "repro.service",
    "repro.checks",
    "repro.core.fabric",
    "repro.appfi",
    "repro.mitigation",
    "repro.gemmini",
    "repro.nn",
)


@pytest.mark.parametrize(
    "module", ["repro.systolic", "repro.core.campaign", "repro.cli"]
)
def test_import_closure_is_narrow(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_DIR.parent), env.get("PYTHONPATH", "")) if p
    )
    probe = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = json.loads(out)
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []
    assert "asyncio" not in loaded
