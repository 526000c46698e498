"""The spec imports numpy, scipy, the data types and the query AST only.

A spec that borrowed a kernel from ``repro.core``, ``serving``,
``corpus``, ``streaming`` or ``inference`` would agree with its bugs.
"""

import ast
import sys
from pathlib import Path

ALLOWED = ("numpy", "scipy", "repro.data", "repro.query.ast", "repro.query.predicates", "repro.query.spatial")


def disallowed_imports(source: str) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    return [
        module
        for module in modules
        if module.split(".")[0] not in (*sys.stdlib_module_names, "__future__")
        and not any(module == name or module.startswith(name + ".") for name in ALLOWED)
    ]


def test_the_spec_imports_only_numpy_scipy_data_and_query_types():
    assert disallowed_imports(Path(__file__).with_name("mast.py").read_text()) == []


def test_the_check_refuses_a_system_import():
    source = "from repro.core.stpc import analyze_pair\nimport repro.serving, pandas\nfrom . import x\n"
    assert disallowed_imports(source) == ["repro.core.stpc", "repro.serving", "pandas", "."]
