"""The library holds only the dataflow: no module under ``src/repro``
imports test tooling. Parses the source with ``ast``; starts no Spark."""

import ast
import pathlib

LIBRARY = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
TEST_TOOLING = {"duckdb", "pytest", "hypothesis"}


def _imported_packages(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_no_test_tooling():
    modules = sorted(LIBRARY.rglob("*.py"))
    assert modules, f"no modules under {LIBRARY}"
    found = {
        str(path.relative_to(LIBRARY.parent)): sorted(hits)
        for path in modules
        if (hits := TEST_TOOLING & set(_imported_packages(ast.parse(path.read_text()))))
    }
    assert found == {}
