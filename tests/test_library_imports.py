"""The library holds only the dataflow: no module under ``src/repro``
imports test tooling or reads the environment, and every module is reached
from the table builders or the numpy reference. Parses the source with
``ast``; starts no Spark."""

import ast
import pathlib

LIBRARY = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
TEST_TOOLING = {"duckdb", "pytest", "hypothesis"}
ENV_READERS = {"environ", "getenv"}
# T1–T8, and the reference that the benchmark and the tests check against.
ROOTS = ("repro.core.tables", "repro.metrics.reference")


def _imported_names(tree: ast.AST):
    """Dotted names an absolute import may load: ``from a import b`` may load ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_library_imports_no_test_tooling():
    modules = sorted(LIBRARY.rglob("*.py"))
    assert modules, f"no modules under {LIBRARY}"
    found = {
        str(path.relative_to(LIBRARY.parent)): sorted(hits)
        for path in modules
        if (hits := TEST_TOOLING
            & {n.split(".")[0] for n in _imported_names(ast.parse(path.read_text()))})
    }
    assert found == {}


def _env_reads(tree: ast.AST):
    """Line numbers of ``os.environ`` / ``os.getenv``, as attributes or imports."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                and ENV_READERS & {alias.name for alias in node.names}):
            yield node.lineno


def test_library_reads_no_environment_variable():
    """Every setting is a constant or a call argument, never a hidden option."""
    found = {
        str(path.relative_to(LIBRARY.parent)): lines
        for path in sorted(LIBRARY.rglob("*.py"))
        if (lines := sorted(_env_reads(ast.parse(path.read_text()))))
    }
    assert found == {}


def _module_path(name: str) -> pathlib.Path | None:
    base = LIBRARY.parent.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def test_every_library_module_is_reached_from_the_tables_or_the_reference():
    reached, todo = set(), list(ROOTS)
    while todo:
        parts = todo.pop().split(".")
        # importing a.b.c runs the packages a and a.b first
        for prefix in (".".join(parts[:i]) for i in range(1, len(parts) + 1)):
            if prefix not in reached and (path := _module_path(prefix)):
                reached.add(prefix)
                todo.extend(_imported_names(ast.parse(path.read_text())))
    modules = {
        ".".join(path.relative_to(LIBRARY.parent).with_suffix("").parts).removesuffix(".__init__")
        for path in LIBRARY.rglob("*.py")
    }
    assert set(ROOTS) <= reached
    assert sorted(modules - reached) == []
