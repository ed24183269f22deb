"""The declared runtime dependencies are exactly what the package imports.

``[project] dependencies`` in ``pyproject.toml`` must equal the set of
third-party top-level modules imported anywhere under ``src/repro`` —
module level or nested inside a function — so a dependency cannot
outlive its last import, and an import cannot arrive undeclared.
"""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: A requirement's distribution name, before any extras or specifier.
REQUIREMENT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def declared() -> set[str]:
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {REQUIREMENT_NAME.match(requirement).group().lower()
            for requirement in project["dependencies"]}


def imported_third_party(package: pathlib.Path) -> set[str]:
    """Top-level modules imported by any file under ``package`` that are
    neither the standard library nor the package itself."""
    modules: set[str] = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0]
                               for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names) - {package.name}


def test_dependencies_are_what_the_package_imports():
    imported = imported_third_party(ROOT / "src" / "repro")
    assert imported == {"numpy"}
    assert declared() == imported
