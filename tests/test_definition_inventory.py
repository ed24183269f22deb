"""Every definition under ``src/repro`` has a reader.

A function, class or method whose name appears nowhere but in its own
definition is code no result, test, benchmark or example runs: it either
earns a caller (a behaviour test counts) or goes. Names are counted as
identifier tokens over ``src/``, ``tests/``, ``bench/`` and
``examples/`` at once — one ``Counter``, not a regex per name — so the
check stays well under a second. Dunders are called by the language,
not by name, and are exempt.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifier_counts() -> collections.Counter:
    counts: collections.Counter = collections.Counter()
    for top in ("src", "tests", "bench", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            counts.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts


def definitions() -> dict[str, list[str]]:
    """Definition name → the ``file:line`` of each place defining it."""
    found: dict[str, list[str]] = collections.defaultdict(list)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                found[node.name].append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def unread(counts: collections.Counter,
           defined: dict[str, list[str]]) -> list[str]:
    """Definitions whose name occurs only where it is defined."""
    return sorted(f"{name} ({', '.join(places)})"
                  for name, places in defined.items()
                  if counts[name] <= len(places))


def test_every_definition_is_read_somewhere():
    assert unread(identifier_counts(), definitions()) == []


def test_an_unread_definition_is_caught():
    defined = {"orphan": ["src/repro/x.py:1"], "twice": ["a:1", "b:2"],
               "used": ["src/repro/y.py:3"]}
    counts = collections.Counter(orphan=1, twice=2, used=2)
    assert unread(counts, defined) == [
        "orphan (src/repro/x.py:1)", "twice (a:1, b:2)"]
