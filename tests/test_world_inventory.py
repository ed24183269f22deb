"""Worlds are declared once.

Every experiment's world is a ``WorldSpec`` assembled by
``repro.experiments.world.build``, so only that module may construct a
browser or a resolver; a battery that builds its own drifts back to
restating the world (and its creation order) by hand.
"""

import ast
import pathlib

EXPERIMENTS = (pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
               / "experiments")

#: Classes whose construction belongs to the world module alone.
WORLD_ONLY = {"BraveBrowser", "Resolver"}


def constructed(path: pathlib.Path) -> set[str]:
    """The names in ``WORLD_ONLY`` that ``path`` calls."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name in WORLD_ONLY:
                names.add(name)
    return names


def test_only_the_world_module_builds_browsers_and_resolvers():
    offenders = {path.name: sorted(constructed(path))
                 for path in sorted(EXPERIMENTS.glob("*.py"))
                 if path.name != "world.py" and constructed(path)}
    assert not offenders


def test_the_world_module_builds_both():
    assert constructed(EXPERIMENTS / "world.py") == WORLD_ONLY
