"""Commands and names quoted in the docs cannot go stale.

Every ``python -m repro.<module> [<name>]`` in README.md, EXPERIMENTS.md,
the verify skill, the Makefile and ``src/`` docstrings must name a
module that runs as a script and, for ``repro.experiments``, an
experiment that is registered; every backticked dotted ``repro.…`` name
in the same sources must resolve to a module or an attribute of one.
DESIGN.md is exempt: its §7 quotes the commands and names of retired
components as history.
"""

import importlib
import importlib.util
import pathlib
import re

from repro.experiments.__main__ import REGISTRY

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``-m repro.x.y`` and, when the next word is a bare lower-case token
#: (not an option, a path or a ``<placeholder>``), that word too. The
#: Makefile spells the interpreter ``$(PYTHON)``, hence no ``python``.
COMMAND = re.compile(r"-m (repro(?:\.\w+)*)(?:[ \t]+([a-z][a-z0-9-]*)\b)?")

#: A backticked ``repro.a.b`` (Markdown, reST, or a ``~``-shortened
#: Sphinx role), up to the first character that cannot continue it.
NAME = re.compile(r"`~?(repro(?:\.\w+)+)")

SOURCES = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "Makefile",
           ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
           *sorted((ROOT / "src").rglob("*.py"))]


def quoted_commands():
    found = set()
    for path in SOURCES:
        if path.exists():
            found.update(COMMAND.findall(path.read_text(encoding="utf-8")))
    return sorted(found)


def quoted_names():
    found = set()
    for path in SOURCES:
        if path.exists():
            found.update(NAME.findall(path.read_text(encoding="utf-8")))
    return sorted(found)


def unresolved(name: str) -> str | None:
    """Why ``name`` names nothing: the longest importable module prefix,
    then ``getattr`` for the rest; None when it resolves."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return f"{'.'.join(parts[:cut])} has no {attr!r}"
            found = getattr(found, attr)
        return None
    return f"nothing of {name} is importable"


def problem(module: str, word: str) -> str | None:
    """Why ``python -m <module> <word>`` cannot run, or None."""
    spec = importlib.util.find_spec(module)
    if spec is None:
        return f"no module {module}"
    if spec.submodule_search_locations is not None:
        if importlib.util.find_spec(f"{module}.__main__") is None:
            return f"package {module} has no __main__"
    elif '__name__ == "__main__"' not in pathlib.Path(
            spec.origin).read_text(encoding="utf-8"):
        return f"{module} is not a script"
    if module == "repro.experiments" and word and word not in REGISTRY:
        return f"{word!r} is not a registered experiment"
    return None


def test_every_quoted_command_runs():
    # One test, not one per command: its id must not depend on the docs.
    commands = quoted_commands()
    assert {"repro.experiments", "repro.experiments.run_all",
            "repro.obs"} <= {module for module, _word in commands}
    assert [found for found in
            (problem(module, word) for module, word in commands)
            if found] == []


def test_a_stale_command_is_caught():
    assert problem("repro.experiments.population", "") \
        == "repro.experiments.population is not a script"
    assert problem("repro.perf", "") == "no module repro.perf"
    assert "not a registered" in problem("repro.experiments", "sharded")


def test_every_quoted_name_resolves():
    names = quoted_names()
    assert "repro.experiments.harness" in names
    assert [f"{name}: {found}" for name, found in
            ((name, unresolved(name)) for name in names) if found] == []


def test_a_stale_name_is_caught():
    assert unresolved("repro.experiments.harness.Battery") is None
    assert unresolved("repro.experiments.harness.summarize") \
        == "repro.experiments.harness has no 'summarize'"
    assert unresolved("repro.experiments.ablations2.SWEEP") \
        == "repro.experiments has no 'ablations2'"
