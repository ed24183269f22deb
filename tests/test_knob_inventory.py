"""The runtime-knob inventory cannot drift.

Every ``REPRO_*`` environment variable the source reads must be one of
the seven documented knobs, and README's "Runtime knobs" table must
list exactly those — adding a knob means editing this set on purpose.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

KNOBS = {
    "REPRO_WORKERS", "REPRO_FASTPATH", "REPRO_REVOCATION",
    "REPRO_BREAKER", "REPRO_ADMISSION", "REPRO_RETRY_BUDGET",
    "REPRO_POPULATION_USERS",
}


def test_source_reads_exactly_the_documented_knobs():
    literal = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found.update(literal.findall(path.read_text(encoding="utf-8")))
    assert found == KNOBS


def test_readme_table_lists_exactly_the_documented_knobs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Runtime knobs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)", section, flags=re.MULTILINE)
    assert len(rows) == len(set(rows))
    assert set(rows) == KNOBS
    assert "all seven" in section
