"""The simulator's benchmark: five named workloads, measured from outside.

``python -m bench --seed S`` runs every workload in a fresh child
process and prints every metric by name with its unit;
``python -m bench --workload W --seed S --seconds N --trace 0|1`` is one
run, ending in one JSON line (the contract in ``BENCHMARK.json``, which
is also where metric names, units, directions and bounds live — the
code here reads them from that file rather than repeating them).

Everything is driven through ``repro``'s public functions; nothing
under ``src/`` knows this package exists. See ``bench/README.md``.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def require_repro() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when the simulator's
    source is not in this checkout (nothing to measure)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no simulator source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
