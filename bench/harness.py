"""Measurement plumbing: phase spans, profile buckets, digests.

All of it lives outside the simulator: spans wrap the harness's own
calls into ``repro`` (tracing *inside* ``src/`` is a later issue), and
the profile is a plain ``cProfile`` run bucketed by source package.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import resource
import time

from bench import BENCH_DIR, OUT_DIR, SRC
from repro.experiments.population import percentile as _sorted_percentile

_REPRO_ROOT = str(SRC / "repro") + "/"

#: Harness phases of one trial, in order.
PHASES = ("plan", "build", "run", "collect")

#: Profile buckets: the simulator's packages (first matching path prefix
#: under ``src/repro/`` wins), then everything else as ``stdlib``
#: (builtins, the standard library and third-party code) and ``harness``
#: (this package).
LAYER_PREFIXES = (
    ("internet/router.py", "internet.router"),
    ("simnet/events.py", "simnet.events"),
    ("simnet/fastpath.py", "simnet.fastpath"),
    ("simnet/", "simnet.link"),
    ("core/ppl/", "core.ppl"),
    ("core/skip/", "core.skip"),
    ("core/", "core.browser"),
    ("topology/", "topology"),
    ("crypto/", "crypto"),
    ("scion/", "scion"),
    ("internet/", "internet"),
    ("transport/", "transport"),
    ("ip/", "ip"),
    ("quic/", "quic"),
    ("http/", "http"),
    ("dns/", "dns"),
    ("workload/", "workload"),
    ("obs/", "obs"),
    ("experiments/", "experiments"),
)
LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) \
    + ("stdlib", "harness")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (the repo's own rule)."""
    return _sorted_percentile(sorted(values), q)


def digest(loads) -> str:
    """sha256 of a repetition's ``(cell, simulated PLT, failed)`` rows —
    ``repr`` keeps every float digit, so equal digests mean bit-equal
    simulated results."""
    return hashlib.sha256(repr(list(loads)).encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's high-water resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("spans", "row")

    def __init__(self, spans: "Spans", row: dict) -> None:
        self.spans = spans
        self.row = row

    def __enter__(self):
        self.spans._stack.append(self.row["id"])
        self.row["start"] = time.perf_counter()
        return self.row

    def __exit__(self, *exc):
        self.row["end"] = time.perf_counter()
        self.spans._stack.pop()
        return False


class Spans:
    """In-memory span recorder: name, start, end, parent, trial id.

    Disabled (the end-to-end runs) it hands out one shared no-op context
    manager, so the timed region pays an attribute test per phase and
    nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, trial: str | None = None):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if trial is None and parent is not None:
            trial = self.rows[parent]["trial"]  # phases share their trial's id
        row = {"id": len(self.rows), "name": name, "trial": trial,
               "parent": parent, "start": 0.0, "end": 0.0}
        self.rows.append(row)
        return _Span(self, row)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's."""
        children: dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children[row["parent"]] = (children.get(row["parent"], 0.0)
                                           + row["end"] - row["start"])
        totals: dict[str, float] = {}
        for row in self.rows:
            own = row["end"] - row["start"] - children.get(row["id"], 0.0)
            totals[row["name"]] = totals.get(row["name"], 0.0) + own
        return totals

    def write(self, stem: str) -> None:
        """Dump the spans under ``bench/out/`` (called once, at exit)."""
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{stem}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(self.rows, handle)


def _layer_of(code) -> str:
    """The profile bucket of one ``cProfile`` entry's code object."""
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return "stdlib"  # a builtin: cProfile names it with a string
    if filename.startswith(_REPRO_ROOT):
        relative = filename[len(_REPRO_ROOT):]
        for prefix, layer in LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "experiments"  # top-level helpers (errors, units)
    if filename.startswith(str(BENCH_DIR)):
        return "harness"
    return "stdlib"


def profile_buckets(function) -> tuple[object, dict[str, float],
                                       dict[str, int]]:
    """Run ``function`` under cProfile; returns its result plus
    ``{layer: share of total self time}`` and ``{layer: calls}``."""
    profiler = cProfile.Profile()
    result = profiler.runcall(function)
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profiler.getstats():
        layer = _layer_of(entry.code)
        seconds[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    total = sum(seconds.values()) or 1.0
    return (result, {layer: value / total
                     for layer, value in seconds.items()}, calls)
