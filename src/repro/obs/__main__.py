"""CLI for the observability subsystem.

Usage::

    python -m repro.obs --selftest
    python -m repro.obs trace [--setup local|remote|fault|ENTRY]
                              [--condition C] [--seed N]
                              [--n-resources N] [--out FILE]
    python -m repro.obs report ARTIFACT
    python -m repro.obs export ARTIFACT [--otlp] [--out FILE]
    python -m repro.obs diff A B

``--selftest`` is the smoke step tier 1 runs: it round-trips a
synthetic span/metric/waterfall artifact through export and load, then
runs one *real* traced figure-3 page load and checks the acceptance
invariant — the waterfall's PLT breakdown sums to the measured PLT.
``trace`` asks the chosen setup's battery for one traced page load
(``--condition``, ``--seed`` and ``--n-resources`` default to the
battery's own) and writes (and renders) its artifact; ``--setup`` also
takes the registry name of any entry that declares a traced load
(``figure3``, ``figure5``, ``figure6``, ``chaos``), and with nothing
else given the file is the one ``run_all --obs`` writes for that entry.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

from repro.errors import ReproError
from repro.obs.export import (artifact_digest, build_artifact, diff_report,
                              load_artifact, render_report, to_otlp,
                              write_artifact)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import STATUS_ERROR, Tracer
from repro.obs.waterfall import assemble_waterfall, waterfall_from_dict


#: ``trace --setup`` shorthands for the registry entry that owns the
#: setup's traced load.
SETUPS = {"local": "figure3", "remote": "figure5", "fault": "chaos"}


def _synthetic_roundtrip() -> None:
    """Span -> waterfall -> artifact -> JSON -> artifact, no network."""
    from repro.simnet.events import EventLoop

    loop = EventLoop()
    tracer = Tracer(loop)
    page = tracer.span("page.load", host="selftest.local", n_resources=1)

    main = tracer.span("browser.fetch", parent=page,
                       url="selftest.local/", main=True)
    loop.run(until=10.0)
    main.end()
    parse = tracer.span("browser.parse", parent=page)
    loop.run(until=12.0)
    parse.end()
    sub = tracer.span("browser.fetch", parent=page,
                      url="selftest.local/a.css", main=False)
    http = tracer.span("http.request", parent=sub, via="scion")
    http.event("retry", attempt=1)
    loop.run(until=19.0)
    http.end()
    sub.end()
    loop.run(until=20.0)
    page.end()

    metrics = MetricsRegistry()
    metrics.counter("proxy_scion_requests").inc(2)
    metrics.histogram("proxy_scion_latency").observe(7.0)

    waterfall = assemble_waterfall(tracer)
    waterfall.breakdown.check(20.0)
    if len(waterfall.rows) != 2:
        raise ReproError(f"expected 2 waterfall rows, got "
                         f"{len(waterfall.rows)}")

    artifact = build_artifact(tracer, metrics, label="selftest")
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_artifact(write_artifact(f"{tmp}/selftest.json",
                                              artifact))
    if loaded != artifact:
        raise ReproError("artifact did not survive the JSON round trip")
    reloaded = waterfall_from_dict(loaded["waterfalls"][0])
    reloaded.breakdown.check(waterfall.plt_ms)
    if "(no metric differences)" not in diff_report(loaded, loaded):
        raise ReproError("self-diff reported differences")
    otlp = to_otlp(loaded)
    exported = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
    if len(exported) != len(loaded["spans"]):
        raise ReproError("OTLP export dropped spans")
    if any(len(span["spanId"]) != 16 or span["spanId"] == "0" * 16
           for span in exported):
        raise ReproError("OTLP export produced an invalid span id")


def _traced_load_check() -> float:
    """One real traced figure-3 load; returns the tracing overhead-free
    PLT after checking the breakdown invariant against it."""
    from repro.experiments.local_setup import FIGURE3

    world, result = FIGURE3.traced(*FIGURE3.traced_cell,
                                   seed=FIGURE3.base_seed)
    plt_ms = result.plt_ms
    waterfall = assemble_waterfall(world.tracer)
    waterfall.breakdown.check(plt_ms)
    leaked = world.tracer.open_spans()
    if leaked:
        raise ReproError(f"{len(leaked)} spans never ended: "
                         f"{[span.name for span in leaked[:5]]}")
    errors = [span for span in world.tracer.spans
              if span.status == STATUS_ERROR]
    if errors:
        raise ReproError(f"unexpected error spans in a healthy load: "
                         f"{[span.name for span in errors[:5]]}")
    return plt_ms


def _selftest() -> int:
    _synthetic_roundtrip()
    print("synthetic span/metric/waterfall round trip: ok")
    plt_ms = _traced_load_check()
    print(f"traced figure-3 load: breakdown sums to PLT "
          f"({plt_ms:.1f} ms): ok")
    print("repro.obs selftest passed")
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import REGISTRY
    from repro.experiments.harness import traced_artifact

    entry = REGISTRY.get(SETUPS.get(args.setup, args.setup))
    if entry is None or entry.traced is None:
        sys.exit(f"python -m repro.obs trace: --setup {args.setup!r} names "
                 f"no registry entry with a traced load")
    cell = None if args.condition is None \
        else (args.condition, *entry.traced_cell[1:])
    params = {} if args.n_resources is None \
        else {"n_resources": args.n_resources}
    artifact = traced_artifact(entry, cell, args.seed, **params)
    print(render_report(artifact))
    if args.out:
        path = write_artifact(args.out, artifact)
        print(f"\nwrote {path} (digest {artifact_digest(artifact)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace page loads, render waterfalls, diff artifacts")
    parser.add_argument("--selftest", action="store_true",
                        help="span/metric/waterfall round-trip smoke check")
    sub = parser.add_subparsers(dest="command")

    trace_parser = sub.add_parser(
        "trace", help="run one traced page load and render its waterfall")
    trace_parser.add_argument("--setup", default="local",
                              help="local | remote | fault, or the name "
                                   "of a registry entry with a traced load")
    trace_parser.add_argument("--condition", default=None,
                              help="figure condition or fault scenario "
                                   "(setup-specific default)")
    trace_parser.add_argument("--seed", type=int, default=None)
    trace_parser.add_argument("--n-resources", type=int, default=None)
    trace_parser.add_argument("--out", default=None,
                              help="write the JSON artifact here")

    report_parser = sub.add_parser("report",
                                   help="render one artifact as text")
    report_parser.add_argument("artifact")

    export_parser = sub.add_parser(
        "export", help="re-emit an artifact for external tooling")
    export_parser.add_argument("artifact")
    export_parser.add_argument("--otlp", action="store_true",
                               help="emit OTLP/JSON trace spans instead "
                                    "of the native artifact")
    export_parser.add_argument("--out", default=None,
                               help="write here instead of stdout")

    diff_parser = sub.add_parser("diff", help="diff two artifacts")
    diff_parser.add_argument("a")
    diff_parser.add_argument("b")

    args = parser.parse_args(argv)
    if args.selftest:
        return _selftest()
    if args.command == "trace":
        return _trace(args)
    if args.command == "report":
        print(render_report(load_artifact(args.artifact)))
        return 0
    if args.command == "export":
        artifact = load_artifact(args.artifact)
        document = to_otlp(artifact) if args.otlp else artifact
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.out:
            pathlib.Path(args.out).write_text(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    if args.command == "diff":
        print(diff_report(load_artifact(args.a), load_artifact(args.b)))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
