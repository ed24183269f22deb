"""One result shape for every experiment.

Every experiment of the report has ``cells`` and a ``trial``, declares
its columns and returns
:class:`~repro.experiments.harness.ExperimentResult`; nothing else under
``repro.experiments`` renders a result of one. The
population and overload report blocks and their stable JSON are pinned
as recorded at the commit before their hand-written result classes were
deleted, and the population summary line must say what its table says.
They were re-recorded once since, when a socket's receive watchdog
began to be cancelled on delivery: only ``duration_ms``, ``events`` and
the path-server rate derived from the duration moved. The stable JSON
was re-recorded again when a superseded retransmission timer began to
be cancelled: only ``events`` and the overload ``duration_ms`` moved,
and the rendered blocks stayed. Both were re-recorded once more when a
router's forwarding step joined its packet's arrival event, a socket
reader began to run in the delivery event and a timeout began to resume
its waiters in its own step: same-instant events run in a new order.
The population block stayed; its JSON moved in ``events`` (16,352 ->
8,574 for the opportunistic trial), the mean PLT (112.595 -> 112.567
ms) and the pool wait (766.3437 -> 766.3431 ms). In the overload block
the p99 PLTs fell by up to 14 ms (pre-spike 1,226 -> 1,221 ms, burst
2,671 -> 2,657 ms on and 2,711 -> 2,697 ms off), retry amplification
went 1.18x -> 1.17x and budget exhaustions 11 -> 10. The stable JSON
was re-recorded when a request's watchdog became an interrupting timer,
a free CPU unit stopped costing a wake-up and the coroutine core began
to push its own heap entries: only ``events`` moved (population 4,768
-> 4,224 and 4,841 -> 4,281, overload 16,549 -> 16,165 and 16,431 ->
16,047), and both rendered blocks stayed.
"""

import hashlib
import importlib
import inspect
import json
import pkgutil
import re

import pytest

import repro.experiments
from repro.experiments.__main__ import EXPERIMENTS, REGISTRY
from repro.experiments.harness import run, to_json
from repro.experiments.overload import OVERLOAD
from repro.experiments.population import MODES, POPULATION


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stable_json(result) -> str:
    return json.dumps(to_json(result), indent=2, sort_keys=True)


class TestRecordedReports:
    @pytest.mark.parametrize("battery, params, render, stable_json", [
        (POPULATION, dict(users=6, sites=6),
         "52d308e9608cf26b61404dc2a2a9b1e66351b03442774ea76700160a0e478c05",
         "58253cafaa015aa067f185010a252df863fa68099a82bb9583d78f2ab18fdc0c"),
        (OVERLOAD, dict(users=12),
         "92dc3f23ffc0df3dbc7259f257a0a55c243e2a08c67214132a5242b2b6b7643f",
         "3f717e802f7411c39989f8380f381746cd3af049f5d0f390e2b041323ddc2b99"),
    ], ids=["population", "overload"])
    def test_report_and_json_replay_the_recorded_run(
            self, battery, params, render, stable_json):
        result = run(battery, trials=1, workers=1, **params)
        assert _sha256(result.render()) == render
        assert _sha256(_stable_json(result)) == stable_json


class TestSummaryMatchesTable:
    def test_population_summary_reads_the_rendered_row(self):
        """At two trials the table prints per-mode means; the summary
        line must quote those, not the first trial's sample."""
        result = run(POPULATION, trials=2, users=6, sites=6, workers=1)
        rows = {line.split()[0]: line.split()
                for line in result.render().splitlines()
                if line.startswith(MODES)}
        measured = re.search(
            r"p99 (\d+) ms opportunistic vs (\d+) ms BGP/IP-only; daemon "
            r"hit rate (\d+)%, path-server (\d+) qps",
            POPULATION.measured(result))
        opportunistic, baseline = (rows["opportunistic-SCION"],
                                   rows["BGP/IP-only"])
        # Row columns: mode p50 p95 p99 qps hit pool-q q-ms; the summary
        # rounds what the row prints to one decimal.
        shown = [opportunistic[3].removesuffix("ms"),
                 baseline[3].removesuffix("ms"),
                 opportunistic[5].removesuffix("%"), opportunistic[4]]
        for quoted, printed in zip(measured.groups(), shown):
            assert abs(int(quoted) - float(printed)) <= 0.55, \
                (quoted, printed)


def _result_classes() -> set[str]:
    """Every class under ``repro.experiments`` defining ``render``."""
    found = set()
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and \
                    inspect.isfunction(vars(cls).get("render")):
                found.add(f"{info.name}.{name}")
    return found


class TestOneResultShape:
    """Static: no trial runs."""

    def test_every_pooled_battery_assembles_through_one_path(self):
        pooled = [entry for entry in REGISTRY.values()
                  if entry.trial is not None]
        assert pooled == list(EXPERIMENTS)
        for entry in pooled:
            assert entry.cells and entry.columns, entry.name
            assert entry.assemble is None, entry.name
        assert {entry.name for entry in REGISTRY.values()
                if entry.assemble is not None} == {"components",
                                                   "fastpath-ab"}

    def test_no_other_result_class_renders_a_pooled_battery(self):
        """Besides the one shape, only the two harness tools' results
        (the component sweep, the fast-path A/B) render themselves."""
        assert _result_classes() == {
            "harness.ExperimentResult", "components.AblationReport",
            "fastpath_ab.AbReport", "fastpath_ab.ContendedReport"}
