"""One result shape for every pooled battery.

A pooled battery (one with ``cells`` and a ``trial``) declares its
columns and returns :class:`~repro.experiments.harness.ExperimentResult`;
nothing else under ``repro.experiments`` renders a result of one. The
population and overload report blocks and their stable JSON are pinned
as recorded at the commit before their hand-written result classes were
deleted, and the population summary line must say what its table says.
They were re-recorded once since, when a socket's receive watchdog
began to be cancelled on delivery: only ``duration_ms``, ``events`` and
the path-server rate derived from the duration moved. The stable JSON
was re-recorded again when a superseded retransmission timer began to
be cancelled: only ``events`` and the overload ``duration_ms`` moved,
and the rendered blocks stayed.
"""

import hashlib
import importlib
import inspect
import json
import pkgutil
import re

import pytest

import repro.experiments
from repro.experiments.__main__ import REGISTRY
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
         "8fb34dab4986bcfe29ac5546e3c1e22d229873d88d7412de1d8600686f757d6a"),
        (OVERLOAD, dict(users=12),
         "71decea5ec706009946a79c8e1145c3cbfac6c7cae2cece2e0abadad22e3c723",
         "33f973280f48416be207bda721e72804846614a841718d2059eefd7a25a7f873"),
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
        assert {entry.name for entry in pooled} == {
            "figure3", "figure5", "figure6", "ablation-a", "chaos",
            "resilience", "population", "overload"}
        for entry in pooled:
            assert entry.cells and entry.columns, entry.name
            assert entry.assemble is None, entry.name

    def test_no_other_result_class_renders_a_pooled_battery(self):
        """Besides the one shape, only the serial batteries' results
        (Table 1, Ablation B, the component sweep, the fast-path A/B)
        render themselves."""
        assert _result_classes() == {
            "harness.ExperimentResult", "table1.Table1Result",
            "paper_ablations.PolicyQualityResult",
            "components.AblationReport", "fastpath_ab.AbReport",
            "fastpath_ab.ContendedReport"}
