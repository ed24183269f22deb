"""The simulated half of the committed Component ablations block replays.

``results/components.json`` (and the EXPERIMENTS.md block rendered from
the same report) mixes wall-clock numbers with simulated ones. The
baselines' simulated metrics are a pure function of the committed
``config``: rerun here, each of the four baselines reads exactly what
the file recorded, every metric but ``wallclock_ms`` and
``events_per_s`` (both divide by a stopwatch). If a value moves, an
event count or a simulated outcome moved; regenerate the block with
``run_all --ablate`` and commit the new ``components.json``.
"""

import json
import pathlib

import pytest

from repro.experiments import components as ab

ROOT = pathlib.Path(__file__).resolve().parents[3]
RECORDED = json.loads(
    (ROOT / "results" / "components.json").read_text(encoding="utf-8"))

#: Metrics measured with a stopwatch, not simulated.
WALL_CLOCK = {"wallclock_ms", "events_per_s"}


def _config() -> ab.AblationConfig:
    config = dict(RECORDED["config"])
    config["conditions"] = tuple(config["conditions"])
    return ab.AblationConfig(**config)


def _baselines() -> dict[str, tuple]:
    """Every ``(battery, context)`` the sweep records a baseline for."""
    return {ab.battery_label(comp.battery, comp.context):
            (comp.battery, comp.context) for comp in ab.COMPONENTS}


def test_every_recorded_baseline_is_still_swept():
    assert set(_baselines()) == set(RECORDED["baselines"])


@pytest.mark.parametrize("label", sorted(RECORDED["baselines"]))
def test_baseline_replays_its_simulated_metrics(label):
    battery, context = _baselines()[label]
    overrides = ab.default_knob_states()
    overrides.update(dict(context))
    run = ab.run_battery(battery, overrides, _config())
    recorded = RECORDED["baselines"][label]["metrics"]
    assert set(run.metrics) == set(recorded)
    assert {name: value for name, value in run.metrics.items()
            if name not in WALL_CLOCK} == \
        {name: value for name, value in recorded.items()
         if name not in WALL_CLOCK}


def test_the_report_block_shows_the_recorded_baselines():
    """EXPERIMENTS.md's block was rendered from the same report."""
    report = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    start = report.index("== component ablations")
    block = report[start:report.index("```", start)]
    lines = {line.split()[1]: line.split()[2:] for line in block.splitlines()
             if line.startswith("baseline ")}
    assert set(lines) == set(RECORDED["baselines"])
    for label, baseline in RECORDED["baselines"].items():
        for name, value in baseline["metrics"].items():
            if name not in WALL_CLOCK:
                assert f"{name}={value:.2f}" in lines[label], (label, name)

