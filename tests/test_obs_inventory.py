"""Where a count lives cannot drift.

Instrumented code keeps its counts in its own records and never writes
a metric; ``repro.obs.metrics.observe`` is the one way out. A registry
write outside ``repro.obs`` or a ``*Stats`` class that nothing exports
fails here — the remedy is a line in ``observe``'s ``_records`` (or a
commented exemption below), not a second counter beside the first.
"""

import pathlib
import re

from repro.experiments.local_setup import figure3_load
from repro.obs.metrics import _records

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``*Stats`` classes that are not a world's telemetry, and why.
NOT_WALKED = {
    # A result shape (box-plot summary of PLT samples), not a counter.
    "BoxStats",
    # Cumulative over the process, not the world: ``build_artifact``
    # records it under ``process``, outside the metrics and the digest.
    "SnapshotStats",
    # The fast path's jitter-curve cache: process-level for the same
    # reason, recorded beside the snapshot cache under ``process``.
    "JitterCurveStats",
    # Per connection and gone with it; a world's transport totals are
    # ``Network.stats()`` and the link gauges.
    "ChannelStats",
    # The container of one proxy's ``HostStats`` records, which are
    # what is walked.
    "PathUsageStats",
}


def test_nothing_outside_obs_writes_a_metric():
    write = re.compile(r"metrics\.(counter|gauge|histogram)\(")
    offenders = [
        f"{path.relative_to(SOURCE)}:{number}"
        for path in sorted(SOURCE.rglob("*.py"))
        if "obs" not in path.relative_to(SOURCE).parts[:1]
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if write.search(line)]
    assert offenders == []


def test_every_stats_class_is_observed_or_exempt():
    declared = set()
    for path in SOURCE.rglob("*.py"):
        declared.update(re.findall(r"^class (\w+Stats)\b", path.read_text(),
                                   flags=re.MULTILINE))
    world, _result = figure3_load("mixed SCION-IP", seed=100)
    walked = {type(record).__name__ for _component, _labels, record, _fields
              in _records(world.internet, [world.browser])}
    assert NOT_WALKED <= declared  # no stale exemptions
    assert not walked & NOT_WALKED
    assert declared - walked == NOT_WALKED
