"""The committed obs artifacts replay.

``results/obs/<entry>.json`` is a pure function of (entry, traced cell,
base seed): built here, in a process that has run who knows what, it
digests the same as the committed file — the ``process`` block is the
one part that depends on the process, and the digest skips it. If a pin
moves, a traced load's spans, counts or waterfall moved; regenerate and
re-pin with the recipe in ``.claude/skills/verify/SKILL.md``.
"""

import pathlib

import pytest

from repro.experiments.__main__ import REGISTRY
from repro.experiments.harness import traced_artifact
from repro.obs.export import artifact_digest, load_artifact

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results" / "obs"

PINS = {
    "figure3":
        "c068dac8417b4e681673af147abcee1c382e2e9b6309a59bef8253e18dfb2b72",
    "figure5":
        "1fe9b58e1d464969cfde2a9fec534d6ca61a6d846036fbb208c9af8f184e8adc",
    "figure6":
        "55a9bc6dfe60e1282f518af0eb332f5a65d06793e2e17df14e0b9c73b2f451f5",
    "chaos":
        "07f2923eee7128c67b017afe564ead0df5195bb830f44cfba2a2e955e9b617b1",
}


def test_every_traced_entry_is_pinned():
    assert {name for name, entry in REGISTRY.items()
            if entry.traced is not None} == set(PINS)


@pytest.mark.parametrize("name", PINS)
def test_artifact_replays_the_committed_file(name):
    assert artifact_digest(load_artifact(RESULTS / f"{name}.json")) \
        == PINS[name]
    assert artifact_digest(traced_artifact(REGISTRY[name])) == PINS[name]
