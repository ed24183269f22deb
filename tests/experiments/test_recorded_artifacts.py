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
        "3566fe57d7d2671800f618a23621f2aac853a0330793c0f6b6992fbb765a10a5",
    "figure5":
        "a4479ef3b129dade45275de5911e362ab28f1d59f72be2fb7f609ca52ae78dbb",
    "figure6":
        "89e6e2bf3473e281014ce2bb65b6ab48d85932dbdc5319d5144eccb42b10e08e",
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
