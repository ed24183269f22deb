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
        "6661f5ea930447da635febd1033449cafd90d8559be6a1fe2776c3de56e14020",
    "figure5":
        "66edcdb61b581bc034289eeebe1fd9f6d962dd656516339d09f97fbab50775a0",
    "figure6":
        "e2116aa6044265036acb22436a579659085889cebfe1d15af580184f943059c6",
    "chaos":
        "7705e07028e15f12640b9a57fa381e1677a9e9843d176279cd2c1355fc57ea50",
}


def test_every_traced_entry_is_pinned():
    assert {name for name, entry in REGISTRY.items()
            if entry.traced is not None} == set(PINS)


@pytest.mark.parametrize("name", PINS)
def test_artifact_replays_the_committed_file(name):
    assert artifact_digest(load_artifact(RESULTS / f"{name}.json")) \
        == PINS[name]
    assert artifact_digest(traced_artifact(REGISTRY[name])) == PINS[name]
