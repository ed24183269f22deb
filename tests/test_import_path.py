"""Cold start: what building and running worlds must not import.

``numpy`` costs more to import than the rest of the package together,
and every fresh process — a spawned pool worker, one benchmark child —
pays for ``import repro`` before its first trial. Only battery summaries
(``BoxStats``) need it, so only they may import it. ``networkx`` is no
dependency at all; nothing a world runs may pull it in.
"""

import os
import pathlib
import subprocess
import sys

from repro.experiments.harness import BoxStats

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

WORLDS = """
import sys
import repro
from repro.experiments import local_setup, remote_setup
from repro.experiments.population import population_trial

assert local_setup.figure3_trial("mixed SCION-IP", 7, n_resources=4) > 0
assert remote_setup.remote_trial(remote_setup.FAR_ORIGIN,
                                 "multiple origins / SCION", 7,
                                 n_resources=4) > 0
assert population_trial("opportunistic-SCION", 7, users=4,
                        sites=6).loads > 0
print(sorted(m for m in ("numpy", "networkx") if m in sys.modules))
"""


def test_worlds_run_without_numpy_or_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", WORLDS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_box_stats_summary_is_unchanged():
    """Pinned with numpy imported at module level."""
    assert BoxStats.from_samples([3.5, 1.25, 9.0, 4.75, 4.75, 0.5, 7.125]) \
        == BoxStats(n=7, minimum=0.5, q1=2.375, median=4.75, q3=5.9375,
                    maximum=9.0, mean=4.410714285714286,
                    std=3.021377208839578)
    assert BoxStats.from_samples([2.0]) == BoxStats(
        n=1, minimum=2.0, q1=2.0, median=2.0, q3=2.0, maximum=2.0,
        mean=2.0, std=0.0)
