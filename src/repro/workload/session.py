"""Per-user session plans: think time, tabs, and revisit locality.

A session plan is a *pure function* of ``(catalog, user_id, seed,
config)`` — every draw comes from the user's dedicated
``user:{seed}:{user_id}`` stream, so plans are bit-identical across
processes and never perturbed by simulation-side RNG consumers. The
battery materializes the plan before the world starts and replays it
as a driver process.

Revisit locality is the load-bearing behaviour: with probability
``revisit_probability`` a user returns to one of their last
``locality_window`` sites instead of drawing fresh from the Zipf
catalog. Revisits are what warm per-user state — browser caches, HTTP
connection pools, and the path daemon's segment cache all hit on the
second visit. ``SessionConfig(locality=False)`` turns it off; the roll
is consumed either way, so the rest of the stream never shifts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workload.catalog import SiteCatalog

#: Hard cap on visits per session, so one user's geometric draw can
#: never dominate a battery's wall-clock.
MAX_VISITS = 12


@dataclass(frozen=True)
class SessionConfig:
    """Shape of one user's browsing session."""

    #: Expected visits per session (geometric continuation).
    mean_visits: float = 3.0
    min_visits: int = 1
    #: Mean think time between visits (exponential).
    mean_think_time_ms: float = 600.0
    #: Maximum concurrent tabs per visit.
    tab_parallelism: int = 2
    #: Chance each extra tab (up to ``tab_parallelism``) opens.
    tab_probability: float = 0.25
    #: Chance a page choice returns to recent history.
    revisit_probability: float = 0.45
    #: How far back "recent history" reaches (distinct sites).
    locality_window: int = 3
    #: ``False`` draws every page fresh from the catalog.
    locality: bool = True


DEFAULT_SESSION = SessionConfig()


@dataclass(frozen=True)
class Visit:
    """One visit: the site per open tab, then think time."""

    sites: tuple[int, ...]  # catalog indices, one per tab
    think_time_ms: float
    revisit: bool  # any tab returned to recent history


def plan_session(catalog: SiteCatalog, user_id: int, seed: int,
                 config: SessionConfig = DEFAULT_SESSION) -> tuple[Visit, ...]:
    """Materialize one user's deterministic visit plan."""
    rng = random.Random(f"user:{seed}:{user_id}")
    continue_probability = (1.0 - 1.0 / config.mean_visits
                            if config.mean_visits > 1 else 0.0)
    n_visits = config.min_visits
    while n_visits < MAX_VISITS and rng.random() < continue_probability:
        n_visits += 1

    history: list[int] = []  # recent distinct sites, newest last
    visits = []
    for _ in range(n_visits):
        tabs = 1
        while (tabs < config.tab_parallelism
               and rng.random() < config.tab_probability):
            tabs += 1
        sites = []
        any_revisit = False
        for _tab in range(tabs):
            # Consume the roll even when locality is off, so the field
            # changes *only* the revisit decisions downstream of it.
            roll = rng.random()
            revisit = (bool(history) and roll < config.revisit_probability
                       and config.locality)
            if revisit:
                window = history[-config.locality_window:]
                index = window[rng.randrange(len(window))]
                any_revisit = True
            else:
                index = catalog.sample_index(rng)
            sites.append(index)
            if index in history:
                history.remove(index)
            history.append(index)
            del history[:-config.locality_window]
        think = rng.expovariate(1.0 / config.mean_think_time_ms)
        visits.append(Visit(sites=tuple(sites), think_time_ms=think,
                            revisit=any_revisit))
    return tuple(visits)
