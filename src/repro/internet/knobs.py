"""Uniform environment-knob parsing for every toggleable component.

Every optional subsystem in the repo — the hybrid-fidelity fast path,
the control-plane snapshot cache, revocation dissemination, the proxy's
circuit breakers, admission control, retry budgets — is switched by one
boolean environment knob plus a per-world constructor override. Before
this module each site parsed its own variable with its own accepted
spellings (some took ``off``, some only ``0``), which is exactly the
kind of drift the ablation harness
(:mod:`repro.experiments.components`) exists to catch.

One contract, everywhere:

* :func:`knob` reads the variable; ``0`` / ``false`` / ``no`` / ``off``
  (any case, surrounding whitespace ignored) mean *disabled*, an unset
  or empty variable means the knob's default, and anything else means
  *enabled*.
* :func:`resolve_knob` layers the per-world override on top: an
  explicit ``True``/``False`` (an ``Internet(...)`` kwarg) always wins
  over the process environment; ``None`` defers to :func:`knob`.
* :func:`forced` / :func:`forced_many` are the test/harness helpers
  that pin knobs for the duration of a block and restore the previous
  environment on exit — the ablation harness applies them *inside* the
  trial function, so toggles behave identically in-process and on
  spawned pool workers.

This module is deliberately dependency-free (``os`` and the
import-free ``repro.errors`` only) so every layer — ``simnet``
included — can import it without cycles.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Mapping
from contextlib import AbstractContextManager, contextmanager

from repro.errors import ReproError

#: Spellings that turn a knob off (case-insensitive, whitespace-trimmed).
FALSE_SPELLINGS = ("0", "false", "no", "off")


def knob(name: str, default: bool = True) -> bool:
    """The boolean value of environment knob ``name``.

    Unset or empty means ``default``; any of :data:`FALSE_SPELLINGS`
    means ``False``; every other non-empty value means ``True``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    return value not in FALSE_SPELLINGS


def resolve_knob(name: str, override: bool | None = None,
                 default: bool = True) -> bool:
    """Resolve a component toggle: explicit override, then environment.

    This is the single resolution rule every component follows —
    ``Internet(fastpath=False)`` beats ``REPRO_FASTPATH=1``, and with no
    override the environment (then ``default``) decides.
    """
    if override is not None:
        return bool(override)
    return knob(name, default)


def resolve_int_knob(name: str, override: int | None = None,
                     default: int = 1, minimum: int = 1) -> int:
    """Resolve an integer knob: explicit override, then environment.

    The count twin of :func:`resolve_knob`, and the one rule both
    integer knobs (``REPRO_WORKERS``, ``REPRO_POPULATION_USERS``) parse
    through: unset or empty means ``default``, an integer is clamped to
    ``minimum``, and anything else raises :class:`ReproError` — a
    typo'd count must fail loudly, not fall back.
    """
    if override is not None:
        return max(minimum, int(override))
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return max(minimum, int(raw))
    except ValueError:
        raise ReproError(f"{name}={raw!r} is not an integer") from None


def forced(name: str, enabled: bool) -> AbstractContextManager[None]:
    """Pin one knob for the duration of the block, then restore it."""
    return forced_many({name: enabled})


@contextmanager
def forced_many(overrides: Mapping[str, bool]) -> Iterator[None]:
    """Pin several knobs at once (the ablation harness's toggle set).

    Restores every variable to its previous state on exit, even when
    the block raises or itself unsets a pinned variable — a failed
    off-run must not poison later runs.
    """
    previous: dict[str, str | None] = {
        name: os.environ.get(name) for name in overrides}
    for name, enabled in overrides.items():
        os.environ[name] = "1" if enabled else "0"
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
