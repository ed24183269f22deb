"""Per-destination path selection under the active policy.

The selector turns the daemon's candidate set into a concrete choice,
implementing §4.2's semantics:

* **compliant path exists** → use the best one (policy preferences
  decide "best"),
* **no compliant path, opportunistic mode** → the policy is "interpreted
  as a preference": the site still loads, and the selector either falls
  back to IP (default — never forward over a path the user excluded) or,
  when configured with ``use_noncompliant=True``, uses the best
  non-compliant SCION path; either way the choice is flagged so the UI
  shows non-compliance,
* **no compliant path, strict mode** → the caller receives no choice and
  must block the request.

Destinations in the local AS need no path and are trivially compliant.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from repro.core.ppl.evaluator import PathPolicy, order_paths
from repro.errors import OverloadError
from repro.scion.daemon import PathDaemon
from repro.scion.path import ScionPath
from repro.topology.isd_as import IsdAs


class ChoiceKind(enum.Enum):
    """What the selector decided."""

    SCION_COMPLIANT = "scion-compliant"
    SCION_NONCOMPLIANT = "scion-noncompliant"
    LOCAL_AS = "local"          # same AS, no path needed
    NO_SCION = "no-scion"       # no SCION path at all
    POLICY_EXHAUSTED = "policy-exhausted"  # paths exist, none compliant
    OVERLOADED = "overloaded"   # lookup shed by admission control


@dataclass(frozen=True)
class PathChoice:
    """The selector's verdict for one destination."""

    kind: ChoiceKind
    path: ScionPath | None = None

    @property
    def usable(self) -> bool:
        """True when SCION can be used at all."""
        return self.kind in (ChoiceKind.SCION_COMPLIANT,
                             ChoiceKind.SCION_NONCOMPLIANT,
                             ChoiceKind.LOCAL_AS)

    @property
    def compliant(self) -> bool:
        """True when the choice satisfies the user's policy."""
        return self.kind in (ChoiceKind.SCION_COMPLIANT, ChoiceKind.LOCAL_AS)


#: The verdicts that carry no path: frozen, so every selection shares them.
LOCAL_AS_CHOICE = PathChoice(kind=ChoiceKind.LOCAL_AS)
NO_SCION_CHOICE = PathChoice(kind=ChoiceKind.NO_SCION)
POLICY_EXHAUSTED_CHOICE = PathChoice(kind=ChoiceKind.POLICY_EXHAUSTED)
OVERLOADED_CHOICE = PathChoice(kind=ChoiceKind.OVERLOADED)


class PathSelector:
    """Selection logic over a daemon's candidate sets.

    The verdict is a pure function of the policy and the candidate
    paths (both immutable), and consecutive requests to one destination
    nearly always bring the same pair, so the selector keeps its last
    verdict per destination and reuses it while the *same* policy object
    and the *same* path objects, in the same order, come back. Any
    change — a new policy, a quarantined, revoked, avoided or refreshed
    path — is a different object or list and recomputes. The entry holds
    its policy and paths, so neither identity can be reused by a new
    object while it stands.
    """

    def __init__(self, daemon: PathDaemon,
                 use_noncompliant: bool = False) -> None:
        self.daemon = daemon
        self.use_noncompliant = use_noncompliant
        self.selections = 0
        #: The same selections by outcome (``ChoiceKind`` value).
        self.selected: dict[str, int] = {}
        #: dst → (policy, candidates, verdict) of the last selection
        #: that evaluated candidates for it.
        self._last: dict[IsdAs, tuple[PathPolicy | None,
                                      list[ScionPath], PathChoice]] = {}

    def choose(self, dst: IsdAs, policy: PathPolicy | None,
               avoid: frozenset[str] = frozenset()) -> PathChoice:
        """Select a path (or report why none is usable).

        ``avoid`` is a set of path fingerprints to skip — the proxy's
        failover logic passes the recently-failed paths here.
        """
        self.selections += 1
        choice = self._choose(dst, policy, avoid)
        kind = choice.kind.value
        self.selected[kind] = self.selected.get(kind, 0) + 1
        return choice

    def _choose(self, dst: IsdAs, policy: PathPolicy | None,
                avoid: frozenset[str]) -> PathChoice:
        if dst == self.daemon.isd_as:
            return LOCAL_AS_CHOICE
        try:
            candidates = self.daemon.try_paths(dst)
        except OverloadError:
            # The shared path service shed this lookup: an explicit
            # outcome, so the proxy can fall back to IP (opportunistic)
            # or block with "overloaded" (strict) without retrying.
            return OVERLOADED_CHOICE
        if avoid:
            candidates = [path for path in candidates
                          if path.fingerprint() not in avoid]
        if not candidates:
            return NO_SCION_CHOICE
        last = self._last.get(dst)
        if last is not None and last[0] is policy \
                and len(last[1]) == len(candidates) \
                and all(map(operator.is_, last[1], candidates)):
            return last[2]
        choice = self._verdict(policy, candidates)
        self._last[dst] = (policy, candidates, choice)
        return choice

    def _verdict(self, policy: PathPolicy | None,
                 candidates: list[ScionPath]) -> PathChoice:
        """The choice among a non-empty candidate list."""
        if policy is None:
            return PathChoice(kind=ChoiceKind.SCION_COMPLIANT,
                              path=candidates[0])
        compliant = order_paths(policy, candidates)
        if compliant:
            return PathChoice(kind=ChoiceKind.SCION_COMPLIANT,
                              path=compliant[0])
        if self.use_noncompliant:
            return PathChoice(kind=ChoiceKind.SCION_NONCOMPLIANT,
                              path=candidates[0])
        return POLICY_EXHAUSTED_CHOICE
