"""Per-client retry budgets with deterministic backoff jitter.

The proxy's per-request exponential-backoff retries are individually
harmless, but under a flash crowd thousands of clients retrying in
lockstep *amplify* a transient spike into a sustained storm — the
classic metastable failure mode. A :class:`RetryBudget` bounds that
amplification by construction: retries spend from a token bucket that
refills at a sustained rate, and backoff delays are multiplied by a
seeded jitter factor so synchronized clients desynchronize.

All jitter comes from the dedicated ``retry-jitter:{name}`` stream and
is drawn only when an *enabled* budget authorizes a retry, so
fault-free runs and runs with ``REPRO_RETRY_BUDGET=0`` consume exactly
the RNG draws they did before this module existed — bit-identical
replays, test-enforced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Environment toggle for the proxy's retry budget + backoff jitter.
RETRY_BUDGET_ENV = "REPRO_RETRY_BUDGET"


class LazyRandom:
    """A seeded jitter stream whose :class:`random.Random` (2.5 KB of
    Mersenne-Twister state) is built at the first draw.

    Jitter is drawn only after a retry or a breaker trip, so most
    streams never draw; the draws, when they come, are those of
    ``random.Random(seed)``.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: str) -> None:
        self.seed = seed
        self._rng: random.Random | None = None

    def random(self) -> float:
        """The stream's next float in [0, 1)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng.random()


@dataclass
class RetryBudget:
    """Token-bucket retry authorization for one client proxy.

    Attributes:
        name: identity of the owning client; seeds the jitter stream.
        enabled: explicit override; ``None`` defers to
            ``REPRO_RETRY_BUDGET`` (default on).
        capacity: burst of retries one client may spend at once.
        refill_per_sec: sustained retry rate (tokens per simulated
            second).
    """

    name: str
    enabled: bool | None = None
    capacity: float = 4.0
    refill_per_sec: float = 0.5
    #: Counters: retries authorized / refused for lack of tokens.
    spent_total: int = 0
    exhausted_total: int = 0
    _tokens: float = field(init=False)
    _last_refill_ms: float = field(init=False, default=0.0)
    _jitter: LazyRandom = field(init=False)

    def __post_init__(self) -> None:
        from repro.internet.knobs import resolve_knob
        self.enabled = resolve_knob(RETRY_BUDGET_ENV, self.enabled)
        self._tokens = self.capacity
        self._jitter = LazyRandom(f"retry-jitter:{self.name}")

    def configure(self, capacity: float, refill_per_sec: float) -> None:
        """Retune the bucket (e.g., per-experiment) and refill it."""
        self.capacity = capacity
        self.refill_per_sec = refill_per_sec
        self._tokens = capacity

    def try_spend(self, now_ms: float) -> bool:
        """Authorize one retry at simulated time ``now_ms``.

        Disabled budgets authorize everything and keep zero state.
        """
        if not self.enabled:
            return True
        elapsed_ms = now_ms - self._last_refill_ms
        if elapsed_ms > 0.0:
            self._tokens = min(
                self.capacity,
                self._tokens + self.refill_per_sec * elapsed_ms / 1_000.0)
            self._last_refill_ms = now_ms
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.spent_total += 1
            return True
        self.exhausted_total += 1
        return False

    def jittered_backoff(self, base_ms: float) -> float:
        """``base_ms`` scaled by a seeded factor in [0.5, 1.5).

        Draws only for enabled budgets (and only after
        :meth:`try_spend` said yes, by call order in the proxy), so the
        knob-off stream is untouched.
        """
        if not self.enabled:
            return base_ms
        return base_ms * (0.5 + self._jitter.random())
