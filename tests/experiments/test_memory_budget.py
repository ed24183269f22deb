"""What one simulated user costs in memory.

A 12-user city (seed 900) is built and drained under ``tracemalloc``;
what the drained world still holds, per user, must stay within the
budget. A first city is built and dropped before measuring, so the
process-level caches it fills (control-plane snapshot, jitter curves,
memos) are not charged to the measured one.

Most of a user's memory is their connections: about fifteen connection
ends, each a transport with its reliable channel and the socket and
flow under it. A connection holds only what it has in flight (DESIGN
§5.8), and a QUIC connection its one stream in a slot; the budget is
the measured 64.4 KB per user plus 10 % (a stream dict per connection
end read 67.0 KB). Containers built up front (a pre-cut segment deque
and an ``OrderedDict`` window per channel, two jitter streams per
browser) read 100 KB per user, which the budget rejects.
"""

import gc
import tracemalloc

from repro.experiments.population import (build_population_world,
                                          start_sessions)

USERS = 12
#: KB a drained city may hold per user.
KB_PER_USER_BUDGET = 70.8


def city():
    world = build_population_world("opportunistic-SCION", 900, users=USERS)
    start_sessions(world)
    world.internet.run()
    return world


def held_kb_per_user() -> float:
    city()
    gc.collect()
    tracemalloc.start()
    try:
        world = city()
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert world.internet.loop.events_processed > 0
    return held / 1024 / USERS


def test_a_drained_city_holds_its_budget_per_user():
    held = held_kb_per_user()
    assert held <= KB_PER_USER_BUDGET, (
        f"a drained {USERS}-user city holds {held:.1f} KB per user "
        f"(budget {KB_PER_USER_BUDGET} KB)")
