"""A finished world frees itself: :meth:`World.close`.

Each world of ``test_conservation.SPECS`` is drained, with the fast path
off and on. At quiescence the only parked processes are the handlers
the listeners serve. ``close()`` then finishes the world outside
simulated time: every count stays readable and unchanged, nothing is
left parked, a second close does nothing and ``run()`` raises. Once the
last reference goes, reference counting alone frees the world: with
the cyclic collector disabled, nothing of it is left for a collection
to find.
"""

import dataclasses
import gc
import inspect
import weakref

import pytest

from repro.errors import SimulationError
from repro.experiments import overload, population
from repro.experiments.harness import observe_world
from repro.internet.knobs import forced
from repro.simnet.events import Process
from repro.simnet.fastpath import FASTPATH_ENV
from tests.simnet.test_conservation import SPECS, assert_conserved


@pytest.fixture(params=[False, True], ids=["packet-level", "fast-path"])
def fastpath(request):
    with forced(FASTPATH_ENV, request.param):
        yield request.param


def parked(loop) -> list[Process]:
    """The processes of ``loop`` whose generator waits at a yield."""
    return [obj for obj in gc.get_objects()
            if isinstance(obj, Process) and obj.loop is loop
            and inspect.getgeneratorstate(obj._generator)
            == inspect.GEN_SUSPENDED]


def reading(world) -> tuple:
    """Everything a sample or ``bench`` reads of a drained world."""
    internet = world.internet
    return (observe_world(world).snapshot(), internet.network.stats(),
            internet.loop.events_processed, internet.loop.now)


@pytest.mark.parametrize("spec", SPECS)
def test_close_keeps_every_count_and_parks_nothing(spec, fastpath):
    world = SPECS[spec]()
    world.internet.run()
    loop = world.internet.loop
    assert loop.unobserved_failures == {}
    waiting = parked(loop)
    assert waiting, "a drained world keeps its listeners' handlers parked"
    assert all(process in loop._handlers for process in waiting), (
        [process.name for process in waiting])
    before = reading(world)
    world.close()
    assert reading(world) == before
    if not fastpath:  # analytic transfers credit links without node sends
        assert_conserved(world.internet.network)
    assert parked(loop) == []
    world.close()
    assert reading(world) == before
    with pytest.raises(SimulationError):
        world.internet.run()


@pytest.mark.parametrize("spec", SPECS)
def test_a_closed_world_dies_by_reference_counting(spec, fastpath):
    gc.collect()
    gc.disable()
    try:
        world = SPECS[spec]()
        world.internet.run()
        world.close()
        internet = world.internet
        refs = [weakref.ref(obj) for obj in (
            world, internet, internet.network, *internet.hosts.values(),
            *internet.network.links, *world.servers,
            *(user[1] for user in world.users))]
        del world, internet
        assert [ref() for ref in refs if ref() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_collect_sample_closes_the_world():
    city = population.build_population_world("opportunistic-SCION", 900,
                                             users=4)
    processes = population.start_sessions(city)
    city.internet.run()
    population.collect_sample(city, "opportunistic-SCION", 4,
                              population.harvest_rows(processes))
    assert city.internet.loop.closed

    small = dataclasses.replace(overload.DEFAULT_CONFIG, users=12)
    crowd, rows = overload.drain_arm("protections-on", 1201, small)
    overload.collect_sample(crowd, "protections-on", rows)
    assert crowd.internet.loop.closed
