"""A finished world frees itself: drop it or close it.

Each world of ``test_conservation.SPECS`` is drained, with the fast path
off and on. At quiescence the only parked processes are the handlers
the listeners serve. ``close()`` then finishes the world outside
simulated time: every count stays readable and unchanged, nothing is
left parked, a second close does nothing and ``run()`` raises. Nothing
inside a world refers to its :class:`Internet`, so dropping the last
reference to it runs the same close. Either way reference counting
alone frees the world: with the cyclic collector disabled, nothing of
it is left for a collection to find.
"""

import dataclasses
import gc
import inspect
import pathlib
import subprocess
import sys
import types
import weakref

import pytest

from bench.harness import Spans
from bench.workloads import WORKLOADS
from repro.errors import ReproError, SimulationError
from repro.experiments import overload, population
from repro.experiments.harness import observe_world
from repro.experiments.local_setup import figure3_load
from repro.experiments.remote_setup import FAR_ORIGIN, remote_load
from repro.internet.build import Internet
from repro.internet.knobs import forced
from repro.simnet.events import Process
from repro.simnet.fastpath import FASTPATH_ENV
from repro.simnet.network import Network
from repro.topology.graph import AsTopology
from tests.simnet.test_conservation import SPECS, assert_conserved

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(params=[False, True], ids=["packet-level", "fast-path"])
def fastpath(request):
    with forced(FASTPATH_ENV, request.param):
        yield request.param


@pytest.fixture(params=[False, True], ids=["untraced", "traced"])
def traced(request, monkeypatch):
    """Build every network with its packet trace on, or leave it off."""
    if request.param:
        init = Network.__init__

        def traced_init(self, seed=0, trace=False):
            init(self, seed=seed, trace=True)

        monkeypatch.setattr(Network, "__init__", traced_init)
    return request.param


@pytest.fixture
def no_collector():
    """Run with the cyclic collector off, so that only reference
    counting frees anything."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def alive(refs) -> list:
    return [ref() for ref in refs if ref() is not None]


def world_refs(world) -> list[weakref.ref]:
    """Weak references to a world and its largest parts."""
    internet = world.internet
    return [weakref.ref(obj) for obj in (
        world, internet, internet.network, *internet.hosts.values(),
        *internet.network.links, *world.servers,
        *(user[1] for user in world.users))]


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
        refs = world_refs(world)
        del world
        assert alive(refs) == []
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", SPECS)
def test_a_dropped_world_closes_itself(spec, fastpath, traced, no_collector):
    world = SPECS[spec]()
    world.internet.run()
    loop = world.internet.loop
    handlers = list(loop._handlers)
    assert handlers, "a drained world keeps its listeners' handlers parked"
    refs = world_refs(world)
    del world
    assert loop.closed
    assert [process.name for process in handlers
            if inspect.getgeneratorstate(process._generator)
            != inspect.GEN_CLOSED] == []
    del loop, handlers
    assert alive(refs) == []
    assert gc.collect() == 0


@pytest.mark.parametrize("load", [
    lambda: figure3_load("mixed SCION-IP", 100, obs=True),
    lambda: remote_load(FAR_ORIGIN, "multiple origins / SCION", 500,
                        obs=True),
], ids=["local", "remote"])
def test_a_dropped_observed_load_keeps_its_spans(load, no_collector):
    world, result = load()
    tracer, refs = world.tracer, world_refs(world)
    spans = len(tracer.spans)
    del world
    assert len(tracer.spans) == spans > 0 and result.plt_ms > 0
    assert alive(refs) == []
    del tracer, result
    assert gc.collect() == 0


@pytest.mark.parametrize("spec", SPECS)
def test_nothing_in_a_world_refers_to_its_internet(spec):
    world = SPECS[spec]()
    world.internet.run()
    holders = [holder for holder in gc.get_referrers(world.internet)
               if not isinstance(holder, types.FrameType)]
    assert holders == [world]


def test_a_loop_kept_past_its_internet_refuses_to_run():
    world = SPECS["local"]()
    loop = world.internet.loop
    del world
    assert loop.closed
    with pytest.raises(SimulationError):
        loop.run()


def test_dropping_a_world_raises_nothing_unraisable(monkeypatch):
    """The close on drop is silent on a world whose constructor raised,
    on one closed already and on one dropped open (``__del__`` errors
    are otherwise only printed)."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with pytest.raises(ReproError):
        Internet(AsTopology())
    closed = SPECS["local"]()
    closed.close()
    dropped = SPECS["remote"]()
    dropped.internet.run()
    del closed, dropped
    gc.collect()
    assert [str(entry.exc_value) for entry in unraisable] == []


EXIT_SCRIPT = """
from repro.experiments import local_setup
from repro.experiments.remote_setup import FAR_ORIGIN, remote_load
local_setup.KEPT = local_setup.figure3_load("mixed SCION-IP", 100)
held = remote_load(FAR_ORIGIN, "multiple origins / SCION", 500)
cycle = [remote_load(FAR_ORIGIN, "multiple origins / SCION", 501)]
cycle.append(cycle)
"""


def test_worlds_alive_at_interpreter_exit_end_silently():
    done = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_benchmark_repetition_leaves_nothing_for_the_collector(name):
    """One repetition of each benchmark flow, at its smallest inputs,
    after one to warm the interpreter's caches."""
    workload = WORKLOADS[name]
    inputs = workload.plan(1, 0.0)
    workload.repetition(inputs, Spans(False))
    gc.collect()
    gc.disable()
    try:
        workload.repetition(inputs, Spans(False))
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
