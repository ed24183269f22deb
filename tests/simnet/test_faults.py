"""Fault injection: specs, schedules, injector transitions, link hooks.

The chaos layer's contract: a :class:`FaultSchedule` is plain data, the
:class:`FaultInjector` applies and reverts it at exact simulation times
(reference-counting overlaps), and the link-level hooks change behaviour
only while a fault is active — a fault-free world consumes its RNG
stream exactly as before, which is what keeps seeded runs comparable
across experiments with and without chaos.
"""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.internet.build import Internet
from repro.simnet.events import EventLoop
from repro.simnet.faults import (
    FaultInjector,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    inject,
    random_schedule,
)
from repro.simnet.network import Network
from repro.simnet.node import Node
from repro.simnet.packet import Packet
from repro.topology.defaults import remote_testbed


class FakeLink:
    """Just the fault-hook surface of a simnet link."""

    def __init__(self):
        self.up = True
        self.extra_loss_rate = 0.0
        self.extra_latency_ms = 0.0
        self.extra_jitter_ms = 0.0


class FakePathServer:
    def __init__(self):
        self.available = True


class FakeWorld:
    """Minimal world: an event loop, named links, a path server."""

    def __init__(self, *names):
        self.loop = EventLoop()
        self.links = {name: FakeLink() for name in names}
        self.path_server = FakePathServer()

    def links_for(self, target):
        if target == "*":
            return list(self.links.values())
        return [self.links[target]]


class TestFaultSpecValidation:
    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.LINK_DOWN, at_ms=-1.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.LINK_DOWN, at_ms=0.0, duration_ms=0.0)

    def test_loss_magnitude_range(self):
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.LOSS_BURST, at_ms=0.0, magnitude=0.0)
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.LOSS_BURST, at_ms=0.0, magnitude=1.5)
        FaultSpec(FaultKind.LOSS_BURST, at_ms=0.0, magnitude=1.0)  # ok

    def test_spike_needs_positive_magnitude(self):
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.LATENCY_SPIKE, at_ms=0.0, magnitude=0.0)
        with pytest.raises(SimulationError):
            FaultSpec(FaultKind.JITTER_BURST, at_ms=0.0, magnitude=-2.0)

    def test_infinite_duration_is_the_default(self):
        spec = FaultSpec(FaultKind.LINK_DOWN, at_ms=3.0)
        assert spec.duration_ms == float("inf")
        assert spec.ends_ms == float("inf")

    def test_ends_ms(self):
        spec = FaultSpec(FaultKind.LINK_DOWN, at_ms=3.0, duration_ms=4.0)
        assert spec.ends_ms == 7.0


class TestScheduleShorthands:
    def test_shorthands_build_the_right_specs(self):
        schedule = (FaultSchedule()
                    .link_down("a~b", at_ms=1.0, duration_ms=2.0)
                    .loss_burst("*", at_ms=3.0, duration_ms=1.0,
                                loss_rate=0.5)
                    .latency_spike("client", at_ms=4.0, duration_ms=1.0,
                                   extra_ms=25.0)
                    .jitter_burst("*", at_ms=5.0, duration_ms=1.0,
                                  extra_ms=3.0)
                    .scion_outage(at_ms=6.0))
        kinds = [spec.kind for spec in schedule]
        assert kinds == [FaultKind.LINK_DOWN, FaultKind.LOSS_BURST,
                         FaultKind.LATENCY_SPIKE, FaultKind.JITTER_BURST,
                         FaultKind.SCION_OUTAGE]
        assert len(schedule) == 5
        assert schedule.specs[1].magnitude == 0.5
        assert schedule.specs[2].target == "client"

    def test_path_server_degraded_is_the_spelled_out_spec(self):
        shorthand = FaultSchedule().path_server_degraded(
            at_ms=2.0, duration_ms=5.0, probability=0.25)
        spelled = FaultSchedule().add(FaultSpec(
            FaultKind.PATH_SERVER_DEGRADED, at_ms=2.0, duration_ms=5.0,
            magnitude=0.25))
        assert shorthand.specs == spelled.specs


class TestInjectorTransitions:
    def test_link_down_and_recovery(self):
        world = FakeWorld("link")
        inject(world, FaultSchedule().link_down("link", at_ms=5.0,
                                                duration_ms=10.0))
        world.loop.run(until=4.0)
        assert world.links["link"].up
        world.loop.run(until=5.0)
        assert not world.links["link"].up
        world.loop.run(until=20.0)
        assert world.links["link"].up

    def test_overlapping_downs_are_reference_counted(self):
        world = FakeWorld("link")
        schedule = (FaultSchedule()
                    .link_down("link", at_ms=0.0, duration_ms=10.0)
                    .link_down("link", at_ms=5.0, duration_ms=10.0))
        inject(world, schedule)
        world.loop.run(until=12.0)  # first fault ended, second still on
        assert not world.links["link"].up
        world.loop.run(until=15.0)
        assert world.links["link"].up

    def test_loss_burst_adds_and_removes(self):
        world = FakeWorld("link")
        inject(world, FaultSchedule().loss_burst("link", at_ms=1.0,
                                                 duration_ms=2.0,
                                                 loss_rate=0.4))
        world.loop.run(until=1.5)
        assert world.links["link"].extra_loss_rate == pytest.approx(0.4)
        world.loop.run(until=3.5)
        assert world.links["link"].extra_loss_rate == 0.0

    def test_latency_and_jitter_compose(self):
        world = FakeWorld("link")
        schedule = (FaultSchedule()
                    .latency_spike("link", at_ms=0.0, duration_ms=10.0,
                                   extra_ms=50.0)
                    .latency_spike("link", at_ms=2.0, duration_ms=2.0,
                                   extra_ms=30.0)
                    .jitter_burst("link", at_ms=0.0, duration_ms=10.0,
                                  extra_ms=5.0))
        inject(world, schedule)
        world.loop.run(until=3.0)
        assert world.links["link"].extra_latency_ms == pytest.approx(80.0)
        world.loop.run(until=5.0)
        assert world.links["link"].extra_latency_ms == pytest.approx(50.0)
        assert world.links["link"].extra_jitter_ms == pytest.approx(5.0)
        world.loop.run(until=11.0)
        assert world.links["link"].extra_latency_ms == 0.0
        assert world.links["link"].extra_jitter_ms == 0.0

    def test_scion_outage_flips_path_server(self):
        world = FakeWorld()
        schedule = (FaultSchedule()
                    .scion_outage(at_ms=1.0, duration_ms=10.0)
                    .scion_outage(at_ms=5.0, duration_ms=10.0))
        inject(world, schedule)
        world.loop.run(until=2.0)
        assert not world.path_server.available
        world.loop.run(until=12.0)  # first outage over, second still on
        assert not world.path_server.available
        world.loop.run(until=16.0)
        assert world.path_server.available

    def test_path_server_degradation_starts_and_clears(self):
        topology, _ases = remote_testbed()
        internet = Internet(topology, seed=1)
        inject(internet, FaultSchedule().path_server_degraded(
            at_ms=2.0, duration_ms=5.0, probability=0.25))
        internet.loop.run(until=1.0)
        assert internet.path_server.stale_probability == 0.0
        internet.loop.run(until=3.0)
        assert internet.path_server.stale_probability == 0.25
        internet.loop.run(until=8.0)
        assert internet.path_server.stale_probability == 0.0

    def test_infinite_fault_never_recovers(self):
        world = FakeWorld("link")
        inject(world, FaultSchedule().link_down("link", at_ms=0.0))
        world.loop.run(until=1e9)
        assert not world.links["link"].up

    def test_log_records_transitions_in_order(self):
        world = FakeWorld("link")
        injector = inject(world, FaultSchedule().link_down(
            "link", at_ms=2.0, duration_ms=3.0))
        world.loop.run(until=10.0)
        assert injector.log == [(2.0, "link-down:start", "link"),
                                (5.0, "link-down:end", "link")]
        assert injector.faults_applied == 1

    def test_double_arm_rejected(self):
        world = FakeWorld("link")
        injector = FaultInjector(world, FaultSchedule())
        injector.arm()
        with pytest.raises(SimulationError):
            injector.arm()


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        a = random_schedule(7, duration_ms=1_000.0, targets=("x", "y"))
        b = random_schedule(7, duration_ms=1_000.0, targets=("x", "y"))
        assert a.specs == b.specs

    def test_different_seeds_differ(self):
        a = random_schedule(7, duration_ms=1_000.0, targets=("x",))
        b = random_schedule(8, duration_ms=1_000.0, targets=("x",))
        assert a.specs != b.specs

    def test_faults_land_inside_the_window(self):
        schedule = random_schedule(3, duration_ms=500.0, targets=("x",),
                                   n_faults=20)
        assert len(schedule) == 20
        for spec in schedule:
            assert 0.0 <= spec.at_ms < 500.0
            assert 50.0 <= spec.duration_ms <= 250.0
            if spec.kind is FaultKind.LOSS_BURST:
                assert 0.3 <= spec.magnitude <= 0.9

    def test_empty_targets_rejected(self):
        with pytest.raises(SimulationError):
            random_schedule(1, duration_ms=100.0, targets=())


# ---------------------------------------------------------------------------
# The hooks on a real link
# ---------------------------------------------------------------------------


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.arrivals = []

    def receive(self, packet, ifid):
        self.packets_received += 1
        self.arrivals.append(self.loop.now)


class NetWorld:
    """Adapts a bare two-node Network to the injector's world surface."""

    def __init__(self, net):
        self.net = net
        self.loop = net.loop
        self.path_server = FakePathServer()

    def links_for(self, target):
        return list(self.net.links)


def two_nodes(**link_kwargs):
    net = Network(seed=7)
    a, b = Sink("a"), Sink("b")
    net.add_nodes([a, b])
    net.connect("a", "b", **link_kwargs)
    return net, a, b


def send(node, size=100, dst="b"):
    node.send(Packet(src=node.name, dst=dst, payload=None, size=size), 1)


class TestLinkHooks:
    def test_latency_spike_delays_only_during_the_window(self):
        net, a, b = two_nodes(latency_ms=1.0)
        inject(NetWorld(net), FaultSchedule().latency_spike(
            "*", at_ms=0.0, duration_ms=50.0, extra_ms=10.0))
        net.loop.call_at(5.0, send, a)
        net.loop.call_at(60.0, send, a)
        net.run()
        assert b.arrivals == [pytest.approx(16.0), pytest.approx(61.0)]

    def test_total_loss_burst_drops_everything(self):
        net, a, b = two_nodes(latency_ms=1.0)
        inject(NetWorld(net), FaultSchedule().loss_burst(
            "*", at_ms=0.0, duration_ms=50.0, loss_rate=1.0))
        net.loop.call_at(5.0, send, a)
        net.loop.call_at(60.0, send, a)
        net.run()
        assert b.packets_received == 1
        assert net.links[0].packets_dropped == 1

    def test_downed_link_drops_silently(self):
        net, a, b = two_nodes(latency_ms=1.0)
        inject(NetWorld(net), FaultSchedule().link_down(
            "*", at_ms=0.0, duration_ms=10.0))
        net.loop.call_at(5.0, send, a)
        net.loop.call_at(15.0, send, a)
        net.run()
        assert b.packets_received == 1

    def test_idle_hooks_leave_the_rng_stream_alone(self):
        """Zero extra loss/jitter must not draw from the link RNG — a
        fault-free world replays identically with the faults module
        merely imported and armed with an empty schedule."""
        net, a, b = two_nodes(latency_ms=1.0)
        inject(NetWorld(net), FaultSchedule())
        state = net.rng.getstate()
        send(a)
        net.run()
        assert net.rng.getstate() == state


class TestInternetTargets:
    def test_links_for_resolves_all_target_kinds(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=1)
        internet.add_host("client", ases.client)
        everything = internet.links_for("*")
        pair = internet.links_for(f"{ases.local_core}~{ases.third_core}")
        access = internet.links_for("client")
        assert len(everything) > len(pair) >= 1
        assert len(access) == 1
        for link in pair + access:
            assert link in everything

    def test_unknown_target_rejected(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=1)
        with pytest.raises(TopologyError):
            internet.links_for("no-such-host")
