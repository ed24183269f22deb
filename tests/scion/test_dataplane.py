"""SCION data plane: forwarding, MAC verification, reverse paths."""

import dataclasses

import pytest

from repro.crypto.mac import hop_mac
from repro.internet.build import Internet
from repro.internet.router import PROCESSING_DELAY_MS
from repro.scion.path import EXP_TIME_UNIT_S, ScionPath
from repro.simnet.events import EventLoop
from repro.simnet.packet import Packet
from repro.topology.defaults import remote_testbed


@pytest.fixture
def world():
    topology, ases = remote_testbed()
    internet = Internet(topology, seed=4)
    client = internet.add_host("client", ases.client)
    server = internet.add_host("server", ases.remote_server)
    return internet, ases, client, server


def echo_server(internet, server, port=7):
    socket = server.udp_socket(port)

    def run():
        while True:
            datagram = yield socket.recv()
            reply_path = datagram.path.reverse() if datagram.path else None
            socket.send(datagram.src, datagram.src_port, b"pong", 64,
                        via=datagram.via, path=reply_path)

    internet.loop.process(run(), name="echo")


class TestForwarding:
    def test_round_trip_matches_metadata(self, world):
        internet, ases, client, server = world
        echo_server(internet, server)
        path = client.daemon.paths(ases.remote_server)[0]

        def probe():
            socket = client.udp_socket()
            start = internet.loop.now
            socket.send(server.addr, 7, b"ping", 64, via="scion", path=path)
            yield socket.recv()
            return internet.loop.now - start

        rtt = internet.loop.run_process(probe())
        assert rtt == pytest.approx(2 * path.metadata.latency_ms, rel=0.02)

    def test_both_candidate_paths_forward(self, world):
        internet, ases, client, server = world
        echo_server(internet, server)
        rtts = []

        def probe(path):
            socket = client.udp_socket()
            start = internet.loop.now
            socket.send(server.addr, 7, b"ping", 64, via="scion", path=path)
            yield socket.recv()
            rtts.append(internet.loop.now - start)

        for path in client.daemon.paths(ases.remote_server):
            internet.loop.run_process(probe(path))
        assert len(rtts) == 2
        assert rtts[0] != pytest.approx(rtts[1], rel=0.05)

    def test_intra_as_delivery_without_path(self, world):
        internet, ases, client, _server = world
        sibling = internet.add_host("sibling", ases.client)
        echo_server(internet, sibling)

        def probe():
            socket = client.udp_socket()
            socket.send(sibling.addr, 7, b"hi", 32, via="scion", path=None)
            datagram = yield socket.recv()
            return datagram.payload

        assert internet.loop.run_process(probe()) == b"pong"


class TestMacEnforcement:
    def forged_path(self, path: ScionPath, **changes) -> ScionPath:
        """Alter a transit hop's hop field without re-MACing (default:
        flip its egress interface)."""
        hops = list(path.hops)
        victim = next(i for i, hop in enumerate(hops)
                      if hop.ingress and hop.egress)
        old = hops[victim]
        if not changes:
            changes = {"egress": old.hop_field.egress + 1}
        forged_field = dataclasses.replace(old.hop_field, **changes)
        hops[victim] = dataclasses.replace(old, hop_field=forged_field)
        return dataclasses.replace(path, hops=tuple(hops))

    @staticmethod
    def verified_entries(internet) -> int:
        return sum(len(router._verified_expiry_ms)
                   for router in internet.routers.values())

    @staticmethod
    def mac_failures(internet) -> int:
        return sum(router.mac_failures
                   for router in internet.routers.values())

    def test_forged_hop_field_dropped(self, world):
        internet, ases, client, server = world
        echo_server(internet, server)
        genuine = client.daemon.paths(ases.remote_server)[0]
        forged = self.forged_path(genuine)
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"evil", 64, via="scion", path=forged)
        internet.run()
        assert server.datagrams_received == 0
        assert any(router.mac_failures > 0
                   for router in internet.routers.values())

    def test_macs_can_be_disabled_for_speed(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=4, verify_macs=False)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        echo_server(internet, server)
        path = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"ping", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 1

    def test_wrong_as_hop_index_dropped(self, world):
        internet, ases, client, server = world
        path = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        from repro.simnet.packet import Packet
        from repro.internet.host import Datagram
        datagram = Datagram(src=client.addr, src_port=socket.port,
                            dst=server.addr, dst_port=7, payload=b"x",
                            size=32, via="scion", path=path)
        packet = Packet(src=client.addr, dst=server.addr, payload=datagram,
                        size=100, protocol="scion",
                        path=path, hop_index=2)  # skip ahead
        client.send(packet, client.ROUTER_IFID)
        internet.run()
        assert server.datagrams_received == 0

    def test_forgery_of_a_verified_hop_is_dropped_and_not_remembered(
            self, world):
        internet, ases, client, server = world
        server.udp_socket(7)
        genuine = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"ok", 64, via="scion", path=genuine)
        internet.run()
        assert server.datagrams_received == 1
        entries = self.verified_entries(internet)
        assert entries == len(genuine.hops)
        field = next(hop.hop_field for hop in genuine.hops
                     if hop.ingress and hop.egress)
        forgeries = [
            self.forged_path(genuine, egress=field.egress + 1),
            self.forged_path(genuine, exp_time=field.exp_time + 1),
            self.forged_path(genuine, mac=bytes(b ^ 1 for b in field.mac)),
            self.forged_path(genuine, chain=field.chain + b"\x00"),
            dataclasses.replace(genuine, timestamp=genuine.timestamp + 1),
        ]
        for sent, forged in enumerate(forgeries, start=1):
            socket.send(server.addr, 7, b"evil", 64, via="scion",
                        path=forged)
            internet.run()
            assert self.mac_failures(internet) == sent
        assert server.datagrams_received == 1
        assert self.verified_entries(internet) == entries

    def test_verified_hop_still_expires(self, world):
        internet, ases, client, server = world
        server.udp_socket(7)
        path = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"fresh", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 1
        internet.loop.run(until=path.expiry_ms())
        socket.send(server.addr, 7, b"stale", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 1
        assert internet.routers[ases.client].expired_drops == 1
        assert self.mac_failures(internet) == 0

    def test_hop_field_verified_once_per_router(self, world, monkeypatch):
        from repro.internet import router
        internet, ases, client, server = world
        calls = []
        real = router.verify_hop_mac

        def counting(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(router, "verify_hop_mac", counting)
        server.udp_socket(7)
        genuine = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        for _ in range(1000):
            socket.send(server.addr, 7, b"ok", 64, via="scion", path=genuine)
        internet.run()
        assert server.datagrams_received == 1000
        assert len(calls) == len(set(calls)) == len(genuine.hops)
        entries = self.verified_entries(internet)
        forged = self.forged_path(genuine)
        for _ in range(1000):
            socket.send(server.addr, 7, b"evil", 64, via="scion",
                        path=forged)
        internet.run()
        assert server.datagrams_received == 1000
        assert self.mac_failures(internet) == 1000
        assert len(calls) == len(genuine.hops) + 1000  # re-verified each time
        assert self.verified_entries(internet) == entries

    def test_disabled_macs_forward_forgeries_but_enforce_expiry(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=4, verify_macs=False)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        server.udp_socket(7)
        forged = self.forged_path(client.daemon.paths(ases.remote_server)[0])
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"evil", 64, via="scion", path=forged)
        internet.run()
        assert server.datagrams_received == 1
        internet.loop.run(until=forged.expiry_ms())
        socket.send(server.addr, 7, b"stale", 64, via="scion", path=forged)
        internet.run()
        assert server.datagrams_received == 1
        assert internet.routers[ases.client].expired_drops == 1
        assert self.verified_entries(internet) == 0

    def test_forged_copy_of_a_cached_path_is_reverified_every_time(
            self, world, monkeypatch):
        from repro.internet import router as router_module
        internet, ases, client, server = world
        calls = []
        real = router_module.verify_hop_mac

        def counting(*args):
            calls.append(args)
            real(*args)

        monkeypatch.setattr(router_module, "verify_hop_mac", counting)
        server.udp_socket(7)
        genuine = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"ok", 64, via="scion", path=genuine)
        internet.run()
        assert server.datagrams_received == 1
        forged = self.forged_path(genuine)
        victim = next(
            internet.routers[hop.isd_as]
            for hop, original in zip(forged.hops, genuine.hops)
            if hop.hop_field != original.hop_field)
        verified = len(calls)
        for sent in range(1, 4):
            socket.send(server.addr, 7, b"evil", 64, via="scion",
                        path=forged)
            internet.run()
            assert victim.mac_failures == sent
            assert len(calls) == verified + sent
        assert server.datagrams_received == 1
        assert all(step[0] is not forged for step in victim._steps.values())

    def test_disabled_macs_remember_no_verdict(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=4, verify_macs=False)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        server.udp_socket(7)
        path = client.daemon.paths(ases.remote_server)[0]
        socket = client.udp_socket()
        for _ in range(3):
            socket.send(server.addr, 7, b"ping", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 3
        assert not any(router._steps for router in internet.routers.values())
        assert self.verified_entries(internet) == 0


class TestForwardingSteps:
    """A router remembers each forwarding step that passed every check,
    keyed on the path object, hop index and ingress interface. The link
    that carries a packet toward the router looks its step up as it puts
    the packet on the wire; a hit makes the arrival and the step one
    event, run when the step hands the packet to its egress link."""

    def test_step_charges_the_delay_of_its_ingress(self, world, monkeypatch):
        internet, ases, client, server = world
        router = internet.routers[ases.client]
        path = client.daemon.paths(ases.remote_server)[0]
        host_ifid = router.host_ports["client"]
        transit_ifid = min(router.external_ifids)
        assert router.internal_latency_ms != PROCESSING_DELAY_MS
        delays = []
        real = EventLoop.call_later

        def spy(loop, delay, *args):
            delays.append(delay)
            return real(loop, delay, *args)

        def packet():
            return Packet(src=client.addr, dst=server.addr, payload=None,
                          size=100, protocol="scion",
                          path=path, hop_index=0)

        monkeypatch.setattr(EventLoop, "call_later", spy)
        ifids = (host_ifid, transit_ifid)
        for ifid in ifids:  # the full walk stores the steps ...
            router.receive(packet(), ifid)
        assert delays == [PROCESSING_DELAY_MS, router.internal_latency_ms]
        assert len(router._steps) == 2
        # ... which charge the same delays.
        assert [router.hop_step(packet(), ifid, internet.loop.now)[0]
                for ifid in ifids] == delays

    @pytest.mark.parametrize("earlier", [0, 1])
    def test_crossover_step_expires_with_its_earlier_hop(self, world,
                                                          earlier):
        internet, ases, client, server = world
        server.udp_socket(7)
        genuine = client.daemon.paths(ases.remote_server)[0]
        hops = list(genuine.hops)
        index = next(i for i, hop in enumerate(hops[:-1])
                     if hop.egress == 0 and hops[i + 1].isd_as == hop.isd_as)
        router = internet.routers[hops[index].isd_as]
        # Re-MAC the two crossover hop fields with different lifetimes.
        exp_times = [62, 62]
        exp_times[earlier] = 61
        for offset, exp_time in enumerate(exp_times):
            hop = hops[index + offset]
            field = hop.hop_field
            mac = hop_mac(router.forwarding_key, genuine.timestamp, exp_time,
                          field.ingress, field.egress, field.chain)
            hops[index + offset] = dataclasses.replace(
                hop, hop_field=dataclasses.replace(
                    field, exp_time=exp_time, mac=mac))
        path = dataclasses.replace(genuine, hops=tuple(hops))
        deadline_ms = (path.timestamp + 62 * EXP_TIME_UNIT_S) * 1000.0
        assert path.expiry_ms() == deadline_ms
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"fresh", 64, via="scion", path=path)
        internet.run()
        assert (id(path), index, hops[index].ingress) in router._steps
        internet.loop.run(until=deadline_ms - 1000.0)
        socket.send(server.addr, 7, b"late", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 2
        internet.loop.run(until=deadline_ms)
        socket.send(server.addr, 7, b"stale", 64, via="scion", path=path)
        internet.run()
        assert server.datagrams_received == 2
        assert router.expired_drops == 1
        assert router.mac_failures == 0


class TestMergedHop:
    """What a hop judges when its arrival and its step are one event."""

    @staticmethod
    def transit(internet, path):
        """The first transit hop's index, router and egress link."""
        index = next(i for i, hop in enumerate(path.hops)
                     if hop.ingress and hop.egress)
        router = internet.routers[path.hops[index].isd_as]
        return index, router, router.ports[path.hops[index].egress].link

    def test_expiry_inside_the_processing_window_is_judged_at_arrival(
            self, world, monkeypatch):
        internet, ases, client, server = world
        server.udp_socket(7)
        path = client.daemon.paths(ases.remote_server)[0]
        router = internet.routers[ases.client]
        egress = router.ports[path.hops[0].egress].link
        socket = client.udp_socket()
        socket.send(server.addr, 7, b"warm", 64, via="scion", path=path)
        internet.run()
        _path, deadline, _next, delay, _transmit = router._steps[
            id(path), 0, router.host_ports["client"]]
        latency = client.ports[client.ROUTER_IFID].link.config.latency_ms
        walked = []
        monkeypatch.setattr(router, "receive", lambda packet, ifid: (
            walked.append(internet.loop.now),
            type(router).receive(router, packet, ifid)))
        # Arrives half a processing delay before the deadline, leaves
        # half a delay after it: its step, judged at arrival, forwards it.
        internet.loop.run(until=deadline - latency - delay / 2)
        socket.send(server.addr, 7, b"just", 64, via="scion", path=path)
        internet.run()
        assert (router.expired_drops, egress.packets_sent) == (0, 2)
        assert walked == []
        # Arriving after the deadline, it takes the full walk, which
        # drops it where it arrives.
        socket.send(server.addr, 7, b"stale", 64, via="scion", path=path)
        internet.run()
        assert (router.expired_drops, egress.packets_sent) == (1, 2)
        assert len(walked) == 1 and walked[0] > deadline

    def test_forged_hop_never_makes_a_step_and_fails_every_time(
            self, world):
        internet, ases, client, server = world
        server.udp_socket(7)
        genuine = client.daemon.paths(ases.remote_server)[0]
        forged = TestMacEnforcement().forged_path(genuine)
        _index, victim, _egress = self.transit(internet, forged)
        socket = client.udp_socket()
        for sent in range(1, 4):
            socket.send(server.addr, 7, b"evil", 64, via="scion",
                        path=forged)
            internet.run()
            assert victim.mac_failures == sent
        # The genuine hop before the forgery made its step; the forged
        # one made none, so each packet met the full walk there.
        first = internet.routers[forged.hops[0].isd_as]
        assert any(step[0] is forged for step in first._steps.values())
        assert not any(step[0] is forged for step in victim._steps.values())
        assert server.datagrams_received == 0

    def test_egress_taken_down_inside_the_window_drops_at_transmit(self):
        topology, ases = remote_testbed()
        internet = Internet(topology, seed=4, trace=True)
        client = internet.add_host("client", ases.client)
        server = internet.add_host("server", ases.remote_server)
        server.udp_socket(7)
        path = client.daemon.paths(ases.remote_server)[0]
        index, router, egress = self.transit(internet, path)
        ingress = router.ports[path.hops[index].ingress].link
        trace = internet.network.trace
        socket = client.udp_socket()

        def crossing(sent_at):
            """When the last packet reached the router, and when the
            router handed it to the egress link, after ``sent_at``."""
            (recv,) = [entry.time for entry in trace.events("recv")
                       if entry.link == ingress.name and entry.time > sent_at]
            handed = [entry.time for entry in trace
                      if entry.link == egress.name and entry.time > sent_at
                      and entry.event in ("send", "drop-down")]
            return recv - sent_at, handed[0] - sent_at, handed

        socket.send(server.addr, 7, b"warm", 64, via="scion", path=path)
        internet.run()
        arrival, handed, _ = crossing(0.0)
        assert handed - arrival == pytest.approx(router.internal_latency_ms)
        sent_at = internet.loop.now
        internet.loop.call_at(sent_at + arrival + (handed - arrival) / 2,
                              setattr, egress, "up", False)
        socket.send(server.addr, 7, b"cut", 64, via="scion", path=path)
        internet.run()
        assert crossing(sent_at)[:2] == pytest.approx((arrival, handed))
        (drop,) = [entry for entry in trace.events("drop-down")
                   if entry.link == egress.name]
        assert drop.time == pytest.approx(sent_at + handed)
        assert egress.packets_dropped == 1
        assert router.packets_sent == router.packets_received == 2
        assert server.datagrams_received == 1

    def test_worlds_without_mac_checks_never_merge_a_hop(self, monkeypatch):
        from repro.simnet.link import Link

        merged = []
        real = Link._hop

        def counting(link, *args):
            merged.append(link.name)
            real(link, *args)

        monkeypatch.setattr(Link, "_hop", counting)
        topology, ases = remote_testbed()
        received = {}
        for verify in (False, True):
            internet = Internet(topology, seed=4, verify_macs=verify)
            client = internet.add_host("client", ases.client)
            server = internet.add_host("server", ases.remote_server)
            sibling = internet.add_host("sibling", ases.client)
            server.udp_socket(7)
            sibling.udp_socket(7)
            path = client.daemon.paths(ases.remote_server)[0]
            socket = client.udp_socket()
            for _ in range(3):
                socket.send(server.addr, 7, b"s", 64, via="scion", path=path)
                socket.send(server.addr, 7, b"i", 64, via="ip")
                socket.send(sibling.addr, 7, b"l", 64, via="scion")
                internet.run()
            received[verify] = (server.datagrams_received,
                                sibling.datagrams_received, len(merged))
        # Without checks every packet is received by every router; with
        # them, the second and third rounds merge their hops.
        assert received[False] == (6, 3, 0)
        assert received[True][:2] == (6, 3) and received[True][2] > 0


class TestReversePath:
    def test_reverse_swaps_direction(self, world):
        _internet, ases, client, _server = world
        path = client.daemon.paths(ases.remote_server)[0]
        reverse = path.reverse()
        assert reverse.src_as == path.dst_as
        assert reverse.dst_as == path.src_as
        assert reverse.metadata.latency_ms == path.metadata.latency_ms
        assert reverse.metadata.ases == tuple(reversed(path.metadata.ases))

    def test_double_reverse_is_identity(self, world):
        _internet, ases, client, _server = world
        path = client.daemon.paths(ases.remote_server)[0]
        assert path.reverse().reverse() == path

    def test_header_bytes_grow_with_hops(self, world):
        _internet, ases, client, _server = world
        paths = client.daemon.paths(ases.remote_server)
        short = min(paths, key=lambda p: len(p.hops))
        long = max(paths, key=lambda p: len(p.hops))
        assert long.header_bytes() > short.header_bytes()

    def test_interfaces_listing(self, world):
        _internet, ases, client, _server = world
        path = client.daemon.paths(ases.remote_server)[0]
        pairs = path.interfaces()
        assert all(ifid > 0 for _isd_as, ifid in pairs)
        # Each link contributes two interface records (egress + ingress).
        assert len(pairs) % 2 == 0
