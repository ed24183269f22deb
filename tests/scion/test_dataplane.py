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
                        meta={"path": path, "hop_index": 2})  # skip ahead
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
    keyed on the path object, hop index and ingress interface."""

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

        monkeypatch.setattr(EventLoop, "call_later", spy)
        for _ in range(2):  # the second round runs on the stored steps
            for ifid in (host_ifid, transit_ifid):
                packet = Packet(src=client.addr, dst=server.addr,
                                payload=None, size=100, protocol="scion",
                                meta={"path": path, "hop_index": 0})
                router.receive(packet, ifid)
        assert delays == [PROCESSING_DELAY_MS, router.internal_latency_ms] * 2
        assert len(router._steps) == 2

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
