"""The :class:`Internet` facade: a whole simulated Internet in one object.

Construction performs, in order:

1. resolve the frozen control-plane snapshot — PKI material, the
   segment store from beaconing, the converged BGP RIB — via the
   cross-trial cache in :mod:`repro.internet.snapshot` (built once per
   ``(topology, beacons_per_target, verify_beacons)`` per process,
   reused by every later build, whatever its seed),
2. instantiate the cheap mutable layer on top: the simnet (one
   dual-stack router per AS, inter-AS links with the topology's
   latency/bandwidth/loss/jitter/MTU), a fresh path server over the
   shared store, and the routers' IP forwarding tables.

Hosts are attached afterwards with :meth:`Internet.add_host`; each gets a
path daemon so applications can ask for SCION paths. The host link's
latency equals the AS's internal latency, which makes data-plane
latencies agree with the control plane's static-info metadata (asserted
by integration tests).
"""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.internet.host import Host
from repro.internet.router import AsRouter
from repro.internet.snapshot import control_plane_snapshot
from repro.ip.bgp import BgpRib
from repro.scion.addr import HostAddr
from repro.scion.admission import AdmissionController
from repro.scion.beaconing import SegmentStore
from repro.scion.daemon import PathDaemon
from repro.scion.path_server import PathServer
from repro.scion.pki import ControlPlanePki
from repro.scion.revocation import RevocationService
from repro.simnet.fastpath import FastPath, fastpath_enabled
from repro.simnet.link import LinkConfig
from repro.simnet.network import Network
from repro.topology.graph import AsTopology
from repro.topology.isd_as import IsdAs


def router_name(isd_as: IsdAs) -> str:
    """Canonical simnet node name of an AS's router."""
    return f"br-{isd_as}"


class Internet:
    """A fully wired Internet over an AS topology."""

    def __init__(self, topology: AsTopology, seed: int = 0,
                 trace: bool = False, beacons_per_target: int = 8,
                 verify_beacons: bool = False, verify_macs: bool = True,
                 host_bandwidth_mbps: float = 0.0,
                 host_jitter_ms: float = 0.0,
                 revocation: bool | None = None,
                 fastpath: bool | None = None,
                 admission: bool | None = None) -> None:
        topology.validate()
        self.topology = topology
        # Every feature knob below (fast path, admission, revocation)
        # follows the same convention: an explicit kwarg wins, ``None``
        # defers to the matching REPRO_* environment variable (parsed by
        # repro.internet.knobs), and the default is on. The ablation
        # harness flips them one at a time. The control-plane snapshot
        # cache has no knob: no result runs without it.
        self.network = Network(seed=seed, trace=trace)
        self.host_bandwidth_mbps = host_bandwidth_mbps
        self.host_jitter_ms = host_jitter_ms

        #: Hybrid-fidelity fast path (see :mod:`repro.simnet.fastpath`):
        #: explicit ``fastpath=`` wins, else the ``REPRO_FASTPATH`` env
        #: knob (default on). Must be wired before any link exists so the
        #: link watcher hook reaches every link.
        self.fastpath: FastPath | None = None
        if fastpath_enabled(fastpath):
            self.fastpath = FastPath(self.network)
            self.network.link_watcher = self.fastpath.on_link_changed

        # The expensive, immutable control plane comes from the
        # process-local snapshot cache: PKI generation, beaconing, and
        # BGP convergence run once per topology, not once per trial.
        # ``seed`` drives what a trial varies: the data-plane RNG above,
        # the path server's degradation stream below, the workload.
        self.snapshot = control_plane_snapshot(
            topology, beacons_per_target=beacons_per_target,
            verify_beacons=verify_beacons)
        self.pki: ControlPlanePki = self.snapshot.pki
        self.core_ases: set[IsdAs] = set(self.snapshot.core_ases)

        self.routers: dict[IsdAs, AsRouter] = {}
        for info in topology.ases():
            router = AsRouter(
                name=router_name(info.isd_as),
                isd_as=info.isd_as,
                forwarding_key=self.pki.forwarding_key(info.isd_as),
                internal_latency_ms=info.internal_latency_ms,
                verify_macs=verify_macs,
            )
            self.network.add_node(router)
            self.routers[info.isd_as] = router

        self._interas_links: dict[int, object] = {}
        #: simnet link identity → the topology's InterAsLink, so link
        #: faults can be translated into interface revocations.
        self._interas_by_simnet: dict[int, object] = {}
        for link in topology.links():
            config = LinkConfig(
                latency_ms=link.latency_ms,
                bandwidth_mbps=link.bandwidth_mbps,
                jitter_ms=link.jitter_ms,
                loss_rate=link.loss_rate,
                mtu=link.mtu + 128,  # leave room for simulated headers
            )
            simnet_link = self.network.connect(
                self.routers[link.a], self.routers[link.b],
                config=config, a_ifid=link.a_ifid, b_ifid=link.b_ifid,
                name=f"{link.a}#{link.a_ifid}<->{link.b}#{link.b_ifid}")
            self._interas_links[link.link_id] = simnet_link
            self._interas_by_simnet[id(simnet_link)] = link
            self.routers[link.a].external_ifids.add(link.a_ifid)
            self.routers[link.b].external_ifids.add(link.b_ifid)

        # Shared (frozen) store; the PathServer wrapper is per-Internet
        # because it carries mutable state (the ``available`` flag flips
        # under fault injection, and lookup stats are per-world).
        self.segment_store: SegmentStore = self.snapshot.store
        self.path_server = PathServer(self.segment_store)
        # The degradation stream is dedicated and only consumed while the
        # server is degraded, so fault-free worlds draw nothing from it.
        # (String seeds hash via SHA-512 — stable across processes.)
        self.path_server.degradation_rng = random.Random(
            f"path-server-degraded:{seed}")
        # Bounded-queue admission for the shared lookup service
        # (``REPRO_ADMISSION``, explicit ``admission=`` wins). Every
        # daemon in this world funnels fresh fetches through this gate.
        self.path_server.admission = AdmissionController(
            service="path-server", clock=self.network.loop,
            enabled=admission)

        # SCMP-style revocation dissemination (see repro.scion.revocation).
        # set_link_state and the fault injector report link transitions;
        # daemons subscribe as hosts attach.
        self.revocations = RevocationService(
            loop=self.network.loop, pki=self.pki,
            path_server=self.path_server, enabled=revocation)
        #: Links currently held down administratively (set_link_state), so
        #: absolute up/down calls translate to refcounted transitions.
        self._admin_down: set[int] = set()

        self.bgp: BgpRib = self.snapshot.bgp
        for isd_as, router in self.routers.items():
            router.ip_table = self.bgp.forwarding_table(isd_as)

        #: Per-world override threaded into every host's daemon.
        self._admission = admission

        self.hosts: dict[str, Host] = {}
        self._host_links: dict[str, object] = {}

    # -- hosts ------------------------------------------------------------------

    def add_host(self, name: str, isd_as: IsdAs | str,
                 verify_paths: bool = False) -> Host:
        """Attach a host to its AS router and give it a path daemon.

        Args:
            name: globally unique host name (also its address's host part).
            isd_as: the AS to attach to.
            verify_paths: make the host's daemon verify segment signatures
                before combining (slower; integration tests enable it).
        """
        identifier = isd_as if isinstance(isd_as, IsdAs) else IsdAs.parse(isd_as)
        if name in self.hosts:
            raise TopologyError(f"duplicate host name {name!r}")
        if identifier not in self.routers:
            raise TopologyError(f"unknown AS {identifier}")
        info = self.topology.as_info(identifier)
        host = Host(name=name, addr=HostAddr(isd_as=identifier, host=name))
        host.fastpath = self.fastpath
        self.network.add_node(host)
        router = self.routers[identifier]
        host_ifid = router.next_free_ifid()
        access_link = self.network.connect(
            router, host, a_ifid=host_ifid, b_ifid=Host.ROUTER_IFID,
            config=LinkConfig(latency_ms=info.internal_latency_ms,
                              bandwidth_mbps=self.host_bandwidth_mbps,
                              jitter_ms=self.host_jitter_ms,
                              mtu=info.mtu + 128),
            name=f"{identifier}<->{name}")
        router.register_host(name, host_ifid)
        self._host_links[name] = access_link
        host.daemon = PathDaemon(
            isd_as=identifier,
            path_server=self.path_server,
            core_ases=set(self.core_ases),
            pki=self.pki if verify_paths else None,
            clock=self.network.loop,
            admission=AdmissionController(
                service="daemon", clock=self.network.loop,
                enabled=self._admission),
        )
        self.revocations.subscribe(host.daemon)
        self.hosts[name] = host
        return host

    def add_population(self, prefix: str, isd_as: IsdAs | str,
                       count: int) -> tuple[Host, ...]:
        """Attach ``count`` client hosts (``{prefix}-0`` …) to one AS.

        The bulk face of :meth:`add_host` for population-scale worlds:
        every host gets its own access link, path daemon, and revocation
        subscription — per-user state (daemon path caches, HTTP pools)
        stays genuinely per-user, which is what makes revisit-locality
        cache warmth measurable.
        """
        if count < 0:
            raise TopologyError("population count must be >= 0")
        return tuple(self.add_host(f"{prefix}-{index}", isd_as)
                     for index in range(count))

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        try:
            return self.hosts[name]
        except KeyError:
            raise TopologyError(f"unknown host {name!r}") from None

    # -- failure injection ---------------------------------------------------------

    def set_link_state(self, a: IsdAs | str, b: IsdAs | str,
                       up: bool) -> int:
        """Administratively set every link between two ASes up or down.

        Returns the number of links affected. Downed links silently drop
        all packets — the failure the proxy's path failover reacts to.
        The adjacent routers notice each transition and feed the
        revocation service (down → originate, up → lift), refcounted
        against any overlapping injected faults.
        """
        affected = self.links_between(a, b)
        for link in affected:
            link.up = up
            interas = self._interas_by_simnet.get(id(link))
            if interas is None:
                continue
            if not up and interas.link_id not in self._admin_down:
                self._admin_down.add(interas.link_id)
                self.revocations.link_down(interas)
            elif up and interas.link_id in self._admin_down:
                self._admin_down.discard(interas.link_id)
                self.revocations.link_up(interas)
        return len(affected)

    def revocation_link_down(self, simnet_link) -> None:
        """Fault-injector hook: an inter-AS link's first covering fault
        started (host access links have no interfaces to revoke)."""
        interas = self._interas_by_simnet.get(id(simnet_link))
        if interas is not None:
            self.revocations.link_down(interas)

    def revocation_link_up(self, simnet_link) -> None:
        """Fault-injector hook: an inter-AS link's last covering fault
        ended."""
        interas = self._interas_by_simnet.get(id(simnet_link))
        if interas is not None:
            self.revocations.link_up(interas)

    def links_between(self, a: IsdAs | str, b: IsdAs | str) -> list:
        """All simnet links between two ASes (fault-injection targets)."""
        as_a = a if isinstance(a, IsdAs) else IsdAs.parse(a)
        as_b = b if isinstance(b, IsdAs) else IsdAs.parse(b)
        links = [self._interas_links[link.link_id]
                 for link in self.topology.links()
                 if {link.a, link.b} == {as_a, as_b}]
        if not links:
            raise TopologyError(f"no link between {as_a} and {as_b}")
        return links

    def links_for(self, target: str) -> list:
        """Resolve a fault-injection target string to simnet links.

        ``"a~b"`` names every inter-AS link between the two ASes, a host
        name its access link, and ``"*"`` every link in the world (see
        :mod:`repro.simnet.faults`).
        """
        if target == "*":
            return list(self.network.links)
        if "~" in target:
            a, b = target.split("~", 1)
            return self.links_between(a, b)
        if target in self._host_links:
            return [self._host_links[target]]
        raise TopologyError(f"unknown fault target {target!r}")

    # -- conveniences --------------------------------------------------------------

    @property
    def loop(self):
        """The simulation event loop."""
        return self.network.loop

    def run(self, until: float | None = None) -> float:
        """Run the simulation; see :meth:`EventLoop.run`."""
        return self.network.run(until=until)
