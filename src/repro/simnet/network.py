"""Network container: wires nodes and links, owns loop and RNG.

Every experiment builds exactly one :class:`Network`, adds its nodes,
connects them with :meth:`Network.connect`, and then drives simulation
processes through ``network.loop``. The network's ``random.Random`` seed
makes the whole run reproducible.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import SimulationError
from repro.simnet.events import EventLoop
from repro.simnet.link import Link, LinkConfig
from repro.simnet.node import Node
from repro.simnet.trace import PacketTrace


class Network:
    """Container for a simulated network."""

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.loop = EventLoop()
        self.rng = random.Random(seed)
        self.seed = seed
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        self.trace: PacketTrace | None = PacketTrace() if trace else None
        #: Assigned to every subsequently-created link's ``watcher`` hook;
        #: set it *before* building topology (the fast path uses this to
        #: observe live link-state transitions).
        self.link_watcher = None

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register ``node`` and bind it to this network's loop."""
        if node.name in self.nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        node.bind_loop(self.loop)
        self.nodes[node.name] = node
        return node

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Register several nodes at once."""
        for node in nodes:
            self.add_node(node)

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise SimulationError(f"unknown node {name!r}") from None

    def connect(self, a: str | Node, b: str | Node,
                config: LinkConfig | None = None,
                a_ifid: int | None = None, b_ifid: int | None = None,
                name: str = "", **link_kwargs: float) -> Link:
        """Create a link between two nodes.

        Link characteristics come either from an explicit ``config`` or
        from keyword shorthand (``latency_ms=5, loss_rate=0.01``). Interface
        ids are auto-assigned unless given.
        """
        node_a = a if isinstance(a, Node) else self.node(a)
        node_b = b if isinstance(b, Node) else self.node(b)
        if node_a.name == node_b.name:
            raise SimulationError(f"cannot link {node_a.name} to itself")
        if config is not None and link_kwargs:
            raise SimulationError("pass either config or keyword parameters")
        if config is None:
            config = LinkConfig(**link_kwargs)  # type: ignore[arg-type]
        ifid_a = a_ifid if a_ifid is not None else node_a.next_free_ifid()
        ifid_b = b_ifid if b_ifid is not None else node_b.next_free_ifid()
        link = Link(self.loop, self.rng, node_a, ifid_a, node_b, ifid_b,
                    config, name=name, trace=self.trace)
        link.watcher = self.link_watcher
        node_a.attach_port(ifid_a, link)
        node_b.attach_port(ifid_b, link)
        self.links.append(link)
        return link

    # -- running ---------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run the event loop; see :meth:`EventLoop.run`."""
        return self.loop.run(until=until)

    def stats(self) -> dict[str, int]:
        """Aggregate link counters across the network."""
        return {
            "links": len(self.links),
            "nodes": len(self.nodes),
            "packets_sent": sum(link.packets_sent for link in self.links),
            "packets_dropped": sum(link.packets_dropped for link in self.links),
            "bytes_sent": sum(link.bytes_sent for link in self.links),
        }
