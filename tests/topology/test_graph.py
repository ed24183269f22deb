"""AS-level topology graph: construction rules and queries."""

import pytest

from repro.errors import TopologyError
from repro.topology.graph import AsTopology, LinkKind
from repro.topology.isd_as import IsdAs


@pytest.fixture
def small():
    """Core 1-1 with children 1-2, 1-3; core 2-1 with child 2-2."""
    topo = AsTopology()
    topo.add_as("1-1", core=True)
    topo.add_as("1-2")
    topo.add_as("1-3")
    topo.add_as("2-1", core=True)
    topo.add_as("2-2")
    topo.add_link("1-1", "1-2", LinkKind.PARENT, latency_ms=3.0)
    topo.add_link("1-1", "1-3", LinkKind.PARENT, latency_ms=4.0)
    topo.add_link("2-1", "2-2", LinkKind.PARENT)
    topo.add_link("1-1", "2-1", LinkKind.CORE, latency_ms=20.0)
    topo.add_link("1-2", "2-2", LinkKind.PEER, latency_ms=9.0)
    return topo


class TestConstruction:
    def test_duplicate_as_rejected(self, small):
        with pytest.raises(TopologyError):
            small.add_as("1-1")

    def test_wildcard_as_rejected(self):
        with pytest.raises(TopologyError):
            AsTopology().add_as("0-0")

    def test_self_link_rejected(self, small):
        with pytest.raises(TopologyError):
            small.add_link("1-1", "1-1", LinkKind.CORE)

    def test_unknown_as_rejected(self, small):
        with pytest.raises(TopologyError):
            small.add_link("1-1", "9-9", LinkKind.CORE)

    def test_core_link_needs_core_ases(self, small):
        with pytest.raises(TopologyError):
            small.add_link("1-1", "1-2", LinkKind.CORE)

    def test_parent_link_stays_in_isd(self, small):
        with pytest.raises(TopologyError):
            small.add_link("1-1", "2-2", LinkKind.PARENT)

    def test_ifids_unique_per_as(self, small):
        ifids = [link.ifid_of(IsdAs.parse("1-1"))
                 for link in small.links_of("1-1")]
        assert len(ifids) == len(set(ifids))

    def test_multiple_links_between_same_pair(self):
        topo = AsTopology()
        topo.add_as("1-1", core=True)
        topo.add_as("2-1", core=True)
        first = topo.add_link("1-1", "2-1", LinkKind.CORE)
        second = topo.add_link("1-1", "2-1", LinkKind.CORE)
        assert first.link_id != second.link_id
        assert first.a_ifid != second.a_ifid


class TestQueries:
    def test_core_ases(self, small):
        cores = {info.isd_as for info in small.core_ases()}
        assert cores == {IsdAs.parse("1-1"), IsdAs.parse("2-1")}

    def test_isds(self, small):
        assert small.isds() == [1, 2]

    def test_children_and_parents(self, small):
        core = IsdAs.parse("1-1")
        children = {child for child, _link in small.children(core)}
        assert children == {IsdAs.parse("1-2"), IsdAs.parse("1-3")}
        parents = [parent for parent, _link in small.parents(IsdAs.parse("1-2"))]
        assert parents == [core]

    def test_neighbors_filtered_by_kind(self, small):
        leaf = IsdAs.parse("1-2")
        peers = [n for n, _l in small.neighbors(leaf, kind=LinkKind.PEER)]
        assert peers == [IsdAs.parse("2-2")]

    def test_link_by_ifid(self, small):
        core = IsdAs.parse("1-1")
        link = small.links_of(core)[0]
        assert small.link_by_ifid(core, link.ifid_of(core)) is link
        with pytest.raises(TopologyError):
            small.link_by_ifid(core, 999)

    def test_link_other_and_ifid_of_reject_strangers(self, small):
        link = small.links_of("1-1")[0]
        with pytest.raises(TopologyError):
            link.other(IsdAs.parse("9-9"))
        with pytest.raises(TopologyError):
            link.ifid_of(IsdAs.parse("9-9"))

    def test_as_info_attributes(self):
        topo = AsTopology()
        info = topo.add_as("1-1", core=True, co2_g_per_gb=42.0,
                           region="eu", price_per_gb=0.7)
        assert info.co2_g_per_gb == 42.0
        assert info.isd == 1
        assert topo.as_info("1-1").region == "eu"


class TestValidation:
    def test_valid_topology_passes(self, small):
        small.validate()

    def test_isd_without_core_rejected(self):
        topo = AsTopology()
        topo.add_as("1-1")
        with pytest.raises(TopologyError, match="no core AS"):
            topo.validate()

    def test_orphan_leaf_rejected(self):
        topo = AsTopology()
        topo.add_as("1-1", core=True)
        topo.add_as("1-2")  # never linked to the core
        with pytest.raises(TopologyError, match="no parent path"):
            topo.validate()

    def test_multi_level_hierarchy_passes(self):
        topo = AsTopology()
        topo.add_as("1-1", core=True)
        topo.add_as("1-2")
        topo.add_as("1-3")
        topo.add_link("1-1", "1-2", LinkKind.PARENT)
        topo.add_link("1-2", "1-3", LinkKind.PARENT)  # grandchild
        topo.validate()
