"""Unit tests for repro.network.topology."""

import pytest

from repro.exceptions import TopologyError
from repro.network.builders import fat_tree, random_wan, torus2d
from repro.network.fabrics import leaf_spine
from repro.network.topology import Link, NetworkTopology, Vertex


class TestVertexAndLink:
    def test_processor_needs_positive_speed(self):
        with pytest.raises(TopologyError):
            Vertex(0, "processor", 0.0)

    def test_switch_speed_ignored(self):
        assert Vertex(0, "switch", 1.0).is_processor is False

    def test_link_needs_positive_speed(self):
        with pytest.raises(TopologyError):
            Link(0, 0.0, 0, 1)


class TestConstruction:
    def test_ids_are_sequential(self):
        net = NetworkTopology()
        a = net.add_processor()
        b = net.add_switch()
        assert (a.vid, b.vid) == (0, 1)

    def test_full_duplex_creates_two_links(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        fwd, bwd = net.connect(a, b, 2.0)
        assert (fwd.src, fwd.dst) == (a.vid, b.vid)
        assert (bwd.src, bwd.dst) == (b.vid, a.vid)
        assert net.num_links == 2

    def test_half_duplex_creates_one_shared_link(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        (link,) = net.connect(a, b, duplex="half")
        # Reachable in both directions through the same resource.
        assert [l.lid for l, _ in net.out_links(a.vid)] == [link.lid]
        assert [l.lid for l, _ in net.out_links(b.vid)] == [link.lid]

    def test_self_connection_rejected(self):
        net = NetworkTopology()
        a = net.add_processor()
        with pytest.raises(TopologyError):
            net.connect(a, a)

    def test_unknown_vertex_rejected(self):
        net = NetworkTopology()
        net.add_processor()
        with pytest.raises(TopologyError):
            net.connect(0, 99)

    def test_unknown_duplex_rejected(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        with pytest.raises(TopologyError):
            net.connect(a, b, duplex="simplex")

    def test_parallel_cables_allowed(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        net.connect(a, b)
        net.connect(a, b)
        assert net.num_links == 4


class TestBus:
    def test_bus_connects_all_pairs(self):
        net = NetworkTopology()
        ps = [net.add_processor() for _ in range(3)]
        bus = net.add_bus(ps, speed=4.0)
        for p in ps:
            nbrs = {v for l, v in net.out_links(p.vid) if l.lid == bus.lid}
            assert nbrs == {q.vid for q in ps if q is not p}

    def test_bus_needs_two_members(self):
        net = NetworkTopology()
        p = net.add_processor()
        with pytest.raises(TopologyError):
            net.add_bus([p])

    def test_bus_duplicate_members_rejected(self):
        net = NetworkTopology()
        p, q = net.add_processor(), net.add_processor()
        with pytest.raises(TopologyError):
            net.add_bus([p, q, p])

    def test_bus_kind(self):
        net = NetworkTopology()
        ps = [net.add_processor() for _ in range(2)]
        assert net.add_bus(ps).kind == "bus"


class TestQueries:
    def test_processors_and_switches(self, net4):
        assert len(net4.processors()) == 4
        assert len(net4.switches()) == 1

    def test_mean_link_speed(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        net.connect(a, b, 2.0)
        net.connect(a, b, 4.0)
        assert net.mean_link_speed() == 3.0

    def test_mean_link_speed_no_links(self):
        net = NetworkTopology()
        net.add_processor()
        with pytest.raises(TopologyError):
            net.mean_link_speed()

    def test_mean_processor_speed(self):
        net = NetworkTopology()
        net.add_processor(1.0)
        net.add_processor(3.0)
        assert net.mean_processor_speed() == 2.0

    def test_unknown_ids_raise(self, net4):
        with pytest.raises(TopologyError):
            net4.vertex(99)
        with pytest.raises(TopologyError):
            net4.link(99)
        with pytest.raises(TopologyError):
            net4.out_links(99)

    def test_to_networkx_arcs(self, net2):
        g = net2.to_networkx()
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 2  # one arc per direction


class TestDeadEnds:
    """``dead_ends()``: at most one distinct neighbour over both directions."""

    @staticmethod
    def _dead(net):
        return [v.vid for v in net.vertices() if net.dead_ends()[v.vid]]

    def test_star_leaves_are_dead_ends_hub_is_not(self):
        net = NetworkTopology()
        hub = net.add_switch()
        leaves = [net.add_processor() for _ in range(3)]
        for p in leaves:
            net.connect(p, hub)
        assert self._dead(net) == [p.vid for p in leaves]
        assert len(net.dead_ends()) == net.num_vertices

    def test_parallel_cables_to_one_switch_are_one_neighbour(self):
        net = NetworkTopology()
        hub = net.add_switch()
        p, q = net.add_processor(), net.add_processor()
        net.connect(p, hub, 1.0)
        net.connect(p, hub, 2.0)
        net.connect(q, hub)
        assert self._dead(net) == [p.vid, q.vid]

    def test_half_duplex_leaf(self):
        net = NetworkTopology()
        hub = net.add_switch()
        p, q = net.add_processor(), net.add_processor()
        net.connect(p, hub, duplex="half")
        net.connect(q, hub)
        assert self._dead(net) == [p.vid, q.vid]

    def test_two_member_bus_makes_both_members_dead_ends(self):
        net = NetworkTopology()
        a, b = net.add_processor(), net.add_processor()
        net.add_bus([a, b])
        assert self._dead(net) == [a.vid, b.vid]

    def test_three_member_bus_members_are_not_dead_ends(self):
        net = NetworkTopology()
        members = [net.add_processor() for _ in range(3)]
        net.add_bus(members)
        assert self._dead(net) == []

    def test_isolated_vertex_is_a_dead_end(self):
        net = NetworkTopology()
        a = net.add_processor()
        assert self._dead(net) == [a.vid]

    def test_connect_invalidates(self):
        net = NetworkTopology()
        hub = net.add_switch()
        p, q = net.add_processor(), net.add_processor()
        net.connect(p, hub)
        net.connect(q, hub)
        assert self._dead(net) == [p.vid, q.vid]
        net.connect(p, q)  # p and q now have two neighbours each
        assert self._dead(net) == []

    def test_add_processor_invalidates(self):
        net = NetworkTopology()
        hub = net.add_switch()
        p = net.add_processor()
        net.connect(p, hub)
        assert self._dead(net) == [hub.vid, p.vid]
        r = net.add_processor()
        assert len(net.dead_ends()) == 3
        assert self._dead(net) == [hub.vid, p.vid, r.vid]
        net.connect(r, hub)
        assert self._dead(net) == [p.vid, r.vid]

    def test_paper_and_fabric_topologies(self):
        for net in (
            random_wan(40, rng=3),
            fat_tree(8, procs_per_leaf=4),
            leaf_spine(3, 2, 4),
        ):
            dead = net.dead_ends()
            assert all(dead[p.vid] for p in net.processors())
            assert not any(dead[s.vid] for s in net.switches())
        torus = torus2d(3, 3)
        assert not any(torus.dead_ends())
