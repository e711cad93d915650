"""Tests for the NoC substrate: mesh, X-Y routing and the NoC configuration."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import MeshTopology, NocConfig, xy_route
from repro.noc.routing import route_links


class TestMeshTopology:
    def test_paper_mesh_is_4x4(self):
        mesh = MeshTopology()
        assert mesh.num_nodes == 16

    def test_node_id_coordinate_roundtrip(self):
        mesh = MeshTopology(4, 4)
        for node_id in range(16):
            assert mesh.node_id(mesh.coordinate(node_id)) == node_id

    def test_corner_has_two_neighbors(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.neighbors(0)) == 2

    def test_center_has_four_neighbors(self):
        mesh = MeshTopology(4, 4)
        assert len(mesh.neighbors(5)) == 4

    def test_link_count(self):
        # A 4x4 mesh has 2*(3*4 + 4*3) = 48 directed links.
        assert MeshTopology(4, 4).num_links == 48

    def test_hop_distance_is_manhattan(self):
        mesh = MeshTopology(4, 4)
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.hop_distance(5, 6) == 1

    def test_average_hop_distance_positive(self):
        assert 2.0 < MeshTopology(4, 4).average_hop_distance() < 3.0

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(4, 4).coordinate(16)


class TestXYRouting:
    def test_route_endpoints(self):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, 0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_route_goes_x_first(self):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, 0, 15)
        # From (0,0) to (3,3): first three hops move along x.
        assert path[:4] == [0, 1, 2, 3]

    def test_route_length_equals_manhattan_distance(self):
        mesh = MeshTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                assert len(xy_route(mesh, src, dst)) - 1 == mesh.hop_distance(src, dst)

    def test_route_to_self(self):
        mesh = MeshTopology(4, 4)
        assert xy_route(mesh, 5, 5) == [5]

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_consecutive_route_nodes_are_adjacent(self, src, dst):
        mesh = MeshTopology(4, 4)
        path = xy_route(mesh, src, dst)
        for a, b in zip(path, path[1:]):
            assert b in mesh.neighbors(a)

    def test_xy_routing_is_deterministic(self):
        mesh = MeshTopology(4, 4)
        assert xy_route(mesh, 2, 13) == xy_route(mesh, 2, 13)

    def test_route_links_count(self):
        mesh = MeshTopology(4, 4)
        assert len(route_links(mesh, 0, 5)) == mesh.hop_distance(0, 5)


class TestNocConfig:
    def test_config_bandwidth_matches_paper(self):
        config = NocConfig()
        # 256-bit links at 2 GHz -> 64 GB/s per direction, 128 GB/s bidirectional.
        assert config.link_bandwidth_bytes_per_s == pytest.approx(64e9)
        assert config.node_bandwidth_bytes_per_s == pytest.approx(128e9)
