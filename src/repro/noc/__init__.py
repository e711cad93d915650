"""Network-on-chip substrate: 4x4 2D mesh, X-Y routing and the NoC configuration.

The paper's NoC is a classical 4x4 2D mesh running at 2 GHz with 256-bit links
(128 GB/s bidirectional per compute node) and X-Y dimension-order routing
(Section III.A).  The NoC is modelled at two points:

* the GEMM timing model reads only :attr:`NocConfig.node_bandwidth_bytes_per_s`,
  the per-node port bandwidth that caps a node's DMA streams; and
* :mod:`repro.parallel`'s collective cost model prices ring all-reduce /
  all-gather / point-to-point transfers over the X-Y routes
  (:func:`route_links`) for sharded multi-node execution.
"""

from repro.noc.mesh import MeshTopology, NodeCoordinate
from repro.noc.routing import xy_route, route_hops, route_links
from repro.noc.network import NocConfig

__all__ = [
    "MeshTopology",
    "NodeCoordinate",
    "xy_route",
    "route_hops",
    "route_links",
    "NocConfig",
]
