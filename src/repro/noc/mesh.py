"""2D mesh topology: the row-major mapping between node ids and coordinates."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeCoordinate:
    """(x, y) position of a node in the mesh; x grows to the east, y to the north."""

    x: int
    y: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.x},{self.y})"


class MeshTopology:
    """A ``width x height`` 2D mesh with bidirectional links between neighbours.

    Node ids are assigned row-major: ``node_id = y * width + x``, matching the
    compute-node numbering used by the MACO mapping scheme.
    """

    def __init__(self, width: int = 4, height: int = 4) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def node_id(self, coord: NodeCoordinate) -> int:
        """The row-major node id at ``coord`` (raises if outside the mesh)."""
        self._check_coordinate(coord)
        return coord.y * self.width + coord.x

    def coordinate(self, node_id: int) -> NodeCoordinate:
        """The (x, y) position of ``node_id`` (raises if out of range)."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node id {node_id} out of range 0..{self.num_nodes - 1}")
        return NodeCoordinate(node_id % self.width, node_id // self.width)

    def _check_coordinate(self, coord: NodeCoordinate) -> None:
        if not (0 <= coord.x < self.width and 0 <= coord.y < self.height):
            raise ValueError(f"coordinate {coord} outside {self.width}x{self.height} mesh")
