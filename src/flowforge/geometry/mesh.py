"""Triangle-mesh container and integrity checks.

Meshes are plain index arrays: ``vertices`` (N, 3) float64 in lattice units
and ``triangles`` (M, 3) int32.  Everything downstream (validation, signed
distances, STL export) assumes watertight, consistently wound, outward-
oriented meshes, so :meth:`TriMesh.check_watertight` is the gatekeeper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError

DEGENERATE_AREA_TOL = 1e-9


@dataclass
class TriMesh:
    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int32).reshape(-1, 3)

    # -- basic quantities ---------------------------------------------------
    @property
    def corners(self) -> np.ndarray:
        """Per-triangle corner coordinates, shape (M, 3, 3)."""
        return self.vertices[self.triangles]

    def face_normals(self, unit: bool = True) -> np.ndarray:
        c = self.corners
        n = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        if unit:
            norms = np.linalg.norm(n, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            n = n / norms
        return n

    def areas(self) -> np.ndarray:
        return 0.5 * np.linalg.norm(self.face_normals(unit=False), axis=1)

    def signed_volume(self) -> float:
        """Divergence-theorem volume; positive for outward orientation."""
        c = self.corners
        return float(np.einsum("ij,ij->", c[:, 0],
                               np.cross(c[:, 1], c[:, 2])) / 6.0)

    def volume_centroid(self) -> np.ndarray:
        """Volume centroid of the enclosed solid (tetrahedron fan at origin)."""
        c = self.corners
        vols = np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])) / 6.0
        total = vols.sum()
        if abs(total) < 1e-12:
            raise GeometryError("zero-volume mesh has no centroid")
        centroids = c.sum(axis=1) / 4.0
        return (vols[:, None] * centroids).sum(axis=0) / total

    def aabb(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def max_edge_length(self) -> float:
        c = self.corners
        e = np.stack([c[:, 1] - c[:, 0], c[:, 2] - c[:, 1], c[:, 0] - c[:, 2]])
        return float(np.linalg.norm(e, axis=2).max())

    # -- transforms ---------------------------------------------------------
    def translated(self, offset: np.ndarray) -> "TriMesh":
        return TriMesh(self.vertices + np.asarray(offset, dtype=np.float64),
                       self.triangles.copy())

    # -- integrity ----------------------------------------------------------
    def check_watertight(self, context: str = "mesh") -> None:
        """Raise unless the mesh is closed, 2-manifold, consistently wound,
        outward-oriented, and free of degenerate triangles."""
        if len(self.triangles) == 0:
            raise GeometryError(f"{context}: empty mesh")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise GeometryError(f"{context}: triangle index out of range")
        if (self.areas() <= DEGENERATE_AREA_TOL).any():
            raise GeometryError(f"{context}: degenerate (zero-area) triangle")

        _, dir_counts = np.unique(self._side_keys(directed=True),
                                  return_counts=True)
        if (dir_counts != 1).any():
            raise GeometryError(
                f"{context}: inconsistent winding (repeated directed edge)")
        _, und_counts = self.edges()
        if (und_counts != 2).any():
            raise GeometryError(
                f"{context}: not watertight (edge not shared by exactly 2 triangles)")
        if self.signed_volume() <= 0:
            raise GeometryError(f"{context}: inward orientation (volume <= 0)")

    def _side_keys(self, directed: bool) -> np.ndarray:
        """Key ``a * n_vertices + b`` of each triangle side a -> b, three per
        triangle in corner order (0-1, 1-2, 2-0); undirected keys take the
        pair as (min, max)."""
        sides = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        sides = sides.astype(np.int64)
        if not directed:
            sides.sort(axis=1)
        return sides[:, 0] * len(self.vertices) + sides[:, 1]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge id of each triangle side, with ids in (min, max) vertex
        order, and the number of sides on each edge (2 once watertight)."""
        _, inverse, counts = np.unique(self._side_keys(directed=False),
                                       return_inverse=True, return_counts=True)
        return inverse, counts


def concatenate(meshes: list[TriMesh]) -> TriMesh:
    """Disjoint union of meshes (offsets indices; no geometric merging)."""
    if not meshes:
        raise GeometryError("cannot concatenate zero meshes")
    verts, tris, offset = [], [], 0
    for mesh in meshes:
        verts.append(mesh.vertices)
        tris.append(mesh.triangles + offset)
        offset += len(mesh.vertices)
    return TriMesh(np.vstack(verts), np.vstack(tris))


def from_triangle_soup(corners: np.ndarray) -> TriMesh:
    """Rebuild shared topology from per-triangle corners (e.g. an STL read).

    Vertices are merged on exact bit equality, which is correct for soups
    that were written from an indexed mesh in the first place.
    """
    corners = np.ascontiguousarray(corners, dtype=np.float64).reshape(-1, 3)
    view = corners.view([("", corners.dtype)] * 3).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return TriMesh(corners[first], inverse.astype(np.int32).reshape(-1, 3))
