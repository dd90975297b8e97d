"""Binary STL writer/reader (little-endian, 80-byte header, 50-byte records).

The header is a fixed string so identical geometry always produces
byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import ArtifactIOError, GeometryError
from .mesh import TriMesh, from_triangle_soup

_HEADER = b"flowforge binary STL"

_RECORD = np.dtype([
    ("normal", "<f4", (3,)),
    ("corners", "<f4", (3, 3)),
    ("attr", "<u2"),
])


def stl_bytes(mesh: TriMesh) -> bytes:
    """Serialize a mesh (or concatenated scene soup) to binary STL bytes."""
    n = len(mesh.triangles)
    records = np.zeros(n, dtype=_RECORD)
    records["normal"] = mesh.face_normals().astype("<f4")
    records["corners"] = mesh.corners.astype("<f4")
    header = _HEADER.ljust(80, b"\x00")
    count = np.uint32(n).tobytes()
    return header + count + records.tobytes()


def write_stl(mesh: TriMesh, path) -> Path:
    path = Path(path)
    try:
        atomic_write(path, stl_bytes(mesh))
    except OSError as exc:
        raise ArtifactIOError(f"cannot write STL {path}: {exc}") from exc
    return path


def read_stl(path) -> TriMesh:
    """Read a binary STL and rebuild shared topology from the soup."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ArtifactIOError(f"cannot read STL {path}: {exc}") from exc
    if len(raw) < 84:
        raise GeometryError(f"{path}: truncated STL (no header)")
    n = int(np.frombuffer(raw[80:84], dtype="<u4")[0])
    expected = 84 + 50 * n
    if len(raw) != expected:
        raise GeometryError(
            f"{path}: STL length {len(raw)} != {expected} for {n} triangles")
    records = np.frombuffer(raw[84:], dtype=_RECORD, count=n)
    return from_triangle_soup(records["corners"].astype(np.float64))
