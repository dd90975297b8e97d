"""Cartesian grids and dense fields shared by the voxelizer, resampler,
synthetic solver, and diagnostics.

Grids place samples at nodes: sample (i, j, k) sits at
``origin + (i*sx, j*sy, k*sz)``.  Dense arrays use axis order (x, y, z),
C-contiguous with x slowest, stored float32 on disk (NPY v1.0) next to a
YAML sidecar that records the grid so consumers never guess conventions.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ArtifactIOError, FieldError
from .yamlio import read_yaml, write_yaml


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    dims: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        if any(d < 1 for d in self.dims):
            raise FieldError(f"grid dims must be positive, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise FieldError(f"grid spacing must be positive, got {self.spacing}")

    @classmethod
    def preset(cls, dx: int, extents=(2048.0, 512.0, 512.0),
               origin=(0.0, 0.0, 0.0), aniso=(1.0, 1.0)) -> "GridSpec":
        """Channel grid at voxel size dx; dx must divide every extent exactly."""
        dims = []
        for name, ext in zip("xyz", extents):
            n = ext / dx
            if abs(n - round(n)) > 1e-12:
                raise FieldError(
                    f"dx={dx} does not divide the domain {name}-extent {ext:g}")
            dims.append(int(round(n)))
        spacing = (float(dx), float(dx) * aniso[0], float(dx) * aniso[1])
        return cls(origin=origin, spacing=spacing, dims=tuple(dims))

    def axis_coords(self, axis: int) -> np.ndarray:
        return (self.origin[axis]
                + self.spacing[axis] * np.arange(self.dims[axis], dtype=np.float64))

    def sample_positions(self) -> np.ndarray:
        """All sample positions, shape (Nx*Ny*Nz, 3), x slowest."""
        xs, ys, zs = (self.axis_coords(a) for a in range(3))
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def positions(self, ids) -> np.ndarray:
        """``sample_positions()[ids]``, without building every position."""
        return np.column_stack([self.axis_coords(a)[i] for a, i in
                                enumerate(np.unravel_index(ids, self.dims))])

    def to_dict(self) -> dict:
        return {"origin": list(self.origin), "spacing": list(self.spacing),
                "dims": list(self.dims)}

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(origin=tuple(data["origin"]), spacing=tuple(data["spacing"]),
                   dims=tuple(data["dims"]))


@dataclass
class DenseField:
    """Scalar (Nx,Ny,Nz) or vector (3,Nx,Ny,Nz) samples on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        dims = tuple(self.grid.dims)
        if self.values.shape == dims:
            self._components = 1
        elif self.values.shape == (3,) + dims:
            self._components = 3
        else:
            raise FieldError(
                f"field shape {self.values.shape} does not match grid dims {dims}"
                " (expected scalar (Nx,Ny,Nz) or vector (3,Nx,Ny,Nz))")

    @property
    def components(self) -> int:
        return self._components


def tensor_bytes(dims, components: int) -> int:
    """Dense float32 payload size in bytes."""
    return int(np.prod(np.asarray(dims, dtype=np.int64))) * int(components) * 4


# ---------------------------------------------------------------------------
# NPY + sidecar I/O
# ---------------------------------------------------------------------------
def export_npy(values: np.ndarray, path) -> Path:
    """Write a little-endian float32 C-order NPY v1.0 file."""
    path = Path(path)
    array = np.ascontiguousarray(values, dtype="<f4")
    try:
        with atomic_open(path) as handle:
            np.save(handle, array)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc
    return path


def load_npy(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ArtifactIOError(f"array file not found: {path}")
    return np.load(path)


def write_field_sidecar(path, grid: GridSpec, **extra) -> Path:
    """Record grid registration plus caller metadata next to an NPY file."""
    path = Path(path)
    payload = dict(grid.to_dict())
    payload["units"] = "lu"
    payload.update(extra)
    try:
        write_yaml(path, payload)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc
    return path


def read_field_sidecar(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ArtifactIOError(f"field sidecar not found: {path}")
    return read_yaml(path)


# ---------------------------------------------------------------------------
# QA slices
# ---------------------------------------------------------------------------
def extract_slice(field: DenseField, axis: int, index: int) -> str:
    """Fixed-index 2-D slice as CSV text with coordinate headers in lu."""
    if field.components != 1:
        raise FieldError("slice extraction expects a scalar field")
    if axis not in (0, 1, 2):
        raise FieldError(f"axis must be 0, 1, or 2, got {axis}")
    if not (0 <= index < field.grid.dims[axis]):
        raise FieldError(
            f"slice index {index} out of range for axis {axis} "
            f"(dims {field.grid.dims})")
    plane = np.take(field.values, index, axis=axis)
    rem = [a for a in range(3) if a != axis]
    rows = field.grid.axis_coords(rem[0])
    cols = field.grid.axis_coords(rem[1])

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([f"axis{rem[0]}\\axis{rem[1]}"] + [repr(c) for c in cols])
    for r, row_vals in zip(rows, plane):
        writer.writerow([repr(r)] + [repr(float(v)) for v in row_vals])
    return buffer.getvalue()
