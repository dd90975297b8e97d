"""Point-to-voxel interpolation onto Cartesian target grids.

The estimate at each target sample is the normalized weighted average of a
neighbor footprint: either the k nearest sources (ties at the k-th distance
are all included, which keeps the result invariant under source reordering)
or every source inside a fixed radius.  Kernels: distance-linear with
compact support, Gaussian, Shepard inverse-distance power, Voronoi
(nearest neighbor), and an anisotropic ellipsoidal Gaussian.

Neighbor sets and kernel weights depend only on where the sources are and
on the target grid, never on the source values.  They are therefore built
once per source grid (:func:`build_operator`) and reused for every field
sampled on that grid (:func:`apply`); :func:`interpolate` is the one-shot
form of the two.

Normalized weights reproduce constant fields exactly for every
kernel/footprint combination.  When all weights vanish (or a radius
footprint is empty) the sample falls back to the value of the nearest
source and is counted as a hole in the summary.

Besides the YAML policy block, the classic INI layout is accepted
(:func:`read_ini_config`) with its historical key names: ``kernel``,
``kernel_footprint``, ``num_neighbours``, ``radius``, ``num_cells_x/y/z``,
``origin_*``, ``scale_*``, ``field_N``, ``output_npy``.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import ArtifactIOError, FieldError
from .fields import DenseField, GridSpec, tensor_bytes  # noqa: F401 (re-export)

KERNEL_KINDS = ("linear", "gaussian", "shepard", "voronoi", "ellipsoidal_gaussian")
FOOTPRINT_MODES = ("n_closest", "radius")

# k schedule keyed by target grid, balancing alias suppression against
# edge preservation
DEFAULT_K_SCHEDULE = {
    (128, 32, 32): 4,
    (256, 64, 64): 6,
    (512, 128, 128): 8,
}
DEFAULT_K = 6

_TIE_REL = 1e-12
_TIE_BUFFER = 24


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    sharpness: float = 2.0      # gaussian: sigma = 1 / sharpness
    power: float = 2.0          # shepard exponent
    eps: float = 1e-12          # shepard regularizer
    eccentricity: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise FieldError(f"unknown kernel kind {self.kind!r}")
        if self.sharpness <= 0 or self.power <= 0:
            raise FieldError("kernel sharpness and power must be positive")
        if any(e <= 0 for e in self.eccentricity):
            raise FieldError("eccentricity components must be positive")


@dataclass(frozen=True)
class FootprintSpec:
    mode: str = "n_closest"
    k: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.mode not in FOOTPRINT_MODES:
            raise FieldError(f"unknown footprint mode {self.mode!r}")
        if self.mode == "n_closest":
            if self.k is None or self.radius is not None:
                raise FieldError("n_closest footprint takes k only")
            if self.k < 1:
                raise FieldError("footprint k must be positive")
        else:
            if self.radius is None or self.k is not None:
                raise FieldError("radius footprint takes radius only")
            if self.radius <= 0:
                raise FieldError("footprint radius must be positive")


@dataclass
class SourcePoints:
    positions: np.ndarray
    values: np.ndarray
    origin_tag: str = "unstructured"
    grid: GridSpec | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if len(self.values) != len(self.positions):
            raise FieldError("positions and values must have equal length")
        if self.values.shape[1] not in (1, 3):
            raise FieldError(
                f"values must have 1 or 3 components, got {self.values.shape[1]}")
        if not np.isfinite(self.positions).all():
            raise FieldError("source positions must be finite")


def default_k_for_grid(dims) -> int:
    return DEFAULT_K_SCHEDULE.get(tuple(int(d) for d in dims), DEFAULT_K)


# ---------------------------------------------------------------------------
# Spatial index
# ---------------------------------------------------------------------------
class SpatialIndex:
    """Exact k-NN and radius queries (results identical to a linear scan)."""

    def __init__(self, positions):
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        if len(positions) == 0:
            raise FieldError("cannot index an empty point set")
        self.positions = positions
        self.tree = cKDTree(positions)

    def knn(self, queries: np.ndarray, k: int):
        k = min(k, len(self.positions))
        dist, idx = self.tree.query(np.atleast_2d(queries), k=k, workers=1)
        if k == 1:
            dist, idx = dist[:, None], idx[:, None]
        return dist, idx

    def radius(self, query: np.ndarray, r: float) -> list:
        return self.tree.query_ball_point(np.asarray(query), r, workers=1)


def build_index(positions) -> SpatialIndex:
    return SpatialIndex(positions)


# ---------------------------------------------------------------------------
# Neighbor sets
# ---------------------------------------------------------------------------
def _neighbor_sets_n_closest(index: SpatialIndex, targets: np.ndarray, k: int):
    """Tie-inclusive k-nearest sets as padded (dist, idx, valid) arrays."""
    n_src = len(index.positions)
    k_eff = min(k, n_src)
    buffer = min(n_src, k_eff + _TIE_BUFFER)
    dist, idx = index.knn(targets, buffer)
    # normalize tie order to (distance, source id) for determinism
    order = np.lexsort((idx, dist), axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    d_k = dist[:, k_eff - 1]
    tie_limit = d_k * (1.0 + _TIE_REL)
    valid = dist <= tie_limit[:, None]

    # rows whose tie set may extend past the buffer need a full ball query
    overflow = valid[:, -1] & (buffer < n_src)
    if overflow.any():
        rows = np.flatnonzero(overflow)
        lists = [index.tree.query_ball_point(targets[r], float(tie_limit[r]),
                                             workers=1) for r in rows]
        width = max(max(len(l) for l in lists), buffer)
        new_dist = np.full((len(targets), width), np.inf)
        new_idx = np.zeros((len(targets), width), dtype=np.int64)
        new_dist[:, :buffer] = dist
        new_idx[:, :buffer] = idx
        for r, members in zip(rows, lists):
            members = np.asarray(sorted(members), dtype=np.int64)
            d = np.linalg.norm(index.positions[members] - targets[r], axis=1)
            order = np.lexsort((members, d))
            members, d = members[order], d[order]
            new_dist[r, :] = np.inf
            new_dist[r, :len(members)] = d
            new_idx[r, :len(members)] = members
        dist, idx = new_dist, new_idx
        valid = dist <= tie_limit[:, None]

    return dist, idx, valid, d_k


def _neighbor_sets_radius(index: SpatialIndex, targets: np.ndarray, r: float):
    lists = index.tree.query_ball_point(targets, r, workers=1)
    counts = np.fromiter((len(l) for l in lists), dtype=np.int64,
                         count=len(lists))
    width = max(1, int(counts.max()) if len(counts) else 1)
    dist = np.full((len(targets), width), np.inf)
    idx = np.zeros((len(targets), width), dtype=np.int64)
    for row, members in enumerate(lists):
        if not members:
            continue
        members = np.asarray(sorted(members), dtype=np.int64)
        d = np.linalg.norm(index.positions[members] - targets[row], axis=1)
        order = np.lexsort((members, d))
        members, d = members[order], d[order]
        dist[row, :len(members)] = d
        idx[row, :len(members)] = members
    valid = np.isfinite(dist)
    return dist, idx, valid, counts


# ---------------------------------------------------------------------------
# Interpolation operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ResampleOperator:
    """Footprints and kernel weights from one source layout to one target grid.

    Rows are target samples in ``GridSpec.sample_positions`` order.  The
    weights keep the padded footprint width and are not normalized, so
    :func:`apply` performs exactly the arithmetic of a one-shot
    interpolation.
    """
    target: GridSpec
    kernel: str
    footprint: str
    n_sources: int
    anchor: np.ndarray               # (T,) nearest footprint member
    idx: np.ndarray | None           # (T, W) footprint ids; None for voronoi
    weights: np.ndarray | None       # (T, W), zero outside the footprint
    wsum: np.ndarray | None          # (T,) row sums of ``weights``
    ok: np.ndarray | None            # rows averaged over their footprint
    exact_hit: np.ndarray | None     # rows on a source: take it unchanged
    hole_rows: np.ndarray            # rows with no usable weight ...
    hole_sources: np.ndarray         # ... and the nearest source each takes

    @property
    def holes(self) -> int:
        return len(self.hole_rows)


def build_operator(source_positions, target: GridSpec, kernel: KernelSpec,
                   footprint: FootprintSpec) -> ResampleOperator:
    """Neighbor search and kernel weights for resampling onto ``target``.

    Depends only on where the sources are, never on their values: one
    operator serves every field sampled at ``source_positions``.
    """
    index = build_index(source_positions)
    targets = target.sample_positions()

    if footprint.mode == "n_closest":
        dist, idx, valid, radii = _neighbor_sets_n_closest(
            index, targets, footprint.k)
    else:
        dist, idx, valid, _ = _neighbor_sets_radius(
            index, targets, footprint.radius)
        radii = np.full(len(targets), float(footprint.radius))

    # rows are sorted by (distance, source id) with the footprint as a
    # prefix, so column 0 is the nearest member and equidistant ties break
    # to the smallest id
    has_any = valid[:, 0]
    anchor = np.where(has_any, idx[:, 0], 0)

    if kernel.kind == "voronoi":
        # nearest source wins
        idx = weights = wsum = ok = exact_hit = None
        covered = has_any
    else:
        offsets = index.positions[idx] - targets[:, None, :]
        weights = _batch_weights(kernel, offsets, dist, radii)
        weights = np.where(valid, weights, 0.0)
        wsum = weights.sum(axis=1)
        ok = (wsum > 0) & np.isfinite(wsum) & has_any
        exact_hit = has_any & (dist[:, 0] == 0.0)
        covered = ok | exact_hit

    # all weights vanished (e.g. linear kernel with every d == R, or an
    # empty radius footprint): nearest-neighbor fallback, flagged
    hole_rows = np.flatnonzero(~covered)
    hole_sources = np.zeros(0, dtype=np.int64)
    if len(hole_rows):
        _, nn = index.knn(targets[hole_rows], 1)
        hole_sources = nn[:, 0]

    return ResampleOperator(
        target=target, kernel=kernel.kind, footprint=footprint.mode,
        n_sources=len(index.positions), anchor=anchor, idx=idx,
        weights=weights, wsum=wsum, ok=ok, exact_hit=exact_hit,
        hole_rows=hole_rows, hole_sources=hole_sources)


def apply(operator: ResampleOperator, values) -> tuple[DenseField, dict]:
    """Resample one field's source values through a built operator.

    ``values`` holds one row per source position, with 1 or 3 components.
    Returns the dense field (scalar or 3-component, channels first) and a
    summary dict with the hole count and the effective footprint.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if len(values) != operator.n_sources:
        raise FieldError(f"operator built for {operator.n_sources} sources, "
                         f"got {len(values)} values")
    anchor = values[operator.anchor]
    out = anchor.copy()

    if operator.weights is not None:
        # nearest anchors a shifted accumulation: sum w (f - f0) / sum w + f0
        # is algebraically the weighted average but reproduces constant
        # fields bit-exactly
        ok, wsum = operator.ok, operator.wsum
        shifted = values[operator.idx] - anchor[:, None, :]
        numer = np.einsum("tn,tnc->tc", operator.weights, shifted)
        out[ok] += numer[ok] / wsum[ok, None]
        out[operator.exact_hit] = anchor[operator.exact_hit]

    out[operator.hole_rows] = values[operator.hole_sources]
    field_values = _to_field(out, operator.target, values.shape[1])
    return DenseField(operator.target, field_values), {
        "holes": operator.holes, "kernel": operator.kernel,
        "footprint": operator.footprint}


def interpolate(points: SourcePoints, target: GridSpec, kernel: KernelSpec,
                footprint: FootprintSpec) -> tuple[DenseField, dict]:
    """Resample source samples onto the target grid in one call.

    Builds a single-use operator; to resample several fields that share
    source positions, call :func:`build_operator` once and :func:`apply`
    per field.
    """
    operator = build_operator(points.positions, target, kernel, footprint)
    return apply(operator, points.values)


def _batch_weights(kernel: KernelSpec, offsets, dist, radii):
    """Kernel weight of every padded footprint entry.

    ``radii`` is each row's footprint support: the distance to the k-th
    neighbor in n_closest mode, or the fixed footprint radius.  Voronoi
    selection happens at footprint level and never reaches this function.
    """
    if kernel.kind == "linear":
        r = radii[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r > 0, np.maximum(0.0, 1.0 - dist / np.where(r > 0, r, 1.0)),
                         (dist == 0).astype(np.float64))
        return w
    if kernel.kind == "gaussian":
        sigma = 1.0 / kernel.sharpness
        return np.exp(-np.minimum(dist ** 2, 1e6) / (2.0 * sigma ** 2))
    if kernel.kind == "shepard":
        return (dist + kernel.eps) ** (-kernel.power)
    # ellipsoidal_gaussian
    ecc = np.asarray(kernel.eccentricity, dtype=np.float64)
    unit = ecc / np.cbrt(np.prod(ecc))
    scale = np.where(radii > 0, radii, 1.0)[:, None, None]
    sigma = unit[None, None, :] * scale
    q = np.minimum(((offsets / sigma) ** 2).sum(axis=-1), 1e6)
    return np.exp(-0.5 * q)


def _to_field(flat: np.ndarray, target: GridSpec, n_comp: int) -> np.ndarray:
    dims = target.dims
    if n_comp == 1:
        return flat[:, 0].reshape(dims)
    return np.moveaxis(flat.reshape(dims + (n_comp,)), -1, 0)


# ---------------------------------------------------------------------------
# Target grids and sources
# ---------------------------------------------------------------------------
def make_target_grid(origin, extent, cells) -> GridSpec:
    """Node grid over a box: cells+1 samples per axis including both ends."""
    cells = tuple(int(c) for c in cells)
    if any(c < 1 for c in cells):
        raise FieldError(f"cell counts must be positive, got {cells}")
    extent = tuple(float(e) for e in extent)
    if any(e <= 0 for e in extent):
        raise FieldError("zero extent with more than one sample")
    spacing = tuple(e / c for e, c in zip(extent, cells))
    dims = tuple(c + 1 for c in cells)
    return GridSpec(origin=tuple(origin), spacing=spacing, dims=dims)


def sample_values(field: DenseField) -> np.ndarray:
    """A dense field's samples as (n, components) rows, in the order of
    ``field.grid.sample_positions()``."""
    if field.components == 1:
        return field.values.reshape(-1, 1)
    return np.moveaxis(field.values, 0, -1).reshape(-1, 3)


def structured_source(field: DenseField) -> SourcePoints:
    """Treat a dense field's samples as interpolation sources."""
    return SourcePoints(positions=field.grid.sample_positions(),
                        values=sample_values(field),
                        origin_tag="structured", grid=field.grid)


def read_csv_source(path) -> SourcePoints:
    """Unstructured sources from CSV rows x,y,z,f1[,f2,f3] (header optional)."""
    path = Path(path)
    if not path.exists():
        raise ArtifactIOError(f"source CSV not found: {path}")
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.reader(handle):
            if not record:
                continue
            try:
                rows.append([float(x) for x in record])
            except ValueError:
                continue  # header row
    if not rows:
        raise FieldError(f"{path}: no numeric rows")
    data = np.asarray(rows, dtype=np.float64)
    if data.shape[1] < 4:
        raise FieldError(f"{path}: expected columns x,y,z,f...")
    return SourcePoints(positions=data[:, :3], values=data[:, 3:],
                        origin_tag="unstructured")


def box_prefilter(field: DenseField, target: GridSpec) -> DenseField:
    """Optional anti-alias box filter sized to the coarsening ratio.

    Off by default; when enabled, each source sample is replaced by the
    mean over a cubic window matched to the target/source spacing ratio
    before interpolation.  Constant fields are unchanged.
    """
    from scipy import ndimage
    ratios = [max(1, int(round(target.spacing[a] / field.grid.spacing[a])))
              for a in range(3)]
    sizes = [r + 1 if r % 2 == 0 else r for r in ratios]  # odd windows
    if all(s == 1 for s in sizes):
        return field
    if field.components == 1:
        smoothed = ndimage.uniform_filter(
            field.values.astype(np.float64), size=sizes, mode="nearest")
    else:
        smoothed = np.stack([
            ndimage.uniform_filter(field.values[c].astype(np.float64),
                                   size=sizes, mode="nearest")
            for c in range(3)])
    return DenseField(field.grid, smoothed)


# ---------------------------------------------------------------------------
# Classic INI configuration layout
# ---------------------------------------------------------------------------
_INI_KERNELS = {
    "Linear_Kernel": "linear",
    "Gaussian_Kernel": "gaussian",
    "Shepard_Kernel": "shepard",
    "Voronoi_Kernel": "voronoi",
    "Ellipsoidal_Gaussian_Kernel": "ellipsoidal_gaussian",
}


def read_ini_config(path) -> dict:
    """Parse the legacy INI layout into kernel/footprint/grid settings.

    Returns a dict with keys ``kernel`` (KernelSpec), ``footprint``
    (FootprintSpec), ``target`` (GridSpec), ``fields`` (ordered component
    names), and ``output_npy`` (bool).
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactIOError(f"INI config not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")

    if not parser.has_section("interpolation"):
        raise FieldError(f"{path}: missing [interpolation] section")
    kernel_name = parser.get("interpolation", "kernel").strip()
    if kernel_name not in _INI_KERNELS:
        raise FieldError(f"{path}: unknown kernel {kernel_name!r}")
    kind = _INI_KERNELS[kernel_name]

    ksec = parser[kernel_name] if parser.has_section(kernel_name) else {}
    kwargs = {}
    if "sharpness" in ksec:
        kwargs["sharpness"] = float(ksec["sharpness"])
    if "power" in ksec:
        kwargs["power"] = float(ksec["power"])
    if "eccentricity" in ksec:
        parts = [float(v) for v in ksec["eccentricity"].split(",")]
        kwargs["eccentricity"] = tuple(parts) if len(parts) == 3 \
            else (parts[0],) * 3
    kernel = KernelSpec(kind, **kwargs)

    footprint_name = str(ksec.get("kernel_footprint", "N Closest")).strip()
    if footprint_name.lower().startswith("n"):
        footprint = FootprintSpec("n_closest",
                                  k=int(ksec.get("num_neighbours", DEFAULT_K)))
    else:
        footprint = FootprintSpec("radius", radius=float(ksec["radius"]))

    if not parser.has_section("gridsize"):
        raise FieldError(f"{path}: missing [gridsize] section")
    gsec = parser["gridsize"]
    cells = tuple(int(gsec[f"num_cells_{a}"]) for a in "xyz")
    origin = tuple(float(gsec.get(f"origin_{a}", 0.0)) for a in "xyz")
    extent = tuple(float(gsec[f"scale_{a}"]) for a in "xyz")
    target = make_target_grid(origin, extent, cells)

    fields = []
    if parser.has_section("output"):
        osec = parser["output"]
        n_fields = int(osec.get("num_fields", 0))
        fields = [osec[f"field_{i}"].strip() for i in range(1, n_fields + 1)
                  if f"field_{i}" in osec]
        output_npy = bool(int(osec.get("output_npy", 1)))
    else:
        output_npy = True

    return {"kernel": kernel, "footprint": footprint, "target": target,
            "fields": fields, "output_npy": output_npy}
