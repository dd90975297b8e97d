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
form of the two.  :func:`apply` takes a field in its own channels-first
layout, (n,) or (C, n) over the source samples, and returns the target
field in that layout.

Both work through the target rows in chunks of one fixed size
(``_ROW_CHUNK``), so that their temporaries stay a few MB and only the
operator and the resampled field are whole.  A build makes each chunk's
target positions, neighbor sets and weights on their own; the operator
keeps one array per footprint column, with int32 source ids when the
source count allows.  An apply gathers a float32 field as float32 and
widens each chunk to float64, which is exact.  The chunks change no bit
of an operator or a field.

A tie-inclusive k-nearest set is found in two steps.  Every target
queries k + 1 neighbors; only a target whose (k+1)-th neighbor ties the
k-th takes one ball query out to the tie distance, through the same
padded-set code as the radius footprint (:func:`_ball_sets`).  The
operator is as wide as the widest tie set: 5 columns for k = 4 from the
dx=16 channel grid onto the 128x32x32 target.

Both queries run against one of two indexes that give the same
footprints, bit for bit.  Sources on the nodes of a ``GridSpec`` (every
field ``forge resample`` reads) use a :class:`GridIndex`, which finds
neighbors by arithmetic on per-axis windows of nodes; it needs no scipy
and has nothing to build.  Scattered sources use a ``cKDTree``
(:func:`build_index`).  The nodes tied at a k + 1 probe's last distance,
which no footprint holds, may differ between the two.
Padded footprint columns weigh 0 and point at their row's nearest member,
so a non-finite value outside a footprint never reaches its row.

Normalized weights reproduce constant fields exactly for every
kernel/footprint combination.  When all weights vanish (or a radius
footprint is empty) the sample falls back to the value of the nearest
source and is counted as a hole in the summary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import FieldError
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

# neighbors within d_k (1 + _TIE_REL) tie the k-th; a target whose k+1
# probe ties takes a ball query
_TIE_REL = 1e-12


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
        if len(self.eccentricity) != 3 or any(e <= 0 for e in self.eccentricity):
            raise FieldError("eccentricity: expected three positive ratios")


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
# Spatial index and neighbor sets
# ---------------------------------------------------------------------------
def build_index(positions):
    """A ``cKDTree`` over ``positions``: exact k-NN and ball queries,
    results identical to a linear scan."""
    from scipy.spatial import cKDTree   # on first use: see README "Dependencies"
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if len(positions) == 0:
        raise FieldError("cannot index an empty point set")
    return cKDTree(positions)


# window candidates per chunk of query rows; bounds the (rows, candidates)
# temporaries to a few MB whatever the number of targets
_CANDIDATE_BUDGET = 1 << 18

# a k+1 probe row is final when every node outside its window lies beyond
# d_{k+1} (1 + _CERT_REL).  A row that fails takes a window holding every
# node within d_{k+1} (1 + _REACH_REL), which passes that test; a row that
# fails again (rounding alone could do it) takes the whole grid
_CERT_REL = 1e-12
_REACH_REL = 1e-9


class GridIndex:
    """Exact k-nearest and ball queries over the nodes of a ``GridSpec``.

    Answers a ``cKDTree``'s queries over ``grid.sample_positions()``
    from per-axis windows of nodes, with no tree to build or walk.
    Distances are ``sqrt((dx² + dy²) + dz²)`` with ``d = t - s``, the
    tree's own arithmetic, so they agree bit for bit.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.n = int(np.prod(grid.dims))
        self._axes = [grid.axis_coords(a) for a in range(3)]
        self._dims = np.asarray(grid.dims)

    # -- windows -------------------------------------------------------------
    def _box(self, t, reach):
        """One window shape and each row's window start (lo, sizes): every
        window holds all nodes within ``reach`` (per row, and per axis or
        for all three) of its target along each axis, padded so that
        rounding in ``t ± reach`` leaves no node out."""
        reach = reach * (1.0 + 1e-9) + np.abs(t) * 1e-12
        lo, hi = (np.column_stack([
            np.searchsorted(axis, t[:, a] + sign * reach[:, a], side=side)
            for a, axis in enumerate(self._axes)])
            for sign, side in ((-1.0, "left"), (1.0, "right")))
        # the widest box on each axis, moved back inside the grid where it
        # would overhang, still covers each row's own box
        sizes = (hi - lo).max(axis=0, initial=0)
        return np.minimum(lo, self._dims - sizes), sizes

    def _chunks(self, rows, sizes):
        """``rows`` in slices of at most _CANDIDATE_BUDGET window nodes."""
        step = max(1, _CANDIDATE_BUDGET // int(np.prod(sizes)))
        return (slice(start, start + step)
                for start in range(0, len(rows), step))

    def _dist2(self, t, lo, sizes):
        """Squared distances from each target to its window's nodes,
        (rows, window nodes) with the window in C order, summed in the
        tree's order."""
        dx, dy, dz = (t[:, a] - axis[lo[:, a] + np.arange(sizes[a])[:, None]]
                      for a, axis in enumerate(self._axes))
        # built nodes-first, so NumPy's inner loops run along the rows
        d2 = ((dx * dx)[:, None, None, :] + (dy * dy)[None, :, None, :]
              + (dz * dz)[None, None, :, :])
        return d2.reshape(-1, len(t)).T

    def _ids(self, lo, sizes, pos):
        """Node ids at window positions ``pos`` (rows, m): a window's C
        order is also ascending id order."""
        ny, nz = self.grid.dims[1:]
        # id of each window position relative to the window's first node
        steps = [np.arange(sizes[0]) * (ny * nz), np.arange(sizes[1]) * nz,
                 np.arange(sizes[2])]
        offset = (steps[0][:, None, None] + steps[1][None, :, None]
                  + steps[2][None, None, :]).ravel()
        first = (lo[:, 0] * ny + lo[:, 1]) * nz + lo[:, 2]
        return first[:, None] + offset[pos]

    # -- queries -------------------------------------------------------------
    def nearest(self, targets, width: int):
        """The ``width`` nearest nodes of each target as (dist, idx) arrays,
        each row sorted by (distance, node id); as in the tree, nodes tied
        at the ``width``-th distance may be picked either way."""
        if not 1 <= width <= self.n:
            raise FieldError(f"cannot take {width} nearest of {self.n} nodes")
        dims = self._dims
        spacing = np.asarray(self.grid.spacing)
        dist = np.empty((len(targets), width))
        idx = np.empty((len(targets), width), dtype=np.int64)
        first, last = (np.array([axis[i] for axis in self._axes])
                       for i in (0, -1))
        # each target's per-axis distance to the grid's extent, 0 inside
        out = np.maximum(0.0, np.maximum(first - targets, targets - last))

        # first pass: one window shape, about a ball that holds ``width``
        # nodes, around each target's nearest node
        rho = np.cbrt(3.0 * width * spacing.prod() / (4.0 * np.pi))
        half = np.minimum(np.maximum(1, np.rint(rho / spacing)), dims - 1)
        while np.minimum(2 * half + 1, dims).prod() < width:
            half = np.minimum(half + 1, dims - 1)
        sizes = np.minimum(2 * half + 1, dims).astype(np.int64)
        centre = np.rint((targets - self.grid.origin) / spacing)
        lo = np.clip(centre - half, 0, dims - sizes).astype(np.int64)
        rows = self._window_pass(targets, out, np.arange(len(targets)), lo,
                                 sizes, width, dist, idx)
        if len(rows):
            # a node within d_{k+1} of a target is within
            # sqrt(d² - sum of out_b², b != a) of it along axis a
            reach = dist[rows, -1] * (1.0 + _REACH_REL)
            sq = out[rows] ** 2
            others = sq.sum(axis=1)[:, None] - sq
            along = np.sqrt(np.maximum((reach * reach)[:, None] - others, 0.0))
            lo, sizes = self._box(targets[rows], along)
            rows = self._window_pass(targets, out, rows, lo, sizes, width,
                                     dist, idx)
        if len(rows):
            whole = np.zeros((len(rows), 3), dtype=np.int64)
            self._window_pass(targets, out, rows, whole, dims, width, dist,
                              idx)
        return dist, idx

    def _window_pass(self, targets, out, rows, lo, sizes, width, dist, idx):
        """Write the ``width`` nearest window nodes of ``rows`` (windows of
        shape ``sizes`` at ``lo``, each holding ``width`` nodes or more;
        ties at the ``width``-th distance picked either way), and return
        the rows that are not certified exact."""
        failed = [rows[:0]]
        for part in self._chunks(rows, sizes):
            chunk, t, start = rows[part], targets[rows[part]], lo[part]
            d = np.sqrt(self._dist2(t, start, sizes))
            pick = np.argpartition(d, width - 1, axis=1)[:, :width]
            near = np.take_along_axis(d, pick, axis=1)
            # (distance, window position) order is (distance, id) order
            order = np.lexsort((pick, near), axis=1)
            dist[chunk] = np.take_along_axis(near, order, axis=1)
            idx[chunk] = self._ids(start, sizes,
                                   np.take_along_axis(pick, order, axis=1))
            bound = self._outside_bound(t, out[chunk], start, sizes)
            failed.append(chunk[~(np.sqrt(bound)
                                  > dist[chunk, -1] * (1.0 + _CERT_REL))])
        return np.concatenate(failed)

    def _outside_bound(self, t, out, lo, sizes):
        """A lower bound on the squared distance from each target to any
        node outside its window (inf for a window that is the whole grid).

        A node outside the window on axis a is at least gap_a away along a
        and out_b along each other axis b.  The bound adds those squares in
        the order a node's own distance adds them, so rounding keeps it at
        or below every outside node's computed distance.
        """
        out2 = [out[:, a] ** 2 for a in range(3)]
        bound = np.full(len(t), np.inf)
        for a, axis in enumerate(self._axes):
            below, above = lo[:, a] - 1, lo[:, a] + sizes[a]
            gap = np.minimum(
                np.where(below >= 0, t[:, a] - axis[np.maximum(below, 0)],
                         np.inf),
                np.where(above < len(axis),
                         axis[np.minimum(above, len(axis) - 1)] - t[:, a],
                         np.inf))
            e = list(out2)
            e[a] = np.maximum(gap, 0.0) ** 2
            bound = np.minimum(bound, (e[0] + e[1]) + e[2])
        return bound

    def ball(self, targets, radius):
        """Every node within ``radius`` (a scalar or one per target) of each
        target, a member when ``d² <= r*r`` as in the tree, as (rows, dist,
        members) sorted by (row, distance, node id)."""
        radius = np.broadcast_to(np.asarray(radius, dtype=np.float64),
                                 (len(targets),))
        # a member is within r (1 + a few ulp) of its target on every axis
        lo, sizes = self._box(targets, radius[:, None])
        rows, dist = [np.zeros(0, np.int64)], [np.zeros(0)]
        members = [np.zeros(0, np.int64)]
        # a window empty along some axis is empty for every row
        for part in self._chunks(targets, sizes) if sizes.all() else ():
            r = radius[part]
            d2 = self._dist2(targets[part], lo[part], sizes)
            d = np.where(d2 <= (r * r)[:, None], np.sqrt(d2), np.inf)
            # a window's C order is id order, so a stable sort by distance
            # puts each row's members first, in (distance, id) order
            order = np.argsort(d, axis=1, kind="stable")
            d = np.take_along_axis(d, order, axis=1)
            row, col = np.nonzero(np.isfinite(d))
            dist.append(d[row, col])
            members.append(self._ids(lo[part][row], sizes,
                                     order[row, col][:, None])[:, 0])
            rows.append(row + part.start)
        return tuple(map(np.concatenate, (rows, dist, members)))


def _nearest(index, targets: np.ndarray, width: int):
    """The ``width`` nearest sources of each target as (dist, idx) arrays,
    each row sorted by (distance, source id), ties at the ``width``-th
    distance picked either way."""
    if isinstance(index, GridIndex):
        return index.nearest(targets, width)
    dist, idx = index.query(targets, k=list(range(1, width + 1)), workers=1)
    # (distance, id) order: equidistant ties break the same way whatever
    # the query order
    order = np.lexsort((idx, dist), axis=1)
    return (np.take_along_axis(dist, order, axis=1),
            np.take_along_axis(idx, order, axis=1))


def _ball_sets(index, targets: np.ndarray, radius):
    """Every source within ``radius`` (a scalar or one per target) of each
    target, as padded (dist, idx) arrays sorted by (distance, source id),
    with inf and 0 past a row's members, and the member count per row."""
    # GridIndex.ball sorts its own rows; the tree's are measured and sorted here
    if isinstance(index, GridIndex):
        rows, d, members = index.ball(targets, radius)
    else:
        lists = index.query_ball_point(targets, radius, workers=1)
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        members = np.fromiter(itertools.chain.from_iterable(lists),
                              dtype=np.int64, count=int(counts.sum()))
        rows = np.repeat(np.arange(len(targets)), counts)
        d = np.linalg.norm(index.data[members] - targets[rows], axis=1)
        order = np.lexsort((members, d, rows))
        rows, d, members = rows[order], d[order], members[order]
    counts = np.bincount(rows, minlength=len(targets))
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = max(1, int(counts.max(initial=0)))
    dist = np.full((len(targets), width), np.inf)
    idx = np.zeros((len(targets), width), dtype=np.int64)
    dist[rows, cols], idx[rows, cols] = d, members
    return dist, idx, counts


def _neighbor_sets_n_closest(index, targets: np.ndarray, k: int):
    """Tie-inclusive k-nearest sets as padded (dist, idx, valid) arrays.

    Each row's footprint is the prefix of sources within ``d_k (1 +
    _TIE_REL)``.  The arrays are as wide as the widest footprint, so every
    dropped column would have had zero weight.
    """
    k_eff = min(k, index.n)
    width = min(index.n, k_eff + 1)
    dist, idx = _nearest(index, targets, width)
    d_k = dist[:, k_eff - 1]
    tie_limit = d_k * (1.0 + _TIE_REL)

    # only rows whose (k+1)-th neighbor ties the k-th can have a wider set.
    # Their ball reaches past tie_limit, so that the tree's squared-distance
    # test cannot drop a member on the boundary; membership is decided below
    ties = np.flatnonzero((dist[:, -1] <= tie_limit) & (width < index.n))
    if len(ties):
        ball_dist, ball_idx, _ = _ball_sets(
            index, targets[ties], tie_limit[ties] * (1.0 + _TIE_REL))
        # every row is copied, at a cost in peak memory, only when a tie
        # set outgrows the probe (a tie row's ball holds the probe's members)
        if ball_dist.shape[1] > width:
            grow = ((0, 0), (0, ball_dist.shape[1] - width))
            dist, idx = np.pad(dist, grow, constant_values=np.inf), np.pad(idx, grow)
        dist[ties], idx[ties] = ball_dist, ball_idx

    # rows are sorted, so each footprint is a prefix and its length a count
    valid = dist <= tie_limit[:, None]
    width = max(1, int(valid.sum(axis=1).max()))
    return dist[:, :width], idx[:, :width], valid[:, :width], d_k


def _neighbor_sets_radius(index, targets: np.ndarray, r: float):
    dist, idx, counts = _ball_sets(index, targets, r)
    return dist, idx, np.isfinite(dist), counts


# ---------------------------------------------------------------------------
# Interpolation operator
# ---------------------------------------------------------------------------
# target rows per chunk of a build or an apply: bounds every (rows, width)
# temporary of either to a few MB whatever the size of the target grid.
# Larger chunks free enough at once for the allocator to hand it back to
# the system and fault it in again on the next chunk: on the e2e layout,
# 8,192 rows took 2.7 times the page faults of one whole-grid pass, and
# 4,096 rows 0.3 times
_ROW_CHUNK = 1 << 12


def _row_chunks(n: int):
    """Target rows 0..n in slices of at most _ROW_CHUNK rows."""
    return (slice(start, min(start + _ROW_CHUNK, n))
            for start in range(0, n, _ROW_CHUNK))


@dataclass(frozen=True, eq=False)
class ResampleOperator:
    """Footprints and kernel weights from one source layout to one target grid.

    Targets are in ``GridSpec.sample_positions`` order.  ``idx`` and
    ``weights`` hold W footprint columns, each a (T,) array over the
    targets, so that :func:`apply` adds one column at a time.  Source ids
    are int32 when the source count allows.  The weights keep the padded
    footprint width and are not normalized, so :func:`apply` performs
    exactly the arithmetic of a one-shot interpolation.
    """
    target: GridSpec
    kernel: str
    footprint: str
    n_sources: int
    anchor: np.ndarray               # (T,) nearest footprint member
    idx: tuple | None                # W (T,) footprint ids; None for voronoi
    weights: tuple | None            # W (T,), zero outside the footprint
    wsum: np.ndarray | None          # (T,) column sums of ``weights``
    exact_hit: np.ndarray | None     # rows on a source: take it unchanged
    hole_rows: np.ndarray            # rows with no usable weight ...
    hole_sources: np.ndarray         # ... and the nearest source each takes

    @property
    def holes(self) -> int:
        return len(self.hole_rows)


def build_operator(sources, target: GridSpec, kernel: KernelSpec,
                   footprint: FootprintSpec) -> ResampleOperator:
    """Neighbor search and kernel weights for resampling onto ``target``.

    ``sources`` is the ``GridSpec`` whose nodes hold the source samples
    (searched through a :class:`GridIndex`), or an (n, 3) array of
    scattered source positions (searched through :func:`build_index`).
    Depends only on where the sources are, never on their values: one
    operator serves every field sampled there.

    The targets are worked through in chunks of ``_ROW_CHUNK`` rows, each
    with its own target positions, neighbor sets and weights, so that only
    the operator is whole.  A chunk whose footprints are wider than any
    before it adds columns, whose earlier rows point at their anchor with
    weight 0: the operator is the one a single chunk gives, bit for bit.
    """
    index = (GridIndex(sources) if isinstance(sources, GridSpec)
             else build_index(sources))
    # source positions by id: a grid's from its axes, a tree's from its points
    positions = (sources.positions if isinstance(sources, GridSpec)
                 else index.data.__getitem__)
    n_targets = int(np.prod(target.dims))
    id_type = np.int32 if index.n <= np.iinfo(np.int32).max else np.int64
    anchor = np.empty(n_targets, dtype=id_type)
    idx_columns, weight_columns = [], []
    weighted = kernel.kind != "voronoi"
    wsum = np.zeros(n_targets) if weighted else None
    exact_hit = np.empty(n_targets, dtype=bool) if weighted else None
    hole_rows, hole_sources = [np.zeros(0, np.int64)], [np.zeros(0, id_type)]

    for rows in _row_chunks(n_targets):
        targets = target.positions(np.arange(rows.start, rows.stop))
        if footprint.mode == "n_closest":
            dist, idx, valid, radii = _neighbor_sets_n_closest(
                index, targets, footprint.k)
        else:
            dist, idx, valid, _ = _neighbor_sets_radius(
                index, targets, footprint.radius)
            radii = np.full(len(targets), float(footprint.radius))

        # rows are sorted by (distance, source id) with the footprint as a
        # prefix, so column 0 is the nearest member and equidistant ties
        # break to the smallest id
        has_any = valid[:, 0]
        near = anchor[rows] = np.where(has_any, idx[:, 0], 0)
        covered = has_any       # voronoi: the nearest source wins
        if weighted:
            # padded columns weigh 0 but point at the anchor, whose shifted
            # value is +0.0: a non-finite value outside the footprint stays
            # out of the row
            idx = np.where(valid, idx, near[:, None])
            # only the ellipsoidal kernel reads offsets, one column at a time
            weights = np.where(valid, _batch_weights(
                kernel, lambda j: positions(idx[:, j]) - targets,
                dist, radii), 0.0)
            # a chunk wider than any before adds columns: their earlier rows,
            # like a narrower chunk's rows below, point at their anchor with
            # weight 0 (the columns start at 0)
            while len(idx_columns) < idx.shape[1]:
                idx_columns.append(anchor.copy())
                weight_columns.append(np.zeros(n_targets))
            for j, (column, weight) in enumerate(zip(idx_columns,
                                                     weight_columns)):
                if j < idx.shape[1]:
                    column[rows], weight[rows] = idx[:, j], weights[:, j]
                else:
                    column[rows] = near
            # columns summed left to right, so a target's sum depends only on
            # its own footprint, not on the operator width (NumPy's pairwise
            # sum regroups rows of 8 or more columns); the +0.0 of a padded
            # column leaves every sum as it is
            row_sum = wsum[rows]
            for weight in weight_columns:
                row_sum += weight[rows]
            exact = exact_hit[rows] = has_any & (dist[:, 0] == 0.0)
            covered = ((row_sum > 0) & np.isfinite(row_sum) & has_any) | exact

        # all weights vanished (e.g. linear kernel with every d == R, or an
        # empty radius footprint): nearest-neighbor fallback, flagged, with
        # equidistant sources breaking to the smallest id like the anchor
        holes = np.flatnonzero(~covered)
        if len(holes):
            hole_rows.append(holes + rows.start)
            hole_sources.append(
                near[holes] if footprint.mode == "n_closest"
                else _neighbor_sets_n_closest(index, targets[holes], 1)[1][:, 0])

    return ResampleOperator(
        target=target, kernel=kernel.kind, footprint=footprint.mode,
        n_sources=index.n, anchor=anchor,
        idx=tuple(idx_columns) if weighted else None,
        weights=tuple(weight_columns) if weighted else None,
        wsum=wsum, exact_hit=exact_hit,
        hole_rows=np.concatenate(hole_rows),
        hole_sources=np.concatenate(hole_sources))


def apply(operator: ResampleOperator, values) -> tuple[DenseField, dict]:
    """Resample one field's source values through a built operator.

    ``values`` is channels first, like ``DenseField.values`` flattened
    over the grid: (n,) or (1, n) for a scalar field, (3, n) for a vector
    field, with n the operator's source count.  Returns the dense field
    (scalar or 3-component, channels first, float64) and a summary dict
    with the hole count and the effective footprint.

    The targets are worked through in the build's chunks of rows, in
    buffers reused from chunk to chunk, so only the (C, T) result is
    whole.  A float32 field is gathered as float32 and widened to float64
    per chunk, which is exact; any other field is taken as float64.

    The weighted average is taken over every target without a mask.  A
    target whose weight sum is not finite and positive is either an exact
    hit or a hole (``build_operator`` makes every other target a hole),
    and both kinds are overwritten after the average, so its value is
    never read.
    """
    values = np.asarray(values)
    if values.dtype != np.float32:
        values = values.astype(np.float64, copy=False)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] != operator.n_sources:
        raise FieldError(f"operator built for {operator.n_sources} sources, "
                         f"got values of shape {values.shape}")
    n_targets = len(operator.anchor)
    out = np.empty((len(values), n_targets))
    size = len(values) * min(_ROW_CHUNK, n_targets)
    buffers = (np.empty(size, dtype=values.dtype),
               np.empty(size), np.empty(size), np.empty(size))

    for rows in _row_chunks(n_targets):
        shape = (len(values), rows.stop - rows.start)
        gathered, anchor, numer, shifted = (
            buffer[:shape[0] * shape[1]].reshape(shape) for buffer in buffers)
        # every id is below n_sources (checked above): "clip" only spares
        # take a buffer of its own
        values.take(operator.anchor[rows], axis=1, out=gathered, mode="clip")
        if operator.weights is None:
            out[:, rows] = gathered
            continue
        # nearest anchors a shifted accumulation: sum w (f - f0) / sum w + f0
        # is algebraically the weighted average but reproduces constant
        # fields bit-exactly.  Footprint columns are added left to right,
        # so each target's sum order is the same for 1 and 3 components
        anchor[...] = gathered
        numer[...] = 0.0
        for idx, weights in zip(operator.idx, operator.weights):
            values.take(idx[rows], axis=1, out=gathered, mode="clip")
            np.subtract(gathered, anchor, out=shifted)
            shifted *= weights[rows]
            numer += shifted
        # no mask: the targets whose 0/0 or x/inf this leaves are
        # overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            numer /= operator.wsum[rows]
        np.add(anchor, numer, out=out[:, rows])
        np.copyto(out[:, rows], anchor, where=operator.exact_hit[rows])

    out[:, operator.hole_rows] = values.take(operator.hole_sources, axis=1)
    dims = operator.target.dims
    field = DenseField(operator.target,
                       out.reshape(dims if len(out) == 1 else (len(out),) + dims))
    return field, {"holes": operator.holes, "kernel": operator.kernel,
                   "footprint": operator.footprint}


def interpolate(points: SourcePoints, target: GridSpec, kernel: KernelSpec,
                footprint: FootprintSpec) -> tuple[DenseField, dict]:
    """Resample source samples onto the target grid in one call.

    Builds a single-use operator; to resample several fields that share
    source positions, call :func:`build_operator` once and :func:`apply`
    per field.
    """
    operator = build_operator(points.positions, target, kernel, footprint)
    return apply(operator, points.values.T)


def _batch_weights(kernel: KernelSpec, offset, dist, radii):
    """Kernel weight of every padded footprint entry of the (T, W) ``dist``.

    ``radii`` is each row's footprint support: the distance to the k-th
    neighbor in n_closest mode, or the fixed footprint radius.  Only the
    ellipsoidal kernel calls ``offset(j)``: column j's (T, 3) source minus
    target offsets.  Voronoi selection happens at footprint level.
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
    sigma = unit * np.where(radii > 0, radii, 1.0)[:, None]
    q = np.empty_like(dist)
    for j in range(dist.shape[1]):
        q[:, j] = ((offset(j) / sigma) ** 2).sum(axis=-1)
    return np.exp(-0.5 * np.minimum(q, 1e6))


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


def resample_specs(policy: dict, origin, extent):
    """The target grid, kernel and footprint that a ``resample_policy``
    block names over the box at ``origin`` with ``extent``.

    Raises FieldError on every value they reject, and on a nonpositive
    ``num_neighbours`` or ``radius`` even where the footprint ignores it.
    """
    target = make_target_grid(origin, extent, policy["cells"])
    kernel = KernelSpec(kind=policy["kernel"], sharpness=policy["sharpness"],
                        power=policy["power"], eps=policy["eps"],
                        eccentricity=tuple(policy["eccentricity"]))
    k, radius = policy["num_neighbours"], policy["radius"]
    if k is not None and not (isinstance(k, int) and not isinstance(k, bool)
                              and k >= 1):
        raise FieldError("num_neighbours: must be a positive integer")
    if radius is not None and not radius > 0:
        raise FieldError("radius: must be positive")
    if policy["footprint"] == "radius":
        footprint = FootprintSpec("radius", radius=radius)
    else:
        footprint = FootprintSpec(policy["footprint"],
                                  k=k or default_k_for_grid(target.dims))
    return target, kernel, footprint


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
    # window 1 on a vector field's component axis: each component alone
    sizes = [1] * (field.values.ndim - 3) + sizes
    smoothed = ndimage.uniform_filter(field.values.astype(np.float64),
                                      size=sizes, mode="nearest")
    return DenseField(field.grid, smoothed)

