"""Signed distance fields from watertight triangle meshes.

A distance query at given points is one exhaustive nearest-triangle scan
(``nearest_triangles``) over exact point-triangle distances, in kernel calls
of bounded size; the sign comes from the dot product of the offset vector
with the angle-weighted pseudonormal of the closest feature (vertex, edge,
or face), which is sign-correct on watertight, consistently wound meshes.
The distances come from one broadcasting kernel entered by two names, so
that a counter patched onto one sees only its callers: ``_point_triangle``
for K points by T triangles, ``_point_triangle_pairs`` for the band pass.

Voxelization evaluates exactly only inside the narrow band, and only in
the block of voxels within the band of the mesh's bounding box; the rest of
the grid is outside the solid and is written as the band edge directly.
Triangles are grouped by the leaves of a median-split partition.  A cheap
first pass gives every block voxel an upper bound on its distance (to one
on-surface point per nearby leaf); the band pass then admits to each leaf
only the voxels of its dilated box whose lower bound is within the band,
below the current distance and not above that upper bound.  One lower
bound serves leaves and pairs alike: the distance to a slab-and-disk hull,
sqrt(max(0, |h| - half)^2 + max(0, rho - radius)^2) for a point at height h
over a plane and in-plane offset rho from an axis.  A leaf's hull is its
mean plane with the half-thickness and radius of its corners, taken
together with its box; a triangle's is its own plane (half-thickness 0) and
the disk about its centroid.  Inside a leaf only the pairs whose bound is
within the smallest of those three limits, widened by the triangle's
rounding slack, reach the exact kernel.  Each band voxel keeps its winning
triangle and closest point, and the signs are taken after the scan.  Far
voxels are clamped to the band edge and take the sign of the last band
voxel before them in their x-row, +1 where there is none (sign propagation:
Jones, Baerentzen & Sramek, "3D distance fields: a survey", TVCG 2006).
"""

from __future__ import annotations

import numpy as np

from .errors import FieldError
from .fields import DenseField, GridSpec
from .geometry.mesh import TriMesh

_LEAF_SIZE = 16

# point-triangle pairs per kernel or bound call, whatever the number of
# points: one band-pass chunk holds at most 11.5 MiB of temporaries, when
# every pair reaches the exact kernel (measured with tracemalloc)
_PAIR_BUDGET = 1 << 15

# feature codes from point-triangle classification
_F_V0, _F_V1, _F_V2, _F_E01, _F_E12, _F_E20, _F_FACE = range(7)


# ---------------------------------------------------------------------------
# Exact point-triangle distance: one kernel, two entries
# ---------------------------------------------------------------------------
def _region_split(a, b, c, d, e):
    """Clamped closest-point parameters (s, t) from the entries of the 2x2
    system: a = e0.e0, b = e0.e1, c = e1.e1, d = (base - p).e0 and
    e = (base - p).e1, broadcast against each other.  Region handling
    follows the standard closest-point-on-triangle case split."""
    det = np.maximum(a * c - b * b, 1e-300)
    s = b * e - c * d
    t = b * d - a * e

    inside = (s + t) <= det
    denom_e = np.maximum(a - 2.0 * b + c, 1e-300)
    s_edge_a = np.clip(-d / np.maximum(a, 1e-300), 0.0, 1.0)   # edge t=0
    t_edge_c = np.clip(-e / np.maximum(c, 1e-300), 0.0, 1.0)   # edge s=0

    s0 = s / det
    t0 = t / det

    s1 = np.clip(((c + e) - (b + d)) / denom_e, 0.0, 1.0)      # diagonal edge
    t1 = 1.0 - s1

    pick2 = (c + e) > (b + d)
    s2 = np.where(pick2, s1, 0.0)
    t2 = np.where(pick2, 1.0 - s2, t_edge_c)

    pick6 = (a + d) > (b + e)
    t6 = np.where(pick6, np.clip(((a + d) - (b + e)) / denom_e, 0.0, 1.0), 0.0)
    s6 = np.where(pick6, 1.0 - t6, s_edge_a)

    pick4 = d < 0
    s4 = np.where(pick4, s_edge_a, 0.0)
    t4 = np.where(pick4, 0.0, t_edge_c)

    sn = np.where(inside,
                  np.where(s < 0,
                           np.where(t < 0, s4, 0.0),
                           np.where(t < 0, s_edge_a, s0)),
                  np.where(s < 0, s2, np.where(t < 0, s6, s1)))
    tn = np.where(inside,
                  np.where(s < 0,
                           np.where(t < 0, t4, t_edge_c),
                           np.where(t < 0, 0.0, t0)),
                  np.where(s < 0, t2, np.where(t < 0, t6, t1)))
    return sn, tn


def _kernel(points, base, e0, e1):
    """(dist2, s, t) of (..., 3) points against (..., 3) triangles, broadcast
    together, with every dot product one ``"...j,...j->..."`` reduction: the
    two entries below give a pair the same bits whatever its layout."""
    diff = base - points
    a, b, c, d, e = (np.einsum("...j,...j->...", x, y) for x, y in
                     ((e0, e0), (e0, e1), (e1, e1), (diff, e0), (diff, e1)))
    sn, tn = _region_split(a, b, c, d, e)
    delta = base + sn[..., None] * e0 + tn[..., None] * e1 - points
    return np.einsum("...j,...j->...", delta, delta), sn, tn


def _point_triangle(points, base, e0, e1):
    """``_kernel`` on (K, 3) points by (T, 3) triangles: (K, T) results."""
    return _kernel(points[:, None, :], base, e0, e1)


def _point_triangle_pairs(points, base, e0, e1):
    """``_kernel`` on P gathered pairs, one per row: (P,) results."""
    return _kernel(points, base, e0, e1)


def _feature_codes(s: np.ndarray, t: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Map clamped (s, t) to vertex/edge/face codes."""
    s = np.atleast_1d(s)
    t = np.atleast_1d(t)
    s0 = s <= tol
    t0 = t <= tol
    s1 = s >= 1.0 - tol
    t1 = t >= 1.0 - tol
    diag = np.abs(s + t - 1.0) <= tol
    codes = np.full(s.shape, _F_FACE, dtype=np.int8)
    codes[diag] = _F_E12
    codes[t0] = _F_E01
    codes[s0] = _F_E20
    codes[s0 & t0] = _F_V0
    codes[s1 & t0] = _F_V1
    codes[s0 & t1] = _F_V2
    return codes


def nearest_triangles(points: np.ndarray, base: np.ndarray, e0: np.ndarray,
                      e1: np.ndarray):
    """Each point's nearest triangle, by an exhaustive scan.

    Returns (dist2, tri, s, t) with shape (K,): the squared distance, the
    first triangle that attains it, and that triangle's closest-point
    parameters.  Kernel calls hold at most ``_PAIR_BUDGET`` pairs, or one
    point when the triangles alone exceed it.
    """
    n = len(points)
    dist2, s, t = np.empty(n), np.empty(n), np.empty(n)
    tri = np.empty(n, dtype=np.intp)
    step = max(1, _PAIR_BUDGET // len(base))
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        d2, sc, tc = _point_triangle(points[chunk], base, e0, e1)
        k = np.argmin(d2, axis=1)
        rows = np.arange(len(k))
        dist2[chunk], tri[chunk] = d2[rows, k], k
        s[chunk], t[chunk] = sc[rows, k], tc[rows, k]
    return dist2, tri, s, t


# ---------------------------------------------------------------------------
# Mesh accelerator: leaf partition plus pseudonormals
# ---------------------------------------------------------------------------
class MeshAccel:
    """Median-split leaf partition of the triangles plus angle-weighted
    pseudonormals.

    The leaves, in pre-order, are the voxelizer's units of work; their order
    fixes its first-minimum tie order.  Immutable after construction; the
    input mesh must be watertight and outward-oriented (checked up front,
    before any query).
    """

    def __init__(self, mesh: TriMesh, check: bool = True):
        if check:
            mesh.check_watertight(context="MeshAccel input")
        self.mesh = mesh
        corners = mesh.corners
        self._base = np.ascontiguousarray(corners[:, 0])
        self._e0 = np.ascontiguousarray(corners[:, 1] - corners[:, 0])
        self._e1 = np.ascontiguousarray(corners[:, 2] - corners[:, 0])
        self._tri_lo = corners.min(axis=1)
        self._tri_hi = corners.max(axis=1)
        self._face_normals = mesh.face_normals()
        self._vertex_pn, self._edge_pn = self._pseudonormals(mesh)
        # pseudonormal of every triangle feature, indexed [triangle, feature
        # code]: codes 0-2 are the vertices, 3-5 the edges and 6 the face
        self._normals = np.concatenate(
            [self._vertex_pn[mesh.triangles], self._edge_pn,
             self._face_normals[:, None]], axis=1)
        # the band pass's per-pair slab-and-disk bounds: the supporting plane
        # n.p = offset, and the disk in it about the centroid through the
        # farthest corner
        self._offset = np.einsum("tj,tj->t", self._face_normals, self._base)
        self._centroid = corners.mean(axis=1)
        spokes = corners - self._centroid[:, None]
        self._radius = np.sqrt(np.einsum("tkj,tkj->tk", spokes, spokes)
                               .max(axis=1))
        # the kernel's error bound per unit of coordinate scale, 16 eps kappa,
        # kappa = |e0|^2 |e1|^2 / |e0 x e1|^2 being the condition number of
        # its (s, t) solve; infinite for a zero-area triangle
        cross = np.cross(self._e0, self._e1)
        with np.errstate(divide="ignore", invalid="ignore"):
            kappa = (np.einsum("tj,tj->t", self._e0, self._e0)
                     * np.einsum("tj,tj->t", self._e1, self._e1)
                     / np.einsum("tj,tj->t", cross, cross))
        self._kernel_err = (16 * np.finfo(np.float64).eps
                            * np.nan_to_num(kappa, nan=np.inf))
        self._build_leaves()
        self._slabs = self._leaf_slabs(corners, cross)

    # -- pseudonormals -------------------------------------------------------
    @staticmethod
    def _pseudonormals(mesh: TriMesh):
        tris = mesh.triangles
        corners = mesh.corners
        normals = mesh.face_normals()

        # incident angle at each corner weights that face's normal
        vecs_a = corners[:, [1, 2, 0]] - corners
        vecs_b = corners[:, [2, 0, 1]] - corners
        dots = np.einsum("tkj,tkj->tk", vecs_a, vecs_b)
        norms = np.linalg.norm(vecs_a, axis=2) * np.linalg.norm(vecs_b, axis=2)
        angles = np.arccos(np.clip(dots / np.maximum(norms, 1e-300), -1.0, 1.0))

        vertex_pn = np.zeros((len(mesh.vertices), 3))
        for k in range(3):
            np.add.at(vertex_pn, tris[:, k], angles[:, k, None] * normals)
        vertex_pn /= np.maximum(np.linalg.norm(vertex_pn, axis=1, keepdims=True),
                                1e-300)

        # per-triangle edge pseudonormals: the face normals on each edge of
        # TriMesh.edges summed (the two of a certified watertight mesh)
        inverse, counts = mesh.edges()
        edge_sum = np.zeros((len(counts), 3))
        np.add.at(edge_sum, inverse, np.repeat(normals, 3, axis=0))
        edge_sum /= np.maximum(np.linalg.norm(edge_sum, axis=1, keepdims=True),
                               1e-300)
        edge_pn = edge_sum[inverse].reshape(len(tris), 3, 3)
        return vertex_pn, edge_pn

    # -- leaf partition --------------------------------------------------------
    def _build_leaves(self):
        centroids = (self._tri_lo + self._tri_hi) / 2.0
        order = np.arange(len(self._base))
        leaves = []

        # (start, count) ranges of ``order``; the right half is pushed before
        # the left, so leaves come out in pre-order (left subtree first)
        stack = [(0, len(order))]
        while stack:
            start, count = stack.pop()
            idx = order[start:start + count]
            lo = self._tri_lo[idx].min(axis=0)
            hi = self._tri_hi[idx].max(axis=0)
            if count <= _LEAF_SIZE:
                leaves.append((idx, lo, hi))
                continue
            axis = int(np.argmax(hi - lo))
            order[start:start + count] = idx[np.argsort(centroids[idx, axis],
                                                        kind="stable")]
            half = count // 2
            stack.append((start + half, count - half))
            stack.append((start, half))

        self._order = order
        self._leaves = leaves

    def _leaf_slabs(self, corners, cross):
        """Each leaf's flat-patch hull: a list of (centre, frame, half, radius)
        such that every triangle of the leaf lies within ``half`` of the
        plane through ``centre`` normal to frame[0], and within ``radius`` of
        ``centre`` along the in-plane axes frame[1] and frame[2], up to
        rounding.  frame[0] is the leaf's area-weighted normal, or the x axis
        when the normals sum to zero; any unit vector gives a valid hull.

        The leaves are consecutive runs of ``_order``, so every per-leaf sum
        and maximum is one ``reduceat``.
        """
        counts = np.array([len(idx) for idx, _, _ in self._leaves])
        starts = np.cumsum(counts) - counts
        normal = np.add.reduceat(cross[self._order], starts)
        length = np.sqrt(np.einsum("lj,lj->l", normal, normal))
        flat = length > np.finfo(np.float64).tiny
        normal /= np.where(flat, length, 1.0)[:, None]
        normal[~flat] = (1.0, 0.0, 0.0)
        # in-plane axes without a cross product or a branch: Duff et al.,
        # "Building an Orthonormal Basis, Revisited" (JCGT 2017)
        x, y, z = normal.T
        sign = np.copysign(1.0, z)
        a = -1.0 / (sign + z)
        b = x * y * a
        frame = np.stack([normal,
                          np.column_stack([1.0 + sign * x * x * a, sign * b,
                                           -sign * x]),
                          np.column_stack([b, sign + y * y * a, -y])], axis=1)

        # every corner, in leaf order, in its leaf's frame
        points = corners[self._order].reshape(-1, 3)
        leaf = np.repeat(np.arange(len(counts)), 3 * counts)
        centre = np.add.reduceat(points, 3 * starts) / (3 * counts[:, None])
        local = np.einsum("nij,nj->ni", frame[leaf], points - centre[leaf])
        half = np.maximum.reduceat(np.abs(local[:, 0]), 3 * starts)
        radius = np.sqrt(np.maximum.reduceat(
            np.einsum("nj,nj->n", local[:, 1:], local[:, 1:]), 3 * starts))
        return list(zip(centre, frame, half, radius))

    def leaf_groups(self):
        """Triangle-index groups with their bounding boxes (voxelizer hook)."""
        return iter(self._leaves)

    # -- queries ---------------------------------------------------------------
    def _side(self, points, tri, s, t) -> np.ndarray:
        """+1 where each point lies outside its closest point ``(s, t)`` on
        triangle ``tri`` by the feature's pseudonormal, -1 where inside."""
        closest = (self._base[tri] + s[:, None] * self._e0[tri]
                   + t[:, None] * self._e1[tri])
        outward = np.einsum("kj,kj->k", points - closest,
                            self._normals[tri, _feature_codes(s, t)])
        return np.where(outward >= 0, 1, -1)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distances for (K, 3) query points, negative inside."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        dist2, tri, s, t = nearest_triangles(points, self._base, self._e0,
                                             self._e1)
        return self._side(points, tri, s, t) * np.sqrt(dist2)


def signed_distance_at(accel: MeshAccel, point) -> float:
    """Signed distance at one point (negative inside the solid)."""
    return float(accel.signed_distance(np.asarray(point).reshape(1, 3))[0])


# ---------------------------------------------------------------------------
# Narrow-band voxelization
# ---------------------------------------------------------------------------
def _leaf_blocks(accel: MeshAccel, band_lu: float, grid: GridSpec):
    """The leaves, in leaf order, with the voxels of their dilated boxes.

    Returns (block, leaves).  ``block`` holds the grid slices of the
    smallest box of voxels that contains every leaf's box dilated by
    band_lu; each leaf is (tri_ids, leaf_lo, leaf_hi, slab, sl, coords) with
    ``sl`` indexing the block-local arrays and ``coords`` the per-axis
    sample coordinates of those voxels, and ``slab`` the leaf's hull from
    ``MeshAccel._leaf_slabs``.  Leaves whose dilated box misses the grid are
    left out; ``leaves`` is empty when all of them do.
    """
    origin = np.asarray(grid.origin)
    spacing = np.asarray(grid.spacing)
    dims = np.asarray(grid.dims)
    groups = list(accel.leaf_groups())
    leaf_lo = np.array([g[1] for g in groups])
    leaf_hi = np.array([g[2] for g in groups])
    first = np.ceil((leaf_lo - band_lu - origin) / spacing - 1e-12).astype(int)
    last = np.floor((leaf_hi + band_lu - origin) / spacing + 1e-12).astype(int)
    first = np.clip(first, 0, dims - 1)
    last = np.clip(last, 0, dims - 1)
    keep = np.flatnonzero((first <= last).all(axis=1))
    if not len(keep):
        return None, []
    start = first[keep].min(axis=0)
    block = tuple(slice(start[a], last[keep, a].max() + 1) for a in range(3))
    axes = [grid.axis_coords(a) for a in range(3)]
    leaves = []
    for i in keep:
        sl = tuple(slice(first[i, a] - start[a], last[i, a] + 1 - start[a])
                   for a in range(3))
        coords = [axes[a][first[i, a]:last[i, a] + 1] for a in range(3)]
        leaves.append((*groups[i], accel._slabs[i], sl, coords))
    return block, leaves


def _block_norm(offsets) -> np.ndarray:
    """Euclidean norm of per-axis offset vectors broadcast to a 3-D block."""
    ox, oy, oz = (o * o for o in offsets)
    return np.sqrt(ox[:, None, None] + oy[None, :, None] + oz[None, None, :])


# Rounding of the slab-and-disk bound, with S the coordinate scale (every
# |coordinate| <= S) and u = eps/2.  Each offset component, height,
# half-thickness and radius is computed to within a few u S, except that a
# triangle's unit normal points off by up to about u sqrt(kappa), which moves
# a pair's height by up to u sqrt(kappa) S: inside the kernel's 16 eps kappa
# S, which is part of every pair's slack.
# - Pair level (half = 0): rho^2 = |p - c|^2 - h^2 cancels, and is off by
#   E <= ~40 u S |p - c|.  Where rho >= |p - c|/sqrt 2, rho is off by at most
#   E / rho <= ~60 u S.  Elsewhere |h| > |p - c|/sqrt 2: max(0, rho - r)^2
#   moves by at most E, and the bound, which is at least |h|, by at most
#   E / |h| <= ~60 u S.  With r and h the bound is within ~80 u S = 40 eps S.
# - Leaf level (half > 0): the bound is only at least |h| - half, so a voxel
#   inside the slab weighs rho - r by 1, and E / rho grows without limit as
#   the leaf narrows (a needle 1e-5 wide: 6e5 eps S).  A leaf therefore
#   takes rho^2 from two in-plane coordinates, which do not cancel.  Its
#   frame need not be the exact mean normal: the hull is measured in the
#   frame as computed, so only the frame's orthonormality, to a few u, adds.
# Both levels stay below _BOUND_ERR S (measured against long-double
# distances: under 2 eps S on well-shaped triangles).  The kernel's distance
# is that of a point on the triangle up to a few u S, so a pair or leaf whose
# bound exceeds a limit by more than _BOUND_ERR S plus the kernel's error
# cannot beat that limit.
_BOUND_ERR = 64 * np.finfo(np.float64).eps


def _slab_disk(h, rho2, half, radius) -> np.ndarray:
    """Lower bound on the distance from a point to any point of the slab
    ``|height| <= half`` and in-plane disk ``rho <= radius``, from the
    point's height ``h`` and squared in-plane offset ``rho2``:
    sqrt(max(0, |h| - half)^2 + max(0, rho - radius)^2).  Works in place on
    both arrays and returns ``h``."""
    np.abs(h, out=h)
    h -= half
    np.maximum(h, 0.0, out=h)
    h *= h
    np.sqrt(rho2, out=rho2)
    rho2 -= radius
    np.maximum(rho2, 0.0, out=rho2)
    rho2 *= rho2
    h += rho2
    return np.sqrt(h, out=h)


def _leaf_bound(slab, coords) -> np.ndarray:
    """``_slab_disk`` bound on the distance from every voxel of a block, given
    by its per-axis sample ``coords``, to a leaf with hull ``slab``."""
    centre, frame, half, radius = slab
    # the voxels' (height, in-plane, in-plane) coordinates in the leaf's
    # frame, as three blocks: per-axis offsets times the frame's columns,
    # summed by broadcasting
    ox, oy, oz = (np.multiply.outer(frame[:, a], coords[a] - centre[a])
                  for a in range(3))
    h, rho2, across = (ox[:, :, None, None] + oy[:, None, :, None]
                       + oz[:, None, None, :])
    rho2 *= rho2
    across *= across
    rho2 += across
    return _slab_disk(h, rho2, half, radius)


def _pair_bounds(points, centroid, radius, normal, offset) -> np.ndarray:
    """(K, T) lower bounds on point-triangle distances: the triangle lies in
    its plane n.p = offset, within ``radius`` of its centroid, so
    ``_slab_disk`` with half-thickness 0."""
    off = points[:, None, :] - centroid
    rho2 = np.einsum("ktj,ktj->kt", off, off)
    h = np.einsum("kj,tj->kt", points, normal)
    h -= offset
    rho2 -= h * h
    np.maximum(rho2, 0.0, out=rho2)
    return _slab_disk(h, rho2, 0.0, radius)


def _leaf_nearest(accel: MeshAccel, tri_ids: np.ndarray, points: np.ndarray,
                  limit: np.ndarray, slack: np.ndarray):
    """Each point's nearest triangle of one leaf, among the pairs that the
    per-pair lower bound cannot reject.

    A pair is evaluated exactly only when its ``_pair_bounds`` bound is at
    most the point's ``limit`` plus the triangle's ``slack``.  Returns
    (dist, tri, s, t) with shape (K,): the
    distance, triangle and closest-point parameters of each point's first
    minimum in leaf order, dist being inf where every pair was rejected.
    Both passes hold at most ``_PAIR_BUDGET`` pairs per call.
    """
    n_tri = len(tri_ids)
    centroid, radius = accel._centroid[tri_ids], accel._radius[tri_ids]
    normal, offset = accel._face_normals[tri_ids], accel._offset[tri_ids]
    slack = slack[tri_ids]
    n = len(points)
    dist, s, t = np.empty(n), np.empty(n), np.empty(n)
    tri = np.empty(n, dtype=np.intp)
    step = max(1, _PAIR_BUDGET // n_tri)
    for start in range(0, n, step):
        chunk = slice(start, start + step)
        pts = points[chunk]
        bound = _pair_bounds(pts, centroid, radius, normal, offset)
        bound -= slack
        pairs = np.flatnonzero(bound <= limit[chunk, None])
        if not len(pairs):
            dist[chunk] = np.inf
            continue
        k, j = np.divmod(pairs, n_tri)
        ids = tri_ids[j]
        # take(axis=0) gathers rows several times faster than fancy indexing
        d2, sp, tp = _point_triangle_pairs(
            pts.take(k, axis=0), accel._base.take(ids, axis=0),
            accel._e0.take(ids, axis=0), accel._e1.take(ids, axis=0))
        # back on the (points, triangles) grid, rejected pairs reading inf:
        # the first minimum of each row, and its position among the pairs
        full = np.full(bound.size, np.inf)
        full[pairs] = d2
        first = full.reshape(bound.shape).argmin(axis=1)
        win = np.arange(len(pts)) * n_tri + first
        dist[chunk] = np.sqrt(full[win])
        # a row without kept pairs reads some other pair's (s, t); its
        # distance is inf, so it is never used
        at = np.searchsorted(pairs, win)
        tri[chunk] = tri_ids[first]
        s[chunk], t[chunk] = sp.take(at, mode="clip"), tp.take(at, mode="clip")
    return dist, tri, s, t


def voxelize(mesh: TriMesh, grid: GridSpec, band_w: int = 8,
             accel: MeshAccel | None = None) -> DenseField:
    """Dense signed-distance field clamped to +-band_w voxels.

    The band half-width is measured in multiples of the base (x) spacing.
    Raises if the mesh bounds leave the grid box (co-registration would be
    violated).

    All work happens in the block of voxels within band_lu of the mesh's
    bounding box; every voxel outside it is outside the solid and farther
    than the band, so it is written as +band_lu directly.  A first pass over
    the partition's leaves gives each block voxel an upper bound ``ub`` on its
    distance: the distance to one on-surface point (a triangle centroid) of
    every leaf whose dilated box holds it.  The band pass then admits a
    voxel to a leaf only when its lower bound, the larger of the leaf-box
    distance and the leaf's slab-and-disk bound less the leaf's slack, is
    within the band, below the voxel's current distance and not above
    ``ub`` (plus a rounding slack).  Each admitted (voxel, triangle) pair
    gets the slab-and-disk bound of the triangle's plane and of the disk
    about its centroid through its farthest corner; the exact kernel runs
    only on the pairs whose bound is at most min(current, ub, band edge)
    plus the triangle's slack: the bound's rounding plus the kernel's error
    bound, (64 + 16 kappa) eps x coordinate scale, and at least 1e-9
    band_lu.  A leaf's slack is the largest of its triangles'.  Both passes
    run in chunks of at most ``_PAIR_BUDGET`` pairs.  A voxel's first
    minimum in leaf order replaces its distance on a strict improvement, and
    the winning triangle and closest point give the band voxels their signs
    after the scan, in ``_side`` calls of at most ``_PAIR_BUDGET`` voxels.
    A culled leaf or pair can never hold the first minimum, so the result
    equals the exhaustive leaf-by-leaf scan bit for bit.

    Far voxels are clamped to the band edge and take their signs in one
    sweep along x: each takes the sign of the last band voxel before it in
    its x-row, or +1 where there is none.  A far voxel's distance exceeds
    band_lu >= spacing[0], so the ball of that radius about it holds no
    surface and does hold its x-neighbour: the two lie on the same side.
    A far run that starts at the block's low-x face is outside the solid,
    because that face lies below the mesh's bounding box or on the grid's
    own face, which the solid does not cross.  The sweep runs along x
    because band_lu is measured in x spacing; with ``aniso`` the y and z
    spacings may be wider.
    """
    if band_w < 1:
        raise FieldError("narrow-band half-width must be at least 1 voxel")
    if accel is None:
        accel = MeshAccel(mesh)

    lo, hi = mesh.aabb()
    box_lo = np.asarray(grid.origin)
    box_hi = box_lo + np.asarray(grid.spacing) * np.asarray(grid.dims)
    if (lo < box_lo - 1e-9).any() or (hi > box_hi + 1e-9).any():
        raise FieldError(
            f"co-registration violated: mesh bounds [{lo}, {hi}] outside "
            f"grid box [{box_lo}, {box_hi}]")

    band_lu = band_w * grid.spacing[0]
    phi = np.full(grid.dims, band_lu, dtype=np.float32)
    block, leaves = _leaf_blocks(accel, band_lu, grid)
    if not leaves:
        return DenseField(grid, phi)
    shape = tuple(sl.stop - sl.start for sl in block)

    # upper bound: distance to the leaf's triangle centroid nearest its box
    # centre, minimised over the leaves whose dilated box holds the voxel
    ub = np.full(shape, np.inf)
    for tri_ids, leaf_lo, leaf_hi, _, sl, coords in leaves:
        cand = accel._centroid[tri_ids]
        off = cand - (leaf_lo + leaf_hi) / 2.0
        near = cand[np.argmin(np.einsum("kj,kj->k", off, off))]
        np.minimum(ub[sl], _block_norm([coords[a] - near[a] for a in range(3)]),
                   out=ub[sl])
    # slack for the rounding of both the bound and the exact distances
    ub *= 1.0 + 1e-12
    ub += 1e-9 * band_lu

    # per-pair slack: the bound's rounding plus the kernel's own error at
    # this coordinate scale (large on slivers), at least 1e-9 band_lu
    axes = [grid.axis_coords(a)[block[a]] for a in range(3)]
    scale = (np.abs(accel.mesh.corners).max()
             + max(np.abs(ax[[0, -1]]).max() for ax in axes))
    slack = np.maximum(1e-9 * band_lu, (_BOUND_ERR + accel._kernel_err) * scale)

    dist = np.full(shape, np.inf, dtype=np.float64)
    win_tri = np.empty(shape, dtype=np.intp)
    win_s, win_t = np.empty(shape), np.empty(shape)
    for tri_ids, leaf_lo, leaf_hi, slab, sl, coords in leaves:
        lower = _block_norm([np.maximum(np.maximum(leaf_lo[a] - coords[a], 0.0),
                                        coords[a] - leaf_hi[a]) for a in range(3)])
        # the leaf's slab-and-disk bound, less its largest per-pair slack
        flat = _leaf_bound(slab, coords)
        flat -= slack[tri_ids].max()
        np.maximum(lower, flat, out=lower)
        current = dist[sl]
        active = (lower <= band_lu) & (lower < current) & (lower <= ub[sl])
        act = np.flatnonzero(active)
        if not len(act):
            continue
        ijk = np.unravel_index(act, lower.shape)
        pts = np.column_stack([coords[a][ijk[a]] for a in range(3)])
        now = current[ijk]
        limit = np.minimum(np.minimum(now, ub[sl][ijk]), band_lu)
        dmin, tri, s, t = _leaf_nearest(accel, tri_ids, pts, limit, slack)
        rows = np.flatnonzero(dmin < now)
        target = tuple(ijk[a][rows] for a in range(3))
        current[target] = dmin[rows]
        win_tri[sl][target], win_s[sl][target], win_t[sl][target] = (
            tri[rows], s[rows], t[rows])

    # band voxels: the sign of each one's winning closest point
    del ub
    sign = np.ones(shape, dtype=np.int8)
    near = dist <= band_lu
    band = np.flatnonzero(near)
    for start in range(0, len(band), _PAIR_BUDGET):
        ijk = np.unravel_index(band[start:start + _PAIR_BUDGET], shape)
        pts = np.column_stack([axes[a][ijk[a]] for a in range(3)])
        sign[ijk] = accel._side(pts, win_tri[ijk], win_s[ijk], win_t[ijk])

    # far voxels: the sign of the last band voxel before each in its x-row.
    # Where there is none the gather reads the row's first voxel, which is
    # then far itself and still +1.
    last = np.where(near, np.arange(shape[0], dtype=np.int32)[:, None, None], 0)
    sign = np.take_along_axis(sign, np.maximum.accumulate(last, axis=0), axis=0)

    phi[block] = sign * np.minimum(dist, band_lu)
    return DenseField(grid, phi)
