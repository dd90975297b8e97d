"""Signed distance fields from watertight triangle meshes.

Distances are exact point-triangle minima; the sign comes from the dot
product of the offset vector with the angle-weighted pseudonormal of the
closest feature (vertex, edge, or face), which is sign-correct on
watertight, consistently wound meshes.

Voxelization evaluates exactly only inside the narrow band, and only in
the block of voxels within the band of the mesh's bounding box; the rest of
the grid is outside the solid and is written as the band edge directly.
Triangles are grouped by BVH leaves.  A cheap first pass gives every block
voxel an upper bound on its distance (to one on-surface point per nearby
leaf); the band pass then scatters each leaf's exact distances only into
the voxels of its dilated box whose leaf-box lower bound is within the
band, below the current distance and not above that upper bound, in
kernel calls of bounded size.  Far voxels get their sign from one exact
query per connected far-field component of the block and are clamped to
the band edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import FieldError
from .fields import DenseField, GridSpec
from .geometry.mesh import TriMesh

_LEAF_SIZE = 16

# feature codes from point-triangle classification
_F_V0, _F_V1, _F_V2, _F_E01, _F_E12, _F_E20, _F_FACE = range(7)


# ---------------------------------------------------------------------------
# Exact point-triangle distance (vectorized over points x triangles)
# ---------------------------------------------------------------------------
def _point_triangle(points: np.ndarray, base: np.ndarray, e0: np.ndarray,
                    e1: np.ndarray):
    """Closest-point parameters for every (point, triangle) pair.

    Returns (dist2, s, t) with shapes (K, T); the closest point is
    ``base + s*e0 + t*e1`` with (s, t) clamped to the triangle.  Region
    handling follows the standard closest-point-on-triangle case split.
    """
    a = np.einsum("tj,tj->t", e0, e0)
    b = np.einsum("tj,tj->t", e0, e1)
    c = np.einsum("tj,tj->t", e1, e1)
    diff = base[None, :, :] - points[:, None, :]          # (K, T, 3)
    d = np.einsum("ktj,tj->kt", diff, e0)
    e = np.einsum("ktj,tj->kt", diff, e1)

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

    closest = (base[None, :, :] + sn[:, :, None] * e0[None, :, :]
               + tn[:, :, None] * e1[None, :, :])
    delta = closest - points[:, None, :]
    dist2 = np.einsum("ktj,ktj->kt", delta, delta)
    return dist2, sn, tn


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


# ---------------------------------------------------------------------------
# Mesh acceleration structure
# ---------------------------------------------------------------------------
@dataclass
class _Node:
    lo: np.ndarray
    hi: np.ndarray
    left: int
    right: int
    start: int
    count: int


class MeshAccel:
    """BVH over triangles plus angle-weighted pseudonormals.

    Immutable after construction; the input mesh must be watertight and
    outward-oriented (checked up front, before any query).
    """

    def __init__(self, mesh: TriMesh, check: bool = True, leaf_size: int = _LEAF_SIZE):
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
        self._build_bvh(leaf_size)

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

        # per-triangle edge pseudonormals: the two adjacent face normals summed
        edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = np.sort(edges, axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        edge_sum = np.zeros((len(uniq), 3))
        np.add.at(edge_sum, inverse, np.repeat(normals, 3, axis=0))
        edge_sum /= np.maximum(np.linalg.norm(edge_sum, axis=1, keepdims=True),
                               1e-300)
        edge_pn = edge_sum[inverse].reshape(len(tris), 3, 3)
        return vertex_pn, edge_pn

    # -- BVH -----------------------------------------------------------------
    def _build_bvh(self, leaf_size: int):
        n = len(self._base)
        centroids = (self._tri_lo + self._tri_hi) / 2.0
        order = np.arange(n)
        nodes: list[_Node] = []

        # (start, count, parent, is_right); the right child is pushed before
        # the left, so nodes are numbered in pre-order (left subtree first)
        stack = [(0, n, -1, False)]
        while stack:
            start, count, parent, is_right = stack.pop()
            idx = order[start:start + count]
            lo = self._tri_lo[idx].min(axis=0)
            hi = self._tri_hi[idx].max(axis=0)
            node_id = len(nodes)
            if parent >= 0:
                if is_right:
                    nodes[parent].right = node_id
                else:
                    nodes[parent].left = node_id
            if count <= leaf_size:
                nodes.append(_Node(lo, hi, -1, -1, start, count))
                continue
            nodes.append(_Node(lo, hi, -1, -1, -1, 0))
            axis = int(np.argmax(hi - lo))
            local = np.argsort(centroids[idx, axis], kind="stable")
            order[start:start + count] = idx[local]
            half = count // 2
            stack.append((start + half, count - half, node_id, True))
            stack.append((start, half, node_id, False))

        self._order = order
        self._nodes = nodes
        self._leaves = [i for i, nd in enumerate(nodes) if nd.left < 0]

    def leaf_groups(self):
        """Triangle-index groups with their bounding boxes (voxelizer hook)."""
        for i in self._leaves:
            node = self._nodes[i]
            tri_ids = self._order[node.start:node.start + node.count]
            yield tri_ids, node.lo, node.hi

    @staticmethod
    def _box_dist2(lo, hi, p) -> float:
        d = np.maximum(np.maximum(lo - p, 0.0), p - hi)
        return float(d @ d)

    # -- queries ---------------------------------------------------------------
    def closest(self, point) -> tuple[float, np.ndarray, int, int]:
        """Exact closest point on the mesh: (distance, point, triangle, feature)."""
        p = np.asarray(point, dtype=np.float64).reshape(3)
        best_d2 = np.inf
        best = (None, -1, -1)
        stack = [0]
        while stack:
            node = self._nodes[stack.pop()]
            if self._box_dist2(node.lo, node.hi, p) >= best_d2:
                continue
            if node.left >= 0:
                left, right = self._nodes[node.left], self._nodes[node.right]
                dl = self._box_dist2(left.lo, left.hi, p)
                dr = self._box_dist2(right.lo, right.hi, p)
                if dl < dr:
                    stack.extend((node.right, node.left))
                else:
                    stack.extend((node.left, node.right))
                continue
            tri_ids = self._order[node.start:node.start + node.count]
            d2, s, t = _point_triangle(p[None, :], self._base[tri_ids],
                                       self._e0[tri_ids], self._e1[tri_ids])
            k = int(np.argmin(d2[0]))
            if d2[0, k] < best_d2:
                best_d2 = float(d2[0, k])
                code = int(_feature_codes(s[0, k], t[0, k])[0])
                closest = (self._base[tri_ids[k]] + s[0, k] * self._e0[tri_ids[k]]
                           + t[0, k] * self._e1[tri_ids[k]])
                best = (closest, int(tri_ids[k]), code)
        return float(np.sqrt(best_d2)), best[0], best[1], best[2]

    def _pseudonormal(self, tri: int, feature: int) -> np.ndarray:
        if feature == _F_FACE:
            return self._face_normals[tri]
        if feature in (_F_V0, _F_V1, _F_V2):
            return self._vertex_pn[self.mesh.triangles[tri, feature]]
        return self._edge_pn[tri, feature - _F_E01]

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distances for (K, 3) query points, negative inside."""
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        out = np.empty(len(points))
        for i, p in enumerate(points):
            dist, closest, tri, feature = self.closest(p)
            pn = self._pseudonormal(tri, feature)
            out[i] = dist if (p - closest) @ pn >= 0 else -dist
        return out


def signed_distance_at(accel: MeshAccel, point) -> float:
    """Signed distance at one point (negative inside the solid)."""
    return float(accel.signed_distance(np.asarray(point).reshape(1, 3))[0])


# ---------------------------------------------------------------------------
# Narrow-band voxelization
# ---------------------------------------------------------------------------
# point-triangle pairs per band-pass kernel call; bounds its (K, T, 3)
# temporaries to a few MB whatever the leaf block size
_PAIR_BUDGET = 1 << 18


def _leaf_blocks(accel: MeshAccel, band_lu: float, grid: GridSpec):
    """The BVH leaves, in leaf order, with the voxels of their dilated boxes.

    Returns (block, leaves).  ``block`` holds the grid slices of the
    smallest box of voxels that contains every leaf's box dilated by
    band_lu; each leaf is (tri_ids, leaf_lo, leaf_hi, sl, coords) with
    ``sl`` indexing the block-local arrays and ``coords`` the per-axis
    sample coordinates of those voxels.  Leaves whose dilated box misses
    the grid are left out; ``leaves`` is empty when all of them do.
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
        leaves.append((*groups[i], sl, coords))
    return block, leaves


def _block_norm(offsets) -> np.ndarray:
    """Euclidean norm of per-axis offset vectors broadcast to a 3-D block."""
    ox, oy, oz = (o * o for o in offsets)
    return np.sqrt(ox[:, None, None] + oy[None, :, None] + oz[None, None, :])


def voxelize(mesh: TriMesh, grid: GridSpec, band_w: int = 8,
             accel: MeshAccel | None = None) -> DenseField:
    """Dense signed-distance field clamped to +-band_w voxels.

    The band half-width is measured in multiples of the base (x) spacing.
    Raises if the mesh bounds leave the grid box (co-registration would be
    violated).

    All work happens in the block of voxels within band_lu of the mesh's
    bounding box; every voxel outside it is outside the solid and farther
    than the band, so it is written as +band_lu directly.  A first pass over
    the BVH leaves gives each block voxel an upper bound ``ub`` on its
    distance: the distance to one on-surface point (a triangle centroid) of
    every leaf whose dilated box holds it.  The band pass then evaluates a
    voxel against a leaf only when the leaf-box lower bound is within the
    band, below the voxel's current distance and not above ``ub`` (plus a
    rounding slack), in chunks of at most ``_PAIR_BUDGET`` point-triangle
    pairs.  A culled leaf can never hold the first minimum, so the result
    equals the exhaustive leaf-by-leaf scan bit for bit.  Far voxels get
    their sign from one exact query per connected far-field component of
    the block and are clamped to the band edge.
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
    centroids = accel.mesh.corners.mean(axis=1)
    ub = np.full(shape, np.inf)
    for tri_ids, leaf_lo, leaf_hi, sl, coords in leaves:
        cand = centroids[tri_ids]
        off = cand - (leaf_lo + leaf_hi) / 2.0
        near = cand[np.argmin(np.einsum("kj,kj->k", off, off))]
        np.minimum(ub[sl], _block_norm([coords[a] - near[a] for a in range(3)]),
                   out=ub[sl])
    # slack for the rounding of both the bound and the exact distances
    ub *= 1.0 + 1e-12
    ub += 1e-9 * band_lu

    # pseudonormal of every triangle feature, indexed [triangle, feature
    # code]: codes 0-2 are the vertices, 3-5 the edges and 6 the face
    normals = np.concatenate([accel._vertex_pn[accel.mesh.triangles],
                              accel._edge_pn, accel._face_normals[:, None]],
                             axis=1)
    dist = np.full(shape, np.inf, dtype=np.float64)
    sign = np.ones(shape, dtype=np.int8)
    for tri_ids, leaf_lo, leaf_hi, sl, coords in leaves:
        lower = _block_norm([np.maximum(np.maximum(leaf_lo[a] - coords[a], 0.0),
                                        coords[a] - leaf_hi[a]) for a in range(3)])
        current = dist[sl]
        active = (lower <= band_lu) & (lower < current) & (lower <= ub[sl])
        act = np.flatnonzero(active)
        if not len(act):
            continue
        ijk = np.unravel_index(act, lower.shape)
        pts = np.column_stack([coords[a][ijk[a]] for a in range(3)])
        before = current[ijk]
        base, e0, e1 = (accel._base[tri_ids], accel._e0[tri_ids],
                        accel._e1[tri_ids])
        step = max(1, _PAIR_BUDGET // len(tri_ids))
        for start in range(0, len(act), step):
            chunk = slice(start, start + step)
            d2, s, t = _point_triangle(pts[chunk], base, e0, e1)
            kmin = np.argmin(d2, axis=1)
            dmin = np.sqrt(d2[np.arange(len(kmin)), kmin])
            rows = np.flatnonzero(dmin < before[chunk])
            if not len(rows):
                continue
            kwin = kmin[rows]
            win, s_win, t_win = tri_ids[kwin], s[rows, kwin], t[rows, kwin]
            closest = (accel._base[win] + s_win[:, None] * accel._e0[win]
                       + t_win[:, None] * accel._e1[win])
            outward = np.einsum("kj,kj->k", pts[chunk][rows] - closest,
                                normals[win, _feature_codes(s_win, t_win)])
            target = tuple(ijk[a][chunk][rows] for a in range(3))
            current[target] = dmin[rows]
            sign[sl][target] = np.where(outward >= 0, 1, -1)

    # far-field: clamp, one exact sign query per connected component
    far = dist > band_lu
    if far.any():
        structure = ndimage.generate_binary_structure(3, 1)
        labels, n_comp = ndimage.label(far, structure=structure)
        comp_ids, first_flat = np.unique(labels.ravel(), return_index=True)
        comp_sign = np.ones(n_comp + 1, dtype=np.int8)
        origin = np.asarray(grid.origin)
        spacing = np.asarray(grid.spacing)
        offset = np.array([sl.start for sl in block])
        for comp, flat in zip(comp_ids, first_flat):
            if comp == 0:
                continue
            ijk = np.asarray(np.unravel_index(flat, shape)) + offset
            rep = origin + spacing * ijk
            comp_sign[comp] = 1 if signed_distance_at(accel, rep) >= 0 else -1
        sign[far] = comp_sign[labels[far]]

    phi[block] = sign * np.minimum(dist, band_lu)
    return DenseField(grid, phi)
