"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: the Sobol reference is
the classic iterative state-update generator, the interpolation oracle is
an all-pairs loop, mesh volumes come from closed forms, and the clearance
oracle scans every triangle by plane projection, barycentric sign tests
and clamped edge distances, where the production kernel
(``sdf._point_triangle``) splits the triangle's plane into closest-point
regions.
"""

import numpy as np

from flowforge._directions import M_INIT, POLY

SOBOL_BITS = 32


class IterativeSobol:
    """Gray-code Sobol generator via the incremental XOR update.

    Maintains the running integer state x_i and updates with the direction
    number indexed by the lowest zero bit of the previous position; position
    0 is the all-zeros point.
    """

    def __init__(self, dim):
        self.dim = dim
        self.v = []
        for j in range(dim):
            if j == 0:
                m = [1] * SOBOL_BITS
            else:
                poly = POLY[j]
                s = poly.bit_length() - 1
                a = (poly >> 1) & ((1 << (s - 1)) - 1)
                m = [int(x) for x in M_INIT[j]]
                for k in range(s, SOBOL_BITS):
                    new = m[k - s] ^ (m[k - s] << s)
                    for t in range(1, s):
                        if (a >> (s - 1 - t)) & 1:
                            new ^= m[k - t] << t
                    m.append(new)
            self.v.append([m[k] << (SOBOL_BITS - 1 - k) for k in range(SOBOL_BITS)])
        self.x = [0] * dim
        self.position = 0

    def next(self):
        """Advance to the next position and return the point there."""
        c = 0
        i = self.position
        while i & 1:
            i >>= 1
            c += 1
        for j in range(self.dim):
            self.x[j] ^= self.v[j][c]
        self.position += 1
        return np.array([x / 2.0**SOBOL_BITS for x in self.x])


def star_discrepancy_grid(points, bins=64):
    """Brute-force star-discrepancy estimate on a corner grid (2-D)."""
    points = np.asarray(points)
    n = len(points)
    counts, _, _ = np.histogram2d(points[:, 0], points[:, 1], bins=bins,
                                  range=[[0, 1], [0, 1]])
    cum = counts.cumsum(axis=0).cumsum(axis=1) / n
    iu = (np.arange(1, bins + 1) / bins)[:, None]
    ju = (np.arange(1, bins + 1) / bins)[None, :]
    return np.abs(cum - iu * ju).max()


def brute_interpolate(points, values, targets, kernel, footprint):
    """All-pairs reference for the documented interpolation semantics."""
    pos = np.asarray(points, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 1:
        vals = vals[:, None]
    out = np.zeros((len(targets), vals.shape[1]))
    holes = 0
    for i, x in enumerate(np.asarray(targets, dtype=np.float64)):
        d = np.linalg.norm(pos - x, axis=1)
        if footprint.mode == "n_closest":
            k = min(footprint.k, len(pos))
            d_k = np.sort(d)[k - 1]
            sel = np.flatnonzero(d <= d_k * (1 + 1e-12))
            radius = d_k
        else:
            sel = np.flatnonzero(d <= footprint.radius)
            radius = footprint.radius
            if len(sel) == 0:
                out[i] = vals[np.argmin(d)]
                holes += 1
                continue
        dd = d[sel]
        if kernel.kind == "voronoi":
            order = np.lexsort((sel, dd))
            out[i] = vals[sel[order[0]]]
            continue
        if kernel.kind == "linear":
            if radius > 0:
                w = np.maximum(0.0, 1.0 - dd / radius)
            else:
                w = (dd == 0).astype(float)
        elif kernel.kind == "gaussian":
            sigma = 1.0 / kernel.sharpness
            w = np.exp(-dd**2 / (2 * sigma**2))
        elif kernel.kind == "shepard":
            w = (dd + kernel.eps) ** (-kernel.power)
        else:  # ellipsoidal_gaussian
            ecc = np.asarray(kernel.eccentricity)
            unit = ecc / np.cbrt(np.prod(ecc))
            sigma = unit * (radius if radius > 0 else 1.0)
            off = pos[sel] - x
            w = np.exp(-0.5 * ((off / sigma) ** 2).sum(axis=1))
        total = w.sum()
        if total == 0:
            order = np.lexsort((sel, dd))
            out[i] = vals[sel[order[0]]]
            holes += 1
        else:
            out[i] = (w[:, None] * vals[sel]).sum(axis=0) / total
    return out, holes


def sphere_sector_volume(r, alpha, beta, gamma):
    """Radial sphere sector volume: gamma * r^3 / 3 * (sin(beta) - sin(alpha))."""
    return (np.radians(gamma) * r**3 / 3.0
            * (np.sin(np.radians(beta)) - np.sin(np.radians(alpha))))


def surface_samples(mesh, max_edge):
    """Barycentric refinement of every triangle until edges <= max_edge."""
    corners = mesh.corners
    edge_len = np.linalg.norm(
        np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 1],
                  corners[:, 0] - corners[:, 2]]), axis=2).max()
    depth = max(0, int(np.ceil(np.log2(max(edge_len / max_edge, 1e-12)))))
    n = 2**depth
    pts = [mesh.vertices]
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = ii + jj <= n
    bu = (ii[keep] / n)[:, None]
    bv = (jj[keep] / n)[:, None]
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    for t in range(len(corners)):
        pts.append(a[t] + bu * (b[t] - a[t]) + bv * (c[t] - a[t]))
    return np.vstack(pts)


def _dot(x, y):
    return np.einsum("...j,...j->...", x, y)


def point_triangle_distances(points, corners):
    """(K, T) unsigned distances from K points to the T triangles of
    ``corners`` (T, 3, 3).  Where a point's projection onto a triangle's
    plane has every barycentric coordinate >= 0 the distance is its height
    over the plane; elsewhere it is the nearest of the three edges, each
    a clamped point-segment distance."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 1, 3)
    corners = np.asarray(corners, dtype=np.float64)
    n = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    n2 = _dot(n, n)
    shape = (len(p), len(corners))
    inside = np.broadcast_to(n2 > 0, shape).copy()
    edges = np.full(shape, np.inf)
    for i in range(3):
        u, v = corners[:, i], corners[:, (i + 1) % 3]
        e = v - u
        pu = p - u
        # (p-u) . (n x e) = (e x (p-u)) . n: |n|^2 times the barycentric
        # coordinate of the corner opposite this edge
        inside &= _dot(pu, np.cross(n, e)) >= 0
        t = np.clip(_dot(pu, e) / np.maximum(_dot(e, e), 1e-300), 0.0, 1.0)
        off = pu - t[..., None] * e
        edges = np.minimum(edges, np.sqrt(_dot(off, off)))
    height = np.abs(_dot(p - corners[:, 0], n)) / np.sqrt(
        np.where(n2 > 0, n2, 1.0))
    return np.where(inside, height, edges)


def point_mesh_distance(points, mesh, pairs=1 << 18):
    """Unsigned distance from each point to ``mesh``, brute force over every
    triangle, about ``pairs`` point-triangle pairs at a time."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    chunk = max(1, pairs // len(mesh.corners))
    return np.concatenate([
        point_triangle_distances(points[start:start + chunk],
                                 mesh.corners).min(axis=1)
        for start in range(0, len(points), chunk)])
