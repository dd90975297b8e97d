"""Watertight tessellation and implicit membership tests for the six
obstacle families: cuboid, cylinder, cone (frustum), sphere (full or
radial sector), torus, and wedge.

All solids are built in a natural local frame (axis of revolution = z,
prisms extruded along y) by one array-built sweep, which fixes the
topology and the triangle order (and so the STL bytes) of every family:

* :func:`revolve_polygon` sweeps a closed profile polygon in the (rho, z)
  half-plane around the z axis, closing partial sweeps with planar caps.
  Profile edges lying on the axis generate no faces, which is how poles
  and disc centers collapse cleanly.
* :func:`extrude_polygon` turns a convex cross-section in the (x, z)
  plane into a right prism along y: the same sweep through two rings.

Each family also provides a sign-correct implicit function (exact for
full solids, intersection-of-cuts for sectors) used by the feasibility
validator, and a closed-form volume where one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import GeometryError
from .mesh import TriMesh

_AXIS_TOL = 1e-12
# a sphere latitude ring narrower than this fraction of the radius is a pole
_POLE_TOL = 1e-6

FAMILY_PARAM_ORDER = {
    "cuboid": ("height", "width", "thickness"),
    "cylinder": ("radius", "height", "angle"),
    "cone": ("radius_1", "radius_2", "height", "angle"),
    "sphere": ("radius", "alpha", "beta", "gamma"),
    "torus": ("radius_major", "radius_minor"),
    "wedge": ("length", "width", "height", "opening_angle"),
}

MAX_FAMILY_PARAMS = max(len(v) for v in FAMILY_PARAM_ORDER.values())


# ---------------------------------------------------------------------------
# Shared constructors
# ---------------------------------------------------------------------------
def _dedupe_ring(points: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicate profile vertices (including the wrap pair)."""
    keep = [0]
    for i in range(1, len(points)):
        if not np.allclose(points[i], points[keep[-1]], atol=_AXIS_TOL):
            keep.append(i)
    while len(keep) > 1 and np.allclose(points[keep[-1]], points[keep[0]],
                                        atol=_AXIS_TOL):
        keep.pop()
    return points[keep]


def _sweep(rings: np.ndarray, on_axis: np.ndarray, wrap: bool) -> TriMesh:
    """Closed mesh swept by a CCW profile through R rings of points.

    ``rings[i, t]`` is profile vertex i at ring t.  A wrapping sweep joins
    the last ring back to the first; an open sweep closes both ends with
    planar caps fanned from profile vertex 0.  On-axis profile vertices at
    one z share one point (``rings[i, 0]`` of the first).  Quads split as
    (a, c, b), (a, d, c), which is outward for a CCW profile; triangles
    with a repeated vertex (quads touching the axis) are dropped.
    """
    n_profile, n_rings = rings.shape[:2]
    n_steps = n_rings if wrap else n_rings - 1

    # vertex t of profile vertex i is ids[i, t]: base + t, or the axis point
    base, blocks, axis_ids, n_vertices = [], [], {}, 0
    for points, axis in zip(rings, on_axis):
        if axis:
            points = points[:1]
            if points[0, 2] in axis_ids:
                base.append(axis_ids[points[0, 2]])
                continue
            axis_ids[points[0, 2]] = n_vertices
        base.append(n_vertices)
        blocks.append(points)
        n_vertices += len(points)
    steps = np.arange(n_steps + 1) % n_rings
    ids = np.array(base)[:, None] + np.where(on_axis[:, None], 0, steps)

    # lateral quads, profile edge by profile edge, then ring step
    i = np.flatnonzero(~(on_axis & np.roll(on_axis, -1)))
    j = (i + 1) % n_profile
    a, b, c, d = ids[i, :-1], ids[j, :-1], ids[j, 1:], ids[i, 1:]
    tris = [np.stack([a, c, b, a, d, c], axis=-1).reshape(-1, 3)]
    if not wrap:
        # start and end caps interleaved, fanned from profile vertex 0
        k = np.arange(1, n_profile - 1)
        start, end = ids[:, 0], ids[:, -1]
        tris.append(np.stack([np.full_like(k, start[0]), start[k], start[k + 1],
                              np.full_like(k, end[0]), end[k + 1], end[k]],
                             axis=-1).reshape(-1, 3))
    tris = np.concatenate(tris)
    tris = tris[(tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 0] != tris[:, 2])]
    used, tris = np.unique(tris, return_inverse=True)
    return TriMesh(np.concatenate(blocks)[used], tris.reshape(-1, 3))


def revolve_polygon(profile: np.ndarray, sweep_deg: float, n_az: int) -> TriMesh:
    """Solid of revolution of a CCW profile polygon in the (rho, z) plane.

    ``sweep_deg`` in (0, 360]; a full sweep wraps seamlessly, a partial
    sweep is closed with two planar caps fanned from profile vertex 0
    (profiles must be star-shaped from that vertex).
    """
    profile = _dedupe_ring(np.asarray(profile, dtype=np.float64))
    if len(profile) < 3:
        raise GeometryError("degenerate revolution profile")
    if not (0.0 < sweep_deg <= 360.0):
        raise GeometryError(f"sweep angle {sweep_deg} outside (0, 360]")
    full = abs(sweep_deg - 360.0) < 1e-9
    n_az = max(3 if full else 2, int(n_az))

    n_rings = n_az if full else n_az + 1
    angles = np.radians(sweep_deg) * np.arange(n_rings) / n_az
    # math, not np.cos/np.sin: the last ulp fixes the STL bytes
    cos, sin = np.array([(math.cos(a), math.sin(a)) for a in angles]).T

    on_axis = profile[:, 0] <= _AXIS_TOL
    rho = np.where(on_axis, 0.0, profile[:, 0])[:, None]
    z = np.broadcast_to(profile[:, 1:], (len(profile), n_rings))
    rings = np.stack([rho * cos, rho * sin, z], axis=-1)
    return _sweep(rings, on_axis, wrap=full)


def extrude_polygon(poly_xz: np.ndarray, y_half: float) -> TriMesh:
    """Right prism: convex CCW cross-section in (x, z), extruded along y."""
    poly = _dedupe_ring(np.asarray(poly_xz, dtype=np.float64))
    if len(poly) < 3:
        raise GeometryError("degenerate extrusion cross-section")
    if y_half <= 0:
        raise GeometryError("extrusion width must be positive")

    # two rings, at -y (the start cap) and +y
    rings = np.empty((len(poly), 2, 3))
    rings[:, :, 0], rings[:, :, 2] = poly[:, :1], poly[:, 1:]
    rings[:, :, 1] = (-y_half, y_half)
    return _sweep(rings, np.zeros(len(poly), dtype=bool), wrap=False)


# ---------------------------------------------------------------------------
# Azimuth helper shared by sector implicits
# ---------------------------------------------------------------------------
def _azimuth_ok(x: np.ndarray, y: np.ndarray, sweep_deg: float) -> np.ndarray:
    if sweep_deg >= 360.0 - 1e-12:
        return np.ones_like(x, dtype=bool)
    az = np.degrees(np.arctan2(y, x)) % 360.0
    return az <= sweep_deg


# ---------------------------------------------------------------------------
# Solid: natural-frame mesh + implicit + exact volume where available
# ---------------------------------------------------------------------------
@dataclass
class Solid:
    family: str
    params: dict
    mesh: TriMesh                       # natural frame
    centroid: np.ndarray                # volume centroid in the natural frame
    inside_fn: Callable[[np.ndarray], np.ndarray]

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Membership test for (K, 3) points in the natural frame."""
        return self.inside_fn(np.asarray(points, dtype=np.float64).reshape(-1, 3))


def _build_cuboid(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    height, width, thickness = (params[k] for k in FAMILY_PARAM_ORDER["cuboid"])
    hx, hy, hz = width / 2.0, thickness / 2.0, height / 2.0
    poly = [(-hx, -hz), (hx, -hz), (hx, hz), (-hx, hz)]
    mesh = extrude_polygon(np.array(poly), hy)

    def inside(p):
        return ((np.abs(p[:, 0]) <= hx) & (np.abs(p[:, 1]) <= hy)
                & (np.abs(p[:, 2]) <= hz))

    return mesh, inside


def _build_cylinder(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    r, h, angle = (params[k] for k in FAMILY_PARAM_ORDER["cylinder"])
    cone = {"radius_1": r, "radius_2": r, "height": h, "angle": angle}
    return _build_cone(cone, segments)


def _build_cone(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    r1, r2, h, angle = (params[k] for k in FAMILY_PARAM_ORDER["cone"])
    profile = [(0.0, -h / 2), (r1, -h / 2), (r2, h / 2), (0.0, h / 2)]
    n_az = max(2, math.ceil(segments * angle / 360.0))
    mesh = revolve_polygon(np.array(profile), angle, n_az)

    def inside(p):
        z = p[:, 2]
        axial = np.abs(z) <= h / 2
        r_at = r1 + (r2 - r1) * np.clip((z + h / 2) / h, 0.0, 1.0)
        radial = p[:, 0] ** 2 + p[:, 1] ** 2 <= r_at ** 2
        return radial & axial & _azimuth_ok(p[:, 0], p[:, 1], angle)

    return mesh, inside


def _build_sphere(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    r = params["radius"]
    alpha = params.get("alpha")
    beta = params.get("beta")
    gamma = params.get("gamma")
    full_band = alpha is None and beta is None
    lat_lo = -90.0 if alpha is None else float(alpha)
    lat_hi = 90.0 if beta is None else float(beta)
    sweep = 360.0 if gamma is None else float(gamma)
    if lat_lo >= lat_hi:
        raise GeometryError("sphere sector: lower latitude must be below upper")

    n_lat = max(2, math.ceil(segments * (lat_hi - lat_lo) / 360.0))
    lats = np.radians(np.linspace(lat_lo, lat_hi, n_lat + 1))
    arc = np.column_stack([r * np.cos(lats), r * np.sin(lats)])
    # a ring that close to a pole would fan into zero-area triangles
    arc[arc[:, 0] <= _POLE_TOL * r, 0] = 0.0
    profile = np.vstack([[0.0, 0.0], arc])
    n_az = max(2, math.ceil(segments * sweep / 360.0))
    mesh = revolve_polygon(profile, sweep, n_az)

    def inside(p):
        s2 = (p ** 2).sum(axis=1)
        ok = s2 <= r * r
        if not full_band:
            s = np.sqrt(np.maximum(s2, 1e-300))
            lat = np.degrees(np.arcsin(np.clip(p[:, 2] / s, -1.0, 1.0)))
            band = (lat_lo <= lat) & (lat <= lat_hi)
            ok &= band | (s2 == 0.0)
        return ok & _azimuth_ok(p[:, 0], p[:, 1], sweep)

    return mesh, inside


def _build_torus(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    R, r = (params[k] for k in FAMILY_PARAM_ORDER["torus"])
    if R <= r:
        raise GeometryError("torus requires major radius > minor radius")
    n_v = max(32, math.ceil(segments * r / (R + r)))
    phis = 2.0 * math.pi * np.arange(n_v) / n_v
    profile = np.column_stack([R + r * np.cos(phis), r * np.sin(phis)])
    n_az = max(32, int(segments))
    mesh = revolve_polygon(profile, 360.0, n_az)

    def inside(p):
        rho = np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2)
        return (rho - R) ** 2 + p[:, 2] ** 2 <= r * r

    return mesh, inside


def _build_wedge(params: dict, segments: int) -> tuple[TriMesh, Callable]:
    length, width, height, opening = (params[k] for k in FAMILY_PARAM_ORDER["wedge"])
    slope = math.tan(math.radians(opening))
    z_end = min(height, length * slope)
    if z_end <= _AXIS_TOL:
        raise GeometryError("wedge cross-section degenerates to a line")
    poly = [(0.0, 0.0), (length, 0.0), (length, z_end)]
    if length * slope > height:
        poly.append((height / slope, height))
    mesh = extrude_polygon(np.array(poly), width / 2.0)

    def inside(p):
        x, y, z = p[:, 0], p[:, 1], p[:, 2]
        return ((x >= 0) & (x <= length) & (np.abs(y) <= width / 2.0)
                & (z >= 0) & (z <= height) & (z <= x * slope))

    return mesh, inside


_BUILDERS = {
    "cuboid": _build_cuboid,
    "cylinder": _build_cylinder,
    "cone": _build_cone,
    "sphere": _build_sphere,
    "torus": _build_torus,
    "wedge": _build_wedge,
}


def tessellate(family: str, params: dict, segments: int) -> Solid:
    """Watertight, outward-oriented solid in its natural frame.

    ``segments`` is the angular resolution of the widest curved circle;
    secondary directions scale proportionally.  Prismatic families ignore
    it.  Raises on degenerate inputs instead of emitting a broken mesh.
    """
    if family not in _BUILDERS:
        raise GeometryError(f"unknown shape family {family!r}")
    if segments < 16:
        raise GeometryError("tessellation needs at least 16 segments")
    mesh, inside = _BUILDERS[family](params, segments)
    mesh.check_watertight(context=family)
    return Solid(family=family, params=dict(params), mesh=mesh,
                 centroid=mesh.volume_centroid(), inside_fn=inside)


def default_segments(family: str, params: dict, finest_dx: float) -> int:
    """Segment count keeping chordal error below the finest export spacing.

    The floor of 64 keeps mesh volumes within 1% of the closed forms even
    for small radii, where the pure chord rule would allow very coarse
    rings.
    """
    if family in ("cuboid", "wedge"):
        return 16
    if family in ("cylinder", "sphere"):
        r_max = params["radius"]
    elif family == "cone":
        r_max = max(params["radius_1"], params["radius_2"])
    elif family == "torus":
        r_max = params["radius_major"] + params["radius_minor"]
    else:
        raise GeometryError(f"unknown shape family {family!r}")
    return max(64, math.ceil(math.pi * r_max / float(finest_dx)))


def analytic_volume(family: str, params: dict, mesh: TriMesh | None = None) -> float:
    """Closed-form solid volume; sectored spheres and wedges fall back to
    the signed mesh volume (exact for the prism, chord-limited otherwise)."""
    if family == "cuboid":
        return params["height"] * params["width"] * params["thickness"]
    if family == "cylinder":
        r, h, angle = (params[k] for k in FAMILY_PARAM_ORDER["cylinder"])
        return math.pi * r * r * h * (angle / 360.0)
    if family == "cone":
        r1, r2, h, angle = (params[k] for k in FAMILY_PARAM_ORDER["cone"])
        return (math.pi * h / 3.0) * (r1 * r1 + r1 * r2 + r2 * r2) * (angle / 360.0)
    if family == "torus":
        R, r = (params[k] for k in FAMILY_PARAM_ORDER["torus"])
        return 2.0 * math.pi ** 2 * R * r * r
    sector = any(params.get(k) is not None for k in ("alpha", "beta", "gamma"))
    if family == "sphere" and not sector:
        return 4.0 / 3.0 * math.pi * params["radius"] ** 3
    if family in ("sphere", "wedge"):
        if mesh is None:
            raise GeometryError(f"{family} volume needs the mesh")
        return mesh.signed_volume()
    raise GeometryError(f"unknown shape family {family!r}")
