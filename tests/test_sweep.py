"""The array-built sweep and the int64 edge keys against the loop-built
originals they replaced.

The reference copies below are the per-vertex ``vid``/``emit`` revolve,
the explicit extrusion loop and the row-unique pseudonormal code.  STL
bytes are the triangle corners in triangle order, so the corners must be
bit-identical; the vertex numbering of an extrusion may differ, so only
the vertex multiset is compared there.
"""

import math

import numpy as np
import pytest

from flowforge.errors import GeometryError
from flowforge.geometry import primitives, tessellate
from flowforge.geometry.mesh import TriMesh
from flowforge.geometry.primitives import _AXIS_TOL, _dedupe_ring
from flowforge.sdf import MeshAccel


def reference_revolve_polygon(profile, sweep_deg, n_az):
    profile = _dedupe_ring(np.asarray(profile, dtype=np.float64))
    if len(profile) < 3:
        raise GeometryError("degenerate revolution profile")
    if not (0.0 < sweep_deg <= 360.0):
        raise GeometryError(f"sweep angle {sweep_deg} outside (0, 360]")
    full = abs(sweep_deg - 360.0) < 1e-9
    n_az = max(3 if full else 2, int(n_az))

    n_rings = n_az if full else n_az + 1
    angles = np.radians(sweep_deg) * np.arange(n_rings) / n_az

    on_axis = profile[:, 0] <= _AXIS_TOL
    vertices = []
    axis_ids = {}
    ring_base = np.full(len(profile), -1, dtype=np.int64)
    axis_id = np.full(len(profile), -1, dtype=np.int64)

    for i, (rho, z) in enumerate(profile):
        if on_axis[i]:
            if z not in axis_ids:
                axis_ids[z] = len(vertices)
                vertices.append(np.array([0.0, 0.0, z]))
            axis_id[i] = axis_ids[z]
        else:
            ring_base[i] = len(vertices)
            for a in angles:
                vertices.append(np.array([rho * math.cos(a),
                                          rho * math.sin(a), z]))

    def vid(i, t):
        if on_axis[i]:
            return int(axis_id[i])
        return int(ring_base[i] + (t % n_rings if full else t))

    tris = []

    def emit(a, b, c):
        if a != b and b != c and a != c:
            tris.append((a, b, c))

    for i in range(len(profile)):
        j = (i + 1) % len(profile)
        if on_axis[i] and on_axis[j]:
            continue
        for t in range(n_az):
            a, b = vid(i, t), vid(j, t)
            c, d = vid(j, t + 1), vid(i, t + 1)
            emit(a, c, b)
            emit(a, d, c)

    if not full:
        for k in range(1, len(profile) - 1):
            emit(vid(0, 0), vid(k, 0), vid(k + 1, 0))
            emit(vid(0, n_az), vid(k + 1, n_az), vid(k, n_az))

    mesh = TriMesh(np.array(vertices), np.array(tris, dtype=np.int32))
    used = np.unique(mesh.triangles)
    remap = np.full(len(mesh.vertices), -1, dtype=np.int32)
    remap[used] = np.arange(len(used), dtype=np.int32)
    return TriMesh(mesh.vertices[used], remap[mesh.triangles])


def reference_extrude_polygon(poly_xz, y_half):
    poly = _dedupe_ring(np.asarray(poly_xz, dtype=np.float64))
    if len(poly) < 3:
        raise GeometryError("degenerate extrusion cross-section")
    if y_half <= 0:
        raise GeometryError("extrusion width must be positive")

    n = len(poly)
    vertices = np.empty((2 * n, 3))
    vertices[:n] = np.column_stack([poly[:, 0], np.full(n, -y_half), poly[:, 1]])
    vertices[n:] = np.column_stack([poly[:, 0], np.full(n, +y_half), poly[:, 1]])

    tris = []
    for i in range(n):
        j = (i + 1) % n
        a, b, c, d = i, j, n + j, n + i
        tris.append((a, c, b))
        tris.append((a, d, c))
    for k in range(1, n - 1):
        tris.append((0, k, k + 1))
        tris.append((n, n + k + 1, n + k))
    return TriMesh(vertices, np.array(tris, dtype=np.int32))


def reference_pseudonormals(mesh):
    tris = mesh.triangles
    corners = mesh.corners
    normals = mesh.face_normals()

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

    edges = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = np.sort(edges, axis=1)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    edge_sum = np.zeros((len(uniq), 3))
    np.add.at(edge_sum, inverse, np.repeat(normals, 3, axis=0))
    edge_sum /= np.maximum(np.linalg.norm(edge_sum, axis=1, keepdims=True),
                           1e-300)
    edge_pn = edge_sum[inverse].reshape(len(tris), 3, 3)
    return vertex_pn, edge_pn


def sphere(radius, alpha=None, beta=None, gamma=None):
    return {"radius": radius, "alpha": alpha, "beta": beta, "gamma": gamma}


CASES = [
    ("cuboid", {"height": 10.0, "width": 20.0, "thickness": 7.5}),
    ("cylinder", {"radius": 12.0, "height": 30.0, "angle": 360.0}),
    ("cylinder", {"radius": 12.0, "height": 30.0, "angle": 200.0}),
    ("cylinder", {"radius": 3.3, "height": 5.0, "angle": 45.0}),
    ("cone", {"radius_1": 20.0, "radius_2": 0.0, "height": 40.0,
              "angle": 250.0}),
    ("cone", {"radius_1": 0.0, "radius_2": 15.0, "height": 10.0,
              "angle": 360.0}),
    ("cone", {"radius_1": 8.0, "radius_2": 25.0, "height": 12.0,
              "angle": 91.5}),
    ("sphere", sphere(10.0)),
    ("sphere", sphere(8.0, -30.0, 60.0, 270.0)),
    ("sphere", sphere(40.0, gamma=120.0)),
    ("sphere", sphere(6.0, alpha=-90.0, beta=0.0)),
    ("sphere", sphere(5.0, -90.0, 89.99999998249999, 10.0)),   # near pole
    ("sphere", sphere(5.0, -89.99999998, 30.0, 10.0)),
    ("torus", {"radius_major": 30.0, "radius_minor": 7.0}),
    # 3-vertex wedge (the slope ends below the height) and 4-vertex wedge
    ("wedge", {"length": 50.0, "width": 40.0, "height": 100.0,
               "opening_angle": 20.0}),
    ("wedge", {"length": 50.0, "width": 40.0, "height": 10.0,
               "opening_angle": 45.0}),
]


def random_cases(n, seed=20261018):
    rng = np.random.default_rng(seed)
    u = lambda lo, hi: float(round(rng.uniform(lo, hi), 1))
    cases = []
    for i in range(n):
        family = ("cylinder", "cone", "sphere", "torus", "wedge")[i % 5]
        if family == "cylinder":
            params = {"radius": u(5, 200), "height": u(5, 200),
                      "angle": u(45, 360)}
        elif family == "cone":
            params = {"radius_1": u(0, 200), "radius_2": 0.0,
                      "height": u(5, 200), "angle": u(45, 360)}
            if rng.random() < 0.5:
                params["radius_1"], params["radius_2"] = (
                    u(5, 200), params["radius_1"])
        elif family == "sphere":
            alpha = u(-90, 80)
            params = sphere(u(5, 200), alpha, u(alpha + 5, 90), u(10, 360))
        elif family == "torus":
            minor = u(5, 90)
            params = {"radius_major": u(minor + 1, 200), "radius_minor": minor}
        else:
            params = {"length": u(10, 200), "width": u(30, 200),
                      "height": u(5, 200), "opening_angle": u(10, 80)}
        cases.append((family, params))
    return cases


def build_pair(monkeypatch, family, params, segments):
    built = tessellate(family, params, segments).mesh
    with monkeypatch.context() as patched:
        patched.setattr(primitives, "revolve_polygon",
                        reference_revolve_polygon)
        patched.setattr(primitives, "extrude_polygon",
                        reference_extrude_polygon)
        reference = tessellate(family, params, segments).mesh
    return built, reference


def sorted_rows(vertices):
    return vertices[np.lexsort(vertices.T[::-1])]


@pytest.mark.parametrize("segments", [16, 64, 128])
@pytest.mark.parametrize("family, params", [
    pytest.param(family, params, id=f"{family}{i}")
    for i, (family, params) in enumerate(CASES + random_cases(20))])
def test_sweep_matches_loop_built_reference(monkeypatch, family, params,
                                            segments):
    built, reference = build_pair(monkeypatch, family, params, segments)
    assert np.array_equal(built.corners, reference.corners)
    assert np.array_equal(sorted_rows(built.vertices),
                          sorted_rows(reference.vertices))
    if family not in ("cuboid", "wedge"):
        # revolved solids keep the reference vertex numbering as well
        assert np.array_equal(built.vertices, reference.vertices)
        assert np.array_equal(built.triangles, reference.triangles)

    vertex_pn, edge_pn = MeshAccel._pseudonormals(built)
    want_vertex_pn, want_edge_pn = reference_pseudonormals(built)
    assert np.array_equal(vertex_pn, want_vertex_pn)
    assert np.array_equal(edge_pn, want_edge_pn)


def test_edge_ids_follow_row_order():
    mesh = tessellate("sphere", sphere(10.0, -30.0, 60.0, 270.0), 64).mesh
    inverse, counts = mesh.edges()
    keys = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, want_inverse, want_counts = np.unique(keys, axis=0, return_inverse=True,
                                             return_counts=True)
    assert np.array_equal(inverse, want_inverse.ravel())
    assert np.array_equal(counts, want_counts)
