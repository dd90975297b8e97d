import sys
import tracemalloc

import numpy as np
import pytest
from _oracles import point_mesh_distance, point_triangle_distances
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial.transform import Rotation

from flowforge import sdf
from flowforge.config import resolve_config
from flowforge.errors import FieldError, GeometryError
from flowforge.fields import (DenseField, GridSpec, export_npy, extract_slice,
                              load_npy, tensor_bytes)
from flowforge.geometry import (TriMesh, build_scene, concatenate,
                                draw_dimension, tessellate, validate_candidate)
from flowforge.geometry.scene import PlacedShape, Pose, _context_entry
from flowforge.sampling import GeneratorState, freeze_dimension
from flowforge.sdf import (MeshAccel, _point_triangle, _point_triangle_pairs,
                           signed_distance_at, voxelize)


def sphere_mesh(r=5.0, segments=64, center=(0.0, 0.0, 0.0)):
    solid = tessellate("sphere", {"radius": r, "alpha": None, "beta": None,
                                  "gamma": None}, segments)
    return solid.mesh.translated(center)


def chord_error(r, segments):
    return r * (1 - np.cos(np.pi / segments)) * 2.0


class TestGridSpec:
    @pytest.mark.parametrize("dx,dims", [(16, (128, 32, 32)),
                                         (8, (256, 64, 64)),
                                         (4, (512, 128, 128))])
    def test_presets_exact(self, dx, dims):
        assert GridSpec.preset(dx).dims == dims

    def test_non_divisor_rejected(self):
        with pytest.raises(FieldError, match="does not divide"):
            GridSpec.preset(5)

    def test_aniso_scales_sample_positions(self):
        grid = GridSpec.preset(16, aniso=(1.0142, 1.0142))
        assert grid.spacing == (16.0, 16.0 * 1.0142, 16.0 * 1.0142)
        assert grid.axis_coords(1)[1] == pytest.approx(16.0 * 1.0142)

    def test_coregistration_across_presets(self):
        # voxel (i,j,k) refers to the same location at every scale
        coarse, fine = GridSpec.preset(16), GridSpec.preset(8)
        assert coarse.axis_coords(0)[1] == fine.axis_coords(0)[2] == 16.0


class TestSignedDistance:
    def test_sphere_outside_point(self):
        accel = MeshAccel(sphere_mesh())
        got = signed_distance_at(accel, (10.0, 0.0, 0.0))
        assert got == pytest.approx(5.0, abs=chord_error(5, 64))

    def test_sphere_center_negative(self):
        accel = MeshAccel(sphere_mesh())
        got = signed_distance_at(accel, (0.0, 0.0, 0.0))
        assert got == pytest.approx(-5.0, abs=chord_error(5, 64))

    def test_scan_equals_brute_force_oracle(self, rng):
        mesh = sphere_mesh(r=7.0, segments=48)
        accel = MeshAccel(mesh)
        points = rng.normal(scale=9.0, size=(1000, 3))
        got = np.abs(accel.signed_distance(points))
        # TestPointTriangleKernel's bound, at the worst-conditioned triangle
        e0, e1 = accel._e0, accel._e1
        n = np.cross(e0, e1)
        kappa = ((e0 * e0).sum(1) * (e1 * e1).sum(1)) / (n * n).sum(1)
        scale = np.abs(mesh.corners).max() + np.abs(points).max()
        bound = 16 * np.finfo(np.float64).eps * kappa.max() * scale
        np.testing.assert_allclose(got, point_mesh_distance(points, mesh),
                                   rtol=0, atol=bound)

    # family, parameters, segments, radius setting the chordal error
    SOLIDS = {
        "cuboid": ("cuboid", {"height": 30.0, "width": 50.0,
                              "thickness": 40.0}, 16, 0.0),
        "wedge": ("wedge", {"length": 60.0, "width": 40.0, "height": 30.0,
                            "opening_angle": 40.0}, 16, 0.0),
        "cylinder_200deg": ("cylinder", {"radius": 15.0, "height": 30.0,
                                         "angle": 200.0}, 64, 15.0),
        "cone_250deg_apex": ("cone", {"radius_1": 15.0, "radius_2": 0.0,
                                      "height": 30.0, "angle": 250.0}, 64, 15.0),
        "sphere_sector": ("sphere", {"radius": 15.0, "alpha": -30.0,
                                     "beta": 60.0, "gamma": 270.0}, 64, 15.0),
        "torus": ("torus", {"radius_major": 12.0, "radius_minor": 4.0}, 64,
                  16.0),
    }

    @pytest.mark.parametrize("name", sorted(SOLIDS))
    def test_signs_match_implicit(self, rng, name):
        family, params, segments, radius = self.SOLIDS[name]
        solid = tessellate(family, params, segments)
        accel = MeshAccel(solid.mesh)
        lo, hi = solid.mesh.aabb()
        pad = 0.3 * (hi - lo)
        points = rng.uniform(lo - pad, hi + pad, size=(500, 3))
        sd = accel.signed_distance(points)
        inside = solid.inside(points)
        # agree away from the chordal shell around the surface
        clear = np.abs(sd) > chord_error(radius, segments)
        assert clear.sum() > 400 and inside[clear].any()
        assert (np.sign(sd[clear]) == np.where(inside[clear], -1, 1)).all()

    def test_non_watertight_rejected_preflight(self):
        mesh = sphere_mesh()
        broken = TriMesh(mesh.vertices, mesh.triangles[:-1])
        with pytest.raises(GeometryError, match="watertight"):
            MeshAccel(broken)


def _placed_triangle(length, apex_x, height, angles, shift):
    """(0,0,0), (1,0,0), (apex_x, height, 0), rotated by the Euler
    ``angles``, moved by ``shift`` and scaled by ``length``."""
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [apex_x, height, 0.0]])
    rot = Rotation.from_euler("xyz", angles).as_matrix()
    return (tri @ rot.T + np.asarray(shift)) * length


def _probe_points(tri, seed, n=48):
    """Points in the plane of ``tri``, inside and outside every edge, then
    the same points moved off the plane, so every closest-point region of
    the kernel is reached."""
    rng = np.random.default_rng(seed)
    a, b, c = tri
    uv = rng.uniform(-0.5, 1.5, size=(n, 2))
    planar = a + uv[:, :1] * (b - a) + uv[:, 1:] * (c - a)
    off = rng.normal(scale=np.linalg.norm(b - a), size=(n, 3))
    return np.vstack([planar, planar + off])


_angles = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)
_shift = st.tuples(*[st.floats(-2.0, 2.0)] * 3)
_seed = st.integers(0, 2**32 - 1)


class TestPointTriangleKernel:
    """``_point_triangle`` against criterion 07's clearance oracle, which
    gets the same distances another way: plane projection with barycentric
    signs, else the nearest edge, where the kernel splits the plane into
    closest-point regions."""

    @staticmethod
    def check(corners, points, rel=None):
        """Equal distances within ``rel`` * scale, by default within 16 eps
        * scale * kappa, kappa = |e0|^2 |e1|^2 / |e0 x e1|^2 being the
        condition number of the kernel's 2x2 solve for (s, t): a point in
        the plane of a sliver gets an error that grows with it."""
        corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        d2, _, _ = _point_triangle(points, a, b - a, c - a)
        scale = np.abs(corners).max() + np.abs(points).max()
        if rel is None:
            e0, e1 = b - a, c - a
            n = np.cross(e0, e1)
            kappa = ((e0 * e0).sum(1) * (e1 * e1).sum(1)) / (n * n).sum(1)
            rel = 16 * np.finfo(np.float64).eps * kappa
        err = np.abs(np.sqrt(d2) - point_triangle_distances(points, corners))
        bound = rel * scale
        assert (err <= bound).all(), f"error/bound up to {np.max(err / bound)}"

    @given(_seed)
    @settings(max_examples=40, deadline=None)
    def test_random_triangles(self, seed):
        rng = np.random.default_rng(seed)
        corners = rng.normal(scale=50.0, size=(16, 3, 3))
        self.check(corners, rng.normal(scale=100.0, size=(200, 3)))

    @given(st.floats(0.1, 1e3),
           st.one_of(st.floats(-3.0, -0.05), st.floats(1.05, 4.0)),
           st.floats(0.01, 1.0), _angles, _shift, _seed)
    @settings(max_examples=60, deadline=None)
    def test_obtuse_triangles(self, length, apex_x, height, angles, shift,
                              seed):
        tri = _placed_triangle(length, apex_x, height, angles, shift)
        self.check(tri, _probe_points(tri, seed))

    @given(st.floats(0.1, 1e3), st.floats(-3.0, 4.0), st.floats(-6.0, -2.0),
           _angles, _shift, _seed)
    @settings(max_examples=60, deadline=None)
    def test_sliver_triangles(self, length, apex_x, log_height, angles, shift,
                              seed):
        tri = _placed_triangle(length, apex_x, 10.0**log_height, angles, shift)
        self.check(tri, _probe_points(tri, seed))

    @pytest.mark.xfail(strict=True, reason=(
        "the kernel's (s, t) solve loses accuracy as 1/height^2: in-plane "
        "points of a 1e-7 sliver are off by up to a tenth of the scale, and "
        "a zero-area triangle by up to its length"))
    @pytest.mark.parametrize("height", [1e-7, 0.0])
    def test_thin_triangles_in_plane(self, height):
        tri = _placed_triangle(1.0, 4.0, height, (0.3, -1.1, 2.0), (1, 0, 0))
        self.check(tri, _probe_points(tri, seed=0)[:48], rel=1e-6)


class TestPairKernel:
    """One kernel, two layouts: on the float64 bit pattern of dist2, s and
    t, the band pass's gathered pairs give the same bits as the dense (K, T)
    block, or the voxelizer's winners would drift from the exhaustive scan."""

    @staticmethod
    def check(corners, points, seed):
        corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
        base = corners[:, 0]
        e0, e1 = corners[:, 1] - base, corners[:, 2] - base
        dense = _point_triangle(points, base, e0, e1)
        # every pair, in an order unrelated to the dense layout
        order = np.random.default_rng(seed).permutation(
            len(points) * len(base))
        k, t = np.divmod(order, len(base))
        pairs = _point_triangle_pairs(points[k], base[t], e0[t], e1[t])
        for got, want in zip(pairs, dense):
            assert np.array_equal(got.view(np.uint64),
                                  want[k, t].view(np.uint64))

    @given(_seed)
    @settings(max_examples=20, deadline=None)
    def test_random_triangles(self, seed):
        rng = np.random.default_rng(seed)
        corners = rng.normal(scale=50.0, size=(16, 3, 3))
        self.check(corners, rng.normal(scale=100.0, size=(200, 3)), seed)

    @given(st.floats(0.1, 1e3),
           st.one_of(st.floats(-3.0, -0.05), st.floats(1.05, 4.0)),
           st.floats(0.01, 1.0), _angles, _shift, _seed)
    @settings(max_examples=30, deadline=None)
    def test_obtuse_triangles(self, length, apex_x, height, angles, shift,
                              seed):
        tri = _placed_triangle(length, apex_x, height, angles, shift)
        self.check(tri, _probe_points(tri, seed), seed)

    @given(st.floats(0.1, 1e3), st.floats(-3.0, 4.0), st.floats(-6.0, -2.0),
           _angles, _shift, _seed)
    @settings(max_examples=30, deadline=None)
    def test_sliver_triangles(self, length, apex_x, log_height, angles, shift,
                              seed):
        tri = _placed_triangle(length, apex_x, 10.0**log_height, angles, shift)
        self.check(tri, _probe_points(tri, seed), seed)

    @given(st.floats(0.1, 1e3), st.floats(-3.0, 4.0), st.floats(-6.0, 0.0),
           _angles, _shift, _seed)
    @settings(max_examples=60, deadline=None)
    def test_bounds_below_kernel_distance(self, length, apex_x, log_height,
                                          angles, shift, seed):
        # the band pass culls a pair when its bound exceeds a limit by the
        # slack; the kernel's closest point lies on the triangle up to
        # rounding, so even on slivers the bound stays below its distance
        # to within rounding, far inside the 1e-9 band_lu slack floor
        tri = _placed_triangle(length, apex_x, 10.0**log_height, angles, shift)
        points = _probe_points(tri, seed)
        accel = MeshAccel(TriMesh(tri, np.array([[0, 1, 2]])), check=False)
        bound = sdf._pair_bounds(points, accel._centroid, accel._radius,
                                 accel._face_normals, accel._offset)
        d2, _, _ = _point_triangle(points, accel._base, accel._e0, accel._e1)
        scale = np.abs(tri).max() + np.abs(points).max()
        assert (bound <= np.sqrt(d2) + 64 * np.finfo(np.float64).eps
                * scale).all()


def _leaf_mesh(corners):
    """Triangles (T, 3, 3) as one unwelded mesh."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 3, 3)
    return TriMesh(corners.reshape(-1, 3),
                   np.arange(3 * len(corners)).reshape(-1, 3))


def _block(centre, spread, n=4):
    """Per-axis sample coordinates of an n^3 block about ``centre``."""
    return [c + np.linspace(-spread, spread, n) for c in centre]


class TestLeafBound:
    """The band pass admits a voxel to a leaf only where the leaf's
    slab-and-disk bound, less the leaf's slack, passes; so the bound must
    never exceed the kernel's distance to any triangle of the leaf by more
    than rounding, the 64 eps * scale of ``test_bounds_below_kernel_distance``
    (the slack is at least that)."""

    @staticmethod
    def check(mesh, coords):
        accel = MeshAccel(mesh, check=False)
        assert len(list(accel.leaf_groups())) == 1
        bound = sdf._leaf_bound(accel._slabs[0], coords).ravel()
        grid = np.meshgrid(*coords, indexing="ij")
        points = np.column_stack([g.ravel() for g in grid])
        d2, _, _ = _point_triangle(points, accel._base, accel._e0, accel._e1)
        dist = np.sqrt(d2)
        scale = np.abs(mesh.corners).max() + np.abs(points).max()
        eps = np.finfo(np.float64).eps
        assert (bound <= dist.min(axis=1) + 64 * eps * scale).all()
        return accel, points, dist, scale

    @given(st.floats(10.0, 1e4), st.floats(0.01, 0.5), st.integers(1, 16),
           _angles, st.floats(0.9, 1.1), st.floats(-2048.0, 2048.0),
           st.floats(1e-3, 1.0), _seed)
    @settings(max_examples=60, deadline=None)
    def test_points_near_the_rim(self, curvature, cap, n_tri, angles, rim,
                                 height, spread, seed):
        # a curved patch: random triangles between points of a sphere cap,
        # probed just inside and outside the rim of the leaf's disk at
        # heights up to the domain scale, where |p - c|^2 - h^2 cancels
        rng = np.random.default_rng(seed)
        polar = rng.uniform(0.0, cap, (n_tri, 3))
        azimuth = rng.uniform(0.0, 2 * np.pi, (n_tri, 3))
        cap_points = curvature * np.stack(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
             np.cos(polar)], axis=-1)
        rot = Rotation.from_euler("xyz", angles).as_matrix()
        corners = cap_points @ rot.T
        corners += rng.uniform(0.0, 2048.0, 3) - corners.mean(axis=(0, 1))
        accel = MeshAccel(_leaf_mesh(corners), check=False)
        centre, frame, half, radius = accel._slabs[0]
        phi = rng.uniform(0.0, 2 * np.pi)
        near = (centre + rim * radius * (np.cos(phi) * frame[1]
                                         + np.sin(phi) * frame[2])
                + height * frame[0])
        accel, points, dist, scale = self.check(
            accel.mesh, _block(near, spread * max(radius, 1e-3)))
        # the per-pair bound on the same points, within the voxelizer's
        # per-pair slack less its 1e-9 band_lu floor
        pair = sdf._pair_bounds(points, accel._centroid, accel._radius,
                                accel._face_normals, accel._offset)
        assert (pair <= dist + (sdf._BOUND_ERR + accel._kernel_err)
                * scale).all()

    @given(st.sampled_from(["cuboid", "wedge"]), _angles,
           st.tuples(*[st.floats(200.0, 1800.0)] * 3), st.floats(0.5, 40.0),
           _seed)
    @settings(max_examples=40, deadline=None)
    def test_closed_solid_in_one_leaf(self, family, angles, centre, spread,
                                      seed):
        # a closed 12- or 8-triangle solid is a single leaf whose normals
        # sum to about 0, so its frame is arbitrary, yet a valid hull
        params = _CUBOID if family == "cuboid" else _WEDGE
        mesh = _rotated_solid(family, params, 16, angles, centre)
        normals = mesh.face_normals(unit=False)
        assert (np.linalg.norm(normals.sum(axis=0))
                <= 1e-9 * np.linalg.norm(normals, axis=1).sum())
        lo, hi = mesh.aabb()
        rng = np.random.default_rng(seed)
        probe = lo + rng.uniform(-0.5, 1.5, 3) * (hi - lo)
        self.check(mesh, _block(probe, spread))

    @given(st.integers(1, 16), st.floats(0.1, 1e3), st.floats(-6.0, -2.0),
           _angles, _shift, _seed)
    @settings(max_examples=60, deadline=None)
    def test_slivers(self, n_tri, length, log_height, angles, shift, seed):
        rng = np.random.default_rng(seed)
        tris = [_placed_triangle(length, rng.uniform(-3.0, 4.0),
                                 10.0**(log_height + rng.uniform(-1.0, 1.0)),
                                 angles, np.asarray(shift)
                                 + rng.normal(scale=0.1, size=3))
                for _ in range(n_tri)]
        probe = _probe_points(tris[0], seed)[rng.integers(96)]
        self.check(_leaf_mesh(tris), _block(probe, 0.1 * length))


class TestVoxelize:
    def setup_method(self):
        self.mesh = sphere_mesh(r=64.0, segments=128,
                                center=(1024.0, 256.0, 256.0))
        self.grid = GridSpec.preset(16)
        self.field = voxelize(self.mesh, self.grid, band_w=8)

    def test_center_voxel_hits_radius(self):
        assert self.field.values[64, 16, 16] == pytest.approx(
            -64.0, abs=chord_error(64, 128))

    def test_far_field_clamped_exactly(self):
        band = 8 * 16.0
        assert self.field.values[0, 0, 0] == band
        # lattice point (1024, 256, 496): distance 240-64=176 > 128
        assert self.field.values[64, 16, 31] == band

    def test_sign_pattern_matches_analytic(self):
        pos = self.grid.sample_positions()
        r = np.linalg.norm(pos - np.array([1024.0, 256.0, 256.0]), axis=1)
        analytic = r - 64.0
        clear = np.abs(analytic) > chord_error(64, 128)
        got = np.sign(self.field.values.ravel()[clear])
        assert (got == np.sign(analytic[clear])).all()

    def test_clamp_bounds_everywhere(self):
        band = 8 * 16.0
        assert np.abs(self.field.values).max() <= band

    def test_interior_far_field_negative(self):
        # deep inside a big box the clamp must keep the inside sign
        solid = tessellate("cuboid", {"height": 300, "width": 300,
                                      "thickness": 300}, 16)
        mesh = solid.mesh.translated((1024.0, 256.0, 256.0))
        field = voxelize(mesh, self.grid, band_w=2)
        assert field.values[64, 16, 16] == -32.0

    def test_discrete_lipschitz(self):
        phi = self.field.values.astype(np.float64)
        tol = 2 * chord_error(64, 128) + 1e-6
        for axis, h in zip(range(3), self.grid.spacing):
            diff = np.abs(np.diff(phi, axis=axis))
            assert diff.max() <= h + tol

    def test_monotone_refinement(self):
        errs = []
        for segments in (32, 64):
            mesh = sphere_mesh(r=64.0, segments=segments,
                               center=(1024.0, 256.0, 256.0))
            field = voxelize(mesh, self.grid, band_w=8)
            pos = self.grid.sample_positions()
            r = np.linalg.norm(pos - np.array([1024.0, 256.0, 256.0]), axis=1)
            analytic = np.clip(r - 64.0, -128.0, 128.0)
            unclamped = np.abs(field.values.ravel()) < 128.0
            errs.append(np.abs(field.values.ravel() - analytic)[unclamped].max())
        assert errs[1] < errs[0]

    def test_mesh_outside_grid_rejected(self):
        mesh = sphere_mesh(r=64.0, segments=32, center=(0.0, 256.0, 256.0))
        with pytest.raises(FieldError, match="co-registration"):
            voxelize(mesh, self.grid, band_w=8)

    def test_band_width_validated(self):
        with pytest.raises(FieldError, match="half-width"):
            voxelize(self.mesh, self.grid, band_w=0)


def _recursive_bvh(tri_lo, tri_hi, leaf_size):
    """Pre-order recursive median-split build: the reference whose order and
    leaves the iterative MeshAccel partition must reproduce."""
    centroids = (tri_lo + tri_hi) / 2.0
    order = np.arange(len(tri_lo))
    nodes = []

    def build(start, count):
        idx = order[start:start + count]
        lo, hi = tri_lo[idx].min(axis=0), tri_hi[idx].max(axis=0)
        node_id = len(nodes)
        nodes.append([lo, hi, -1, -1, start, count])
        if count > leaf_size:
            axis = int(np.argmax(hi - lo))
            order[start:start + count] = idx[np.argsort(centroids[idx, axis],
                                                        kind="stable")]
            half = count // 2
            left = build(start, half)
            right = build(start + half, count - half)
            nodes[node_id][2:] = [left, right, -1, 0]
        return node_id

    build(0, len(tri_lo))
    return order, nodes


class TestBvhBuild:
    MESHES = {
        "one_leaf": lambda: tessellate(
            "cuboid", {"height": 40, "width": 60, "thickness": 50}, 16).mesh,
        # 16 + 1 triangles: an open mesh, built without the watertight check
        "17_triangles": lambda: TriMesh(sphere_mesh(segments=16).vertices,
                                        sphere_mesh(segments=16).triangles[:17]),
        "sphere_128": lambda: sphere_mesh(r=64.0, segments=128),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_iterative_equals_recursive(self, name):
        accel = MeshAccel(self.MESHES[name](), check=False)
        order, nodes = _recursive_bvh(accel._tri_lo, accel._tri_hi,
                                      sdf._LEAF_SIZE)
        assert np.array_equal(accel._order, order)
        ref_leaves = [(order[n[4]:n[4] + n[5]], n[0], n[1])
                      for n in nodes if n[2] < 0]
        got_leaves = list(accel.leaf_groups())
        assert len(got_leaves) == len(ref_leaves)
        for got, ref in zip(got_leaves, ref_leaves):
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    def test_build_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(_limit):
            raise AssertionError("sys.setrecursionlimit called")
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        MeshAccel(sphere_mesh(r=64.0, segments=128))


def _reference_voxelize(mesh, grid, band_w, accel):
    """Exhaustive leaf-by-leaf band scatter over the whole grid: the
    voxelizer before block-local arrays, upper-bound pruning and chunking.
    ``voxelize`` must reproduce its float32 output bit for bit."""
    band_lu = band_w * grid.spacing[0]
    dims = np.asarray(grid.dims)
    origin = np.asarray(grid.origin)
    spacing = np.asarray(grid.spacing)
    axes = [grid.axis_coords(a) for a in range(3)]

    dist = np.full(grid.dims, np.inf, dtype=np.float64)
    sign = np.ones(grid.dims, dtype=np.int8)

    for tri_ids, leaf_lo, leaf_hi in accel.leaf_groups():
        lo_idx = np.ceil((leaf_lo - band_lu - origin) / spacing - 1e-12).astype(int)
        hi_idx = np.floor((leaf_hi + band_lu - origin) / spacing + 1e-12).astype(int)
        lo_idx = np.clip(lo_idx, 0, dims - 1)
        hi_idx = np.clip(hi_idx, 0, dims - 1)
        if (lo_idx > hi_idx).any():
            continue
        block_shape = tuple(hi_idx - lo_idx + 1)
        sl = tuple(slice(lo_idx[a], hi_idx[a] + 1) for a in range(3))
        gx, gy, gz = np.meshgrid(axes[0][sl[0]], axes[1][sl[1]], axes[2][sl[2]],
                                 indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        current = dist[sl].ravel()

        off = np.maximum(np.maximum(leaf_lo - pts, 0.0), pts - leaf_hi)
        lower = np.sqrt(np.einsum("kj,kj->k", off, off))
        active = (lower <= band_lu) & (lower < current)
        if not active.any():
            continue
        act = np.flatnonzero(active)

        d2, s, t = _point_triangle(pts[act], accel._base[tri_ids],
                                   accel._e0[tri_ids], accel._e1[tri_ids])
        kmin = np.argmin(d2, axis=1)
        arows = np.arange(len(act))
        dmin = np.sqrt(d2[arows, kmin])
        improved = dmin < current[act]
        if not improved.any():
            continue
        rows = arows[improved]
        upd_flat = act[rows]
        win_tri = tri_ids[kmin[rows]]
        s_win = s[rows, kmin[rows]]
        t_win = t[rows, kmin[rows]]
        codes = sdf._feature_codes(s_win, t_win)

        pn = np.empty((len(rows), 3))
        mask = codes == sdf._F_FACE
        pn[mask] = accel._face_normals[win_tri[mask]]
        for v in (sdf._F_V0, sdf._F_V1, sdf._F_V2):
            mask = codes == v
            if mask.any():
                pn[mask] = accel._vertex_pn[accel.mesh.triangles[win_tri[mask], v]]
        for eidx in (sdf._F_E01, sdf._F_E12, sdf._F_E20):
            mask = codes == eidx
            if mask.any():
                pn[mask] = accel._edge_pn[win_tri[mask], eidx - sdf._F_E01]

        closest = (accel._base[win_tri] + s_win[:, None] * accel._e0[win_tri]
                   + t_win[:, None] * accel._e1[win_tri])
        outward = np.einsum("kj,kj->k", pts[upd_flat] - closest, pn)

        multi = np.unravel_index(upd_flat, block_shape)
        target = tuple(multi[a] + lo_idx[a] for a in range(3))
        dist[target] = dmin[improved]
        sign[target] = np.where(outward >= 0, 1, -1).astype(np.int8)

    far = dist > band_lu
    if far.any():
        structure = ndimage.generate_binary_structure(3, 1)
        labels, n_comp = ndimage.label(far, structure=structure)
        comp_ids, first_flat = np.unique(labels.ravel(), return_index=True)
        comp_sign = np.ones(n_comp + 1, dtype=np.int8)
        for comp, flat in zip(comp_ids, first_flat):
            if comp == 0:
                continue
            ijk = np.unravel_index(flat, grid.dims)
            rep = origin + spacing * np.asarray(ijk)
            comp_sign[comp] = 1 if signed_distance_at(accel, rep) >= 0 else -1
        sign[far] = comp_sign[labels[far]]

    phi = sign * np.minimum(dist, band_lu)
    return phi.astype(np.float32)


def _solid(family, params, segments, center):
    solid = tessellate(family, params, segments)
    return solid.mesh.translated(np.asarray(center) - solid.centroid)


def _generated_scene(number_of_objects, seed):
    cfg = resolve_config(override_list=[f"number_of_objects={number_of_objects}",
                                        f"seed={seed}"])
    state = GeneratorState(mode=cfg.sampling_mode, seed=cfg.seed)
    freeze_dimension(state, draw_dimension(cfg.data))
    scene = build_scene(cfg, state)
    return concatenate([placed.mesh for placed in scene.objects])


def _hollow_shell(outer, inner, segments, center):
    """The sphere of radius ``outer`` less the sphere of radius ``inner``,
    whose triangles are wound inward."""
    cavity = _solid("sphere", {**_SPHERE, "radius": inner}, segments, center)
    return concatenate([
        _solid("sphere", {**_SPHERE, "radius": outer}, segments, center),
        TriMesh(cavity.vertices, cavity.triangles[:, ::-1])])


def _placed_sphere(radius, segments, center):
    params = {"radius": radius, "alpha": None, "beta": None, "gamma": None}
    solid = tessellate("sphere", params, segments)
    mesh = solid.mesh.translated(np.asarray(center) - solid.centroid)
    pose = Pose(position=tuple(center), quaternion=(1.0, 0.0, 0.0, 0.0),
                dir_vector=(1.0, 0.0, 0.0))
    return PlacedShape(family="sphere", params=params, pose=pose, solid=solid,
                       mesh=mesh, volume=mesh.signed_volume(),
                       max_edge=mesh.max_edge_length())


def _rotated_solid(family, params, segments, angles, center):
    """A solid turned by the Euler ``angles`` about its centroid, then
    moved to ``center``."""
    solid = tessellate(family, params, segments)
    rot = Rotation.from_euler("xyz", angles).as_matrix()
    vertices = (solid.mesh.vertices - solid.centroid) @ rot.T
    return TriMesh(vertices + np.asarray(center), solid.mesh.triangles)


def _thinnest(mesh):
    """Smallest height/longest-edge ratio over the mesh's triangles."""
    c = mesh.corners
    edges = c[:, [1, 2, 0]] - c
    longest2 = np.einsum("tkj,tkj->tk", edges, edges).max(axis=1)
    area2 = np.linalg.norm(np.cross(edges[:, 0], edges[:, 1]), axis=1)
    return (area2 / longest2).min()


# a long truncated cone at 128 segments: its lateral triangles are slivers
# thinner than the thinnest criterion-07 object (height/edge 3.3e-3), with
# kernel condition numbers kappa up to about 4e5
_SLIVER_CONE = {"radius_1": 30.0, "radius_2": 10.0, "height": 300.0,
                "angle": 360.0}
_CUBOID = {"height": 96.0, "width": 160.0, "thickness": 96.0}
_WEDGE = {"length": 192.0, "width": 128.0, "height": 96.0, "opening_angle": 40.0}
_SPHERE = {"radius": 64.0, "alpha": None, "beta": None, "gamma": None}
# a disc thinner than half a dx=8 voxel: both faces fall in one band
_PLATE = {"radius": 120.0, "height": 3.0, "angle": 360.0}


class TestVoxelizeEquivalence:
    """Block-local, upper-bound-pruned, chunked ``voxelize`` against the
    exhaustive scan, compared on the float32 bit pattern."""

    CASES = {
        "sphere_128_dx16": lambda: (
            _solid("sphere", _SPHERE, 128, (1601.3, 257.1, 255.4)),
            GridSpec.preset(16), 8),
        "cuboid_dx8": lambda: (
            _solid("cuboid", _CUBOID, 16, (400.7, 256.2, 258.9)),
            GridSpec.preset(8), 8),
        "wedge_dx8": lambda: (
            _solid("wedge", _WEDGE, 16, (1000.4, 255.3, 257.6)),
            GridSpec.preset(8), 8),
        "three_objects_dx16": lambda: (
            _generated_scene(3, 2026), GridSpec.preset(16), 8),
        "aniso_dx16": lambda: (
            _solid("sphere", _SPHERE, 32, (700.0, 250.0, 260.0)),
            GridSpec.preset(16, aniso=(1.0142, 0.9871)), 8),
        # faces on the x=0 and y=0 walls: the block is clipped by the grid
        "wall_flush_dx16": lambda: (
            _solid("cuboid", _CUBOID, 16, (80.0, 48.0, 200.0)),
            GridSpec.preset(16), 8),
        "interior_far_cube_dx16": lambda: (
            _solid("cuboid", {"height": 300, "width": 300, "thickness": 300},
                   16, (1024.0, 256.0, 256.0)),
            GridSpec.preset(16), 2),
        # slivers, where the kernel's (s, t) solve is worst conditioned
        "sliver_cone_dx8": lambda: (
            _rotated_solid("cone", _SLIVER_CONE, 128, (0.2, 1.45, 0.1),
                           (1000.3, 255.1, 257.8)),
            GridSpec.preset(8), 8),
        # supporting planes not aligned with the grid
        "rotated_cuboid_dx8": lambda: (
            _rotated_solid("cuboid", _CUBOID, 16, (0.4, -0.7, 1.1),
                           (600.2, 254.7, 256.9)),
            GridSpec.preset(8), 8),
        # the benchmark's 16,128-triangle sphere at the finest grid, where
        # leaves are small curved patches
        "sphere_128_dx4": lambda: (
            _solid("sphere", _SPHERE, 128, (1600.9, 257.3, 254.6)),
            GridSpec.preset(4), 8),
        # leaves whose hull slabs hold both faces of the plate
        "thin_plate_dx8": lambda: (
            _rotated_solid("cylinder", _PLATE, 64, (0.3, 1.2, -0.4),
                           (800.4, 256.3, 255.2)),
            GridSpec.preset(8), 8),
        # the cavity is a far region that the solid encloses
        "hollow_shell_dx8": lambda: (
            _hollow_shell(200.0, 140.0, 64, (1000.6, 256.4, 255.3)),
            GridSpec.preset(8), 2),
    }

    def test_sliver_cone_is_thin(self):
        mesh, _, _ = self.CASES["sliver_cone_dx8"]()
        assert _thinnest(mesh) <= 3.3e-3

    @staticmethod
    def assert_bit_equal(mesh, grid, band_w):
        accel = MeshAccel(mesh)
        got = voxelize(mesh, grid, band_w=band_w, accel=accel).values
        want = _reference_voxelize(mesh, grid, band_w, accel)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical(self, case):
        self.assert_bit_equal(*self.CASES[case]())

    @pytest.mark.parametrize("band_w", [1, 2, 8])
    def test_band_widths(self, band_w):
        mesh = _solid("torus", {"radius_major": 60.0, "radius_minor": 20.0}, 32,
                      (900.3, 260.2, 251.7))
        self.assert_bit_equal(mesh, GridSpec.preset(16), band_w)

    def test_kernel_calls_stay_within_pair_budget(self, monkeypatch):
        # one 12-triangle leaf whose dilated block holds ~447k voxels at
        # dx=8: an unchunked band pass bound-tests over 5 M pairs in one
        # call.  Both passes of the band scan are counted: the per-pair
        # bound and the exact kernel on the pairs it keeps.
        bounded, exact = [], []
        bounds, kernel = sdf._pair_bounds, sdf._point_triangle_pairs

        def counted_bounds(points, centroid, *rest):
            bounded.append(len(points) * len(centroid))
            return bounds(points, centroid, *rest)

        def counted_kernel(points, *rest):
            exact.append(len(points))
            return kernel(points, *rest)

        monkeypatch.setattr(sdf, "_pair_bounds", counted_bounds)
        monkeypatch.setattr(sdf, "_point_triangle_pairs", counted_kernel)
        mesh = _solid("cuboid", {"height": 400, "width": 1000, "thickness": 400},
                      16, (1024.0, 256.0, 256.0))
        voxelize(mesh, GridSpec.preset(8), band_w=8)
        assert sum(bounded) > 5_000_000
        assert max(bounded + exact) <= sdf._PAIR_BUDGET

    @pytest.mark.parametrize("query", ["signed_distance", "clearance_guard",
                                       "one_point_per_call"])
    def test_distance_queries_stay_within_pair_budget(self, monkeypatch,
                                                      query):
        # the 16,128-triangle sphere: 512 points against it are 8.3 M pairs.
        # The stand-in kernel returns zeros of the right shape, so only the
        # call sizes are measured.
        pairs = []

        def sized(points, base, e0, e1):
            pairs.append(len(points) * len(base))
            zeros = np.zeros((len(points), len(base)))
            return zeros, zeros, zeros

        monkeypatch.setattr(sdf, "_point_triangle", sized)
        sphere = _placed_sphere(64.0, 128, (500.0, 256.0, 256.0))
        n_tri = len(sphere.mesh.triangles)
        if query == "signed_distance":
            rng = np.random.default_rng(7)
            points = rng.normal(scale=80.0, size=(10_000, 3)) + (500, 256, 256)
            MeshAccel(sphere.mesh).signed_distance(points)
            assert sum(pairs) == 10_000 * n_tri
        elif query == "clearance_guard":
            # 10 lu from the sphere, inside the default 32 lu clearance
            near = _placed_sphere(20.0, 64, (594.0, 256.0, 256.0))
            cfg = resolve_config()
            assert validate_candidate(
                near, [_context_entry(sphere)], cfg.bounding_box, cfg.roi_x,
                cfg.data["clearance"], 0.0) == (False, "clearance")
            assert sum(pairs) > sdf._PAIR_BUDGET
        else:
            # a budget below the triangle count: one point per call
            monkeypatch.setattr(sdf, "_PAIR_BUDGET", 1000)
            MeshAccel(sphere.mesh).signed_distance(np.zeros((5, 3)))
            assert pairs == [n_tri] * 5
        assert max(pairs) <= max(sdf._PAIR_BUDGET, n_tri)


def _band_pass_pairs(monkeypatch, mesh, grid, band_w):
    """(bound-tested, exact) point-triangle pairs of one ``voxelize`` call:
    the pairs handed to ``_pair_bounds`` and to ``_point_triangle_pairs``."""
    bounded, exact = [0], [0]
    bounds, kernel = sdf._pair_bounds, sdf._point_triangle_pairs

    def counted_bounds(points, centroid, *rest):
        bounded[0] += len(points) * len(centroid)
        return bounds(points, centroid, *rest)

    def counted_kernel(points, *rest):
        exact[0] += len(points)
        return kernel(points, *rest)

    monkeypatch.setattr(sdf, "_pair_bounds", counted_bounds)
    monkeypatch.setattr(sdf, "_point_triangle_pairs", counted_kernel)
    voxelize(mesh, grid, band_w=band_w)
    return bounded[0], exact[0]


class TestBandPassWork:
    """The band pass's pair counts on one fixed scene, the benchmark's
    16,128-triangle sphere at dx=4.  Slab-and-disk culling of leaves and
    pairs takes 4,866,322 bound-tested and 838,483 exact pairs; the
    leaf-box and plane-and-ball culling before it took 10,130,222 and
    2,755,010.  The bounds leave about 3% headroom."""

    SCENE = staticmethod(TestVoxelizeEquivalence.CASES["sphere_128_dx4"])

    def test_pair_counts_stay_pinned(self, monkeypatch):
        bounded, exact = _band_pass_pairs(monkeypatch, *self.SCENE())
        assert bounded <= 5_000_000
        assert exact <= 865_000


class TestVoxelizeMemory:
    """What ``voxelize`` allocates beside its output, measured with
    tracemalloc, which sees NumPy's buffers.  On the benchmark's wedge at
    dx=4 the peak is 25.8 MiB above the 32 MiB output; the bound leaves
    6 MiB of headroom."""

    def test_wedge_dx4_peak_above_output(self):
        mesh = _solid("wedge", _WEDGE, 16, (1000.4, 255.3, 257.6))
        tracemalloc.start()
        try:
            field = voxelize(mesh, GridSpec.preset(4), band_w=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - field.values.nbytes <= 32 << 20


class TestNpyFormat:
    def test_scalar_field_payload_arithmetic(self, tmp_path):
        values = np.zeros((128, 32, 32), dtype=np.float32)
        path = export_npy(values, tmp_path / "phi.npy")
        raw = path.read_bytes()
        assert raw[:8] == b"\x93NUMPY\x01\x00"
        header = raw[10:128].decode("latin1")
        assert "'descr': '<f4'" in header
        assert "'fortran_order': False" in header
        assert "(128, 32, 32)" in header
        assert len(raw) == 128 + 131072 * 4  # header + 524,288-byte payload

    def test_round_trip_bitwise(self, tmp_path, rng):
        values = rng.normal(size=(16, 8, 8)).astype(np.float32)
        path = export_npy(values, tmp_path / "f.npy")
        again = load_npy(path)
        assert again.dtype == np.float32
        assert np.array_equal(again, values)

    def test_velocity_tensor_sizes(self):
        assert tensor_bytes((256, 64, 64), 3) == 12_582_912
        assert tensor_bytes((128, 32, 32), 3) == 1_572_864
        assert tensor_bytes((512, 128, 128), 3) == 100_663_296


class TestSlices:
    def make_field(self):
        grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(4, 3, 2))
        values = np.arange(24, dtype=np.float32).reshape(4, 3, 2)
        return DenseField(grid, values)

    def test_clamped_far_slice_constant(self):
        mesh = sphere_mesh(r=64.0, segments=32, center=(1024.0, 256.0, 256.0))
        field = voxelize(mesh, GridSpec.preset(16), band_w=2)
        text = extract_slice(field, axis=0, index=0)
        rows = text.strip().splitlines()[1:]
        values = {float(v) for row in rows for v in row.split(",")[1:]}
        assert values == {32.0}

    def test_slice_through_sphere_center(self):
        mesh = sphere_mesh(r=64.0, segments=64, center=(1024.0, 256.0, 256.0))
        field = voxelize(mesh, GridSpec.preset(16), band_w=8)
        text = extract_slice(field, axis=2, index=16)
        rows = text.strip().splitlines()[1:]
        lowest = min(float(v) for row in rows for v in row.split(",")[1:])
        assert lowest == pytest.approx(-64.0, abs=chord_error(64, 64))

    def test_slice_shape(self):
        field = self.make_field()
        text = extract_slice(field, axis=1, index=2)
        rows = text.strip().splitlines()
        assert len(rows) == 1 + 4          # header + x rows
        assert len(rows[1].split(",")) == 1 + 2  # label + z columns

    def test_out_of_range_index(self):
        with pytest.raises(FieldError, match="out of range"):
            extract_slice(self.make_field(), axis=0, index=7)
