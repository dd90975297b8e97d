import sys

import numpy as np
import pytest
from scipy import ndimage

from flowforge import sdf
from flowforge.config import resolve_config
from flowforge.errors import FieldError, GeometryError
from flowforge.fields import (DenseField, GridSpec, export_npy, extract_slice,
                              load_npy, tensor_bytes)
from flowforge.geometry import (TriMesh, build_scene, concatenate,
                                draw_dimension, tessellate)
from flowforge.sampling import GeneratorState, freeze_dimension
from flowforge.sdf import (MeshAccel, _point_triangle, signed_distance_at,
                           voxelize)


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

    def test_bvh_equals_brute_force_scan(self, rng):
        mesh = sphere_mesh(r=7.0, segments=48)
        accel = MeshAccel(mesh)
        points = rng.normal(scale=9.0, size=(1000, 3))
        bvh = np.array([accel.closest(p)[0] for p in points])
        d2, _, _ = _point_triangle(points, accel._base, accel._e0, accel._e1)
        brute = np.sqrt(d2.min(axis=1))
        np.testing.assert_allclose(bvh, brute, atol=1e-12)

    def test_signs_match_implicit(self, rng):
        solid = tessellate("torus", {"radius_major": 12.0, "radius_minor": 4.0},
                           64)
        accel = MeshAccel(solid.mesh)
        points = rng.uniform(-18, 18, size=(500, 3))
        sd = accel.signed_distance(points)
        inside = solid.inside(points)
        # agree away from the chordal shell around the surface
        clear = np.abs(sd) > chord_error(16.0, 64)
        assert (np.sign(sd[clear]) == np.where(inside[clear], -1, 1)).all()

    def test_non_watertight_rejected_preflight(self):
        mesh = sphere_mesh()
        broken = TriMesh(mesh.vertices, mesh.triangles[:-1])
        with pytest.raises(GeometryError, match="watertight"):
            MeshAccel(broken)


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
    """Pre-order recursive median-split build: the reference the iterative
    MeshAccel build must reproduce node for node."""
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
        assert len(accel._nodes) == len(nodes)
        for got, (lo, hi, left, right, start, count) in zip(accel._nodes, nodes):
            assert np.array_equal(got.lo, lo) and np.array_equal(got.hi, hi)
            assert (got.left, got.right, got.start, got.count) == (
                left, right, start, count)
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


_CUBOID = {"height": 96.0, "width": 160.0, "thickness": 96.0}
_WEDGE = {"length": 192.0, "width": 128.0, "height": 96.0, "opening_angle": 40.0}
_SPHERE = {"radius": 64.0, "alpha": None, "beta": None, "gamma": None}


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
    }

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
        # dx=8: an unchunked band pass makes one call of over 5 M pairs
        pairs = []
        kernel = sdf._point_triangle

        def counted(points, base, e0, e1):
            pairs.append(len(points) * len(base))
            return kernel(points, base, e0, e1)

        monkeypatch.setattr(sdf, "_point_triangle", counted)
        mesh = _solid("cuboid", {"height": 400, "width": 1000, "thickness": 400},
                      16, (1024.0, 256.0, 256.0))
        voxelize(mesh, GridSpec.preset(8), band_w=8)
        assert sum(pairs) > 5_000_000
        assert max(pairs) <= sdf._PAIR_BUDGET


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
