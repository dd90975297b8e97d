import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sphere_sector_volume
from flowforge.config import config_hash, resolve_config
from flowforge.errors import ArtifactIOError, GeometryError
from flowforge.geometry import (analytic_volume, build_scene,
                                draw_dimension, export_scene,
                                pick_family, read_stl,
                                sample_pose, sample_shape, stl_bytes,
                                tessellate, validate_candidate)
from flowforge.geometry.export import _SIM_TYPES, read_scene_sidecar
from flowforge.geometry.mesh import TriMesh, concatenate
from flowforge.geometry.scene import Pose, _context_entry, random_quaternion
from flowforge.sampling import GeneratorState, freeze_dimension


def full_sphere_params(r):
    return {"radius": r, "alpha": None, "beta": None, "gamma": None}


def place_sphere(r, center, cfg):
    """Build a PlacedShape sphere at a given world position."""
    from flowforge.geometry.scene import PlacedShape
    solid = tessellate("sphere", full_sphere_params(r), 64)
    pose = Pose(position=tuple(center), quaternion=(1.0, 0.0, 0.0, 0.0),
                dir_vector=(1.0, 0.0, 0.0))
    mesh = TriMesh(solid.mesh.vertices - solid.centroid + np.asarray(center),
                   solid.mesh.triangles.copy())
    return PlacedShape(family="sphere", params=full_sphere_params(r),
                       pose=pose, solid=solid, mesh=mesh,
                       volume=analytic_volume("sphere", full_sphere_params(r)),
                       max_edge=mesh.max_edge_length())


class TestTessellation:
    def test_cuboid_exact(self):
        solid = tessellate("cuboid",
                           {"height": 10, "width": 10, "thickness": 10}, 16)
        assert len(solid.mesh.triangles) == 12
        assert solid.mesh.signed_volume() == pytest.approx(1000.0, abs=1e-9)

    def test_sphere_volume_within_1pct_at_64(self):
        solid = tessellate("sphere", full_sphere_params(5.0), 64)
        exact = 4.0 / 3.0 * math.pi * 125.0
        assert solid.mesh.signed_volume() == pytest.approx(exact, rel=0.01)

    def test_half_cylinder_volume(self):
        solid = tessellate("cylinder",
                           {"radius": 5, "height": 10, "angle": 180}, 64)
        exact = math.pi * 25 * 10 / 2
        assert solid.mesh.signed_volume() == pytest.approx(exact, rel=0.01)

    def test_sphere_sector_volume_oracle(self):
        params = {"radius": 8.0, "alpha": -30.0, "beta": 60.0, "gamma": 270.0}
        solid = tessellate("sphere", params, 128)
        exact = sphere_sector_volume(8.0, -30.0, 60.0, 270.0)
        assert solid.mesh.signed_volume() == pytest.approx(exact, rel=0.01)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            tessellate("cylinder", {"radius": 5, "height": 10, "angle": 0}, 64)
        with pytest.raises(GeometryError):
            tessellate("sphere",
                       {"radius": 5, "alpha": 50.0, "beta": 20.0,
                        "gamma": 180.0}, 64)

    def test_min_segments_enforced(self):
        with pytest.raises(GeometryError, match="16"):
            tessellate("sphere", full_sphere_params(5.0), 8)

    @pytest.mark.parametrize("alpha, beta", [(-90.0, 89.99999998249999),
                                             (-89.99999998, 30.0)])
    def test_latitude_next_to_pole_is_watertight(self, alpha, beta):
        # a ring 1e-9 lu wide at the pole once fanned into zero-area triangles
        solid = tessellate("sphere", {"radius": 5.0, "alpha": alpha,
                                      "beta": beta, "gamma": 10.0}, 48)
        solid.mesh.check_watertight()
        assert solid.mesh.signed_volume() > 0

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["cuboid", "cylinder", "cone", "sphere", "torus",
                            "wedge"]),
           st.randoms(use_true_random=False))
    def test_random_solids_watertight(self, family, rnd):
        u = lambda lo, hi: lo + rnd.random() * (hi - lo)
        if family == "cuboid":
            params = {"height": u(5, 200), "width": u(5, 200),
                      "thickness": u(5, 200)}
        elif family == "cylinder":
            params = {"radius": u(5, 200), "height": u(5, 200),
                      "angle": u(45, 360)}
        elif family == "cone":
            params = {"radius_1": u(2, 200), "radius_2": u(2, 200),
                      "height": u(5, 200), "angle": u(45, 360)}
        elif family == "sphere":
            alpha = u(-90, 80)
            params = {"radius": u(5, 200), "alpha": alpha,
                      "beta": u(alpha + 5, 90), "gamma": u(10, 360)}
        elif family == "torus":
            minor = u(5, 90)
            params = {"radius_major": u(minor + 1, 200),
                      "radius_minor": minor}
        else:
            params = {"length": u(10, 200), "width": u(30, 200),
                      "height": u(5, 200), "opening_angle": u(10, 80)}
        solid = tessellate(family, params, 48 if family != "cuboid" else 16)
        solid.mesh.check_watertight()  # raises on any defect
        assert solid.mesh.signed_volume() > 0
        # centroid shift puts the volume centroid at the origin
        shifted = TriMesh(solid.mesh.vertices - solid.centroid,
                          solid.mesh.triangles)
        np.testing.assert_allclose(shifted.volume_centroid(),
                                   0.0, atol=1e-6)


class TestCheckWatertight:
    """Each defect is caught by its own check, in the order of the checks."""

    @pytest.fixture
    def cube(self):
        return tessellate("cuboid",
                          {"height": 10, "width": 10, "thickness": 10}, 16).mesh

    @pytest.mark.parametrize("defect, message", [
        ("empty", "empty mesh"),
        ("out_of_range", "triangle index out of range"),
        ("negative_index", "triangle index out of range"),
        ("zero_area", "degenerate"),
        ("one_flipped", "inconsistent winding"),
        ("one_removed", "not watertight"),
        ("all_flipped", "inward orientation"),
    ])
    def test_defect_raises(self, cube, defect, message):
        tris = cube.triangles.copy()
        if defect == "empty":
            tris = tris[:0]
        elif defect == "out_of_range":
            tris[3, 1] = len(cube.vertices)
        elif defect == "negative_index":
            tris[3, 1] = -1
        elif defect == "zero_area":
            tris[3, 1] = tris[3, 0]
        elif defect == "one_flipped":
            tris[3] = tris[3, ::-1]
        elif defect == "one_removed":
            tris = np.delete(tris, 3, axis=0)
        else:
            tris = tris[:, ::-1]
        with pytest.raises(GeometryError, match=f"^cube: {message}"):
            TriMesh(cube.vertices, tris).check_watertight(context="cube")

    def test_closed_mesh_passes(self, cube):
        cube.check_watertight()
        inverse, counts = cube.edges()
        assert len(counts) == 18 and (counts == 2).all()
        assert inverse.shape == (3 * len(cube.triangles),)


class TestAnalyticVolume:
    def test_cuboid(self):
        assert analytic_volume(
            "cuboid", {"height": 10, "width": 10, "thickness": 10}) == 1000.0

    def test_torus_closed_form(self):
        got = analytic_volume("torus", {"radius_major": 10, "radius_minor": 5})
        assert got == pytest.approx(2 * math.pi**2 * 10 * 25)
        assert got == pytest.approx(4934.8022, abs=1e-3)

    def test_cone_full_sweep(self):
        got = analytic_volume("cone", {"radius_1": 5, "radius_2": 5,
                                       "height": 12, "angle": 360})
        assert got == pytest.approx(300 * math.pi)
        assert got < 1000.0  # below the default min volume: scene rejects

    def test_cylinder_sector(self):
        got = analytic_volume("cylinder",
                              {"radius": 5, "height": 10, "angle": 90})
        assert got == pytest.approx(math.pi * 25 * 10 / 4)

    def test_mesh_volume_fallbacks(self):
        params = {"length": 20.0, "width": 10.0, "height": 8.0,
                  "opening_angle": 30.0}
        solid = tessellate("wedge", params, 16)
        assert analytic_volume("wedge", params, solid.mesh) == pytest.approx(
            solid.mesh.signed_volume())
        with pytest.raises(GeometryError):
            analytic_volume("wedge", params)


class TestPickFamily:
    def test_cdf_inversion(self):
        weights = {"a": 1.0, "b": 1.0}
        assert pick_family(weights, 0.25) == "a"
        assert pick_family(weights, 0.75) == "b"

    def test_zero_weight_never_picked(self):
        weights = {"a": 1.0, "b": 0.0}
        for u in (0.0, 0.3, 0.7, 0.999):
            assert pick_family(weights, u) == "a"

    def test_weighted_proportions_binomial(self):
        weights = {"cuboid": 1.0, "cylinder": 1.0, "sphere": 1.0,
                   "cone": 1.0, "torus": 0.5, "wedge": 1.0}
        n = 14218
        rng = np.random.default_rng(3)
        draws = [pick_family(weights, u) for u in rng.random(n)]
        p = 0.5 / 5.5
        expected = n * p
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(draws.count("torus") - expected) < 3 * sigma


class TestSampleShape:
    def test_endpoint_mapping_cylinder(self):
        params = sample_shape("cylinder",
                              {"radius": [5, 200], "height": [5, 200],
                               "angle": [45, 360]}, np.zeros(3))
        assert params == {"radius": 5.0, "height": 5.0, "angle": 45.0}

    def test_cone_min_radius_sum_rejects(self):
        ranges = {"radius_1": [0, 200], "radius_2": [0, 200],
                  "height": [5, 200], "angle": [45, 360],
                  "min_radius_sum": 10.0}
        # draws giving r1=4, r2=5 -> sum 9 < 10 -> reject
        draw = np.array([4 / 200, 5 / 200, 0.5, 0.5])
        assert sample_shape("cone", ranges, draw) is None
        accepted = sample_shape("cone", ranges,
                                np.array([0.5, 0.5, 0.5, 0.5]))
        assert accepted is not None

    def test_torus_major_minor_rejects(self):
        ranges = {"radius_major": [5, 200], "radius_minor": [5, 200]}
        draw = np.array([(50 - 5) / 195, (60 - 5) / 195])
        assert sample_shape("torus", ranges, draw) is None

    def test_unsatisfiable_ranges_error(self):
        with pytest.raises(GeometryError, match="cannot satisfy"):
            sample_shape("torus", {"radius_major": [5, 10],
                                   "radius_minor": [50, 60]}, np.zeros(2))

    def test_wedge_aliases(self):
        # the config resolves x_max / depth to length / width, so the
        # aliased and the canonical config draw the same wedge
        aliased = resolve_config(override_list=[
            "shapes.wedge.x_max=[20,21]", "shapes.wedge.depth=[40,41]"])
        canonical = resolve_config(override_list=[
            "shapes.wedge.length=[20,21]", "shapes.wedge.width=[40,41]"])
        ranges = aliased.data["shapes"]["wedge"]
        assert "x_max" not in ranges and "depth" not in ranges
        assert config_hash(aliased) == config_hash(canonical)
        params = sample_shape("wedge", ranges, np.zeros(4))
        assert params["length"] == 20.0
        assert params["width"] == 40.0


class TestPose:
    def test_position_lower_endpoint(self):
        pose = sample_pose((146.0, 1800.0), (0.0, 512.0), (0.0, 512.0),
                           np.zeros(8))
        assert pose.position == (146.0, 0.0, 0.0)

    def test_position_upper_endpoint(self):
        u = np.full(8, 1.0 - 1e-12)
        pose = sample_pose((146.0, 1800.0), (0.0, 512.0), (0.0, 512.0), u)
        assert pose.position[0] <= 1800.0
        assert pose.position[1] <= 512.0 and pose.position[2] <= 512.0

    def test_quaternion_unit_norm(self, rng):
        for _ in range(100):
            q = random_quaternion(*rng.random(3))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-12

    def test_rotated_axis_octant_uniformity(self, rng):
        n = 100_000
        us = rng.random((n, 3))
        z = np.array([0.0, 0.0, 1.0])
        hits = np.zeros(8, dtype=int)
        for u in us:
            pose = Pose((0, 0, 0), random_quaternion(*u), (1, 0, 0))
            v = pose.rotation_matrix() @ z
            octant = (v[0] > 0) * 4 + (v[1] > 0) * 2 + (v[2] > 0)
            hits[octant] += 1
        p = 1 / 8
        sigma = math.sqrt(n * p * (1 - p))
        assert np.abs(hits - n * p).max() < 3.5 * sigma

    def test_dir_vector_unit_after_rounding(self, rng):
        for _ in range(200):
            pose = sample_pose((0.0, 10.0), (0.0, 10.0), (0.0, 10.0),
                               rng.random(8))
            assert abs(np.linalg.norm(pose.dir_vector) - 1.0) < 1e-12


class TestValidateCandidate:
    @pytest.fixture
    def cfg(self):
        return resolve_config()

    def test_small_sphere_rejected_on_volume(self, cfg):
        placed = place_sphere(5.0, (148.0, 256.0, 256.0), cfg)
        ok, reason = validate_candidate(placed, [], cfg.bounding_box,
                                        cfg.roi_x, cfg.data["clearance"],
                                        cfg.data["min_volume"])
        assert not ok and reason == "min_volume"
        assert placed.volume == pytest.approx(523.5987755982989)

    def test_spheres_far_apart_accepted(self, cfg):
        a = place_sphere(50.0, (500.0, 256.0, 256.0), cfg)
        b = place_sphere(50.0, (700.0, 256.0, 256.0), cfg)  # gap 100 >= 32
        ok, reason = validate_candidate(b, [_context_entry(a)],
                                        cfg.bounding_box, cfg.roi_x,
                                        cfg.data["clearance"],
                                        cfg.data["min_volume"])
        assert ok, reason

    def test_spheres_close_rejected_on_clearance(self, cfg):
        # centers 104 apart -> gap 4 < default clearance 32
        a = place_sphere(50.0, (500.0, 256.0, 256.0), cfg)
        b = place_sphere(50.0, (604.0, 256.0, 256.0), cfg)
        ok, reason = validate_candidate(b, [_context_entry(a)],
                                        cfg.bounding_box, cfg.roi_x,
                                        cfg.data["clearance"],
                                        cfg.data["min_volume"])
        assert not ok and reason == "clearance"

    def test_overlapping_spheres_rejected(self, cfg):
        a = place_sphere(50.0, (500.0, 256.0, 256.0), cfg)
        b = place_sphere(50.0, (540.0, 256.0, 256.0), cfg)
        ok, reason = validate_candidate(b, [_context_entry(a)],
                                        cfg.bounding_box, cfg.roi_x,
                                        cfg.data["clearance"],
                                        cfg.data["min_volume"])
        assert not ok and reason in ("non_intersection", "clearance")

    def test_out_of_domain_rejected(self, cfg):
        placed = place_sphere(60.0, (150.0, 30.0, 490.0), cfg)
        ok, reason = validate_candidate(placed, [], cfg.bounding_box,
                                        cfg.roi_x, cfg.data["clearance"],
                                        cfg.data["min_volume"])
        assert not ok and reason == "in_bounds"


class TestBuildScene:
    def make_state(self, cfg, seed=0):
        state = GeneratorState(mode="sobol", seed=seed)
        freeze_dimension(state, draw_dimension(cfg.data))
        return state

    def test_first_feasible_scene_zero_retries(self, small_cfg):
        state = self.make_state(small_cfg)
        scene = build_scene(small_cfg, state)
        assert scene.provenance["retries"] >= 0
        assert state.samples_generated == 1

    def test_impossible_min_volume_infeasible(self, small_cfg):
        cfg = resolve_config(base_dict={"min_volume": 1e9,
                                        "max_scene_restarts": 5,
                                        "number_of_retries_object_creation": 3})
        state = self.make_state(cfg)
        with pytest.raises(GeometryError, match="infeasible configuration"):
            build_scene(cfg, state)

    def test_emitted_scenes_revalidate(self, small_cfg):
        cfg = resolve_config(base_dict={**small_cfg.data,
                                        "number_of_objects": 2})
        state = self.make_state(cfg, seed=5)
        for _ in range(5):
            scene = build_scene(cfg, state)
            rebuilt = []
            for placed in scene.objects:
                ok, reason = validate_candidate(
                    placed, rebuilt, cfg.bounding_box, cfg.roi_x,
                    cfg.data["clearance"], cfg.data["min_volume"])
                assert ok, reason
                rebuilt.append(_context_entry(placed))


class TestExport:
    def test_unit_cube_stl_size(self):
        solid = tessellate("cuboid",
                           {"height": 1, "width": 1, "thickness": 1}, 16)
        raw = stl_bytes(solid.mesh)
        assert len(raw) == 84 + 50 * 12 == 684

    def test_filenames(self, small_cfg, tmp_path):
        state = GeneratorState(mode="sobol", seed=3)
        freeze_dimension(state, draw_dimension(small_cfg.data))
        scene = build_scene(small_cfg, state)
        digest = config_hash(small_cfg)
        stl, yml = export_scene(scene, tmp_path, "object", 7, False,
                                small_cfg, digest)
        assert stl.name == "object_7.stl" and yml.name == "object_7.yaml"
        stl2, _ = export_scene(scene, tmp_path, "object", 8, True,
                               small_cfg, digest)
        family = scene.objects[-1].family
        assert stl2.name == f"object_{family}_8.stl"

    def test_byte_identical_exports(self, small_cfg, tmp_path):
        digest = config_hash(small_cfg)
        blobs = []
        for run in range(2):
            state = GeneratorState(mode="sobol", seed=9)
            freeze_dimension(state, draw_dimension(small_cfg.data))
            scene = build_scene(small_cfg, state)
            out = tmp_path / f"run{run}"
            out.mkdir()
            stl, yml = export_scene(scene, out, "object", 0, False,
                                    small_cfg, digest)
            blobs.append((stl.read_bytes(), yml.read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.fixture
    def sidecar(self, small_cfg, tmp_path):
        state = GeneratorState(mode="sobol", seed=4)
        freeze_dimension(state, draw_dimension(small_cfg.data))
        scene = build_scene(small_cfg, state)
        return export_scene(scene, tmp_path, "object", 0, False, small_cfg,
                            config_hash(small_cfg))[1]

    def test_sidecar_schema_and_coercion(self, sidecar):
        doc = yaml.safe_load(sidecar.read_text())
        sim = doc["simulation_parameters"]
        for key in ("LU", "Re", "dx", "inlet_velocity_x", "inlet_velocity_y",
                    "inlet_velocity_z", "job_identifier_", "periodicity_x",
                    "periodicity_y", "periodicity_z", "refinement_parameter",
                    "vector_magnitude"):
            assert key in sim
        geom = doc["geometries"][0]
        for key in ("type", "pos_x", "pos_y", "pos_z", "dir_vec_x",
                    "dir_vec_y", "dir_vec_z"):
            assert key in geom
        # the reader reads back every parameter it knows, as written
        record = read_scene_sidecar(sidecar)
        assert record.sim == {key: sim[key] for key in _SIM_TYPES}
        assert record.objects == [
            (geom["type"], (geom["pos_x"], geom["pos_y"], geom["pos_z"]))]
        # and accepts quoted numbers in a full sidecar
        sim.update(Re="2813.17", periodicity_y="1")
        sidecar.write_text(yaml.safe_dump(doc))
        assert "Re: '2813.17'" in sidecar.read_text()
        coerced = read_scene_sidecar(sidecar).sim
        assert coerced["Re"] == 2813.17
        assert coerced["periodicity_y"] == 1
        assert type(coerced["periodicity_y"]) is int

    @pytest.mark.parametrize("key, value", [
        ("Re", True), ("dx", False), ("LU", math.nan), ("Re", math.inf),
        ("tau", -math.inf), ("Re", "nan"), ("inlet_velocity_x", "1e999"),
        ("dx", 16.7), ("dx", "16.5"), ("mach_ok_global", 0),
        ("job_identifier_", 7),
    ])
    def test_reader_rejects_bool_non_finite_and_fractional(self, sidecar,
                                                           key, value):
        doc = yaml.safe_load(sidecar.read_text())
        doc["simulation_parameters"][key] = value
        sidecar.write_text(yaml.safe_dump(doc))
        kind = _SIM_TYPES[key].__name__
        with pytest.raises(ArtifactIOError) as info:
            read_scene_sidecar(sidecar)
        assert str(info.value) == (
            f"scene sidecar {sidecar}: simulation_parameters.{key}: "
            f"expected {kind}, got {value!r}")

    def test_roundtrip_stl_concatenated(self, small_cfg, tmp_path):
        cfg = resolve_config(base_dict={**small_cfg.data,
                                        "number_of_objects": 2})
        state = GeneratorState(mode="sobol", seed=21)
        freeze_dimension(state, draw_dimension(cfg.data))
        scene = build_scene(cfg, state)
        stl, _ = export_scene(scene, tmp_path, "object", 0, False, cfg,
                              config_hash(cfg))
        mesh = read_stl(stl)
        want = sum(len(p.mesh.triangles) for p in scene.objects)
        assert len(mesh.triangles) == want
        mesh.check_watertight()  # disjoint union stays watertight
