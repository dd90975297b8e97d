import json
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flowforge import __version__
from flowforge.config import (canonical_bytes, config_hash, resolve_config,
                              write_provenance)
from flowforge.errors import ArtifactIOError, ConfigError


class TestResolve:
    def test_defaults_resolve(self):
        cfg = resolve_config()
        assert cfg.bounding_box.extents == (2048.0, 512.0, 512.0)
        assert cfg.roi_x == (146.0, 1800.0)
        assert cfg.data["clearance"] == 32.0  # 2 * default dx

    def test_dx_override_implies_preset(self):
        cfg = resolve_config(override_list=["sdf_policy.dx=8"])
        from flowforge.fields import GridSpec
        grid = GridSpec.preset(cfg.sdf_policy["dx"])
        assert grid.dims == (256, 64, 64)

    def test_simple_override(self):
        cfg = resolve_config(override_list=["number_of_objects=2"])
        assert cfg.data["number_of_objects"] == 2

    def test_list_override_bracket_literal(self):
        cfg = resolve_config(
            override_list=["sim_param_policy.re_band=[500,5000]"])
        assert cfg.sim_param_policy["re_band"] == [500, 5000]

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError, match="no positive weight"):
            resolve_config(base_dict={"shape_mix": {
                fam: 0.0 for fam in ("cuboid", "cylinder", "sphere",
                                     "cone", "torus", "wedge")}})

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("number_of_obejcts: 3\n")
        with pytest.raises(ConfigError, match="number_of_obejcts"):
            resolve_config(path)

    def test_unknown_override_key_named(self):
        with pytest.raises(ConfigError, match="sdf_policy.dxx"):
            resolve_config(override_list=["sdf_policy.dxx=8"])

    def test_wedge_x_min_rejected(self):
        # no geometry reads it, so it must not reach the hashed config
        with pytest.raises(ConfigError, match="shapes.wedge.x_min"):
            resolve_config(override_list=["shapes.wedge.x_min=[1,2]"])

    def test_wedge_alias_in_file_equals_override(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("shapes:\n  wedge:\n    x_max: [20, 21]\n")
        from_file = resolve_config(path)
        from_override = resolve_config(
            override_list=["shapes.wedge.x_max=[20,21]"])
        canonical = resolve_config(
            override_list=["shapes.wedge.length=[20,21]"])
        wedge = from_file.data["shapes"]["wedge"]
        assert wedge["length"] == [20, 21] and "x_max" not in wedge
        assert wedge == from_override.data["shapes"]["wedge"]
        assert (config_hash(from_file) == config_hash(from_override)
                == config_hash(canonical))

    def test_wedge_alias_precedence(self, tmp_path):
        # within one file a set alias wins and a null alias is ignored
        path = tmp_path / "c.yaml"
        path.write_text("shapes:\n  wedge:\n    length: [20, 21]\n"
                        "    x_max: [30, 31]\n    width: [40, 41]\n"
                        "    depth: null\n")
        wedge = resolve_config(path).data["shapes"]["wedge"]
        assert wedge["length"] == [30, 31] and wedge["width"] == [40, 41]
        assert "x_max" not in wedge and "depth" not in wedge
        # among overrides the last one wins; a null alias changes nothing
        wedge = resolve_config(override_list=[
            "shapes.wedge.depth=[50,51]", "shapes.wedge.width=[60,61]",
            "shapes.wedge.x_max=null"]).data["shapes"]["wedge"]
        assert wedge["width"] == [60, 61]
        assert wedge["length"] == resolve_config().data["shapes"]["wedge"][
            "length"]

    @pytest.mark.parametrize("override, message", [
        ("shapes.wedge.length=null", "shapes.wedge.length: expected a nonempty"),
        ("shapes.sphere.radius=null", "shapes.sphere.radius: expected a nonempty"),
        ("shapes.cone.min_radius_sum=null", "min_radius_sum: must be a number"),
        ("shapes.cuboid.decimals=null", "decimals: must be an integer"),
    ])
    def test_null_shape_range_rejected(self, override, message):
        with pytest.raises(ConfigError, match=message):
            resolve_config(override_list=[override])

    def test_null_sphere_sector_angles_allowed(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("shapes:\n  sphere:\n    alpha: [-30, 0]\n"
                        "    beta: null\n")
        cfg = resolve_config(path, override_list=["shapes.sphere.alpha=null",
                                                  "shapes.sphere.gamma=null"])
        sphere = cfg.data["shapes"]["sphere"]
        assert sphere["alpha"] is sphere["beta"] is sphere["gamma"] is None

    def test_family_override_merges_like_a_file_block(self, tmp_path):
        # the alias renamed, the family's other defaults kept
        whole = resolve_config(override_list=["shapes.wedge={x_max: [20, 21]}"])
        canonical = resolve_config(override_list=["shapes.wedge.length=[20,21]"])
        assert whole.data["shapes"] == canonical.data["shapes"]
        assert config_hash(whole) == config_hash(canonical)
        path = tmp_path / "c.yaml"
        path.write_text("shapes:\n  wedge:\n    x_max: [20, 21]\n")
        assert config_hash(resolve_config(path)) == config_hash(whole)
        # the whole shapes node merges per family too
        nested = resolve_config(
            override_list=["shapes={wedge: {x_max: [20, 21]}}"])
        assert config_hash(nested) == config_hash(whole)

    @pytest.mark.parametrize("override, message", [
        ("shapes.wedge={foo_range: [1, 2]}",
         "shapes.wedge.foo_range: unknown parameter key"),
        ("shapes={wedge: {foo_range: [1, 2]}}",
         "shapes.wedge.foo_range: unknown parameter key"),
        ("shapes.wedge={length_min: 1}", "shapes.wedge.length: need both"),
        ("shapes.helix={radius: [1, 2]}", "shapes.helix: unknown shape family"),
        ("shapes.wedge=null", "shapes.wedge: expected a mapping"),
        ("shapes=[1, 2]", "shapes: expected a mapping"),
    ])
    def test_family_override_keys_checked(self, override, message):
        with pytest.raises(ConfigError, match=message):
            resolve_config(override_list=[override])

    @pytest.mark.parametrize("override, block, named", [
        ("sdf_policy={dx: 8}", "sdf_policy: {dx: 8}", None),
        ("bounding_box={y_max: 256}", "bounding_box: {y_max: 256}", None),
        ("sim_param_policy.periodic_axes={y: false}",
         "sim_param_policy: {periodic_axes: {y: false}}", None),
        ("pose=3", "pose: 3", "pose"),
        ("clearance={x: 1}", "clearance: {x: 1}", "clearance"),
        ("sdf_policy={dx: 16, band_w: 8, foo: 1}",
         "sdf_policy: {dx: 16, band_w: 8, foo: 1}", "sdf_policy.foo"),
        ("shapes.wedge.x_max=[20,21]", "shapes: {wedge: {x_max: [20, 21]}}",
         None),
        ("shapes.cone.radius_min=[1,2]", "shapes: {cone: {radius_min: [1, 2]}}",
         "shapes.cone.radius_min"),
        ("simulation_parameters.re_band=[500,5000]",
         "simulation_parameters: {re_band: [500, 5000]}", None),
        ("use_sobol=true", "use_sobol: true", None),
    ])
    def test_override_merges_like_a_file_block(self, tmp_path, override, block,
                                               named):
        # `a.b=v` means the file block `a: {b: v}`: the same config, or the
        # same error naming the same key
        path = tmp_path / "c.yaml"
        path.write_text(block + "\n")
        if named is None:
            from_file = config_hash(resolve_config(path))
            assert from_file == config_hash(
                resolve_config(override_list=[override]))
            assert from_file != config_hash(resolve_config())
            return
        for source in ({"base_file": path}, {"override_list": [override]}):
            with pytest.raises(ConfigError, match=re.escape(named)):
                resolve_config(**source)

    def test_dotted_weight_keeps_the_other_weights(self):
        default = resolve_config().data["shape_mix"]
        one = resolve_config(override_list=["shape_mix.cone=2"])
        assert one.data["shape_mix"] == {**default, "cone": 2}
        whole = resolve_config(override_list=["shape_mix={cone: 2}"])
        assert whole.data["shape_mix"] == {"cone": 2}

    @pytest.mark.parametrize("override, message", [
        ("solver_policy.cs=abc", "solver_policy.cs: must be a number"),
        ("min_volume=abc", "min_volume: must be a number"),
        ("sim_param_policy.magnitude_min=abc",
         "sim_param_policy.magnitude_min: must be a number"),
        ("bounding_box.x_max=abc", "bounding_box.x_max: must be a number"),
        ("clearance=abc", "clearance: must be a nonnegative number"),
        ("sdf_policy.aniso=[a,b]", "sdf_policy.aniso: expected two positive"),
        ("sdf_policy.dx=true", "sdf_policy.dx: must be a positive integer"),
        ("pose.position_decimals=abc",
         "pose.position_decimals: must be an integer"),
        ("seed=true", "seed: must be an integer"),
        ("orchestration_policy.lanes=true",
         "orchestration_policy.lanes: must be a positive integer"),
        ("orchestration_policy.timesteps=abc",
         "orchestration_policy.timesteps: must be a positive integer"),
        ("orchestration_policy.modules=abc",
         "orchestration_policy.modules: expected a list of strings"),
        ("orchestration_policy.env_setup=[1]",
         "orchestration_policy.env_setup: expected a list of strings"),
        ("resample_policy.radius=abc", "resample_policy.radius: must be a number"),
        ("resample_policy.num_neighbours=true", "num_neighbours"),
        ("shape_mix.cone=true", "shape_mix.cone: weight must be a number"),
        # a number must be finite: these reached the digest or the grid
        ("resample_policy.sharpness=.nan",
         "resample_policy.sharpness: must be a number"),
        ("min_volume=.inf", "min_volume: must be a number"),
        ("bounding_box.x_max=.inf", "bounding_box.x_max: must be a number"),
        ("solver_policy.cs=-.inf", "solver_policy.cs: must be a number"),
        ("sim_param_policy.re_band=[.nan,5000]",
         "sim_param_policy.re_band: expected a positive [min, max] interval"),
        ("resample_policy.radius=.inf",
         "resample_policy.radius: must be a number"),
    ])
    def test_value_types_checked(self, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            resolve_config(override_list=[override])

    def test_integer_past_float_range_rejected(self):
        # it passed as a number and overflowed in GridSpec.preset
        with pytest.raises(ConfigError,
                           match="bounding_box.x_max: must be a number"):
            resolve_config(override_list=[f"bounding_box.x_max={10 ** 309}"])

    def test_resample_policy_checked_once(self):
        # the footprint the resample stage would reject fails at resolve time
        with pytest.raises(ConfigError, match="resample_policy: radius footprint"):
            resolve_config(override_list=["resample_policy.footprint=radius"])
        cfg = resolve_config(override_list=["resample_policy.footprint=radius",
                                            "resample_policy.radius=40"])
        assert cfg.resample_policy["radius"] == 40

    @pytest.mark.parametrize("override, message", [
        ("resample_policy.kernel=cubic", "unknown kernel"),
        ("resample_policy.footprint=ball", "unknown footprint"),
        ("resample_policy.num_neighbours=0", "num_neighbours"),
        ("resample_policy.num_neighbours=2.5", "num_neighbours"),
        ("resample_policy.radius=-1", "radius"),
        ("resample_policy.sharpness=0", "sharpness"),
        ("resample_policy.power=-2", "power"),
        ("resample_policy.eccentricity=[1,1]", "eccentricity"),
        ("resample_policy.eccentricity=[1,0,1]", "eccentricity"),
        ("resample_policy.cells=[127,31]", "cells"),
    ])
    def test_resample_policy_values_rejected(self, override, message):
        with pytest.raises(ConfigError, match=f"resample_policy.*{message}"):
            resolve_config(override_list=[override])

    def test_parse_failure_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("repeat: 3\n  bad_indent: { [\n")
        with pytest.raises(ConfigError, match=r"broken\.yaml:\d+"):
            resolve_config(path)

    def test_simulation_parameters_parse_failure_reports_line(self, tmp_path):
        sim = tmp_path / "sim.yaml"
        sim.write_text("nu: [\n")
        path = tmp_path / "config.yaml"
        path.write_text(f"simulation_parameters: {sim}\n")
        with pytest.raises(ConfigError, match=r"sim\.yaml:\d+"):
            resolve_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config(tmp_path / "nope.yaml")

    def test_dx_must_divide_extents(self):
        with pytest.raises(ConfigError, match="does not divide"):
            resolve_config(override_list=["sdf_policy.dx=5"])

    def test_roi_must_stay_in_domain(self):
        with pytest.raises(ConfigError, match="roi_x"):
            resolve_config(base_dict={"roi_x": [100, 3000]})

    def test_interpolation_reference(self):
        cfg = resolve_config(base_dict={"repeat": 7})
        assert cfg.initial_test_repeat == 7

    def test_streamwise_periodicity_rejected(self):
        with pytest.raises(ConfigError, match="periodic_axes.x"):
            resolve_config(
                override_list=["sim_param_policy.periodic_axes.x=true"])


class TestClassicLayout:
    def test_full_classic_file(self, tmp_path):
        sim = tmp_path / "simulation_parameters.yaml"
        sim.write_text("""
re_band: [100, 15000]
inlet_velocity:
  magnitude_min: 0.001488
  magnitude_max: 0.1488
  min_x_component_generator: 0.10
  min_x_component_after_scaling: 0.001
periodic_directions: { x: false, y: false, z: true }
refinement_probability: 0.20
precision_decimals: 5
""")
        main = tmp_path / "config.yaml"
        main.write_text(f"""
bounding_box:
  x_min: 0
  x_max: 2048
  y_min: 0
  y_max: 512
  z_min: 0
  z_max: 512
number_of_objects: 1
repeat: 100
geometries:
  - name: cuboid
    _target_: src.geometries.cuboid.make_cuboid
  - name: cylinder
    _target_: src.geometries.cylinder.make_cylinder
  - name: torus
    _target_: src.geometries.torus.make_torus
shape_mix:
  cuboid: 1.0
  cylinder: 1.0
  torus: 0.5
simulation_parameters: {sim}
use_sobol: false
initial_test_repeat: ${{repeat}}
number_of_retries_object_creation: 100
""")
        cfg = resolve_config(main)
        assert cfg.sampling_mode == "uniform"
        assert cfg.data["shape_mix"]["torus"] == 0.5
        assert cfg.data["shape_mix"]["wedge"] == 0.0  # not in the factory list
        assert cfg.sim_param_policy["periodic_axes"] == {
            "x": False, "y": False, "z": True}
        assert cfg.sim_param_policy["magnitude_min"] == 0.001488
        assert cfg.initial_test_repeat == 100

    def test_classic_shape_ranges(self):
        cfg = resolve_config(base_dict={"shapes": {"cone": {
            "radius_min": 5.0, "radius_max": 200.0,
            "height_min": 5.0, "height_max": 200.0,
            "angle_min_deg": 45, "angle_max_deg": 360,
            "min_radius_sum": 10.0}}})
        cone = cfg.data["shapes"]["cone"]
        assert cone["radius_1"] == [5.0, 200.0]
        assert cone["radius_2"] == [5.0, 200.0]
        assert cone["angle"] == [45, 360]
        assert cone["min_radius_sum"] == 10.0

    def test_classic_launch_overrides(self):
        cfg = resolve_config(override_list=[
            "number_of_objects=2",
            "simulation_parameters.re_band=[500,5000]",
            "use_sobol=true"])
        assert cfg.data["number_of_objects"] == 2
        assert cfg.sim_param_policy["re_band"] == [500, 5000]
        assert cfg.sampling_mode == "sobol"

    def test_unknown_factory_rejected(self):
        with pytest.raises(ConfigError, match="helix"):
            resolve_config(base_dict={"geometries": [{"name": "helix"}]})


class TestHash:
    def test_key_order_invariance(self, tmp_path):
        a = tmp_path / "a.yaml"
        b = tmp_path / "b.yaml"
        a.write_text("repeat: 5\nseed: 9\n# a comment\n")
        b.write_text("seed: 9\nrepeat: 5\n")
        assert config_hash(resolve_config(a)) == config_hash(resolve_config(b))

    def test_value_change_changes_hash(self):
        a = resolve_config(base_dict={"seed": 1})
        b = resolve_config(base_dict={"seed": 2})
        assert config_hash(a) != config_hash(b)

    def test_hash_stable_across_calls(self):
        cfg = resolve_config(base_dict={"seed": 77})
        assert config_hash(cfg) == config_hash(cfg)
        assert len(config_hash(cfg)) == 64

    def test_semantically_equal_defaults(self):
        # writing out a default explicitly must not change the digest
        assert (config_hash(resolve_config())
                == config_hash(resolve_config(base_dict={"repeat": 100})))

    @pytest.mark.parametrize("overrides, digest", [
        ([], "be01e908f749a05218f2523ad1a0854bee8d7dfee79826f404a5a5a13647aa68"),
        (["sdf_policy.dx=4", "seed=11"],
         "cccaf380831a1cb1e2a77f03f63b1a58e147074368ad8bfbfe5ff9d2fc431958"),
        (["repeat=40", "seed=11", "sampling_mode=sobol", "sdf_policy.dx=64"],
         "e7da34fe16f11488de8a631302ae6003b7ff0e778f171a79881bdd9724969476"),
    ])
    def test_pinned_digests(self, overrides, digest):
        # the defaults and the perfbench sdf_dx4 and campaign_dx64 configs: a
        # change of merge order or canonical form must show here
        assert config_hash(resolve_config(override_list=overrides)) == digest

    @given(st.dictionaries(
        st.sampled_from(list("abcdefgh")),
        st.one_of(st.integers(-10, 10), st.floats(-1e3, 1e3,
                                                  allow_nan=False),
                  st.text("xyz", max_size=4)),
        min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_canonical_bytes_order_invariant(self, data):
        shuffled = dict(reversed(list(data.items())))
        assert canonical_bytes(data) == canonical_bytes(shuffled)
        mutated = dict(data)
        key = next(iter(mutated))
        mutated[key] = "something else entirely"
        assert canonical_bytes(data) != canonical_bytes(mutated)


class TestOverrideProperties:
    def test_disjoint_overrides_associative(self):
        both = resolve_config(override_list=["seed=5", "repeat=9"])
        nested = resolve_config(override_list=["repeat=9", "seed=5"])
        assert config_hash(both) == config_hash(nested)

    def test_later_override_wins(self):
        cfg = resolve_config(override_list=["seed=5", "seed=6"])
        assert cfg.seed == 6


class TestFrozenSnapshot:
    def test_snapshot_round_trip(self, tmp_path):
        cfg = resolve_config(base_dict={"seed": 4, "repeat": 11,
                                        "sampling_mode": "sobol"})
        write_provenance(cfg, tmp_path, 0)
        again = resolve_config(tmp_path / "config_frozen.yaml")
        assert again.data == cfg.data
        assert config_hash(again) == config_hash(cfg)


class TestProvenance:
    def read(self, out_dir):
        return json.loads((out_dir / "provenance.json").read_text())

    def test_round_trip(self, tmp_path):
        cfg = resolve_config(base_dict={"seed": 1})
        write_provenance(cfg, tmp_path, 3, sobol_index=17)
        doc = self.read(tmp_path)
        assert doc.pop("timestamp").endswith("Z")
        assert doc == {"config_digest": config_hash(cfg), "seed": 1,
                       "samples_generated": 3, "tool_version": __version__,
                       "sobol_index": 17}
        assert (tmp_path / "config_frozen.yaml").exists()

    def test_no_sobol_index_unless_given(self, tmp_path):
        write_provenance(resolve_config(), tmp_path, 3)
        assert "sobol_index" not in self.read(tmp_path)

    def test_sorted_keys_utf8(self, tmp_path):
        write_provenance(resolve_config(), tmp_path, 3, sobol_index=17)
        text = (tmp_path / "provenance.json").read_text()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_counter_grows(self, tmp_path):
        write_provenance(resolve_config(), tmp_path, 3)
        write_provenance(resolve_config(), tmp_path, 5)
        assert self.read(tmp_path)["samples_generated"] == 5

    def test_records_the_last_run(self, tmp_path):
        # only generate compares its count with an earlier run's
        write_provenance(resolve_config(), tmp_path, 5)
        write_provenance(resolve_config(), tmp_path, 2)
        assert self.read(tmp_path)["samples_generated"] == 2

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactIOError, match="does not exist"):
            write_provenance(resolve_config(), tmp_path / "nope", 0)

    def test_failed_write(self, tmp_path):
        (tmp_path / "provenance.json").mkdir()
        with pytest.raises(ArtifactIOError, match="cannot write provenance"):
            write_provenance(resolve_config(), tmp_path, 0)
