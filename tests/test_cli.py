import json
import shutil

import numpy as np
import pytest
import yaml

import flowforge.cli
from flowforge.cli import main
from flowforge.fields import export_npy, load_npy

SMALL_OVERRIDES = [
    "repeat=2", "seed=77", "sampling_mode=sobol",
    "shapes.sphere.radius=[20,40]",
    "shapes.cuboid.height=[30,70]", "shapes.cuboid.width=[30,70]",
    "shapes.cuboid.thickness=[30,70]",
    "shape_mix.cylinder=0", "shape_mix.cone=0", "shape_mix.torus=0",
    "shape_mix.wedge=0",
]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the CLI assertions."""
    root = tmp_path_factory.mktemp("cli")
    scenes, sdf, cases, tensors, report = (root / n for n in
                                           ("scenes", "sdf", "cases",
                                            "tensors", "report"))
    assert run(["generate", *SMALL_OVERRIDES, "--out", scenes]) == 0
    assert run(["sdf", *SMALL_OVERRIDES, "--in", scenes, "--out", sdf]) == 0
    assert run(["orchestrate", *SMALL_OVERRIDES, "--scenes", scenes,
                "--sdf", sdf, "--out", cases, "--backend", "local"]) == 0
    assert run(["resample", *SMALL_OVERRIDES, "--cases", cases,
                "--out", tensors]) == 0
    assert run(["report", *SMALL_OVERRIDES, "--scenes", scenes,
                "--out", report]) == 0
    return {"root": root, "scenes": scenes, "sdf": sdf, "cases": cases,
            "tensors": tensors, "report": report}


class TestGenerate:
    def test_contract_artifacts(self, pipeline):
        scenes = pipeline["scenes"]
        assert sorted(p.name for p in scenes.glob("*.stl")) == [
            "object_0.stl", "object_1.stl"]
        assert (scenes / "provenance.json").exists()
        assert (scenes / "config_frozen.yaml").exists()
        assert (scenes / "generator_state.txt").exists()
        doc = json.loads((scenes / "provenance.json").read_text())
        assert doc["samples_generated"] == 2

    def test_resume_tops_up_to_repeat(self, pipeline, tmp_path):
        out = tmp_path / "scenes"
        overrides = [o for o in SMALL_OVERRIDES if not o.startswith("repeat")]
        assert run(["generate", "repeat=1", *overrides, "--out", out]) == 0
        assert run(["generate", "repeat=3", *overrides, "--out", out]) == 0
        assert len(list(out.glob("*.stl"))) == 3
        doc = json.loads((out / "provenance.json").read_text())
        assert doc["samples_generated"] == 3


class TestSdf:
    def test_invalid_dx_exits_1(self, tmp_path):
        assert run(["sdf", "--in", tmp_path, "--out", tmp_path / "o",
                    "--dx", 5]) == 1

    def test_fields_and_sidecars(self, pipeline):
        sdf = pipeline["sdf"]
        names = sorted(p.name for p in sdf.glob("object_*.npy"))
        assert names == ["object_0.npy", "object_1.npy"]
        meta = yaml.safe_load((sdf / "object_0.yaml").read_text())
        assert meta["sign_convention"] == "negative_inside"
        assert meta["dims"] == [128, 32, 32]
        assert "source_mesh_sha256" in meta

    def test_missing_input_dir_exits_2(self, tmp_path):
        assert run(["sdf", "--in", tmp_path / "nope",
                    "--out", tmp_path / "o"]) == 2


class TestOrchestrate:
    def test_dry_run_writes_plan_without_execution(self, pipeline, tmp_path):
        out = tmp_path / "dry_cases"
        assert run(["orchestrate", *SMALL_OVERRIDES,
                    "--scenes", pipeline["scenes"], "--sdf", pipeline["sdf"],
                    "--out", out, "--backend", "dry_run"]) == 0
        plan = (out / "submission_plan.txt").read_text().strip().splitlines()
        assert len(plan) == 2
        for case_dir in out.iterdir():
            if case_dir.is_dir():
                assert not (case_dir / "velocity.npy").exists()

    def test_local_completes_cases(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        assert len(index) == 2
        assert all(e["status"] == "completed" for e in index.values())


class TestResampleStage:
    def test_tensor_outputs(self, pipeline):
        tensors = pipeline["tensors"]
        vel = load_npy(tensors / "object_0_velocity.npy")
        assert vel.shape == (3, 128, 32, 32)
        assert vel.dtype == np.float32
        mask = np.load(tensors / "object_0_mask.npy")
        assert mask.dtype == np.uint8
        meta = yaml.safe_load((tensors / "object_0_resample.yaml").read_text())
        assert meta["kernel"] == "linear"
        assert meta["num_neighbours"] == 4  # schedule for 128x32x32


class TestResampleVariants:
    def test_split_components_flag(self, pipeline, tmp_path):
        out = tmp_path / "tensors_split"
        assert run(["resample", *SMALL_OVERRIDES,
                    "resample_policy.split_components=true",
                    "--cases", pipeline["cases"], "--out", out]) == 0
        for axis in "xyz":
            part = load_npy(out / f"object_0_velocity_{axis}.npy")
            assert part.shape == (128, 32, 32)

    def test_ini_settings_override(self, pipeline, tmp_path):
        ini = tmp_path / "settings.ini"
        ini.write_text("""
[interpolation]
kernel = Linear_Kernel

[Linear_Kernel]
kernel_footprint = N Closest
num_neighbours = 4

[gridsize]
num_cells_x = 63
num_cells_y = 15
num_cells_z = 15
origin_x = 0
origin_y = 0
origin_z = 0
scale_x = 2048
scale_y = 512
scale_z = 512

[output]
num_fields = 3
field_1 = velocity_x
field_2 = velocity_y
field_3 = velocity_z
output_npy = 1
""")
        out = tmp_path / "tensors_ini"
        assert run(["resample", *SMALL_OVERRIDES, "--ini", ini,
                    "--cases", pipeline["cases"], "--out", out]) == 0
        vel = load_npy(out / "object_0_velocity.npy")
        assert vel.shape == (3, 64, 16, 16)

    def test_prefilter_flag_runs(self, pipeline, tmp_path):
        out = tmp_path / "tensors_pref"
        assert run(["resample", *SMALL_OVERRIDES,
                    "resample_policy.prefilter=true",
                    "--cases", pipeline["cases"], "--out", out]) == 0
        assert (out / "object_0_velocity.npy").exists()


class TestResampleOperatorReuse:
    """One interpolation operator per source grid, shared by every field."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = flowforge.cli.build_operator

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flowforge.cli, "build_operator", counting)
        return calls

    @pytest.mark.parametrize("extra", [[], ["resample_policy.prefilter=true"]])
    def test_shared_grid_builds_once(self, pipeline, tmp_path, builds, extra):
        out = tmp_path / "tensors"
        assert run(["resample", *SMALL_OVERRIDES, *extra,
                    "--cases", pipeline["cases"], "--out", out]) == 0
        assert len(list(out.glob("*_resample.yaml"))) == 2
        assert len(list(out.glob("*_sdf.npy"))) == 2
        assert len(builds) == 1

    def test_second_grid_gets_its_own_operator(self, pipeline, tmp_path,
                                               builds):
        cases = tmp_path / "cases"
        shutil.copytree(pipeline["cases"], cases)
        index = yaml.safe_load((cases / "index.yaml").read_text())
        victim = sorted(index, key=lambda c: index[c]["stem"])[0]
        # give one case's SDF a coarser grid than its velocity field
        meta_path = cases / victim / "sdf.yaml"
        meta = yaml.safe_load(meta_path.read_text())
        coarse = load_npy(cases / victim / "sdf.npy")[::2, ::2, ::2]
        meta["dims"] = list(coarse.shape)
        meta["spacing"] = [2 * h for h in meta["spacing"]]
        meta_path.write_text(yaml.safe_dump(meta, sort_keys=True))
        export_npy(coarse, cases / victim / "sdf.npy")

        both = tmp_path / "both"
        assert run(["resample", *SMALL_OVERRIDES, "--cases", cases,
                    "--out", both]) == 0
        assert len(builds) == 2

        alone_cases = tmp_path / "alone_cases"
        shutil.copytree(cases, alone_cases)
        (alone_cases / "index.yaml").write_text(
            yaml.safe_dump({victim: index[victim]}, sort_keys=True))
        alone = tmp_path / "alone"
        assert run(["resample", *SMALL_OVERRIDES, "--cases", alone_cases,
                    "--out", alone]) == 0

        stem = index[victim]["stem"]
        for name in ("velocity.npy", "sdf.npy", "mask.npy", "resample.yaml"):
            assert ((both / f"{stem}_{name}").read_bytes()
                    == (alone / f"{stem}_{name}").read_bytes())
        # the untouched case matches the shared-grid run byte for byte
        for path in both.glob("*"):
            if path.name != "provenance.json" and not path.name.startswith(
                    f"{stem}_"):
                assert path.read_bytes() == (
                    pipeline["tensors"] / path.name).read_bytes()


class TestSdfCompletedFilter:
    def test_only_completed_cases_voxelized(self, pipeline, tmp_path):
        cases = pipeline["cases"]
        index_path = cases / "index.yaml"
        entries = yaml.safe_load(index_path.read_text())
        # mark one case as failed so its scene is filtered out
        victim = sorted(entries)[0]
        entries[victim]["status"] = "failed"
        index_path.write_text(yaml.safe_dump(entries, sort_keys=True))
        try:
            out = tmp_path / "sdf_filtered"
            assert run(["sdf", *SMALL_OVERRIDES, "--in", pipeline["scenes"],
                        "--out", out, "--require-completed", cases]) == 0
            kept = sorted(p.stem for p in out.glob("object_*.npy"))
            skipped_stem = entries[victim]["stem"]
            assert skipped_stem not in kept and len(kept) == 1
        finally:
            entries[victim]["status"] = "completed"
            index_path.write_text(yaml.safe_dump(entries, sort_keys=True))


class TestReportAndGate:
    def test_report_tables(self, pipeline):
        names = sorted(p.name for p in pipeline["report"].glob("*.csv"))
        assert names == ["inlet_hist.csv", "placement_hist.csv",
                         "re_by_family.csv", "re_hist.csv", "shape_freq.csv"]

    def test_gate_passes_on_synthetic_case(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        case_id = sorted(index)[0]
        assert run(["gate", "--case", pipeline["cases"] / case_id]) == 0
        report = yaml.safe_load(
            (pipeline["cases"] / case_id / "gate_report.yaml").read_text())
        assert report["passed"] is True and report["eps_u"] == 0.0

    def test_gate_fails_on_imbalance(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        case_id = sorted(index)[1]
        case_dir = pipeline["cases"] / case_id
        u = load_npy(case_dir / "velocity_avg.npy").astype(np.float64)
        u[0, -1] *= 0.5  # starve the outlet
        from flowforge.fields import export_npy
        export_npy(u, case_dir / "velocity_avg.npy")
        assert run(["gate", "--case", case_dir]) == 1


class TestValidate:
    def test_config_ok(self):
        assert run(["validate", "seed=3"]) == 0

    def test_invalid_config_exits_1(self):
        assert run(["validate", "sdf_policy.dx=5"]) == 1

    def test_scene_revalidation(self, pipeline):
        assert run(["validate", *SMALL_OVERRIDES,
                    "--scenes", pipeline["scenes"]]) == 0
