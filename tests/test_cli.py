import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import flowforge.cli
from flowforge.cli import main
from flowforge.diagnostics import stationarity_gate
from flowforge.errors import FieldError
from flowforge.fields import (GridSpec, export_npy, load_npy,
                              write_field_sidecar)
from flowforge.orchestrate import read_index

SMALL_OVERRIDES = [
    "repeat=2", "seed=77", "sampling_mode=sobol",
    "shapes.sphere.radius=[20,40]",
    "shapes.cuboid.height=[30,70]", "shapes.cuboid.width=[30,70]",
    "shapes.cuboid.thickness=[30,70]",
    "shape_mix.cylinder=0", "shape_mix.cone=0", "shape_mix.torus=0",
    "shape_mix.wedge=0",
]


def run(argv):
    code = main([str(a) for a in argv])
    # no forge sdf worker process outlives the command
    assert multiprocessing.active_children() == []
    return code


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


DELETE = object()


def edited_scenes(pipeline, tmp_path, value, *keys):
    """A copy of the pipeline's scenes whose first sidecar has the value at
    ``keys`` set to ``value`` (deleted for DELETE); with no ``keys`` the
    sidecar is left unparseable.  Returns the scenes dir and that sidecar."""
    scenes = tmp_path / "scenes"
    shutil.copytree(pipeline["scenes"], scenes)
    sidecar = scenes / "object_0.yaml"
    if not keys:
        sidecar.write_text(sidecar.read_text() + "status: [\n")
        return scenes, sidecar
    doc = yaml.safe_load(sidecar.read_text())
    *parents, last = keys
    block = doc
    for key in parents:
        block = block[key]
    if value is DELETE:
        del block[last]
    else:
        block[last] = value
    sidecar.write_text(yaml.safe_dump(doc))
    return scenes, sidecar


@pytest.fixture(scope="module")
def three_scenes(tmp_path_factory):
    """Three generated scenes, so --jobs 3 starts three workers."""
    scenes = tmp_path_factory.mktemp("three") / "scenes"
    overrides = [o for o in SMALL_OVERRIDES if not o.startswith("repeat")]
    assert run(["generate", "repeat=3", *overrides, "--out", scenes]) == 0
    return scenes


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

    def test_shrinking_count_rejected(self, tmp_path, capsys):
        # without its state file a rerun would restart the count at 0
        out = tmp_path / "scenes"
        overrides = [o for o in SMALL_OVERRIDES if not o.startswith("repeat")]
        assert run(["generate", "repeat=3", *overrides, "--out", out]) == 0
        (out / "generator_state.txt").unlink()
        capsys.readouterr()
        assert run(["generate", "repeat=1", *overrides, "--out", out]) == 1
        assert "counter regression" in capsys.readouterr().err
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

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_must_be_positive(self, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exit_:
            run(["sdf", "--in", tmp_path, "--out", tmp_path / "o",
                 "--jobs", jobs])
        assert exit_.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jobs_default_to_usable_cpus(self, monkeypatch):
        # under a batch allocation the affinity mask, not the node, counts
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        argv = ["sdf", "--in", "scenes", "--out", "sdf"]
        assert flowforge.cli._build_parser().parse_args(argv).jobs == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert flowforge.cli._build_parser().parse_args(argv).jobs == 64

    def test_jobs_write_identical_trees(self, three_scenes, tmp_path):
        trees = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"sdf_{jobs}"
            assert run(["sdf", *SMALL_OVERRIDES, "--in", three_scenes,
                        "--out", out, "--jobs", jobs]) == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "provenance.json"})
        assert len(trees[0]) == 3 * 2 + 1    # .npy + .yaml, frozen config
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_worker_error_matches_inline(self, three_scenes, tmp_path,
                                         monkeypatch, capsys):
        read_stl = flowforge.cli.read_stl

        def read_or_fail(path):
            if path.stem == "object_1":
                raise FieldError(f"{path.name}: degenerate mesh")
            return read_stl(path)

        monkeypatch.setattr(flowforge.cli, "read_stl", read_or_fail)
        outcomes = []
        for jobs in (1, 2):
            code = run(["sdf", *SMALL_OVERRIDES, "--in", three_scenes,
                        "--out", tmp_path / f"sdf_{jobs}", "--jobs", jobs])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == (1, "forge sdf: object_1.stl: degenerate mesh\n")
        assert outcomes[1] == outcomes[0]

    def test_dead_worker_exits_2(self, three_scenes, tmp_path, monkeypatch,
                                 capsys):
        parent = os.getpid()

        def die(path):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("voxelized inline")

        monkeypatch.setattr(flowforge.cli, "read_stl", die)
        assert run(["sdf", *SMALL_OVERRIDES, "--in", three_scenes,
                    "--out", tmp_path / "sdf", "--jobs", 2]) == 2
        assert capsys.readouterr().err.startswith(
            "forge sdf: a worker process died")

    def test_without_fork_voxelizes_inline(self, three_scenes, tmp_path,
                                           monkeypatch):
        read_stl, pids = flowforge.cli.read_stl, []

        def read_here(path):
            pids.append(os.getpid())
            return read_stl(path)

        monkeypatch.setattr(flowforge.cli, "read_stl", read_here)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert run(["sdf", *SMALL_OVERRIDES, "--in", three_scenes,
                    "--out", tmp_path / "sdf", "--jobs", 2]) == 0
        assert pids == [os.getpid()] * 3


class TestOrchestrate:
    def test_dry_run_writes_plan_without_execution(self, pipeline, tmp_path):
        out = tmp_path / "dry_cases"
        assert run(["orchestrate", *SMALL_OVERRIDES,
                    "--scenes", pipeline["scenes"], "--sdf", pipeline["sdf"],
                    "--out", out, "--backend", "dry_run"]) == 0
        plan = (out / "submission_plan.txt").read_text().strip().splitlines()
        assert len(plan) == 2
        for line in plan:
            # each job runs in the case directory that holds its script
            chdir = line.split()[1]
            assert chdir.startswith("--chdir=")
            assert line.split()[-1] == str(
                Path(chdir[len("--chdir="):]) / "job_script.slurm")
        for case_dir in out.iterdir():
            if case_dir.is_dir():
                assert not (case_dir / "velocity.npy").exists()

    @pytest.mark.parametrize("lu, problem", [
        (None, "simulation_parameters.LU is missing"),
        ("abc", "simulation_parameters.LU: expected float, got 'abc'"),
    ])
    def test_malformed_sidecar_exits_2(self, pipeline, tmp_path, capsys, lu,
                                       problem):
        self.check_rejected(pipeline, tmp_path, capsys, "LU", lu, problem)

    @pytest.mark.parametrize("key", ["dx", "refinement_parameter",
                                     "periodicity_y"])
    def test_fractional_integer_parameter_exits_2(self, pipeline, tmp_path,
                                                  capsys, key):
        # int() would truncate it to a different case without a message
        self.check_rejected(pipeline, tmp_path, capsys, key, 16.7,
                            f"simulation_parameters.{key}: expected int, "
                            f"got 16.7")

    def test_integral_float_parameter_accepted(self, pipeline, tmp_path):
        assert self.orchestrate_edited(pipeline, tmp_path, "dx", 16.0)[0] == 0

    @classmethod
    def check_rejected(cls, pipeline, tmp_path, capsys, key, value, problem):
        """orchestrate exits 2 naming ``problem`` and makes no case."""
        code, sidecar, cases = cls.orchestrate_edited(pipeline, tmp_path, key,
                                                      value)
        assert code == 2
        assert (f"forge orchestrate: scene sidecar {sidecar}: {problem}"
                in capsys.readouterr().err)
        # no case directory is left behind
        assert not [p for p in cases.iterdir() if p.is_dir()]

    @staticmethod
    def orchestrate_edited(pipeline, tmp_path, key, value):
        """A dry run over the scenes with the first sidecar's ``key`` set to
        ``value`` (deleted when None): exit code, sidecar and cases dir."""
        scenes, sidecar = edited_scenes(
            pipeline, tmp_path, DELETE if value is None else value,
            "simulation_parameters", key)
        cases = tmp_path / "cases"
        code = run(["orchestrate", *SMALL_OVERRIDES, "--scenes", scenes,
                    "--sdf", pipeline["sdf"], "--out", cases,
                    "--backend", "dry_run"])
        return code, sidecar, cases

    def test_local_completes_cases(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        assert len(index) == 2
        assert all(e["status"] == "completed" for e in index.values())

    def test_forced_reruns_archive_each_run(self, pipeline, tmp_path):
        """Two forced reruns back to back both succeed, and each archives
        the velocity field that the run before it left."""
        cases = tmp_path / "cases"
        shutil.copytree(pipeline["cases"], cases)
        case_dirs = [p for p in cases.iterdir() if p.is_dir()]
        for marker in (1.0, 2.0):
            for case_dir in case_dirs:
                export_npy(np.full((3, 2), marker), case_dir / "velocity.npy")
            assert run(["orchestrate", *SMALL_OVERRIDES,
                        "--scenes", pipeline["scenes"], "--sdf", pipeline["sdf"],
                        "--out", cases, "--backend", "local", "--force"]) == 0
        for case_dir in case_dirs:
            assert sorted(p.name for p in case_dir.glob("previous_*")) == [
                "previous_1", "previous_2"]
            for n, marker in ((1, 1.0), (2, 2.0)):
                archived = load_npy(case_dir / f"previous_{n}" / "velocity.npy")
                assert np.array_equal(archived, np.full((3, 2), marker))

    def test_chunked_runs_into_one_out(self, tmp_path):
        # each chunk's provenance.json records that chunk's run
        scenes, sdf, cases = (tmp_path / n for n in ("scenes", "sdf", "cases"))
        overrides = ["repeat=4", *(o for o in SMALL_OVERRIDES
                                   if not o.startswith("repeat"))]
        assert run(["generate", *overrides, "--out", scenes]) == 0
        assert run(["sdf", *overrides, "--in", scenes, "--out", sdf,
                    "--jobs", 1]) == 0
        for start, end in ((0, 3), (3, 4)):
            assert run(["orchestrate", *overrides, "--scenes", scenes,
                        "--sdf", sdf, "--out", cases, "--backend", "local",
                        "--start", start, "--end", end]) == 0
        index = read_index(cases)
        assert len(index) == 4
        assert all(e["status"] == "completed" for e in index.values())
        doc = json.loads((cases / "provenance.json").read_text())
        assert doc["samples_generated"] == 1


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

    @pytest.mark.parametrize("name, shape", [
        ("velocity_avg.npy", (3, 64, 16, 16)), ("sdf.npy", (64, 16, 16))])
    def test_field_off_its_sidecar_grid_exits_2(self, pipeline, tmp_path,
                                                 capsys, name, shape):
        cases, out = tmp_path / "cases", tmp_path / "tensors"
        shutil.copytree(pipeline["cases"], cases)
        (case_id,) = [case_id for case_id, entry in read_index(cases).items()
                      if entry["stem"] == "object_0"]
        export_npy(np.zeros(shape, dtype=np.float32), cases / case_id / name)
        capsys.readouterr()
        assert run(["resample", *SMALL_OVERRIDES, "--cases", cases,
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("forge resample: ")
        assert str(cases / case_id / name) in err and str(shape) in err
        assert "[128, 32, 32]" in err
        # both fields are checked before the case writes anything
        assert not list(out.glob("object_0_*"))


# the classic INI resampler layout; [output] is ignored
SETTINGS_INI = """
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
"""
GAUSSIAN_INI = SETTINGS_INI.replace("Linear_Kernel", "Gaussian_Kernel").replace(
    "num_neighbours = 4", "num_neighbours = 8\nsharpness = 0.5")
RADIUS_INI = SETTINGS_INI.replace("Linear_Kernel", "Shepard_Kernel").replace(
    "kernel_footprint = N Closest\nnum_neighbours = 4",
    "kernel_footprint = Radius\nradius = 40\npower = 3")


def _ini_with(old, new):
    assert old in SETTINGS_INI
    return SETTINGS_INI.replace(old, new)


# malformed INI files: (text, the problem named after the file)
MALFORMED_INIS = {
    "kernel-missing": (_ini_with("kernel = Linear_Kernel\n", ""),
                       "[interpolation] kernel is missing"),
    "kernel-unknown": (_ini_with("= Linear_Kernel", "= Cubic_Kernel"),
                       "[interpolation] kernel: unknown kernel 'Cubic_Kernel'"),
    "no-section-header": ("kernel = Linear_Kernel\n",
                          "line 1: no section header before "
                          "'kernel = Linear_Kernel'"),
    "unparsable-line": (_ini_with("num_neighbours = 4", "num_neighbours 4"),
                        "line 7: cannot parse 'num_neighbours 4'"),
    "footprint-nearest": (_ini_with("N Closest", "Nearest"),
                          "[Linear_Kernel] kernel_footprint: expected "
                          "'N Closest' or 'Radius', got 'Nearest'"),
    "footprint-ball": (_ini_with("N Closest", "Ball"),
                       "[Linear_Kernel] kernel_footprint: expected "
                       "'N Closest' or 'Radius', got 'Ball'"),
    "radius-missing": (_ini_with("N Closest", "Radius"),
                       "[Linear_Kernel] radius is missing"),
    "num_cells_x-abc": (_ini_with("num_cells_x = 63", "num_cells_x = abc"),
                        "[gridsize] num_cells_x: invalid literal for int() "
                        "with base 10: 'abc'"),
    "scale_y-missing": (_ini_with("scale_y = 512\n", ""),
                        "[gridsize] scale_y is missing"),
    "sharpness-nan": (_ini_with("num_neighbours = 4",
                                "num_neighbours = 4\nsharpness = nan"),
                      "resample_policy.sharpness: must be a number"),
    "eccentricity-2": (_ini_with("num_neighbours = 4",
                                 "num_neighbours = 4\neccentricity = 1, 2"),
                       "resample_policy: eccentricity: expected three "
                       "positive ratios"),
}


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
        ini.write_text(SETTINGS_INI)
        out = tmp_path / "tensors_ini"
        assert run(["resample", *SMALL_OVERRIDES, "--ini", ini,
                    "--cases", pipeline["cases"], "--out", out]) == 0
        vel = load_npy(out / "object_0_velocity.npy")
        assert vel.shape == (3, 64, 16, 16)
        # the frozen config records what the INI set
        frozen = yaml.safe_load((out / "config_frozen.yaml").read_text())
        assert frozen["resample_policy"]["cells"] == [63, 15, 15]
        assert frozen["resample_policy"]["num_neighbours"] == 4

    @pytest.mark.parametrize("text, problem", MALFORMED_INIS.values(),
                             ids=MALFORMED_INIS.keys())
    def test_malformed_ini_names_file_and_key(self, pipeline, tmp_path,
                                              capsys, text, problem):
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        out = tmp_path / "tensors"
        assert run(["resample", *SMALL_OVERRIDES, "--ini", ini,
                    "--cases", pipeline["cases"], "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"forge resample: {ini}: {problem}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_prefilter_flag_runs(self, pipeline, tmp_path):
        out = tmp_path / "tensors_pref"
        assert run(["resample", *SMALL_OVERRIDES,
                    "resample_policy.prefilter=true",
                    "--cases", pipeline["cases"], "--out", out]) == 0
        assert (out / "object_0_velocity.npy").exists()


def tree(root):
    """Every file under ``root`` by relative path, provenance.json aside."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "provenance.json"}


# each stage's options besides its config and --out, reading the pipeline
# fixture's trees
STAGE_INPUTS = {
    "generate": lambda p: ["generate"],
    "sdf": lambda p: ["sdf", "--in", p["scenes"]],
    "orchestrate": lambda p: ["orchestrate", "--scenes", p["scenes"],
                              "--sdf", p["sdf"], "--backend", "local"],
    "resample": lambda p: ["resample", "--cases", p["cases"]],
    "report": lambda p: ["report", "--scenes", p["scenes"]],
}


class TestFrozenConfigReproduces:
    """A stage rerun into the same --out with only ``-c
    <first run>/config_frozen.yaml`` as its config writes the bytes of the
    run that froze it, an INI run's included."""

    @pytest.mark.parametrize("stage, ini", [
        ("generate", None), ("sdf", None), ("orchestrate", None),
        ("resample", None), ("resample", GAUSSIAN_INI),
        ("resample", RADIUS_INI), ("report", None),
    ], ids=["generate", "sdf", "orchestrate", "resample", "resample-ini",
            "resample-radius-ini", "report"])
    def test_rerun_writes_the_same_tree(self, pipeline, tmp_path, stage, ini):
        out, first = tmp_path / "out", tmp_path / "first"
        argv = [*STAGE_INPUTS[stage](pipeline), "--out", out]
        config = list(SMALL_OVERRIDES)
        if ini is not None:
            (tmp_path / "settings.ini").write_text(ini)
            config += ["--ini", tmp_path / "settings.ini"]
        assert run([*argv, *config]) == 0
        out.rename(first)
        assert run([*argv, "-c", first / "config_frozen.yaml"]) == 0
        assert tree(out) == tree(first)


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
        assert report["compared"] == ["velocity_avg.npy", "velocity.npy"]

    def test_gate_fails_on_imbalance(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        case_id = sorted(index)[1]
        case_dir = pipeline["cases"] / case_id
        u = load_npy(case_dir / "velocity_avg.npy").astype(np.float64)
        u[0, -1] *= 0.5  # starve the outlet
        from flowforge.fields import export_npy
        export_npy(u, case_dir / "velocity_avg.npy")
        assert run(["gate", "--case", case_dir]) == 1


@pytest.fixture(scope="module")
def coarse_sdf_case(tmp_path_factory):
    """One ``--backend local`` case whose SDF was voxelized at dx=32 while
    orchestrate kept the default dx=16 case grid (the README quick start
    with ``forge sdf --dx 32``)."""
    root = tmp_path_factory.mktemp("coarse_sdf")
    scenes, sdf, cases = root / "scenes", root / "sdf", root / "cases"
    assert run(["generate", "repeat=1", "seed=1", "--out", scenes]) == 0
    assert run(["sdf", "--in", scenes, "--out", sdf, "--dx", "32"]) == 0
    assert run(["orchestrate", "--scenes", scenes, "--sdf", sdf,
                "--out", cases, "--backend", "local"]) == 0
    (case_id,) = read_index(cases)
    return cases, cases / case_id


class TestSdfOffTheCaseGrid:
    def test_velocity_resample_and_gate_use_the_sdf_grid(
            self, coarse_sdf_case, tmp_path):
        cases, case_dir = coarse_sdf_case
        manifest = yaml.safe_load((case_dir / "manifest.yaml").read_text())
        assert manifest["grid"]["dims"] == [128, 32, 32]
        for name in ("velocity", "velocity_avg"):
            sidecar = yaml.safe_load((case_dir / f"{name}.yaml").read_text())
            shape = load_npy(case_dir / f"{name}.npy").shape
            assert tuple(sidecar["dims"]) == shape[1:] == (64, 16, 16)
        assert run(["resample", "--cases", cases,
                    "--out", tmp_path / "tensors"]) == 0
        # a starved outlet gives divergence, which scales with 1/h
        gated = tmp_path / "case"
        shutil.copytree(case_dir, gated)
        u = load_npy(gated / "velocity_avg.npy").astype(np.float64)
        u[0, -1] *= 0.5
        export_npy(u, gated / "velocity_avg.npy")
        assert run(["gate", "--case", gated]) == 1
        report = stationarity_gate(
            u, load_npy(gated / "velocity.npy").astype(np.float64),
            load_npy(gated / "sdf.npy") > 0, h=32.0, sample_area=32.0 * 32.0)
        assert report.eps2 > 0
        assert yaml.safe_load((gated / "gate_report.yaml").read_text()) == {
            **report.to_dict(), "compared": ["velocity_avg.npy",
                                             "velocity.npy"]}

    def test_gate_rejects_velocity_off_the_sdf_grid(
            self, coarse_sdf_case, tmp_path, capsys):
        # velocity on the dx=16 case grid beside the dx=32 SDF
        case_dir = tmp_path / "case"
        shutil.copytree(coarse_sdf_case[1], case_dir)
        grid = GridSpec.from_dict(yaml.safe_load(
            (case_dir / "manifest.yaml").read_text())["grid"])
        u = np.ones((3, *grid.dims), dtype=np.float32)
        for name in ("velocity", "velocity_avg"):
            export_npy(u, case_dir / f"{name}.npy")
            write_field_sidecar(case_dir / f"{name}.yaml", grid, components=3)
        capsys.readouterr()
        assert run(["gate", "--case", case_dir]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("forge gate: ") and "sdf.npy" in err
        assert not (case_dir / "gate_report.yaml").exists()


class TestUnparseableArtifacts:
    """A corrupt artifact YAML exits 2 with a message naming the file."""

    @staticmethod
    def corrupt(path, tail=b"status: [\n"):
        with path.open("ab") as fh:
            fh.write(tail)

    @pytest.mark.parametrize("tail", [b"status: [\n", b"error: \xff\n"])
    def test_manifest_under_gate(self, pipeline, tmp_path, capsys, tail):
        case_id = sorted(read_index(pipeline["cases"]))[0]
        case_dir = tmp_path / case_id
        shutil.copytree(pipeline["cases"] / case_id, case_dir)
        self.corrupt(case_dir / "manifest.yaml", tail)
        assert run(["gate", "--case", case_dir]) == 2
        assert "manifest.yaml" in capsys.readouterr().err

    def test_missing_manifest_under_gate(self, tmp_path, capsys):
        assert run(["gate", "--case", tmp_path]) == 2
        assert "manifest.yaml" in capsys.readouterr().err

    def test_index_under_resample(self, pipeline, tmp_path, capsys):
        cases = tmp_path / "cases"
        shutil.copytree(pipeline["cases"], cases)
        self.corrupt(cases / "index.yaml")
        assert run(["resample", *SMALL_OVERRIDES, "--cases", cases,
                    "--out", tmp_path / "tensors"]) == 2
        assert "index.yaml" in capsys.readouterr().err


class TestValidate:
    def test_config_ok(self):
        assert run(["validate", "seed=3"]) == 0

    def test_invalid_config_exits_1(self):
        assert run(["validate", "sdf_policy.dx=5"]) == 1

    def test_scene_revalidation(self, pipeline):
        assert run(["validate", *SMALL_OVERRIDES,
                    "--scenes", pipeline["scenes"]]) == 0

    def test_geometry_without_pos_x_is_a_problem(self, pipeline, tmp_path,
                                                 capsys):
        scenes = tmp_path / "scenes"
        shutil.copytree(pipeline["scenes"], scenes)
        path = scenes / "object_1.yaml"
        doc = yaml.safe_load(path.read_text())
        del doc["geometries"][0]["pos_x"]
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert run(["validate", *SMALL_OVERRIDES, "--scenes", scenes]) == 1
        err = capsys.readouterr().err
        assert (f"validate: scene sidecar {path}: geometries[0].pos_x is "
                "missing") in err

    @pytest.mark.parametrize("key, value, problem", [
        ("Re", "high", "simulation_parameters.Re: expected float, got 'high'"),
        ("inlet_velocity_x", "fast",
         "simulation_parameters.inlet_velocity_x: expected float, got 'fast'"),
        (None, "none", "simulation_parameters: expected a mapping, got 'none'"),
    ], ids=["Re-high", "inlet_velocity_x-fast", "None-none"])
    def test_non_numeric_sim_parameter_is_a_problem(self, pipeline, tmp_path,
                                                    capsys, key, value,
                                                    problem):
        scenes = tmp_path / "scenes"
        shutil.copytree(pipeline["scenes"], scenes)
        path = scenes / "object_1.yaml"
        doc = yaml.safe_load(path.read_text())
        if key is None:     # the whole block is not a mapping
            doc["simulation_parameters"] = value
        else:
            doc["simulation_parameters"][key] = value
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert run(["validate", *SMALL_OVERRIDES, "--scenes", scenes]) == 1
        err = capsys.readouterr().err
        assert f"validate: scene sidecar {path}: {problem}" in err

    @pytest.mark.parametrize("override, problem", [
        ("shapes.wedge.length=null", "shapes.wedge.length"),
        ("shapes.wedge={foo_range: [1, 2]}", "shapes.wedge.foo_range"),
    ])
    def test_shape_config_problem_exits_1(self, capsys, override, problem):
        assert run(["validate", override]) == 1
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("override, problem", [
        ("pose=3", "forge validate: pose: expected a mapping"),
        ("sdf_policy={dx: 16, band_w: 8, aniso: [1, 1], foo: 1}",
         "forge validate: unknown config key: sdf_policy.foo"),
        ("clearance.x=1", "forge validate: clearance: takes a value"),
        ("solver_policy.cs=abc", "forge validate: solver_policy.cs"),
    ])
    def test_bad_override_is_a_message(self, capsys, override, problem):
        assert run(["validate", override]) == 1
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("resample_policy.prefilter=abc",
         "resample_policy.prefilter: must be true or false"),
        ("resample_policy.split_components=1",
         "resample_policy.split_components: must be true or false"),
        ("sim_param_policy.periodic_axes.y=abc",
         "sim_param_policy.periodic_axes.y: must be true or false"),
        ("name_object_out=3", "name_object_out: must be true or false"),
        ("output_prefix=[1]", "output_prefix: must be a (quoted) string"),
        ("campaign=7", "campaign: must be a (quoted) string"),
        ("orchestration_policy.submit_command=[a]",
         "orchestration_policy.submit_command: must be a (quoted) string"),
        ("orchestration_policy.partition=1",
         "orchestration_policy.partition: must be a (quoted) string"),
        ("orchestration_policy.time_limit=5",
         "orchestration_policy.time_limit: must be a (quoted) string"),
        # YAML reads an unquoted h:m:s as a base-60 integer (43200)
        ("orchestration_policy.time_limit=12:00:00",
         "orchestration_policy.time_limit: must be a (quoted) string"),
        ("orchestration_policy.templates_dir=[a]",
         "orchestration_policy.templates_dir: must be a string or null"),
    ])
    def test_bool_and_string_fields_checked(self, capsys, override, message):
        assert run(["validate", override]) == 1
        assert f"forge validate: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "sdf_policy={dx: 8}", "bounding_box={x_min: 0}",
        "sim_param_policy.periodic_axes={y: false}"])
    def test_partial_block_override_merges(self, override):
        assert run(["validate", override]) == 0

    def test_generate_rejects_null_range(self, tmp_path, capsys):
        only_wedges = [f"shape_mix.{fam}=0" for fam in
                       ("cuboid", "cylinder", "sphere", "cone", "torus")]
        assert run(["generate", "repeat=1", *only_wedges,
                    "shapes.wedge.length=null", "--out", tmp_path]) == 1
        assert "shapes.wedge.length" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.stl"))

    def test_resample_policy_checked(self, capsys):
        # the resample stage rejects a radius footprint without a radius
        assert run(["validate", "resample_policy.footprint=radius"]) == 1
        assert "resample_policy: radius footprint" in capsys.readouterr().err


SIM = "simulation_parameters"

# malformed first sidecars: (value, key path, the problem every stage names)
MALFORMED_SIDECARS = {
    "LU-deleted": (DELETE, (SIM, "LU"), f"{SIM}.LU is missing"),
    "Re-high": ("high", (SIM, "Re"), f"{SIM}.Re: expected float, got 'high'"),
    "dx-16.7": (16.7, (SIM, "dx"), f"{SIM}.dx: expected int, got 16.7"),
    "Re-nan": (math.nan, (SIM, "Re"), f"{SIM}.Re: expected float, got nan"),
    "Re-true": (True, (SIM, "Re"), f"{SIM}.Re: expected float, got True"),
    "mach_ok_inlet-quoted": ("false", (SIM, "mach_ok_inlet"),
                             f"{SIM}.mach_ok_inlet: expected bool, "
                             "got 'false'"),
    "geometries-5": (5, ("geometries",), "geometries: expected a list, got 5"),
    "geometries-null": (None, ("geometries",),
                        "geometries: expected a list, got None"),
    "pos_y-deleted": (DELETE, ("geometries", 0, "pos_y"),
                      "geometries[0].pos_y is missing"),
    "block-none": ("none", (SIM,), f"{SIM}: expected a mapping, got 'none'"),
    "unparseable": (None, (), "unparseable YAML"),
}


class TestSidecarAcrossStages:
    """validate, orchestrate and report read a scene sidecar through one
    reader, so they agree on which sidecars are malformed and why."""

    @pytest.mark.parametrize("value, keys, problem",
                             MALFORMED_SIDECARS.values(),
                             ids=MALFORMED_SIDECARS.keys())
    def test_malformed_rejected_by_every_stage(self, pipeline, tmp_path,
                                               capsys, value, keys, problem):
        scenes, sidecar = edited_scenes(pipeline, tmp_path, value, *keys)
        where = f"scene sidecar {sidecar}: {problem}"
        # validate names it in one problem line
        assert run(["validate", *SMALL_OVERRIDES, "--scenes", scenes]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validate: {where}")
        assert err.count("validate: ") == 1
        # orchestrate stops before the case directory exists
        cases = tmp_path / "cases"
        assert run(["orchestrate", *SMALL_OVERRIDES, "--scenes", scenes,
                    "--out", cases, "--backend", "dry_run"]) == 2
        assert f"forge orchestrate: {where}" in capsys.readouterr().err
        assert not [p for p in cases.iterdir() if p.is_dir()]
        # report skips it and names it in one stderr line
        assert run(["report", *SMALL_OVERRIDES, "--scenes", scenes,
                    "--out", tmp_path / "report"]) == 0
        out, err = capsys.readouterr()
        assert "report: 1 scene(s)" in out and ", 1 skipped," in out
        assert err.startswith(f"report: {where}")
        assert err.count("report: ") == 1

    @pytest.mark.parametrize("edit", [
        lambda sim: sim.update(dx=16.0),
        lambda sim: sim.update({key: str(value) for key, value in sim.items()
                                if type(value) in (int, float)}),
    ], ids=["dx-16.0", "quoted-numbers"])
    def test_same_values_in_another_style_pass_every_stage(
            self, pipeline, tmp_path, capsys, edit):
        sim = yaml.safe_load(
            (pipeline["scenes"] / "object_0.yaml").read_text())[SIM]
        edit(sim)
        scenes, _ = edited_scenes(pipeline, tmp_path, sim, SIM)
        assert run(["validate", *SMALL_OVERRIDES, "--scenes", scenes]) == 0
        # the cases get the parameters of the unedited sidecars
        cases = tmp_path / "cases"
        assert run(["orchestrate", *SMALL_OVERRIDES, "--scenes", scenes,
                    "--out", cases, "--backend", "dry_run"]) == 0
        physics = ("grid", "bc_policy", "re_target", "mach", "relaxation",
                   "inlet_velocity", "executable", "template")

        def parameters(root):
            return {m["source"]["yaml"]: [m[key] for key in physics]
                    for m in map(yaml.safe_load,
                                 map(Path.read_text,
                                     root.glob("*/manifest.yaml")))}
        assert parameters(cases) == parameters(pipeline["cases"])
        # and the report the same tables
        report = tmp_path / "report"
        assert run(["report", *SMALL_OVERRIDES, "--scenes", scenes,
                    "--out", report]) == 0
        assert ", 0 skipped," in capsys.readouterr().out

        def tables(root):
            return {p.name: p.read_bytes() for p in root.glob("*.csv")}
        assert tables(report) == tables(pipeline["report"])


class TestAtomicWrites:
    def test_pipeline_leaves_no_temporary_files(self, pipeline):
        index = yaml.safe_load((pipeline["cases"] / "index.yaml").read_text())
        assert run(["gate", "--case", pipeline["cases"] / sorted(index)[0]]) == 0
        written = [p for p in pipeline["root"].rglob("*") if p.is_file()]
        assert written
        assert [p for p in written if p.name.endswith(".tmp")] == []


# the scipy modules an interpreter has loaded, as a Python expression
SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy')")

FORGE_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
from flowforge.cli import main

overrides, scenes, sdf, case, out = json.loads(sys.argv[1])
argvs = {
    # one object a scene: no later slot queries a clearance vertex tree
    "generate": ["generate", *overrides, "--out", out + "/scenes"],
    # one job: the scenes are voxelized in this interpreter
    "sdf": ["sdf", *overrides, "--in", scenes, "--out", out + "/sdf",
            "--jobs", "1"],
    "orchestrate": ["orchestrate", *overrides, "--scenes", scenes,
                    "--sdf", sdf, "--out", out + "/cases", "--backend", "local"],
    "resample": ["resample", *overrides, "--cases", out + "/cases",
                 "--out", out + "/tensors"],
    "resample_radius": ["resample", *overrides, "resample_policy.footprint=radius",
                        "resample_policy.radius=24", "--cases", out + "/cases",
                        "--out", out + "/tensors_radius"],
    "gate": ["gate", "--case", case],
    "report": ["report", *overrides, "--scenes", scenes,
               "--out", out + "/report"],
    "validate": ["validate", *overrides, "--scenes", scenes],
}
loaded = {}
for name, argv in argvs.items():
    loaded[name] = [main(argv), %s]
print(json.dumps(loaded))
""" % SCIPY_LOADED

CONCURRENT_VOXELIZE = """
import json, sys, threading
from flowforge.fields import GridSpec
from flowforge.geometry import tessellate
from flowforge.sdf import voxelize

before = %s
mesh = tessellate("sphere", {"radius": 10.0, "alpha": None, "beta": None,
                             "gamma": None}, 32).mesh.translated((16, 16, 16))
grid = GridSpec(origin=(0, 0, 0), spacing=(1, 1, 1), dims=(33, 33, 33))
n = 4
barrier = threading.Barrier(n)
fields = [None] * n

def work(i):
    barrier.wait()
    fields[i] = voxelize(mesh, grid, 2).values.tobytes()

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
finally:
    sys.setswitchinterval(interval)
reference = voxelize(mesh, grid, 2).values.tobytes()
print(json.dumps({"before": before,
                  "ndimage_loaded": "scipy.ndimage" in sys.modules,
                  "alive": [t.is_alive() for t in threads],
                  "equal": [f == reference for f in fields]}))
""" % SCIPY_LOADED


class TestStartupWithoutScipy:
    """Only generate loads scipy, for scenes of two or more objects, and
    resample only for its prefilter.  Each check runs in a fresh
    interpreter, because this one has scipy loaded already."""

    @staticmethod
    def fresh(code: str, *args) -> dict:
        """Run ``code`` in a new interpreter; its last output line is JSON."""
        src = str(Path(flowforge.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        proc = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    @pytest.mark.parametrize("module", ["flowforge.cli", "flowforge.config",
                                        "flowforge.sdf", "flowforge.resample",
                                        "flowforge.geometry"])
    def test_import_loads_no_scipy(self, module):
        assert self.fresh(f"import importlib, json, sys\n"
                          f"importlib.import_module({module!r})\n"
                          f"print(json.dumps({SCIPY_LOADED}))") == []

    def test_import_loads_no_configparser(self):
        # only an --ini run reads an INI file
        assert self.fresh("import json, sys\nimport flowforge.cli\n"
                          "print(json.dumps('configparser' in sys.modules))"
                          ) is False

    def test_commands_load_no_scipy(self, pipeline, tmp_path):
        case = pipeline["cases"] / sorted(read_index(pipeline["cases"]))[0]
        paths = [str(p) for p in (pipeline["scenes"], pipeline["sdf"], case,
                                  tmp_path)]
        loaded = self.fresh(FORGE_WITHOUT_SCIPY,
                            json.dumps([SMALL_OVERRIDES, *paths]))
        assert loaded == {name: [0, []] for name in
                          ("generate", "sdf", "orchestrate", "resample",
                           "resample_radius", "gate", "report", "validate")}

    def test_two_object_generate_loads_scipy_spatial(self, tmp_path):
        # the second slot's clearance guard queries the first object's
        # vertex tree
        loaded = self.fresh(
            "import json, sys\nfrom flowforge.cli import main\n"
            "code = main(['generate', *json.loads(sys.argv[1])])\n"
            "print(json.dumps([code, 'scipy.spatial' in sys.modules]))",
            json.dumps([*SMALL_OVERRIDES, "number_of_objects=2",
                        "--out", str(tmp_path / "scenes")]))
        assert loaded == [0, True]

    def test_voxelize_under_threads_loads_no_scipy(self):
        # four threads voxelize at once: each gets the single-thread field,
        # and the far field's signs need no scipy
        out = self.fresh(CONCURRENT_VOXELIZE)
        assert out["before"] == []
        assert not out["ndimage_loaded"]
        assert out["alive"] == [False] * 4
        assert out["equal"] == [True] * 4
