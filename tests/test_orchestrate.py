import builtins
import hashlib
import io
import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import flowforge.orchestrate as orchestrate
import flowforge.yamlio as yamlio
from flowforge.cli import main
from flowforge.config import config_hash, resolve_config
from flowforge.errors import OrchestrationError
from flowforge.fields import load_npy
from flowforge.geometry import build_scene, draw_dimension, export_scene
from flowforge.orchestrate import (case_id_for, discover_pairs,
                                   materialize_case, patch_template,
                                   plan_lanes, read_manifest,
                                   select_executable, submit,
                                   synthetic_solver)
from flowforge.sampling import GeneratorState, freeze_dimension
from flowforge.sdf import voxelize
from flowforge.fields import GridSpec, export_npy, write_field_sidecar
from flowforge.geometry.stl import read_stl


@pytest.fixture(scope="module")
def scene_tree(tmp_path_factory):
    """Four exported scenes plus SDFs, shared by the orchestration tests."""
    root = tmp_path_factory.mktemp("tree")
    scenes = root / "scenes"
    sdf_dir = root / "sdf"
    scenes.mkdir(), sdf_dir.mkdir()
    cfg = resolve_config(base_dict={
        "repeat": 4, "seed": 31, "sampling_mode": "sobol",
        "shape_mix": {"cuboid": 1.0, "cylinder": 0.0, "sphere": 1.0,
                      "cone": 0.0, "torus": 0.0, "wedge": 0.0},
        "shapes": {
            "cuboid": {"height": [30, 80], "width": [30, 80],
                       "thickness": [30, 80]},
            "sphere": {"radius": [20, 50]},
        },
    })
    digest = config_hash(cfg)
    state = GeneratorState(mode="sobol", seed=cfg.seed)
    freeze_dimension(state, draw_dimension(cfg.data))
    grid = GridSpec.preset(cfg.sdf_policy["dx"])
    for i in range(4):
        scene = build_scene(cfg, state)
        stl_path, _ = export_scene(scene, scenes, "object", i, False, cfg,
                                   digest)
        mesh = read_stl(stl_path)
        field = voxelize(mesh, grid, cfg.sdf_policy["band_w"])
        export_npy(field.values, sdf_dir / f"object_{i}.npy")
        write_field_sidecar(sdf_dir / f"object_{i}.yaml", grid, components=1)
    return {"root": root, "scenes": scenes, "sdf": sdf_dir, "cfg": cfg}


class TestCaseIds:
    def test_deterministic_and_sensitive(self):
        a = case_id_for(b"stl", b"yaml", "ab" * 32)
        assert a == case_id_for(b"stl", b"yaml", "ab" * 32)
        assert a != case_id_for(b"stl2", b"yaml", "ab" * 32)
        assert a != case_id_for(b"stl", b"yaml2", "ab" * 32)
        assert len(a) == 64


class TestSelectExecutable:
    def test_standard(self):
        assert select_executable(0) == (
            "LBComplexGeometryCGSmagorinsky",
            "D3Q27_cumulant_test_stability_1.prm")

    def test_refined(self):
        assert select_executable(1) == (
            "ComplexGeometry_withRefinement",
            "D3Q27_cumulant_test_stability_cube_100_1.conf")

    def test_other_values_rejected(self):
        with pytest.raises(OrchestrationError):
            select_executable(2)


class TestPatchTemplate:
    def test_omega_rendered_at_precision(self):
        out = patch_template("omega = @omega@;", {"omega": 1 / 0.5768})
        assert out == "omega = 1.73370;"

    def test_periodicity_flags(self):
        out = patch_template("< @periodicity_x@, @periodicity_y@, "
                             "@periodicity_z@ >",
                             {"periodicity_x": 0, "periodicity_y": 1,
                              "periodicity_z": 1})
        assert out == "< 0, 1, 1 >"

    def test_unknown_placeholder_named(self):
        with pytest.raises(OrchestrationError, match="mystery_key"):
            patch_template("value = @mystery_key@;", {"omega": 1.0})

    def test_required_key_missing_from_template_named(self):
        values = {"omega": 1.0, "inlet_velocity_x": 0.05,
                  "inlet_velocity_y": 0.0, "inlet_velocity_z": 0.0,
                  "periodicity_x": 0, "periodicity_y": 0, "periodicity_z": 1,
                  "timesteps": 1000}
        with pytest.raises(OrchestrationError, match="inlet_velocity_x"):
            patch_template("omega=@omega@; p=@periodicity_x@"
                           "@periodicity_y@@periodicity_z@ t=@timesteps@ "
                           "uy=@inlet_velocity_y@ uz=@inlet_velocity_z@",
                           values)

    def test_declared_bounds_checked(self):
        template = "#BOUND omega 0.0 2.0\nomega = @omega@;"
        patch_template(template, {"omega": 1.5})
        with pytest.raises(OrchestrationError, match="bound"):
            patch_template(template, {"omega": 2.5})

    def test_deterministic(self):
        values = {"omega": 0.123456789}
        assert (patch_template("@omega@", values)
                == patch_template("@omega@", values))


class TestPlanLanes:
    def test_ten_over_three(self):
        plan = plan_lanes(0, 10, 3)
        assert [list(l) for l in plan.lanes] == [[0, 1, 2, 3], [4, 5, 6],
                                                 [7, 8, 9]]
        assert plan.dependency_edges == 7

    def test_single_lane_chain(self):
        plan = plan_lanes(0, 5, 1)
        assert len(plan.lanes) == 1 and len(plan.lanes[0]) == 5
        assert plan.dependency_edges == 4

    def test_singleton_lanes_no_edges(self):
        plan = plan_lanes(0, 4, 4)
        assert all(len(l) == 1 for l in plan.lanes)
        assert plan.dependency_edges == 0

    def test_more_lanes_than_cases_allowed(self):
        plan = plan_lanes(0, 2, 5)
        assert sum(len(l) for l in plan.lanes) == 2
        assert sum(1 for l in plan.lanes if not l) == 3

    def test_bad_ranges(self):
        with pytest.raises(OrchestrationError):
            plan_lanes(3, 3, 2)
        with pytest.raises(OrchestrationError):
            plan_lanes(0, 5, 0)


class TestMaterialize:
    def test_idempotent_same_id(self, scene_tree, tmp_path):
        cfg = scene_tree["cfg"]
        pairs = discover_pairs(scene_tree["scenes"])
        stem, yaml_path, stl_path = pairs[0]
        out = tmp_path / "cases"
        out.mkdir()
        rec1 = materialize_case(yaml_path, stl_path, None, cfg, out,
                                sdf_stem=scene_tree["sdf"] / stem)
        rec2 = materialize_case(yaml_path, stl_path, None, cfg, out,
                                sdf_stem=scene_tree["sdf"] / stem)
        assert rec1.case_id == rec2.case_id
        assert (out / rec1.case_id / "manifest.yaml").exists()
        assert (out / rec1.case_id / "metadata.yaml").exists()
        # provenance trailer appended and still parseable
        doc = yaml.safe_load((out / rec1.case_id / "metadata.yaml")
                             .read_text())
        assert "provenance_trailer" in doc
        assert doc["provenance_trailer"]["dx"] == cfg.sdf_policy["dx"]

    def test_single_byte_change_new_id(self, scene_tree, tmp_path):
        cfg = scene_tree["cfg"]
        _, yaml_path, stl_path = discover_pairs(scene_tree["scenes"])[0]
        out = tmp_path / "cases"
        out.mkdir()
        rec1 = materialize_case(yaml_path, stl_path, None, cfg, out)
        mutated = tmp_path / "mutated.stl"
        raw = bytearray(stl_path.read_bytes())
        raw[100] ^= 0xFF
        mutated.write_bytes(bytes(raw))
        rec2 = materialize_case(yaml_path, mutated, None, cfg, out)
        assert rec1.case_id != rec2.case_id

    def test_sidecar_read_once(self, scene_tree, tmp_path, monkeypatch):
        # the case id and the parameters come from one read of the sidecar
        _, yaml_path, stl_path = discover_pairs(scene_tree["scenes"])[0]
        reads = []
        real_open = io.open

        def counting_open(file, mode="r", *args, **kwargs):
            if (isinstance(file, (str, os.PathLike)) and "r" in mode
                    and Path(file) == yaml_path):
                reads.append(mode)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        out = tmp_path / "cases"
        out.mkdir()
        rec = materialize_case(yaml_path, stl_path, None, scene_tree["cfg"],
                               out)
        assert (rec.case_dir / "manifest.yaml").exists()
        assert reads == ["rb"]

    def test_orphan_named(self, tmp_path):
        (tmp_path / "object_0.yaml").write_text("a: 1\n")
        with pytest.raises(OrchestrationError, match="object_0"):
            discover_pairs(tmp_path)

    def test_manifest_complete(self, scene_tree, tmp_path):
        cfg = scene_tree["cfg"]
        stem, yaml_path, stl_path = discover_pairs(scene_tree["scenes"])[0]
        out = tmp_path / "cases"
        out.mkdir()
        rec = materialize_case(yaml_path, stl_path, None, cfg, out,
                               sdf_stem=scene_tree["sdf"] / stem)
        manifest = read_manifest(rec.case_dir)
        for key in ("case_id", "hashes", "grid", "units", "sdf_sign",
                    "bc_policy", "re_target", "mach", "relaxation",
                    "inlet_profile", "inlet_velocity", "executable",
                    "template", "job_id", "status"):
            assert manifest.get(key) is not None, key
        assert manifest["hashes"]["stl"] == hashlib.sha256(
            stl_path.read_bytes()).hexdigest()
        # recomputing the id from on-disk bytes reproduces the dir name
        again = case_id_for((rec.case_dir / "geometry.stl").read_bytes(),
                            yaml_path.read_bytes(), config_hash(cfg))
        assert again == rec.case_dir.name


def materialize_all(scene_tree, out):
    cfg = scene_tree["cfg"]
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for stem, yaml_path, stl_path in discover_pairs(scene_tree["scenes"]):
        records.append(materialize_case(
            yaml_path, stl_path, None, cfg, out,
            sdf_stem=scene_tree["sdf"] / stem))
    return records


class TestSubmit:
    def test_dry_run_counts(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)
        result = submit(records, plan, "dry_run", out)
        assert result.submitted == 4
        assert len(result.commands) == 4
        assert sum("--dependency=afterok:" in c for c in result.commands) == 2
        # plan order is case order here; each job runs in its own case dir
        for record, command in zip(records, result.commands):
            assert f" --chdir={record.case_dir} " in command
            assert command.endswith(f" {record.case_dir / 'job_script.slurm'}")
        assert (out / "submission_plan.txt").read_text() == "".join(
            c + "\n" for c in result.commands)
        assert not (out / "index.yaml").exists()

    def test_local_runs_and_is_idempotent(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)
        result = submit(records, plan, "local", out)
        assert result.submitted == 4 and not result.failed
        for record in records:
            assert (record.case_dir / "velocity.npy").exists()
            assert read_manifest(record.case_dir)["status"] == "completed"
        # rerun: zero submissions
        records2 = materialize_all(scene_tree, out)
        result2 = submit(records2, plan, "local", out)
        assert result2.submitted == 0
        assert result2.skipped_completed == 4

    def test_local_failure_isolates_lane(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)  # lanes [0,1], [2,3]
        fail_dir = records[2].case_dir

        def runner(case_dir):
            if Path(case_dir) == fail_dir:
                raise RuntimeError("synthetic failure")
            return synthetic_solver(case_dir)

        result = submit(records, plan, "local", out, runner=runner)
        statuses = {r.stem: read_manifest(r.case_dir)["status"]
                    for r in records}
        assert statuses[records[2].stem] == "failed"
        assert records[3].case_id in result.skipped_after_failure
        assert statuses[records[0].stem] == "completed"
        assert statuses[records[1].stem] == "completed"

    def test_local_failure_recorded_until_completed(self, scene_tree,
                                                     tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)
        fail_dir = records[2].case_dir

        def runner(case_dir):
            if Path(case_dir) == fail_dir:
                raise RuntimeError("synthetic failure")
            return synthetic_solver(case_dir)

        submit(records, plan, "local", out, runner=runner)
        manifest = read_manifest(fail_dir)
        assert manifest["status"] == "failed"
        assert manifest["error"] == "RuntimeError: synthetic failure"
        assert all("error" not in read_manifest(r.case_dir)
                   for r in records if r.case_dir != fail_dir)

        result = submit(records, plan, "local", out)
        assert result.submitted == 2 and not result.failed
        manifest = read_manifest(fail_dir)
        assert manifest["status"] == "completed"
        assert "error" not in manifest

    def test_local_runs_cases_in_plan_order(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        seen = []

        def runner(case_dir):
            seen.append(Path(case_dir))
            if Path(case_dir) == records[0].case_dir:
                time.sleep(0.05)  # lane [2, 3] does not run ahead of it
            return synthetic_solver(case_dir)

        submit(records, plan_lanes(0, 4, 2), "local", out, runner=runner)
        assert seen == [record.case_dir for record in records]

    def test_lane_order_deterministic(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)
        order_runs = []
        for _ in range(2):
            seen = []

            def runner(case_dir, seen=seen):
                seen.append(Path(case_dir).name)
                return synthetic_solver(case_dir)

            for record in records:  # reset statuses
                record.status = "pending"
                record.manifest["status"] = "pending"
            submit(records, plan, "local", out, runner=runner)
            lane_a = [n for n in seen
                      if n in (records[0].case_id, records[1].case_id)]
            lane_b = [n for n in seen
                      if n in (records[2].case_id, records[3].case_id)]
            order_runs.append((lane_a, lane_b))
        assert order_runs[0] == order_runs[1]
        assert order_runs[0][0] == [records[0].case_id, records[1].case_id]

    def test_slurm_parse_grammar(self, scene_tree, tmp_path, monkeypatch):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)
        calls = []

        class FakeProc:
            returncode = 0

            def __init__(self, job):
                self.stdout = f"Submitted batch job {job}\n"
                self.stderr = ""

        def fake_run(cmd, **kwargs):
            calls.append(cmd)
            return FakeProc(1000 + len(calls))

        monkeypatch.setattr("flowforge.orchestrate.subprocess.run", fake_run)
        result = submit(records, plan, "slurm", out)
        assert result.submitted == 4
        dep_flags = [c for c in calls
                     if any(a.startswith("--dependency=afterok:")
                            for a in c)]
        assert len(dep_flags) == 2
        for record, cmd in zip(records, calls):
            assert cmd[1] == f"--chdir={record.case_dir}"
            assert cmd[-1] == str(record.case_dir / "job_script.slurm")
        index = yaml.safe_load((out / "index.yaml").read_text())
        assert [index[r.case_id]["job_id"] for r in records] == [
            "1001", "1002", "1003", "1004"]


def fake_sbatch(monkeypatch):
    """Answer every scheduler call with a fresh job id."""
    job_ids = itertools.count(1001)

    class FakeProc:
        returncode = 0
        stderr = ""

        def __init__(self):
            self.stdout = f"Submitted batch job {next(job_ids)}\n"

    monkeypatch.setattr("flowforge.orchestrate.subprocess.run",
                        lambda cmd, **kwargs: FakeProc())


class TestIndex:
    @pytest.mark.parametrize("backend, writes",
                             [("dry_run", 0), ("slurm", 1), ("local", 1)])
    def test_written_once_per_submit(self, scene_tree, tmp_path, monkeypatch,
                                     backend, writes):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        fake_sbatch(monkeypatch)
        index_writes = []
        real_write = yamlio.atomic_write

        def counting(path, data):
            if Path(path) == out / "index.yaml":
                index_writes.append(data)
            return real_write(path, data)

        monkeypatch.setattr(yamlio, "atomic_write", counting)
        submit(records, plan_lanes(0, 4, 2), backend, out)
        assert len(index_writes) == writes
        assert (out / "index.yaml").exists() == bool(writes)

    def test_derived_from_manifests(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)  # lanes [0,1], [2,3]

        def failing(*case_dirs):
            def runner(case_dir):
                if Path(case_dir) in case_dirs:
                    raise RuntimeError("injected failure")
                return synthetic_solver(case_dir)
            return runner

        submit(records, plan, "local", out, runner=failing(records[1].case_dir))
        index = yaml.safe_load((out / "index.yaml").read_text())
        assert index[records[1].case_id]["status"] == "failed"

        # rerun every case; case 0 fails, so case 1 is skipped and stays
        # pending, and its older entry drops out of the index
        records = [materialize_case(
            y, s, None, scene_tree["cfg"], out,
            sdf_stem=scene_tree["sdf"] / stem, force=True)
            for stem, y, s in discover_pairs(scene_tree["scenes"])]
        result = submit(records, plan, "local", out,
                        runner=failing(records[0].case_dir))
        assert result.skipped_after_failure == [records[1].case_id]
        index = yaml.safe_load((out / "index.yaml").read_text())
        assert records[1].case_id not in index
        for record in (records[0], records[2], records[3]):
            manifest = read_manifest(record.case_dir)
            assert index[record.case_id] == {
                "stem": record.stem, "lane": manifest["lane"],
                "job_id": manifest["job_id"], "status": manifest["status"]}

    def test_two_lane_failures_tallied_in_plan_order(self, scene_tree,
                                                     tmp_path):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        plan = plan_lanes(0, 4, 2)  # lanes [0,1], [2,3]
        # delaying one lane's failure changes no outcome or its order
        for slow in (records[0].case_dir, records[2].case_dir, None) * 2:
            def runner(case_dir, slow=slow):
                if Path(case_dir) == slow:
                    time.sleep(0.05)
                raise RuntimeError("injected failure")

            result = submit(records, plan, "local", out, runner=runner)
            assert result.failed == [records[0].case_id, records[2].case_id]
            assert result.skipped_after_failure == [records[1].case_id,
                                                    records[3].case_id]
            assert result.submitted == 0 and result.skipped_completed == 0


class LaneError(Exception):
    pass


class TestCrashRecovery:
    """An interrupted ``forge orchestrate`` reruns to the uninterrupted tree."""

    @staticmethod
    def orchestrate(scene_tree, out, backend="local"):
        return main([str(a) for a in (
            "orchestrate", "--scenes", scene_tree["scenes"],
            "--sdf", scene_tree["sdf"], "--out", out, "--backend", backend)])

    @staticmethod
    def tree(root: Path) -> dict:
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "provenance.json"}

    @staticmethod
    def fail_nth_manifest_write(monkeypatch, n):
        """Make the n-th ``_write_manifest`` call raise (n = 0: none);
        returns the list of calls."""
        real_write = orchestrate._write_manifest
        calls = []

        def faulty(case_dir, manifest):
            calls.append(Path(case_dir).name)
            if len(calls) == n:
                raise OSError("injected manifest write fault")
            real_write(case_dir, manifest)

        monkeypatch.setattr(orchestrate, "_write_manifest", faulty)
        return calls

    def test_any_manifest_write_fault_reruns_to_same_tree(
            self, scene_tree, tmp_path, monkeypatch):
        reference = tmp_path / "reference"
        sequences = []
        for out in (reference, tmp_path / "reference_again"):
            with monkeypatch.context() as m:
                sequences.append(self.fail_nth_manifest_write(m, 0))
                assert self.orchestrate(scene_tree, out) == 0
        # the n-th manifest write is the same write on every run
        calls = sequences[0]
        assert sequences[1] == calls
        # one write per case when materialized, one when its outcome is known
        assert len(calls) == 8
        expected = self.tree(reference)
        assert "index.yaml" in expected

        for n in range(1, len(calls) + 1):
            out = tmp_path / f"crash_{n}"
            with monkeypatch.context() as m:
                faulted = self.fail_nth_manifest_write(m, n)
                assert self.orchestrate(scene_tree, out) == 2, n
            # it wrote the first n - 1 and failed on the n-th, then stopped
            assert faulted == calls[:n], n
            assert not (out / "index.yaml").exists(), n
            assert self.orchestrate(scene_tree, out) == 0, n
            assert self.tree(out) == expected, n

    @pytest.mark.parametrize("backend, n", [("dry_run", 4), ("slurm", 5)])
    def test_manifest_write_fault_exits_2(self, scene_tree, tmp_path,
                                          monkeypatch, backend, n):
        fake_sbatch(monkeypatch)
        self.fail_nth_manifest_write(monkeypatch, n)
        assert self.orchestrate(scene_tree, tmp_path / "cases", backend) == 2

    def test_lane_thread_error_leaves_submit(self, scene_tree, tmp_path,
                                             monkeypatch):
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)

        def broken(record):
            raise LaneError(record.case_id)

        monkeypatch.setattr(orchestrate, "_persist", broken)
        with pytest.raises(LaneError):
            submit(records, plan_lanes(0, 4, 2), "local", out)
        assert not (out / "index.yaml").exists()


class TestSyntheticSolver:
    def test_empty_scene_uniform_everywhere(self, tmp_path, scene_tree):
        # an all-fluid SDF yields the inlet velocity at every voxel
        out = tmp_path / "cases"
        records = materialize_all(scene_tree, out)
        record = records[0]
        phi = np.full(tuple(record.manifest["grid"]["dims"]), 64.0,
                      dtype=np.float32)
        export_npy(phi, record.case_dir / "sdf.npy")
        synthetic_solver(record.case_dir)
        u = load_npy(record.case_dir / "velocity.npy")
        inlet = record.manifest["inlet_velocity"]
        for c in range(3):
            np.testing.assert_allclose(u[c], np.float32(inlet[c]))

    def test_solid_voxels_zero(self, scene_tree, tmp_path):
        out = tmp_path / "cases"
        record = materialize_all(scene_tree, out)[0]
        synthetic_solver(record.case_dir)
        u = load_npy(record.case_dir / "velocity.npy")
        phi = load_npy(record.case_dir / "sdf.npy")
        solid = phi <= 0
        assert solid.any()
        for c in range(3):
            assert np.abs(u[c][solid]).max() == 0.0

    def test_missing_sdf_is_error(self, scene_tree, tmp_path):
        cfg = scene_tree["cfg"]
        _, yaml_path, stl_path = discover_pairs(scene_tree["scenes"])[0]
        out = tmp_path / "cases"
        out.mkdir()
        record = materialize_case(yaml_path, stl_path, None, cfg, out)
        with pytest.raises(OrchestrationError, match="SDF"):
            synthetic_solver(record.case_dir)


class TestForceRematerialize:
    def test_completed_outputs_archived(self, scene_tree, tmp_path):
        cfg = scene_tree["cfg"]
        stem, yaml_path, stl_path = discover_pairs(scene_tree["scenes"])[0]
        out = tmp_path / "cases"
        out.mkdir()
        sdf_stem = scene_tree["sdf"] / stem
        record = materialize_case(yaml_path, stl_path, None, cfg, out,
                                  sdf_stem=sdf_stem)
        synthetic_solver(record.case_dir)
        record.status = "completed"
        record.manifest["status"] = "completed"
        from flowforge.orchestrate import _write_manifest
        _write_manifest(record.case_dir, record.manifest)
        original_velocity = (record.case_dir / "velocity.npy").read_bytes()

        # without force: no-op that keeps the completed status
        again = materialize_case(yaml_path, stl_path, None, cfg, out,
                                 sdf_stem=sdf_stem)
        assert again.status == "completed"
        assert (record.case_dir / "velocity.npy").exists()

        forced = materialize_case(yaml_path, stl_path, None, cfg, out,
                                  sdf_stem=sdf_stem, force=True)
        assert forced.status == "pending"
        assert not (record.case_dir / "velocity.npy").exists()
        archives = list(record.case_dir.glob("previous_*"))
        assert len(archives) == 1
        assert (archives[0] / "velocity.npy").read_bytes() == original_velocity
