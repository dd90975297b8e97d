"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not configurable: grid presets and storage
arithmetic are exact, SDF fidelity is 0.5 lu on the 512x128x128 sphere
case, interpolation must match the brute-force oracle to 1e-12, and the
end-to-end pipeline must be byte-identical across reruns (provenance
timestamps excluded).
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
import yaml

from _oracles import (IterativeSobol, brute_interpolate, point_mesh_distance,
                      surface_samples)
from flowforge.cli import main as forge_main
from flowforge.config import resolve_config
from flowforge.diagnostics import (divergence_metrics, flux_balance,
                                   smagorinsky_nut, stationarity_eps)
from flowforge.fields import GridSpec, tensor_bytes
from flowforge.geometry import (build_scene, draw_dimension, pick_family,
                                tessellate)
from flowforge.orchestrate import plan_lanes, submit, synthetic_solver
from flowforge.resample import (FootprintSpec, KernelSpec, SourcePoints,
                                interpolate, make_target_grid)
from flowforge.sampling import (GeneratorState, advance_on_reject,
                                freeze_dimension, load_state, next_point,
                                save_state, sobol_point)
from flowforge.sdf import voxelize
from flowforge.simparams import (mach_check, nu_from_tau, reynolds,
                                 target_reynolds, tau_from_nu)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except Exception:
        print(f"\n[ACCEPTANCE {num:02d}] FAIL - {title}")
        raise
    print(f"\n[ACCEPTANCE {num:02d}] PASS - {title}")


# ---------------------------------------------------------------------------
# Shared expensive fixtures
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def sphere_dx4():
    """Criterion 2/3 workload: r=64 sphere at 128 segments on the finest grid."""
    solid = tessellate("sphere", {"radius": 64.0, "alpha": None, "beta": None,
                                  "gamma": None}, 128)
    mesh = solid.mesh.translated([1024.0, 256.0, 256.0])
    grid = GridSpec.preset(4)
    start = time.monotonic()
    field = voxelize(mesh, grid, band_w=8)
    elapsed = time.monotonic() - start
    return {"grid": grid, "field": field, "elapsed": elapsed,
            "center": np.array([1024.0, 256.0, 256.0]), "radius": 64.0,
            "chord": 64.0 * (1 - math.cos(math.pi / 128)) * 2}


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Criterion 12/13 workload: the full pipeline twice, 20 scenes, dx=16."""
    overrides = ["repeat=20", "seed=2026", "sampling_mode=sobol"]
    roots = []
    start = time.monotonic()
    for run in range(2):
        root = tmp_path_factory.mktemp(f"e2e_{run}")
        scenes, sdf, cases, tensors, report = (
            root / n for n in ("scenes", "sdf", "cases", "tensors", "report"))
        assert forge_main(["generate", *overrides, "--out", str(scenes)]) == 0
        assert forge_main(["sdf", *overrides, "--in", str(scenes),
                           "--out", str(sdf)]) == 0
        assert forge_main(["orchestrate", *overrides, "--scenes", str(scenes),
                           "--sdf", str(sdf), "--out", str(cases),
                           "--backend", "local"]) == 0
        assert forge_main(["resample", *overrides, "--cases", str(cases),
                           "--out", str(tensors)]) == 0
        assert forge_main(["report", *overrides, "--scenes", str(scenes),
                           "--out", str(report)]) == 0
        roots.append(root)
    elapsed = time.monotonic() - start
    return {"roots": roots, "elapsed": elapsed}


def tree_bytes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "provenance.json":
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------
def test_01_grid_presets_exact():
    with criterion(1, "grid presets dx in {16,8,4} map to exact dims"):
        start = time.monotonic()
        assert GridSpec.preset(16).dims == (128, 32, 32)
        assert GridSpec.preset(8).dims == (256, 64, 64)
        assert GridSpec.preset(4).dims == (512, 128, 128)
        assert time.monotonic() - start < 1.0


def test_02_sdf_fidelity(sphere_dx4):
    with criterion(2, "SDF fidelity <= 0.5 lu, 100% signs, < 60 s"):
        grid, field = sphere_dx4["grid"], sphere_dx4["field"]
        band = 8 * 4.0
        pos = grid.sample_positions()
        r = np.linalg.norm(pos - sphere_dx4["center"], axis=1)
        analytic = np.clip(r - sphere_dx4["radius"], -band, band)
        phi = field.values.ravel().astype(np.float64)

        unclamped = np.abs(phi) < band
        max_err = np.abs(phi - analytic)[unclamped].max()
        assert max_err <= 0.5, f"max |phi - analytic| = {max_err}"

        clear = np.abs(r - sphere_dx4["radius"]) > sphere_dx4["chord"]
        agree = np.sign(phi[clear]) == np.sign(analytic[clear])
        assert agree.all(), f"{(~agree).sum()} sign disagreements"

        assert sphere_dx4["elapsed"] < 60.0, \
            f"voxelization took {sphere_dx4['elapsed']:.1f}s"


def test_03_eikonal_bracket(sphere_dx4):
    with criterion(3, "central-difference |grad phi| in [0.9, 1.1]"):
        grid, field = sphere_dx4["grid"], sphere_dx4["field"]
        h = grid.spacing[0]
        band = 8 * h
        phi = field.values.astype(np.float64)
        gx, gy, gz = np.gradient(phi, h, edge_order=1)
        norm = np.sqrt(gx**2 + gy**2 + gz**2)

        pos = grid.sample_positions().reshape(phi.shape + (3,))
        r = np.linalg.norm(pos - sphere_dx4["center"], axis=-1)
        eligible = ((np.abs(phi) > h) & (r > h)
                    & (np.abs(phi) < band - h))  # full unclamped stencil
        eligible[[0, -1], :, :] = False
        eligible[:, [0, -1], :] = False
        eligible[:, :, [0, -1]] = False
        vals = norm[eligible]
        assert vals.size > 0
        assert vals.min() >= 0.9 and vals.max() <= 1.1, \
            f"|grad phi| in [{vals.min():.4f}, {vals.max():.4f}]"


def test_04_storage_arithmetic():
    with criterion(4, "velocity tensor sizes reproduce the storage table"):
        assert tensor_bytes((128, 32, 32), 3) == 1_572_864
        assert tensor_bytes((256, 64, 64), 3) == 12_582_912
        assert tensor_bytes((512, 128, 128), 3) == 100_663_296


def test_05_interpolator_oracle():
    with criterion(5, "interpolation == brute force (1e-12); constants exact"):
        rng = np.random.default_rng(7)
        pos = rng.uniform(0, 20, size=(9_000, 3))
        vals = rng.normal(size=(9_000, 3))
        points = SourcePoints(pos, vals)
        target = make_target_grid((1, 1, 1), (18, 18, 18), (6, 6, 6))
        footprints = [FootprintSpec("n_closest", k=6),
                      FootprintSpec("radius", radius=1.5)]
        for kind in ("linear", "gaussian", "shepard", "voronoi",
                     "ellipsoidal_gaussian"):
            for fp in footprints:
                kernel = KernelSpec(kind)
                field, _ = interpolate(points, target, kernel, fp)
                got = np.moveaxis(field.values, 0, -1).reshape(-1, 3)
                want, _ = brute_interpolate(pos, vals,
                                            target.sample_positions(),
                                            kernel, fp)
                err = np.abs(got - want).max()
                assert err <= 1e-12, f"{kind}/{fp.mode}: {err}"

                const = SourcePoints(pos, np.full(len(pos), 1.25))
                cfield, _ = interpolate(const, target, kernel, fp)
                assert np.abs(cfield.values - 1.25).max() == 0.0, \
                    f"{kind}/{fp.mode}: constant not exact"


def test_06_sobol_correctness():
    with criterion(6, "Sobol reference match, exact resume, stable ordering"):
        reference = IterativeSobol(1)
        expected = [float(reference.next()[0]) for _ in range(8)]
        got = [float(sobol_point(i, 1)[0]) for i in range(8)]
        assert got == expected == [0.5, 0.75, 0.25, 0.375, 0.875, 0.625,
                                   0.125, 0.1875]

        # interrupt/resume at every index reproduces the stream bytewise
        base = GeneratorState(mode="sobol", seed=3)
        freeze_dimension(base, 6)
        stream = b"".join(next_point(base).tobytes() for _ in range(32))
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            for cut in range(32):
                state = GeneratorState(mode="sobol", seed=3)
                freeze_dimension(state, 6)
                chunks = []
                for i in range(32):
                    if i == cut:
                        save_state(state, Path(tmp) / "s.txt")
                        state = load_state(Path(tmp) / "s.txt")
                    chunks.append(next_point(state).tobytes())
                assert b"".join(chunks) == stream, f"resume at {cut} diverged"

        # rejections shift ordinals, never permute
        state = GeneratorState(mode="sobol", seed=3)
        freeze_dimension(state, 6)
        taken = []
        for i in range(8):
            if i in (1, 4):
                advance_on_reject(state)
            taken.append(next_point(state))
        pristine = [sobol_point(i, 6) for i in range(10)]
        expected_points = [pristine[i] for i in range(10) if i not in (1, 5)]
        for got_p, want_p in zip(taken, expected_points):
            assert got_p.tobytes() == want_p.tobytes()


def test_07_feasibility_soundness():
    with criterion(7, "200 two-object scenes pass the brute-force oracle"):
        cfg = resolve_config(base_dict={
            "number_of_objects": 2, "seed": 4242, "sampling_mode": "sobol",
            "repeat": 200})
        state = GeneratorState(mode="sobol", seed=cfg.seed)
        freeze_dimension(state, draw_dimension(cfg.data))
        c_min = cfg.data["clearance"]
        spacing = c_min / 4.0
        box = cfg.bounding_box

        for _ in range(200):
            scene = build_scene(cfg, state)
            assert len(scene.objects) == 2
            for obj in scene.objects:
                # ROI and domain
                assert 146.0 <= obj.pose.position[0] <= 1800.0
                lo, hi = obj.mesh.aabb()
                assert (lo >= np.asarray(box.mins) - 1e-6).all()
                assert (hi <= np.asarray(box.maxs) + 1e-6).all()
                # volume
                assert obj.volume >= cfg.data["min_volume"]

            # non-intersection: dense interior sampling at c_min/4
            for a, b in permutations(scene.objects, 2):
                lo, hi = a.mesh.aabb()
                axes = [np.arange(lo[d], hi[d] + spacing, spacing)
                        for d in range(3)]
                gx, gy, gz = np.meshgrid(*axes, indexing="ij")
                pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
                interior = pts[a.inside_world(pts)]
                assert len(interior) > 0
                assert not b.inside_world(interior).any(), \
                    "interior points of one object inside the other"

            # clearance: surface samples vs the other mesh
            for a, b in combinations(scene.objects, 2):
                lo_a, hi_a = a.mesh.aabb()
                lo_b, hi_b = b.mesh.aabb()
                gap = np.maximum(lo_b - hi_a, lo_a - hi_b)
                if np.linalg.norm(np.maximum(gap, 0.0)) >= c_min:
                    continue  # AABB separation already proves clearance
                samples = surface_samples(a.mesh, max_edge=spacing)
                near = ((samples >= lo_b - 2 * c_min)
                        & (samples <= hi_b + 2 * c_min)).all(axis=1)
                if not near.any():
                    continue
                dist = point_mesh_distance(samples[near], b.mesh)
                assert dist.min() >= c_min - 1e-9, \
                    f"clearance {dist.min():.3f} < {c_min}"


def test_08_shape_mix_statistics():
    with criterion(8, "10k unconstrained draws within 3 binomial sigma"):
        weights = {"cuboid": 1.0, "cylinder": 1.0, "sphere": 1.0,
                   "cone": 1.0, "torus": 0.5, "wedge": 1.0}
        total_weight = sum(weights.values())
        n = 10_000
        rng = np.random.default_rng(99)
        counts = {name: 0 for name in weights}
        for u in rng.random(n):
            counts[pick_family(weights, u)] += 1
        for name, w in weights.items():
            p = w / total_weight
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[name] - n * p) <= 3 * sigma, \
                f"{name}: {counts[name]} vs {n * p:.0f} +- {3 * sigma:.0f}"


def test_09_solver_policy_algebra():
    with criterion(9, "nu<->tau round trip, exact Re targeting, Mach gates"):
        rng = np.random.default_rng(5)
        for tau in 0.5 + rng.random(200) * 2.5 + 1e-6:
            assert abs(tau_from_nu(nu_from_tau(tau)) - tau) <= 1e-12
        nu0, tau, _ = target_reynolds(1000.0, 0.05, 512.0)
        assert nu0 == 0.0256 and abs(tau - 0.5768) < 1e-15
        for re_t in (100.0, 1234.5, 15000.0):
            nu0, _, _ = target_reynolds(re_t, 0.05, 512.0)
            assert abs(reynolds(0.05, 512.0, nu0) - re_t) / re_t <= 1e-12
        ma, ok_inlet, ok_global = mach_check([0.1488, 0.0, 0.0])
        assert ma > 0.20 and not ok_inlet and not ok_global


@pytest.fixture(scope="module")
def ten_cases(tmp_path_factory):
    """Ten tiny materialized cases for the orchestration criterion."""
    from flowforge.config import config_hash
    from flowforge.geometry import export_scene, read_stl
    from flowforge.orchestrate import discover_pairs, materialize_case
    from flowforge.fields import export_npy, write_field_sidecar

    root = tmp_path_factory.mktemp("orch")
    scenes, sdf_dir = root / "scenes", root / "sdf"
    scenes.mkdir(), sdf_dir.mkdir()
    cfg = resolve_config(base_dict={
        "repeat": 10, "seed": 8, "sampling_mode": "sobol",
        "shape_mix": {"cuboid": 1.0, "cylinder": 0.0, "sphere": 1.0,
                      "cone": 0.0, "torus": 0.0, "wedge": 0.0},
        "shapes": {"cuboid": {"height": [30, 70], "width": [30, 70],
                              "thickness": [30, 70]},
                   "sphere": {"radius": [20, 40]}},
    })
    digest = config_hash(cfg)
    state = GeneratorState(mode="sobol", seed=cfg.seed)
    freeze_dimension(state, draw_dimension(cfg.data))
    grid = GridSpec.preset(16)
    for i in range(10):
        scene = build_scene(cfg, state)
        stl_path, _ = export_scene(scene, scenes, "object", i, False, cfg,
                                   digest)
        field = voxelize(read_stl(stl_path), grid, 8)
        export_npy(field.values, sdf_dir / f"object_{i}.npy")
        write_field_sidecar(sdf_dir / f"object_{i}.yaml", grid, components=1)

    def materialize(out):
        out.mkdir(parents=True, exist_ok=True)
        return [materialize_case(y, s, None, cfg, out, sdf_stem=sdf_dir / stem)
                for stem, y, s in discover_pairs(scenes)]

    return {"root": root, "materialize": materialize}


def test_10_orchestration(ten_cases):
    with criterion(10, "lanes [4,3,3], 10 dry submissions, isolation, rerun 0"):
        plan = plan_lanes(0, 10, 3)
        assert [len(l) for l in plan.lanes] == [4, 3, 3]
        assert plan.dependency_edges == 7

        out_dry = ten_cases["root"] / "cases_dry"
        records = ten_cases["materialize"](out_dry)
        result = submit(records, plan, "dry_run", out_dry)
        assert len(result.commands) == 10
        assert sum("--dependency=afterok:" in c for c in result.commands) == 7

        # local failure in lane 2 (cases 4..6): fail its first case
        out_fail = ten_cases["root"] / "cases_fail"
        records = ten_cases["materialize"](out_fail)
        fail_dir = records[4].case_dir

        def runner(case_dir):
            if Path(case_dir) == fail_dir:
                raise RuntimeError("injected failure")
            return synthetic_solver(case_dir)

        result = submit(records, plan, "local", out_fail, runner=runner)
        assert records[4].status == "failed"
        skipped = set(result.skipped_after_failure)
        assert skipped == {records[5].case_id, records[6].case_id}
        for i in (0, 1, 2, 3, 7, 8, 9):
            assert records[i].status == "completed", i

        # idempotent rerun after full completion
        out_ok = ten_cases["root"] / "cases_ok"
        records = ten_cases["materialize"](out_ok)
        first = submit(records, plan, "local", out_ok)
        assert first.submitted == 10 and not first.failed
        records = ten_cases["materialize"](out_ok)
        rerun = submit(records, plan, "local", out_ok)
        assert rerun.submitted == 0 and rerun.skipped_completed == 10


def test_11_diagnostics():
    with criterion(11, "eps_u identities, dPhi=0.1, 2nd-order div, nu_t"):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 8, 8, 8))
        assert stationarity_eps(m, m) == 0.0
        assert abs(stationarity_eps(2 * m, m) - 0.5) < 1e-9

        u = np.zeros((3, 8, 8, 8))
        u[0] = 0.05
        u[0, -1] = 0.045
        assert abs(flux_balance(u, None, 1.0) - 0.1) <= 1e-12

        errs = []
        for n in (16, 32):
            h = 2 * math.pi / n
            axis = np.arange(n) * h
            x, y, _ = np.meshgrid(axis, axis, axis, indexing="ij")
            sol = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y),
                            np.zeros_like(x)])
            interior = np.zeros((n, n, n), dtype=bool)
            interior[1:-1, 1:-1, 1:-1] = True
            _, eps_inf = divergence_metrics(sol, interior, h)
            errs.append(eps_inf)
        rate = math.log2(errs[0] / errs[1])
        assert 1.8 <= rate <= 2.2, f"divergence convergence rate {rate:.3f}"

        axis = np.arange(10, dtype=np.float64)
        _, _, z = np.meshgrid(axis, axis, axis, indexing="ij")
        shear = np.stack([0.01 * z, np.zeros_like(z), np.zeros_like(z)])
        nut = smagorinsky_nut(shear, cs=0.16, delta=1.0, h=1.0)
        inner = nut[1:-1, 1:-1, 1:-1]
        assert np.allclose(inner, 2.56e-4, rtol=1e-12)


def test_12_end_to_end_determinism(pipeline_runs):
    with criterion(12, "pipeline run twice: byte-identical trees, < 5 min"):
        a, b = (tree_bytes(root) for root in pipeline_runs["roots"])
        assert set(a) == set(b)
        different = [name for name in a if a[name] != b[name]]
        assert not different, f"differing files: {different[:10]}"
        assert pipeline_runs["elapsed"] < 300.0, \
            f"two runs took {pipeline_runs['elapsed']:.0f}s"


def test_13_coverage_reports(pipeline_runs):
    with criterion(13, "policy compliance in every scene; reports regenerate"):
        root = pipeline_runs["roots"][0]
        scene_paths = sorted((root / "scenes").glob("object_*.yaml"))
        assert len(scene_paths) == 20
        for path in scene_paths:
            # read apart from the sidecar reader under test
            doc = yaml.safe_load(path.read_text(encoding="utf-8"))
            sim = doc["simulation_parameters"]
            assert float(sim["inlet_velocity_x"]) > 0
            assert 100.0 <= float(sim["Re"]) <= 15000.0
            for geom in doc["geometries"]:
                assert 146.0 <= float(geom["pos_x"]) <= 1800.0

        report_dir = root / "report"
        first = {p.name: p.read_bytes() for p in sorted(report_dir.glob("*.csv"))}
        again = root / "report_again"
        assert forge_main(["report", "--scenes", str(root / "scenes"),
                           "--out", str(again)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(again.glob("*.csv"))}
        assert first == second
