import csv
import math

import numpy as np
import pytest

from flowforge.diagnostics import (coverage_report, divergence_metrics,
                                   flux_balance, smagorinsky_nut,
                                   stationarity_eps, stationarity_gate)
from flowforge.errors import ArtifactIOError, FieldError


def grid_coords(n, h):
    axis = np.arange(n) * h
    return np.meshgrid(axis, axis, axis, indexing="ij")


class TestStationarityEps:
    def test_equal_means_zero(self, rng):
        m = rng.normal(size=(3, 8, 8, 8))
        assert stationarity_eps(m, m) == 0.0

    def test_doubled_mean_half(self, rng):
        m = rng.normal(size=(3, 6, 6, 6))
        got = stationarity_eps(2 * m, m)
        assert got == pytest.approx(0.5, rel=1e-9)

    def test_zero_fields_guarded(self):
        z = np.zeros((3, 4, 4, 4))
        assert stationarity_eps(z, z) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(FieldError, match="mismatch"):
            stationarity_eps(np.zeros((3, 4, 4, 4)), np.zeros((3, 5, 4, 4)))


class TestDivergence:
    def test_linear_field_divergence_free_exact(self):
        n, h = 12, 0.5
        x, y, z = grid_coords(n, h)
        c = 0.37
        u = np.stack([c * x, -c * y, np.zeros_like(x)])
        eps2, eps_inf = divergence_metrics(u, None, h)
        assert eps_inf < 1e-12

    def test_second_order_convergence_on_sin_field(self):
        # solenoidal field: u = (sin x cos y, -cos x sin y, 0)
        errs = []
        for n in (16, 32):
            h = 2 * math.pi / n
            x, y, _ = grid_coords(n, h)
            u = np.stack([np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y),
                          np.zeros_like(x)])
            interior = np.zeros(u.shape[1:], dtype=bool)
            interior[1:-1, 1:-1, 1:-1] = True
            _, eps_inf = divergence_metrics(u, interior, h)
            errs.append(eps_inf)
        rate = math.log2(errs[0] / errs[1])
        assert 1.8 <= rate <= 2.2

    def test_all_solid_mask_is_zero(self):
        u = np.ones((3, 5, 5, 5))
        eps2, eps_inf = divergence_metrics(u, np.zeros((5, 5, 5), bool), 1.0)
        assert eps2 == 0.0 and eps_inf == 0.0

    def test_too_small_grid(self):
        with pytest.raises(FieldError, match="too small"):
            divergence_metrics(np.zeros((3, 2, 2, 2)), None, 1.0)


class TestFluxBalance:
    def make_u(self, ux_in=0.05, ux_out=0.05, n=8):
        u = np.zeros((3, n, n, n))
        u[0] = ux_in
        u[0, -1] = ux_out
        return u

    def test_uniform_balance_zero(self):
        assert flux_balance(self.make_u(), None, 1.0) == 0.0

    def test_ten_percent_deficit(self):
        got = flux_balance(self.make_u(0.05, 0.045), None, 1.0)
        assert got == pytest.approx(0.1, rel=1e-12)

    def test_doubled_outlet(self):
        assert flux_balance(self.make_u(0.05, 0.10), None, 1.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_no_inflow_is_error(self):
        with pytest.raises(FieldError, match="no inflow"):
            flux_balance(self.make_u(0.0, 0.05), None, 1.0)


class TestSmagorinsky:
    def test_pure_shear_closed_form(self):
        n, h = 10, 1.0
        _, _, z = grid_coords(n, h)
        gamma = 0.01
        u = np.stack([gamma * z, np.zeros_like(z), np.zeros_like(z)])
        nut = smagorinsky_nut(u, cs=0.16, delta=1.0, h=h)
        inner = nut[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(inner, 0.0256 * 0.01, rtol=1e-12)
        assert inner.ravel()[0] == pytest.approx(2.56e-4)

    def test_constant_field_zero(self):
        u = np.full((3, 6, 6, 6), 0.3)
        assert smagorinsky_nut(u, 0.16, 1.0, 1.0).max() == 0.0

    def test_rigid_rotation_zero(self):
        n, h = 12, 1.0
        x, y, _ = grid_coords(n, h)
        omega = 0.02
        u = np.stack([-omega * y, omega * x, np.zeros_like(x)])
        nut = smagorinsky_nut(u, 0.16, 1.0, h)
        assert np.abs(nut[1:-1, 1:-1, 1:-1]).max() < 1e-14


class TestGate:
    def test_gate_pass_and_fail(self, rng):
        n = 8
        u = np.zeros((3, n, n, n))
        u[0] = 0.05
        report = stationarity_gate(u, u.copy(), None, 1.0, 1.0)
        assert report.passed and report.eps_u == 0.0

        drifted = u * 2.0
        report = stationarity_gate(drifted, u, None, 1.0, 1.0)
        assert not report.passed and report.eps_u == pytest.approx(0.5)

    def test_monotone_convergent_sequence_eventually_passes(self, rng):
        base = np.zeros((3, 6, 6, 6))
        base[0] = 0.05
        passed_at = None
        prev = base + rng.normal(scale=0.01, size=base.shape) * 0
        for k in range(1, 20):
            cur = base + 2.0 ** (-k)
            eps = stationarity_eps(cur, prev)
            if eps <= 1e-3 and passed_at is None:
                passed_at = k
            prev = cur
        assert passed_at is not None


class TestCoverageReport:
    def write_scene(self, path, family, re_value, ux=0.05, pos_x=500.0):
        path.write_text(f"""
domain: {{units: lu, bounds: [0, 2048, 0, 512, 0, 512]}}
geometries:
- type: {family}
  pos_x: {pos_x}
  pos_y: 200.0
  pos_z: 300.0
  dir_vec_x: 1.0
  dir_vec_y: 0.0
  dir_vec_z: 0.0
simulation_parameters:
  LU: 0.01
  Re: {re_value}
  dx: 16
  inlet_velocity_x: {ux}
  inlet_velocity_y: 0.001
  inlet_velocity_z: -0.002
  vector_magnitude: {math.hypot(ux, 0.001, 0.002):.5f}
  periodicity_x: 0
  periodicity_y: 0
  periodicity_z: 1
  refinement_parameter: 0
  job_identifier_: t
""")

    def test_shape_proportions(self, tmp_path):
        self.write_scene(tmp_path / "object_0.yaml", "cone", 800.0)
        self.write_scene(tmp_path / "object_1.yaml", "cone", 900.0)
        self.write_scene(tmp_path / "object_2.yaml", "torus", 1100.0)
        out = tmp_path / "report"
        out.mkdir()
        summary = coverage_report(tmp_path, out)
        assert summary["families"] == {"cone": 2, "torus": 1}
        with open(out / "shape_freq.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["family", "count", "proportion", "ci_low", "ci_high"]
        cone = next(r for r in rows[2:] if r[0] == "cone")
        assert float(cone[2]) == pytest.approx(2 / 3)

    def test_unparseable_sidecar_skipped(self, tmp_path):
        self.write_scene(tmp_path / "object_0.yaml", "cone", 800.0)
        (tmp_path / "object_1.yaml").write_text("]] not yaml {{")
        out = tmp_path / "report"
        out.mkdir()
        summary = coverage_report(tmp_path, out)
        (problem,) = summary["skipped"]
        assert problem.startswith(
            f"scene sidecar {tmp_path / 'object_1.yaml'}: unparseable YAML")
        assert summary["scenes"] == 1

    def test_half_parsed_scene_leaves_no_rows(self, tmp_path):
        good, mixed = tmp_path / "good", tmp_path / "mixed"
        for d in (good, mixed):
            d.mkdir()
            self.write_scene(d / "object_0.yaml", "cone", 800.0)
        # Re and the inlet parse, the object's centre does not
        bad = mixed / "object_1.yaml"
        self.write_scene(bad, "torus", 1100.0)
        bad.write_text(bad.read_text().replace("  pos_x: 500.0\n", ""))
        tables = []
        for d in (good, mixed):
            out = tmp_path / f"report_{d.name}"
            out.mkdir()
            summary = coverage_report(d, out)
            tables.append({p.name: p.read_bytes()
                           for p in sorted(out.glob("*.csv"))})
        assert summary["skipped"] == [
            f"scene sidecar {bad}: geometries[0].pos_x is missing"]
        assert summary["scenes"] == 1
        assert summary["families"] == {"cone": 1}
        assert tables[1] == tables[0]

        # a tree of only such scenes has nothing to report
        (mixed / "object_0.yaml").unlink()
        out = tmp_path / "report_alone"
        out.mkdir()
        with pytest.raises(ArtifactIOError, match="no parseable"):
            coverage_report(mixed, out)

    def test_byte_identical_regeneration(self, tmp_path):
        for i, (fam, re_v) in enumerate([("cone", 500.0), ("wedge", 2500.0),
                                         ("sphere", 9000.0)]):
            self.write_scene(tmp_path / f"object_{i}.yaml", fam, re_v)
        outs = []
        for run in range(2):
            out = tmp_path / f"report{run}"
            out.mkdir()
            coverage_report(tmp_path, out)
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        assert outs[0] == outs[1]
        assert set(outs[0]) == {"shape_freq.csv", "placement_hist.csv",
                                "inlet_hist.csv", "re_hist.csv",
                                "re_by_family.csv"}

    def test_empty_dir_is_error(self, tmp_path):
        out = tmp_path / "report"
        out.mkdir()
        with pytest.raises(ArtifactIOError, match="no scene sidecars"):
            coverage_report(tmp_path, out)
