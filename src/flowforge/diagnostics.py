"""Stationarity gating, flux/divergence/eddy-viscosity metrics, and dataset
coverage reports.

Gate thresholds default to eps_u <= 1e-3 and delta_phi <= 1e-2; both are
configuration knobs, not physics constants.  Divergence and strain-rate
operators use second-order central differences, falling back to one-sided
stencils next to solid voxels and domain faces.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .errors import ArtifactIOError, FieldError
from .geometry.export import read_scene_sidecar, scene_sidecars

DEFAULT_EPS_U = 1e-3
DEFAULT_DELTA_PHI = 1e-2
_DELTA = 1e-12


# ---------------------------------------------------------------------------
# Stationarity and balance metrics
# ---------------------------------------------------------------------------
def stationarity_eps(mean_k: np.ndarray, mean_km1: np.ndarray,
                     delta: float = _DELTA) -> float:
    """Relative L2 change between successive window means."""
    mean_k = np.asarray(mean_k, dtype=np.float64)
    mean_km1 = np.asarray(mean_km1, dtype=np.float64)
    if mean_k.shape != mean_km1.shape:
        raise FieldError(
            f"grid mismatch: {mean_k.shape} vs {mean_km1.shape}")
    if delta <= 0:
        raise FieldError("stationarity delta must be positive")
    num = float(np.linalg.norm((mean_k - mean_km1).ravel()))
    den = float(np.linalg.norm(mean_k.ravel())) + delta
    return num / den


def _masked_derivative(f: np.ndarray, fluid: np.ndarray, axis: int, h: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """d f / d axis on fluid voxels: central where both neighbors are fluid,
    one-sided toward the available neighbor otherwise.  Returns (derivative,
    valid-stencil mask)."""
    fwd_ok = np.zeros_like(fluid)
    bwd_ok = np.zeros_like(fluid)
    sl_all = [slice(None)] * 3
    head, tail = list(sl_all), list(sl_all)
    head[axis], tail[axis] = slice(None, -1), slice(1, None)
    head, tail = tuple(head), tuple(tail)

    fwd_ok[head] = fluid[tail]
    bwd_ok[tail] = fluid[head]

    f_fwd = np.zeros_like(f)
    f_bwd = np.zeros_like(f)
    f_fwd[head] = f[tail]
    f_bwd[tail] = f[head]

    deriv = np.zeros_like(f)
    central = fwd_ok & bwd_ok
    fwd_only = fwd_ok & ~bwd_ok
    bwd_only = bwd_ok & ~fwd_ok
    deriv[central] = (f_fwd[central] - f_bwd[central]) / (2.0 * h)
    deriv[fwd_only] = (f_fwd[fwd_only] - f[fwd_only]) / h
    deriv[bwd_only] = (f[bwd_only] - f_bwd[bwd_only]) / h
    return deriv, (central | fwd_only | bwd_only) & fluid


def divergence_metrics(u: np.ndarray, mask: np.ndarray | None, h: float
                       ) -> tuple[float, float]:
    """(L2, Linf) norms of the discrete divergence over the fluid mask."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 4 or u.shape[0] != 3:
        raise FieldError("divergence needs a (3, nx, ny, nz) velocity field")
    dims = u.shape[1:]
    if min(dims) < 3:
        raise FieldError(f"grid {dims} too small for the divergence stencil")
    fluid = (np.ones(dims, dtype=bool) if mask is None
             else np.asarray(mask, dtype=bool))
    if not fluid.any():
        return 0.0, 0.0

    div = np.zeros(dims)
    valid = np.ones(dims, dtype=bool)
    for axis in range(3):
        deriv, ok = _masked_derivative(u[axis], fluid, axis, h)
        div += deriv
        valid &= ok
    sel = div[valid & fluid]
    if sel.size == 0:
        return 0.0, 0.0
    return float(np.linalg.norm(sel)), float(np.abs(sel).max())


def flux_balance(u: np.ndarray, mask: np.ndarray | None, sample_area: float,
                 inlet_index: int = 0, outlet_index: int = -1) -> float:
    """Relative imbalance of streamwise flux between two x-planes."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 4 or u.shape[0] != 3:
        raise FieldError("flux balance needs a (3, nx, ny, nz) velocity field")
    dims = u.shape[1:]
    fluid = (np.ones(dims, dtype=bool) if mask is None
             else np.asarray(mask, dtype=bool))
    phi_in = float((u[0, inlet_index] * fluid[inlet_index]).sum() * sample_area)
    phi_out = float((u[0, outlet_index] * fluid[outlet_index]).sum() * sample_area)
    if phi_in <= 0:
        raise FieldError(f"no inflow: inlet-plane flux {phi_in} <= 0")
    return abs(phi_in - phi_out) / phi_in


def smagorinsky_nut(u: np.ndarray, cs: float, delta: float, h: float
                    ) -> np.ndarray:
    """Eddy viscosity (cs*delta)^2 |S| with |S| = sqrt(2 sum S_ij S_ij)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 4 or u.shape[0] != 3:
        raise FieldError("strain rate needs a (3, nx, ny, nz) velocity field")
    if min(u.shape[1:]) < 2:
        raise FieldError("grid too small for gradients")
    grads = [np.gradient(u[i], h, edge_order=1) for i in range(3)]
    s_sq = np.zeros(u.shape[1:])
    for i in range(3):
        for j in range(3):
            s_ij = 0.5 * (grads[i][j] + grads[j][i])
            s_sq += s_ij ** 2
    return (cs * delta) ** 2 * np.sqrt(2.0 * s_sq)


@dataclass
class StationarityReport:
    eps_u: float
    eps2: float
    eps_inf: float
    delta_phi: float
    window_id: int = 0
    thresholds: dict = field(default_factory=lambda: {
        "eps_u": DEFAULT_EPS_U, "delta_phi": DEFAULT_DELTA_PHI})

    @property
    def passed(self) -> bool:
        return (self.eps_u <= self.thresholds["eps_u"]
                and self.delta_phi <= self.thresholds["delta_phi"])

    def to_dict(self) -> dict:
        return {
            "eps_u": self.eps_u, "eps2": self.eps2, "eps_inf": self.eps_inf,
            "delta_phi": self.delta_phi, "window_id": self.window_id,
            "thresholds": dict(self.thresholds), "passed": self.passed,
        }


def stationarity_gate(mean_k: np.ndarray, mean_km1: np.ndarray,
                      mask: np.ndarray | None, h: float, sample_area: float,
                      eps_u_max: float = DEFAULT_EPS_U,
                      delta_phi_max: float = DEFAULT_DELTA_PHI,
                      window_id: int = 0) -> StationarityReport:
    """Combined gate on two velocity fields: relative L2 change from
    ``mean_km1`` to ``mean_k``, divergence norms, and inlet/outlet flux
    balance of ``mean_k``.

    ``forge gate`` passes a case's ``velocity_avg.npy`` as ``mean_k`` and
    its ``velocity.npy`` as ``mean_km1``.  The stand-in solver of the
    ``local`` backend writes the same array to both files, so ``eps_u`` is
    0 on every such case and only the divergence and flux terms can fail.
    """
    eps_u = stationarity_eps(mean_k, mean_km1)
    eps2, eps_inf = divergence_metrics(mean_k, mask, h)
    delta_phi = flux_balance(mean_k, mask, sample_area)
    return StationarityReport(
        eps_u=eps_u, eps2=eps2, eps_inf=eps_inf, delta_phi=delta_phi,
        window_id=window_id,
        thresholds={"eps_u": eps_u_max, "delta_phi": delta_phi_max})


# ---------------------------------------------------------------------------
# Coverage reports
# ---------------------------------------------------------------------------
_N_BINS = 32


def _binomial_ci(count: int, total: int, z: float = 1.959963984540054
                 ) -> tuple[float, float]:
    """Normal-approximation 95% interval for a proportion."""
    if total == 0:
        return 0.0, 0.0
    p = count / total
    half = z * math.sqrt(max(p * (1.0 - p), 0.0) / total)
    return max(0.0, p - half), min(1.0, p + half)


def _write_csv(path: Path, policy: str, header: list[str], rows: list[list]):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([f"# {policy}"])
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, text.getvalue().encode("utf-8"))


def _hist_rows(values: np.ndarray, lo: float, hi: float, label: str
               ) -> list[list]:
    counts, edges = np.histogram(values, bins=_N_BINS, range=(lo, hi))
    return [[label, repr(float(edges[i])), repr(float(edges[i + 1])),
             int(counts[i])] for i in range(len(counts))]


def coverage_report(scene_dir, out_dir, roi_x=(146.0, 1800.0),
                    cross_range=(0.0, 512.0),
                    re_band=(100.0, 15000.0)) -> dict:
    """Parse every scene sidecar under ``scene_dir`` (sorted) and emit the
    coverage CSV tables; ``skipped`` holds the reader's message per bad one."""
    scene_dir = Path(scene_dir)
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise ArtifactIOError(f"report output directory missing: {out_dir}")
    paths = scene_sidecars(scene_dir)
    if not paths:
        raise ArtifactIOError(f"no scene sidecars under {scene_dir}")

    families: list[str] = []
    centers: list[tuple[float, float, float]] = []
    inlets: list[list[float]] = []
    res: list[float] = []
    re_by_family: dict[str, list[float]] = {}
    skipped: list[str] = []

    for path in paths:
        try:
            scene = read_scene_sidecar(path)
        except ArtifactIOError as exc:
            skipped.append(str(exc))
            continue
        sim = scene.sim
        inlets.append([sim[f"inlet_velocity_{axis}"] for axis in "xyz"]
                      + [sim["vector_magnitude"]])
        res.append(sim["Re"])
        for family, center in scene.objects:
            families.append(family)
            centers.append(center)
            re_by_family.setdefault(family, []).append(sim["Re"])

    if not families:
        raise ArtifactIOError(f"no parseable scene sidecars under {scene_dir}")

    total = len(families)
    fam_names = sorted(set(families))
    rows = []
    for name in fam_names:
        count = families.count(name)
        lo, hi = _binomial_ci(count, total)
        rows.append([name, count, repr(count / total), repr(lo), repr(hi)])
    _write_csv(out_dir / "shape_freq.csv",
               "accepted objects; 95% normal-approximation binomial CI",
               ["family", "count", "proportion", "ci_low", "ci_high"], rows)

    centers_arr = np.asarray(centers)
    rows = (_hist_rows(centers_arr[:, 0], roi_x[0], roi_x[1], "x")
            + _hist_rows(centers_arr[:, 1], cross_range[0], cross_range[1], "y")
            + _hist_rows(centers_arr[:, 2], cross_range[0], cross_range[1], "z"))
    _write_csv(out_dir / "placement_hist.csv",
               f"{_N_BINS} uniform bins; x over {list(roi_x)}, "
               f"y/z over {list(cross_range)}",
               ["axis", "bin_lo", "bin_hi", "count"], rows)

    inlet_arr = np.asarray(inlets)
    mag_hi = float(inlet_arr[:, 3].max())
    rows = (_hist_rows(inlet_arr[:, 0], 0.0, mag_hi, "u_x")
            + _hist_rows(inlet_arr[:, 1], -mag_hi, mag_hi, "u_y")
            + _hist_rows(inlet_arr[:, 2], -mag_hi, mag_hi, "u_z")
            + _hist_rows(inlet_arr[:, 3], 0.0, mag_hi, "magnitude"))
    _write_csv(out_dir / "inlet_hist.csv",
               f"{_N_BINS} uniform bins; u_x over [0, max|u|], lateral over "
               "[-max|u|, max|u|]",
               ["component", "bin_lo", "bin_hi", "count"], rows)

    _write_csv(out_dir / "re_hist.csv",
               f"{_N_BINS} uniform bins over re_band {list(re_band)}",
               ["component", "bin_lo", "bin_hi", "count"],
               _hist_rows(np.asarray(res), re_band[0], re_band[1], "Re"))

    rows = []
    for name in fam_names:
        vals = np.asarray(re_by_family[name])
        rows.append([name, len(vals), repr(float(np.median(vals))),
                     repr(float(np.percentile(vals, 25))),
                     repr(float(np.percentile(vals, 75)))])
    _write_csv(out_dir / "re_by_family.csv",
               "per-family Reynolds summaries (median and quartiles)",
               ["family", "count", "median", "q1", "q3"], rows)

    return {
        "scenes": len(res), "objects": total, "skipped": skipped,
        "families": {name: families.count(name) for name in fam_names},
    }
