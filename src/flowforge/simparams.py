"""Per-scene simulation parameters and solver-policy algebra.

The draw protocol mirrors the geometry sampler: one generator vector per
attempt, rejection advances the ordinal, so interrupted campaigns resume
deterministically.  One accepted attempt supplies the inlet direction,
velocity magnitude, and Reynolds target; a second vector supplies the
periodicity and refinement flags.

Lattice conventions: dt = 1, c_s^2 = 1/3, so nu0 = (tau - 1/2)/3 and
Ma = |u| * sqrt(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .sampling import GeneratorState, advance_on_reject, next_point

CS2 = 1.0 / 3.0
SQRT3 = math.sqrt(3.0)

AXES = ("x", "y", "z")


@dataclass
class SimParams:
    inlet_velocity: tuple[float, float, float]
    vector_magnitude: float
    periodicity: tuple[bool, bool, bool]
    refinement_flag: int
    re: float
    nu0: float
    tau: float
    omega: float
    dx_meta: int
    precision: int = 5
    mach_inlet: float = 0.0
    mach_ok_inlet: bool = True
    mach_ok_global: bool = True
    tau_capped: bool = False

    def validate(self, policy: dict):
        """Re-check the emitted invariants against the governing policy."""
        ux = self.inlet_velocity[0]
        if not (ux > 0 and ux >= policy["min_x_component_after_scaling"]):
            raise GeometryError(f"inlet x-velocity {ux} below policy threshold")
        mag = float(np.linalg.norm(self.inlet_velocity))
        if abs(mag - self.vector_magnitude) > 10 ** (-self.precision):
            raise GeometryError("inlet velocity norm drifted from magnitude")
        if not (policy["magnitude_min"] - 10 ** (-self.precision)
                <= self.vector_magnitude
                <= policy["magnitude_max"] + 10 ** (-self.precision)):
            raise GeometryError(f"magnitude {self.vector_magnitude} outside policy")
        for axis, flag in zip(AXES, self.periodicity):
            if flag and not policy["periodic_axes"][axis]:
                raise GeometryError(f"periodicity on disallowed axis {axis}")
        if not self.tau > 0.5:
            raise GeometryError(f"tau {self.tau} not above 0.5")


# ---------------------------------------------------------------------------
# Relaxation / viscosity / Reynolds algebra
# ---------------------------------------------------------------------------
def nu_from_tau(tau: float) -> float:
    """nu0 = c_s^2 (tau - 1/2) with dt = 1."""
    if tau <= 0.5:
        raise GeometryError(f"non-positive viscosity: tau={tau} <= 0.5")
    return CS2 * (tau - 0.5)


def tau_from_nu(nu0: float) -> float:
    if nu0 <= 0:
        raise GeometryError(f"non-positive viscosity: nu0={nu0}")
    return 3.0 * nu0 + 0.5


def omega_from_tau(tau: float) -> float:
    if tau <= 0.5:
        raise GeometryError(f"non-positive viscosity: tau={tau} <= 0.5")
    return 1.0 / tau


def reynolds(u_bulk: float, l_char: float, nu0: float) -> float:
    return u_bulk * l_char / nu0


def target_reynolds(re_target: float, u_bulk: float, l_char: float,
                    tau_cap: float = 1.99) -> tuple[float, float, bool]:
    """Pick (nu0, tau) achieving the requested Reynolds number exactly.

    Targeting uses the base viscosity; the eddy contribution varies during
    a run and is not part of the bookkeeping.  Returns a capped flag when
    tau exceeds the configured stability cap (recorded, not fatal).
    """
    if re_target <= 0 or u_bulk <= 0 or l_char <= 0:
        raise GeometryError("target_reynolds requires positive Re, U, and L")
    nu0 = u_bulk * l_char / re_target
    tau = tau_from_nu(nu0)
    return nu0, tau, tau > tau_cap


def mach_check(u, ma_inlet_max: float = 0.12,
               ma_max: float = 0.20) -> tuple[float, bool, bool]:
    """Ma = |u| sqrt(3); returns (Ma, inlet gate ok, global gate ok)."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    speed = float(np.linalg.norm(u)) if u.ndim == 1 else float(np.abs(u).max())
    ma = speed * SQRT3
    return ma, ma <= ma_inlet_max, ma <= ma_max


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------
def unit_vector(u1: float, u2: float) -> np.ndarray:
    """Uniform direction on the sphere from two uniforms."""
    phi = 2.0 * math.pi * u1
    cos_theta = 2.0 * u2 - 1.0
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    return np.array([sin_theta * math.cos(phi), sin_theta * math.sin(phi),
                     cos_theta])


def sim_draw_width(policy: dict) -> int:
    """Components consumed from one vector: direction 2, magnitude, Re,
    one per eligible periodic axis, refinement."""
    n_eligible = sum(bool(policy["periodic_axes"][a]) for a in AXES)
    return 4 + n_eligible + 1


@dataclass
class InletDraw:
    velocity: tuple[float, float, float]
    magnitude: float
    raw: np.ndarray
    attempts: int


def sample_inlet_velocity(policy: dict, state: GeneratorState) -> InletDraw:
    """Direction-then-scale inlet draw with double thresholding.

    The direction is rejected until its x-component clears the generator
    threshold; after scaling by the sampled magnitude, the x-component must
    still clear the post-scale threshold.  Every rejection advances the
    sequence ordinal.
    """
    decimals = policy["precision_decimals"]
    budget = policy["rejection_budget"]
    for attempt in range(budget):
        vec = next_point(state)
        direction = unit_vector(vec[0], vec[1])
        if direction[0] < policy["min_x_component_generator"]:
            advance_on_reject(state)
            continue
        magnitude = (policy["magnitude_min"]
                     + vec[2] * (policy["magnitude_max"] - policy["magnitude_min"]))
        magnitude = round(magnitude, decimals)
        velocity = np.round(direction * magnitude, decimals)
        if velocity[0] < policy["min_x_component_after_scaling"]:
            advance_on_reject(state)
            continue
        return InletDraw(velocity=tuple(float(v) for v in velocity),
                         magnitude=float(magnitude), raw=vec,
                         attempts=attempt + 1)
    raise GeometryError(
        f"inlet-velocity rejection budget ({budget}) exhausted; "
        "check direction/magnitude thresholds")


def sample_flags(policy: dict, state: GeneratorState
                 ) -> tuple[tuple[bool, bool, bool], int]:
    """Independent periodicity per eligible axis plus the refinement flag."""
    vec = next_point(state)
    flags = []
    cursor = 0
    for axis in AXES:
        if policy["periodic_axes"][axis]:
            flags.append(bool(vec[cursor] < policy["periodic_probability"]))
            cursor += 1
        else:
            flags.append(False)
    refinement = int(vec[cursor] < policy["refinement_probability"])
    return tuple(flags), refinement


def sample_sim_params(cfg_data: dict, state: GeneratorState) -> SimParams:
    """Scene-level draw: inlet velocity, Reynolds target, flags, solver algebra."""
    policy = cfg_data["sim_param_policy"]
    solver = cfg_data["solver_policy"]
    decimals = policy["precision_decimals"]

    inlet = sample_inlet_velocity(policy, state)
    re_lo, re_hi = policy["re_band"]
    re_target = re_lo + float(inlet.raw[3]) * (re_hi - re_lo)
    re_target = round(re_target, decimals)

    periodicity, refinement = sample_flags(policy, state)

    nu0, tau, capped = target_reynolds(re_target, inlet.magnitude,
                                       solver["l_char"],
                                       policy["tau_stability_cap"])
    ma, ok_inlet, ok_global = mach_check(np.asarray(inlet.velocity),
                                         solver["ma_inlet_max"],
                                         solver["ma_max"])
    params = SimParams(
        inlet_velocity=inlet.velocity,
        vector_magnitude=inlet.magnitude,
        periodicity=periodicity,
        refinement_flag=refinement,
        re=re_target,
        nu0=nu0,
        tau=tau,
        omega=omega_from_tau(tau),
        dx_meta=cfg_data["sdf_policy"]["dx"],
        precision=decimals,
        mach_inlet=ma,
        mach_ok_inlet=ok_inlet,
        mach_ok_global=ok_global,
        tau_capped=capped,
    )
    params.validate(policy)
    return params
