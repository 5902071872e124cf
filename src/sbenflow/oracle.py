"""Reference solvers and analytic solutions for validation paths.

These steppers are deliberately plain: explicit midpoint Runge-Kutta on the
same periodic central-difference operators used everywhere else, with a
divergence projection for the incompressible equation and the conservative
mass update for the barotropic one.  Transparency beats performance here;
desk-scale grids keep explicit steps cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from . import fields as fd
from .balance import BarotropicPowerEos, DensityError, FluidState, IncompressibleEos
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation
from .sben import Path, leray_project

CASE_IDS = ("taylor_green", "shear_decay", "rigid_rotation", "compressible_smooth")


class UnstableStepError(ValueError):
    """Requested time step violates the explicit stability bound."""

    def __init__(self, dt: float, dt_max: float):
        super().__init__(f"dt = {dt:.3e} exceeds the stability bound; use dt <= {dt_max:.3e}")
        self.suggested_dt = dt_max


@dataclass(frozen=True)
class CaseSpec:
    """Named validation case with its grid and reference time sampling."""

    case_id: str
    grid: Grid2P
    t_final: float
    n_ref: int
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ValueError(f"unknown case id {self.case_id!r}; known: {CASE_IDS}")
        if self.t_final <= 0 or self.n_ref < 1:
            raise ValueError("need t_final > 0 and n_ref >= 1")
        object.__setattr__(self, "params", dict(self.params))


def _require_two_pi_box(grid: Grid2P):
    two_pi = 2.0 * math.pi
    if abs(grid.lx - two_pi) > 1e-12 or abs(grid.ly - two_pi) > 1e-12:
        raise ValueError("this analytic solution lives on the (2 pi)^2 box")


def taylor_green_analytic(t: float, nu: float, grid: Grid2P, rho0: float = 1.0,
                          amplitude: float = 1.0) -> tuple[FluidState, ScalarField]:
    """Decaying vortex lattice on the (2 pi)^2 box.

    v = a e^{-2 nu t} (sin x cos y, -cos x sin y, 0)
    p = rho0 a^2 e^{-4 nu t} (cos 2x + cos 2y) / 4
    """
    _require_two_pi_box(grid)
    x, y = grid.x(), grid.y()
    decay = amplitude * math.exp(-2.0 * nu * t)
    v = VectorField.from_components(grid,
                                    decay * np.sin(x) * np.cos(y),
                                    -decay * np.cos(x) * np.sin(y))
    p = ScalarField(grid, rho0 * decay**2 * (np.cos(2 * x) + np.cos(2 * y)) / 4.0)
    state = FluidState(t, v, ScalarField.full(grid, rho0), IncompressibleEos(rho0))
    return state, p


def shear_decay_analytic(t: float, nu: float, grid: Grid2P, rho0: float = 1.0,
                         amplitude: float = 1.0) -> FluidState:
    """Unidirectional shear v = a e^{-nu t} (sin y, 0, 0); pressure-free solution."""
    _require_two_pi_box(grid)
    y = grid.y()
    v = VectorField.from_components(grid, amplitude * math.exp(-nu * t) * np.sin(y), 0.0 * y)
    return FluidState(t, v, ScalarField.full(grid, rho0), IncompressibleEos(rho0))


def stable_dt_incompressible(state: FluidState, mu: float) -> float:
    """Safe explicit step for advection plus diffusion with the wide stencils."""
    g = state.grid
    nu = mu / float(state.rho.data.min())
    adv = (np.abs(state.v.data[0]).max() / g.dx + np.abs(state.v.data[1]).max() / g.dy)
    diff = nu * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    return 0.5 / max(adv + diff, 1e-300)


def stable_dt_compressible(state: FluidState, mu: float) -> float:
    g = state.grid
    eos: BarotropicPowerEos = state.eos
    c = float(eos.sound_speed(state.rho.data).max())
    nu = mu / float(state.rho.data.min())
    adv = ((np.abs(state.v.data[0]).max() + c) / g.dx
           + (np.abs(state.v.data[1]).max() + c) / g.dy)
    diff = nu * (4.0 / 3.0) * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    return 0.5 / max(adv + diff, 1e-300)


def _advection_and_laplacian(v: VectorField
                             ) -> tuple[VectorField, VectorField, np.ndarray, np.ndarray]:
    """advect(v, v), laplacian(v) and the Jacobian columns dv/dx, dv/dy they
    are built from.  v is differentiated once, and the expressions are those
    of fd.advect and fd.laplacian, so the bits are theirs."""
    g = v.grid
    vx, vy = fd.central_differences(g, v.data)
    vxx, vyy = fd.central_differences(g, vx, vy)
    return VectorField(g, v.data[0] * vx + v.data[1] * vy), VectorField(g, vxx + vyy), vx, vy


def _incompressible_rhs(v: VectorField, t: float, nu: float, grav: Gravitation) -> VectorField:
    adv, lap, _, _ = _advection_and_laplacian(v)
    omega = grav.coriolis_vector(t)
    rhs = -adv + nu * lap + grav.gravity(t) - 2.0 * fd.cross(omega, v)
    projected, _ = leray_project(rhs)
    return projected


def step_incompressible(state: FluidState, dt: float, mu: float,
                        grav: Gravitation) -> FluidState:
    """One explicit midpoint RK2 step of the projected momentum equation."""
    if not isinstance(state.eos, IncompressibleEos):
        raise ValueError("state must carry an incompressible EOS")
    dt_max = stable_dt_incompressible(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    nu = mu / state.eos.rho0
    k1 = _incompressible_rhs(state.v, state.t, nu, grav)
    v_half = state.v + (0.5 * dt) * k1
    k2 = _incompressible_rhs(v_half, state.t + 0.5 * dt, nu, grav)
    v_new, _ = leray_project(state.v + dt * k2)
    return FluidState(state.t + dt, v_new, state.rho, state.eos)


def _compressible_rhs(v: VectorField, rho: ScalarField, t: float, mu: float,
                      eos: BarotropicPowerEos, grav: Gravitation
                      ) -> tuple[VectorField, ScalarField]:
    p = ScalarField(rho.grid, eos.pressure(rho.data))
    adv, lap, vx, vy = _advection_and_laplacian(v)
    div_v = ScalarField(v.grid, vx[0] + vy[1])  # div_vector(v), from the same columns
    visc = mu * lap + (mu / 3.0) * fd.grad_scalar(div_v)
    omega = grav.coriolis_vector(t)
    dv = (-adv
          + VectorField(v.grid, (visc.data - fd.grad_scalar(p).data) / rho.data[None])
          + grav.gravity(t) - 2.0 * fd.cross(omega, v))
    drho = -fd.div_vector(fd.scalar_times_vector(rho, v))
    return dv, drho


def step_compressible(state: FluidState, dt: float, mu: float,
                      grav: Gravitation) -> FluidState:
    """One explicit midpoint RK2 step of the barotropic system.

    The density update is in divergence form, so total mass is conserved to
    round-off every step.
    """
    if not isinstance(state.eos, BarotropicPowerEos):
        raise ValueError("state must carry a barotropic EOS")
    dt_max = stable_dt_compressible(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    dv1, drho1 = _compressible_rhs(state.v, state.rho, state.t, mu, state.eos, grav)
    v_half = state.v + (0.5 * dt) * dv1
    rho_half = state.rho + (0.5 * dt) * drho1
    if np.any(rho_half.data <= 0):
        raise DensityError("density became non-positive; reduce dt or the perturbation")
    dv2, drho2 = _compressible_rhs(v_half, rho_half, state.t + 0.5 * dt, mu, state.eos, grav)
    v_new = state.v + dt * dv2
    rho_new = state.rho + dt * drho2
    if np.any(rho_new.data <= 0):
        raise DensityError("density became non-positive; reduce dt or the perturbation")
    return FluidState(state.t + dt, v_new, rho_new, state.eos)


def initial_state(case: CaseSpec) -> FluidState:
    p = case.params
    if case.case_id == "taylor_green":
        state, _ = taylor_green_analytic(0.0, float(p.get("nu", 0.1)), case.grid,
                                         rho0=float(p.get("rho0", 1.0)),
                                         amplitude=float(p.get("amplitude", 1.0)))
        return state
    if case.case_id == "shear_decay":
        return shear_decay_analytic(0.0, float(p.get("nu", 0.1)), case.grid,
                                    rho0=float(p.get("rho0", 1.0)),
                                    amplitude=float(p.get("amplitude", 1.0)))
    if case.case_id == "rigid_rotation":
        grid = case.grid
        rho0 = float(p.get("rho0", 1.0))
        return FluidState(0.0, VectorField.zeros(grid), ScalarField.full(grid, rho0),
                          IncompressibleEos(rho0))
    if case.case_id == "compressible_smooth":
        grid = case.grid
        _require_two_pi_box(grid)
        eos = BarotropicPowerEos(p0=float(p.get("p0", 1.0)),
                                 rho0=float(p.get("rho0", 1.0)),
                                 gamma=float(p.get("gamma", 1.4)))
        amp = float(p.get("amplitude", 0.01))
        x, y = grid.x(), grid.y()
        v = VectorField.from_components(grid, amp * np.sin(x) * np.cos(y),
                                        amp * np.sin(y) * np.cos(x))
        rho = ScalarField(grid, eos.rho0 * (1.0 + amp * np.cos(x) * np.cos(y)))
        return FluidState(0.0, v, rho, eos)
    raise ValueError(case.case_id)


def reference_path(case: CaseSpec, mu: float, grav: Gravitation,
                   n_out: Optional[int] = None) -> Path:
    """Run the reference stepper and resample its trajectory onto n_out slices.

    n_out must divide n_ref; defaults to every reference step.
    """
    n_out = n_out or case.n_ref
    if case.n_ref % n_out != 0:
        raise ValueError(f"n_out = {n_out} must divide n_ref = {case.n_ref}")
    stride = case.n_ref // n_out
    dt = case.t_final / case.n_ref

    state = initial_state(case)
    compressible = isinstance(state.eos, BarotropicPowerEos)
    if compressible:
        stepper = lambda s: step_compressible(s, dt, mu, grav)
    else:
        v0, _ = leray_project(state.v)
        state = FluidState(state.t, v0, state.rho, state.eos)
        stepper = lambda s: step_incompressible(s, dt, mu, grav)

    states = [state]
    for n in range(case.n_ref):
        state = stepper(state)
        # snap the clock to the exact multiple so resampled paths stay uniform
        state = FluidState((n + 1) * dt, state.v, state.rho, state.eos)
        if (n + 1) % stride == 0:
            states.append(state)
    return Path(states)
