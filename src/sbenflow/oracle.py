"""Reference solvers and analytic solutions for validation paths.

These steppers are deliberately plain: explicit midpoint Runge-Kutta on the
same periodic central-difference operators used everywhere else, with a Leray
projection of both stage states (incompressible) or the conservative mass
update (barotropic).  They are also the reference trajectories every
benchmark pipeline steps, so their stages run in place: each step writes its
temporaries into a StepScratch reused across the steps of a run, and
allocates only the new state's velocity (and density).  The arithmetic is
that of the public operators, operand for operand, so the bits are theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional

import numpy as np

from . import fields as fd
from .balance import BarotropicPowerEos, DensityError, Eos, FluidState, IncompressibleEos
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
    """Named validation case with its grid, reference time sampling and fluid.

    eos defaults to the default fluid of the case's kind.  params holds the
    amplitude (of every case but rigid_rotation), eos's own constants (each
    equal to eos's) and nu, which is not read: a run's kinematic viscosity
    is mu / rho0.
    """

    case_id: str
    grid: Grid2P
    t_final: float
    n_ref: int
    params: Mapping[str, float] = field(default_factory=dict)
    eos: Optional[Eos] = None

    def __post_init__(self):
        if self.case_id not in CASE_IDS:
            raise ValueError(f"unknown case id {self.case_id!r}; known: {CASE_IDS}")
        if not (0 < self.t_final < math.inf and self.n_ref >= 1):
            raise ValueError("need a finite t_final > 0 and n_ref >= 1")
        object.__setattr__(self, "params", dict(self.params))
        compressible = self.case_id == "compressible_smooth"
        eos_class = BarotropicPowerEos if compressible else IncompressibleEos
        if self.eos is None:
            object.__setattr__(self, "eos", eos_class())
        elif not isinstance(self.eos, eos_class):
            kind = "a barotropic" if compressible else "an incompressible"
            raise ValueError(f"case {self.case_id} needs {kind} fluid, got {self.eos}")
        if self.case_id != "rigid_rotation":
            _require_two_pi_box(self.grid)
        fluid = {f.name: getattr(self.eos, f.name) for f in fields(self.eos)}
        accepted = [*fluid, "nu"] + (["amplitude"] if self.case_id != "rigid_rotation" else [])
        for key, value in self.params.items():
            if key not in accepted:
                raise ValueError(f"unknown case parameter {key!r}; {self.case_id} accepts "
                                 f"{', '.join(accepted)}")
            if key in fluid and value != fluid[key]:
                raise ValueError(f"case parameter {key} = {value} differs from the "
                                 f"fluid's {key} = {fluid[key]}")
        amplitude = self.params.get("amplitude", 0.01)
        if compressible and not abs(amplitude) < 1.0:
            # the initial density is rho0 (1 + amplitude cos x cos y)
            raise ValueError("parameter amplitude must lie in (-1, 1) for "
                             f"compressible_smooth (positive initial density), got {amplitude}")


def _require_two_pi_box(grid: Grid2P):
    two_pi = 2.0 * math.pi
    if abs(grid.lx - two_pi) > 1e-12 or abs(grid.ly - two_pi) > 1e-12:
        raise ValueError("this analytic solution lives on the (2 pi)^2 box, "
                         f"not {grid.lx} x {grid.ly}")


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


class StepScratch:
    """Work arrays of the RK2 steps on one grid, overwritten by every step.

    reference_path makes one per run and passes it to each step; a step
    called without one makes its own.  No state a step returns shares memory
    with them.
    """

    def __init__(self, grid: Grid2P):
        self.grid = grid
        vector = (3, *grid.shape)
        # the Jacobian columns dv/dx, dv/dy, then the advection term
        self.vx, self.vy = np.empty(vector), np.empty(vector)
        # the Laplacian, then the viscous and Coriolis terms; tmp is scratch
        self.lap, self.tmp = np.empty(vector), np.empty(vector)
        # a stage's velocity slope and the midpoint velocity
        self.k, self.v_half = np.empty(vector), np.empty(vector)
        # compressible only: pressure, div(v) and d/dx(rho v_x), then the
        # density slope and the midpoint density
        self.p, self.div = np.empty(grid.shape), np.empty(grid.shape)
        self.drho, self.rho_half = np.empty(grid.shape), np.empty(grid.shape)

    def check(self, grid: Grid2P) -> "StepScratch":
        if grid != self.grid:
            raise ValueError("scratch was made for another grid")
        return self


# The right-hand sides below write each stage into the scratch arrays with
# ufunc out=.  Every value is computed from the operands, and in the order, of
# the public operators' expressions (fd.advect, fd.laplacian, fd.grad_scalar,
# fd.div_vector, fd.cross, fd.scalar_times_vector, the field arithmetic), so
# the bits are theirs; tests/test_oracle.py keeps that composition as the
# reference.  The projection is called through this module's leray_project.

def _jacobian_and_laplacian(v: np.ndarray, w: StepScratch) -> tuple[np.ndarray, np.ndarray]:
    """Differentiate v once: returns its Jacobian columns dv/dx, dv/dy (in
    w.vx, w.vy) and leaves laplacian(v) = d/dx(dv/dx) + d/dy(dv/dy) in w.lap."""
    g = w.grid
    vx, vy = fd.central_differences(g, v, out=(w.vx, w.vy))
    lap, vyy = fd.central_differences(g, vx, vy, out=(w.lap, w.tmp))
    lap += vyy
    return vx, vy


def _advect(v: np.ndarray, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """advect(v, v) = v_x dv/dx + v_y dv/dy, written over the columns, into vx."""
    np.multiply(v[0], vx, out=vx)
    np.multiply(v[1], vy, out=vy)
    vx += vy
    return vx


def _add_body_forces(acc: np.ndarray, v: np.ndarray, t: float, grav: Gravitation,
                     w: StepScratch, out: np.ndarray) -> np.ndarray:
    """acc + g - 2.0 * cross(Omega, v) into out; acc is overwritten.  The
    cross product is built in w.lap, w.tmp[0] holding its second products."""
    acc += grav.gravity(t).data
    omega, c, tmp = grav.coriolis_vector(t).data, w.lap, w.tmp[0]
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(omega[j], v[k], out=c[i])
        np.multiply(omega[k], v[j], out=tmp)
        c[i] -= tmp
    c *= 2.0
    return np.subtract(acc, c, out=out)


def _incompressible_rhs(v: np.ndarray, t: float, nu: float, grav: Gravitation,
                        w: StepScratch) -> np.ndarray:
    """-advect(v, v) + nu laplacian(v) + g - 2 Omega x v into w.k, unprojected."""
    adv = _advect(v, *_jacobian_and_laplacian(v, w))
    np.negative(adv, out=adv)
    w.lap *= nu
    adv += w.lap
    return _add_body_forces(adv, v, t, grav, w, out=w.k)


def step_incompressible(state: FluidState, dt: float, mu: float, grav: Gravitation,
                        scratch: Optional[StepScratch] = None) -> FluidState:
    """One explicit midpoint RK2 step of the projected momentum equation,
    v_half = P(v + dt/2 rhs(v)) and v_new = P(v + dt rhs(v_half)) with P the
    Leray projection: on divergence-free v (P v = v) the midpoint scheme on
    the projected slopes.  The stages work in scratch (see StepScratch), the
    midpoint in w.v_half; v_new is the only array the step allocates.
    """
    if not isinstance(state.eos, IncompressibleEos):
        raise ValueError("state must carry an incompressible EOS")
    dt_max = stable_dt_incompressible(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    w = StepScratch(state.grid) if scratch is None else scratch.check(state.grid)
    nu = mu / state.eos.rho0
    v = state.v.data
    k1 = _incompressible_rhs(v, state.t, nu, grav, w)
    k1 *= 0.5 * dt
    v_half, _ = leray_project(VectorField(state.grid, np.add(v, k1, out=k1)), out=w.v_half)
    k2 = _incompressible_rhs(v_half.data, state.t + 0.5 * dt, nu, grav, w)
    k2 *= dt
    v_new, _ = leray_project(VectorField(state.grid, np.add(v, k2, out=k2)))
    return FluidState(state.t + dt, v_new, state.rho, state.eos)


def _compressible_rhs(v: np.ndarray, rho: np.ndarray, t: float, mu: float,
                      eos: BarotropicPowerEos, grav: Gravitation, w: StepScratch
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(dv/dt, drho/dt) of the barotropic system into (w.k, w.drho):

    dv/dt = -advect(v, v) + (mu lap(v) + (mu/3) grad(div v) - grad p) / rho
            + g - 2 Omega x v,        drho/dt = -div(rho v).
    """
    g = w.grid
    p = eos.pressure(rho, out=w.p)
    vx, vy = _jacobian_and_laplacian(v, w)
    div_v = np.add(vx[0], vy[1], out=w.div)  # div_vector(v), from the same columns
    # grad_scalar's zero z component goes through the arithmetic like the
    # others: (mu/3) * 0 and visc_z - 0 can flip the sign of a zero
    grad, visc = w.tmp, w.lap
    visc *= mu
    fd.central_differences(g, div_v, out=(grad[0], grad[1]))
    grad[2] = 0.0
    grad *= mu / 3.0
    visc += grad
    fd.central_differences(g, p, out=(grad[0], grad[1]))
    grad[2] = 0.0
    visc -= grad
    visc /= rho
    acc = _advect(v, vx, vy)
    np.negative(acc, out=acc)
    acc += visc
    dv = _add_body_forces(acc, v, t, grav, w, out=w.k)
    # -div_vector(scalar_times_vector(rho, v)): only the in-plane components
    # of rho v are differenced
    m = w.tmp
    np.multiply(rho, v[0], out=m[0])
    np.multiply(rho, v[1], out=m[1])
    ddx_m, drho = fd.central_differences(g, m[0], m[1], out=(w.div, w.drho))
    np.add(ddx_m, drho, out=drho)
    np.negative(drho, out=drho)
    return dv, drho


def step_compressible(state: FluidState, dt: float, mu: float, grav: Gravitation,
                      scratch: Optional[StepScratch] = None) -> FluidState:
    """One explicit midpoint RK2 step of the barotropic system.

    The density update is in divergence form, so total mass is conserved to
    round-off every step.  The stages work in scratch (see StepScratch); the
    new velocity and density are the only arrays the step allocates for its
    result.
    """
    if not isinstance(state.eos, BarotropicPowerEos):
        raise ValueError("state must carry a barotropic EOS")
    dt_max = stable_dt_compressible(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    w = StepScratch(state.grid) if scratch is None else scratch.check(state.grid)
    v, rho = state.v.data, state.rho.data
    dv1, drho1 = _compressible_rhs(v, rho, state.t, mu, state.eos, grav, w)
    dv1 *= 0.5 * dt
    drho1 *= 0.5 * dt
    v_half = np.add(v, dv1, out=w.v_half)
    rho_half = np.add(rho, drho1, out=w.rho_half)
    if np.any(rho_half <= 0):
        raise DensityError("density became non-positive; reduce dt or the perturbation")
    dv2, drho2 = _compressible_rhs(v_half, rho_half, state.t + 0.5 * dt, mu, state.eos,
                                   grav, w)
    dv2 *= dt
    drho2 *= dt
    v_new = VectorField(state.grid, v + dv2)
    rho_new = ScalarField(state.grid, rho + drho2)
    if np.any(rho_new.data <= 0):
        raise DensityError("density became non-positive; reduce dt or the perturbation")
    return FluidState(state.t + dt, v_new, rho_new, state.eos)


def initial_state(case: CaseSpec) -> FluidState:
    """The state a run of the case starts from, at t = 0 in case.eos: its
    analytic field with params' amplitude, Leray-projected for an
    incompressible fluid."""
    grid, eos = case.grid, case.eos
    if case.case_id == "compressible_smooth":
        amp = float(case.params.get("amplitude", 0.01))
        x, y = grid.x(), grid.y()
        v = VectorField.from_components(grid, amp * np.sin(x) * np.cos(y),
                                        amp * np.sin(y) * np.cos(x))
        rho = ScalarField(grid, eos.rho0 * (1.0 + amp * np.cos(x) * np.cos(y)))
        return FluidState(0.0, v, rho, eos)
    amp = float(case.params.get("amplitude", 1.0))
    # at t = 0 the analytic fields do not depend on the viscosity
    if case.case_id == "taylor_green":
        state, _ = taylor_green_analytic(0.0, 0.0, grid, eos.rho0, amp)
    elif case.case_id == "shear_decay":
        state = shear_decay_analytic(0.0, 0.0, grid, eos.rho0, amp)
    else:  # rigid_rotation: the fluid at rest
        state = FluidState(0.0, VectorField.zeros(grid), ScalarField.full(grid, eos.rho0), eos)
    v0, _ = leray_project(state.v)
    return FluidState(0.0, v0, state.rho, state.eos)


def reference_path(case: CaseSpec, mu: float, grav: Gravitation,
                   n_out: Optional[int] = None) -> Path:
    """Run the reference stepper and resample its trajectory onto n_out slices,
    written into the path's arrays as the steps reach them.

    n_out must divide n_ref; defaults to every reference step.
    """
    n_out = n_out or case.n_ref
    if case.n_ref % n_out != 0:
        raise ValueError(f"n_out = {n_out} must divide n_ref = {case.n_ref}")
    stride = case.n_ref // n_out
    dt = case.t_final / case.n_ref

    state = initial_state(case)
    scratch = StepScratch(case.grid)
    compressible = isinstance(state.eos, BarotropicPowerEos)
    # looked up per run, so that a wrapped stepper is the one called
    step = step_compressible if compressible else step_incompressible

    times, V = [], np.empty((n_out + 1, 3, *case.grid.shape))
    rho = np.empty((n_out + 1, *case.grid.shape)) if compressible else None

    def keep(state: FluidState):
        times.append(state.t)
        V[len(times) - 1] = state.v.data
        if compressible:
            rho[len(times) - 1] = state.rho.data

    keep(state)
    for n in range(case.n_ref):
        state = step(state, dt, mu, grav, scratch)
        # snap the clock to the exact multiple so resampled paths stay uniform
        state = FluidState((n + 1) * dt, state.v, state.rho, state.eos)
        if (n + 1) % stride == 0:
            keep(state)
    return Path.from_arrays(case.grid, state.eos, times, V, rho)
