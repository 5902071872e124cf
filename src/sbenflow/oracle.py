"""Reference solvers and analytic solutions for validation paths.

These steppers are deliberately plain: explicit midpoint Runge-Kutta on the
same periodic central-difference operators used everywhere else, with a Leray
projection of both stage states (incompressible) or the conservative mass
update (barotropic).  They are also the reference trajectories every
benchmark pipeline steps, so their stages run in place: each step writes its
temporaries into a StepScratch reused across the steps of a run, and
allocates only the new state's velocity (and density).  On small grids a
stage's cost is mostly numpy calls, so a stage makes few: the scratch binds
each of its stencils to its arrays once per run (fields.Differences, and
sben.leray_project's projection as sben._PlaneProjection), the body force
comes from the preset's two constants (Gravitation.body_force), and a
compressible stage differences its three scalars (div v, p and the mass
flux rho v) in one call.  The arithmetic is that of the public operators,
operand for operand, so the bits are theirs.

The steppers are planar.  Every case starts with v_z = +0.0, and no stage
forces v_z: g_z is -0.0 and (Omega x v)_z is 0 v_y - 0 v_x, so each step of
the three-component composition writes v_z + (+-0) = +0.0 again.  The
stages therefore carry only the rows (v_x, v_y), whose bits are the same as
in that composition; a step refuses (ValueError) a state whose v_z is not
+0.0 bit for bit, a -0.0 included, and writes its new state's v_z as +0.0.

stable_dt bounds each step.  It raises FloatingPointError when one of the
scalars it reduces the state to is not finite, which any NaN or infinity in
v, or in a barotropic fluid's rho, makes so: no step runs on one.  (An
incompressible step reads rho0, not rho.)
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
from .sben import Path, _PlaneProjection, _require_finite, leray_project

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


def stable_dt(state: FluidState, mu: float) -> float:
    """Safe explicit step for advection plus diffusion with the wide stencils:
    a barotropic fluid advects at the flow speed plus its sound speed c and
    diffuses with a factor 4/3 (an incompressible one: c = 0, factor 1).

    It reduces the state to a few scalars (the max |v| of v_x and of v_y,
    c at the largest density, the smallest density), and raises
    FloatingPointError if one of them is not finite.
    """
    g = state.grid
    v, rho = state.v.data, state.rho.data
    barotropic = isinstance(state.eos, BarotropicPowerEos)
    # c grows with rho (gamma >= 1), and a one-element array takes the
    # grid's power loop: the bits of the largest c of the grid
    c = state.eos.sound_speed(rho.max(keepdims=True)).item() if barotropic else 0.0
    rho_min = float(rho.min())
    ux = max(v[0].max(), -v[0].min())
    uy = max(v[1].max(), -v[1].min())
    if not all(math.isfinite(s) for s in (ux, uy, c, rho_min)):
        raise FloatingPointError("stable_dt: the state holds a non-finite velocity or density")
    nu = mu / rho_min
    adv = (ux + c) / g.dx + (uy + c) / g.dy
    diff = nu * (4.0 / 3.0 if barotropic else 1.0) * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    return 0.5 / max(adv + diff, 1e-300)


class StepScratch:
    """Work arrays of the RK2 steps on one grid, overwritten by every step,
    and the stencils bound to them once (fields.Differences, and the
    projection of sben.leray_project bound as sben._PlaneProjection).

    A vector in here is the in-plane rows (2, nx, ny) of a planar field (see
    the module docstring).  A step copies its state's rows into v, the
    input of the bound stencils.  reference_path makes one scratch per run
    and passes it to each step; a step called without one makes its own.
    No state a step returns shares memory with them.
    """

    def __init__(self, grid: Grid2P):
        self.grid = grid
        rows = (2, *grid.shape)
        # a stage's velocity: the state's, then the midpoint
        self.v = np.empty(rows)
        # the column dv/dx, then the advection term (and the planes of the
        # projection); the Laplacian, then the viscous term
        self.vx, self.lap = np.empty(rows), np.empty(rows)
        # the column dv/dy, then scratch, and a stage's velocity slope: one
        # block, where a compressible stage writes its six scalar differences
        self.diffs = np.empty((6, *grid.shape))
        self.vy, self.k = self.diffs[:2], self.diffs[2:4]
        # compressible only: rho v_x, div(v), p and rho v_y, whose x
        # differences are those of rows 0-2 and y differences those of rows
        # 1-3; then the density slope and the midpoint density
        self.scalars = np.empty((4, *grid.shape))
        self.drho, self.rho_half = np.empty(grid.shape), np.empty(grid.shape)
        # the bound stencils: v's Jacobian columns, the Laplacian from them,
        # the six scalar differences, and the projection of a stage state
        # held in k
        self.jacobian = fd.Differences(grid, self.v, out=(self.vx, self.vy))
        self.laplacian = fd.Differences(grid, self.vx, self.vy, out=(self.lap, self.k))
        s, d = self.scalars, self.diffs
        self.scalar_differences = fd.Differences(grid, s[:3], s[1:], out=(d[:3], d[3:]))
        self.project = _PlaneProjection(grid, self.k[0], self.k[1], tuple(self.vx))

    def check(self, grid: Grid2P) -> "StepScratch":
        if grid != self.grid:
            raise ValueError("scratch was made for another grid")
        return self


# The right-hand sides below write each stage into the scratch arrays with
# ufunc out=.  Every value is computed from the operands, and in the order, of
# the public operators' expressions (fd.advect, fd.laplacian, fd.grad_scalar,
# fd.div_vector, fd.scalar_times_vector, the field arithmetic, and
# Gravitation.body_force for g - 2.0 * fd.cross(Omega, v)), so the in-plane
# bits are theirs on a field whose v_z is +0.0; tests/test_oracle.py keeps
# that composition as the reference.  The projection is leray_project's,
# bound in the scratch.  Every preset is steady, so no stage reads the time.

def _in_plane(state: FluidState) -> np.ndarray:
    """The rows (v_x, v_y) of the state's velocity, after checking that its
    v_z is +0.0 bit for bit (a -0.0 is refused too)."""
    v = state.v.data
    if v[2].view(np.int64).any():
        raise ValueError("the reference steppers are planar: v_z must be +0.0 everywhere")
    return v[:2]


def _jacobian_and_laplacian(w: StepScratch) -> tuple[np.ndarray, np.ndarray]:
    """Differentiate w.v once: returns its Jacobian columns dv/dx, dv/dy (in
    w.vx, w.vy) and leaves laplacian(v) = d/dx(dv/dx) + d/dy(dv/dy) in w.lap,
    with w.k as scratch."""
    vx, vy = w.jacobian()
    lap, vyy = w.laplacian()
    lap += vyy
    return vx, vy


def _incompressible_rhs(nu: float, grav: Gravitation, w: StepScratch) -> np.ndarray:
    """-advect(v, v) + nu laplacian(v) + g - 2 Omega x v of v = w.v into
    w.k, unprojected."""
    v = w.v
    adv = fd.advect_columns(v, *_jacobian_and_laplacian(w))
    np.negative(adv, out=adv)
    w.lap *= nu
    adv += w.lap
    return grav.body_force(adv, v, out=w.k)


def _project_stage(w: StepScratch, out: np.ndarray) -> None:
    """The Leray projection of the stage state in w.k into out's two rows."""
    _require_finite(w.k)
    w.project(out[0], out[1])


def step_incompressible(state: FluidState, dt: float, mu: float, grav: Gravitation,
                        scratch: Optional[StepScratch] = None) -> FluidState:
    """One explicit midpoint RK2 step of the projected momentum equation,
    v_half = P(v + dt/2 rhs(v)) and v_new = P(v + dt rhs(v_half)) with P the
    Leray projection: on divergence-free v (P v = v) the midpoint scheme on
    the projected slopes.  The stages work in scratch (see StepScratch), the
    midpoint in w.v; v_new is the only array the step allocates.
    """
    if not isinstance(state.eos, IncompressibleEos):
        raise ValueError("state must carry an incompressible EOS")
    v = _in_plane(state)
    dt_max = stable_dt(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    w = StepScratch(state.grid) if scratch is None else scratch.check(state.grid)
    nu = mu / state.eos.rho0
    np.copyto(w.v, v)
    k1 = _incompressible_rhs(nu, grav, w)
    k1 *= 0.5 * dt
    np.add(v, k1, out=k1)
    _project_stage(w, out=w.v)
    k2 = _incompressible_rhs(nu, grav, w)
    k2 *= dt
    np.add(v, k2, out=k2)
    v_new = _planar_vector(state.grid)
    _project_stage(w, out=v_new)
    return FluidState(state.t + dt, VectorField(state.grid, v_new), state.rho, state.eos)


def _planar_vector(grid: Grid2P) -> np.ndarray:
    """A new (3, nx, ny) array whose z row is +0.0, for a step's v_new."""
    v = np.empty((3, *grid.shape))
    v[2] = 0.0
    return v


def _compressible_rhs(rho: np.ndarray, mu: float, eos: BarotropicPowerEos,
                      grav: Gravitation, w: StepScratch) -> tuple[np.ndarray, np.ndarray]:
    """(dv/dt, drho/dt) of v = w.v and rho into (w.k, w.drho):

    dv/dt = -advect(v, v) + (mu lap(v) + (mu/3) grad(div v) - grad p) / rho
            + g - 2 Omega x v,        drho/dt = -div(rho v).

    grad(div v), grad p and div(rho v) come from one difference of the rows
    of w.scalars, written into w.diffs as (d/dx rho v_x, d/dx div v, d/dx p,
    d/dy div v, d/dy p, d/dy rho v_y).
    """
    v = w.v
    vx, vy = _jacobian_and_laplacian(w)
    s = w.scalars
    np.multiply(rho, v[0], out=s[0])
    np.add(vx[0], vy[1], out=s[1])     # div_vector(v), from the same columns
    eos.pressure(rho, out=s[2])
    np.multiply(rho, v[1], out=s[3])
    acc = fd.advect_columns(v, vx, vy)  # frees w.vy, the first rows of w.diffs
    d = w.diffs
    w.scalar_differences()
    grad_div, grad_p = d[1:4:2], d[2:5:2]
    visc = w.lap
    visc *= mu
    grad_div *= mu / 3.0
    visc += grad_div
    visc -= grad_p
    visc /= rho
    # -div_vector(scalar_times_vector(rho, v)): only the in-plane components
    # of rho v are differenced
    drho = np.add(d[0], d[5], out=w.drho)
    np.negative(drho, out=drho)
    np.negative(acc, out=acc)
    acc += visc
    return grav.body_force(acc, v, out=w.k), drho


def step_compressible(state: FluidState, dt: float, mu: float, grav: Gravitation,
                      scratch: Optional[StepScratch] = None) -> FluidState:
    """One explicit midpoint RK2 step of the barotropic system.

    The density update is in divergence form, so total mass is conserved to
    round-off every step.  The stages work in scratch (see StepScratch), the
    midpoint velocity in w.v; the new velocity and density are the only
    arrays the step allocates for its result.  A non-positive midpoint
    density raises DensityError here, a non-positive new one in FluidState.
    """
    if not isinstance(state.eos, BarotropicPowerEos):
        raise ValueError("state must carry a barotropic EOS")
    v = _in_plane(state)
    dt_max = stable_dt(state, mu)
    if dt > dt_max:
        raise UnstableStepError(dt, dt_max)
    w = StepScratch(state.grid) if scratch is None else scratch.check(state.grid)
    rho = state.rho.data
    np.copyto(w.v, v)
    dv1, drho1 = _compressible_rhs(rho, mu, state.eos, grav, w)
    dv1 *= 0.5 * dt
    drho1 *= 0.5 * dt
    np.add(w.v, dv1, out=w.v)
    rho_half = np.add(rho, drho1, out=w.rho_half)
    if np.any(rho_half <= 0):
        raise DensityError("density became non-positive; reduce dt or the perturbation")
    dv2, drho2 = _compressible_rhs(rho_half, mu, state.eos, grav, w)
    dv2 *= dt
    drho2 *= dt
    v_new = _planar_vector(state.grid)
    np.add(v, dv2, out=v_new[:2])
    rho_new = ScalarField(state.grid, rho + drho2)
    return FluidState(state.t + dt, VectorField(state.grid, v_new), rho_new, state.eos)


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

    # the clock snapped to the exact multiples (n + 1) dt, so that resampled
    # paths stay uniform; a step's own t enters no arithmetic
    times = np.arange(0, case.n_ref + 1, stride) * dt
    V = np.empty((n_out + 1, 3, *case.grid.shape))
    rho = np.empty((n_out + 1, *case.grid.shape)) if compressible else None
    V[0] = state.v.data
    if compressible:
        rho[0] = state.rho.data
    for n in range(case.n_ref):
        state = step(state, dt, mu, grav, scratch)
        if (n + 1) % stride == 0:
            V[(n + 1) // stride] = state.v.data
            if compressible:
                rho[(n + 1) // stride] = state.rho.data
    return Path(case.grid, state.eos, times, V, rho)
