"""Space-time functional for viscous flow paths and its minimization.

For a time-sampled velocity path the functional accumulates, per interval and
at the interval midpoint, the Fenchel gap of the irreversible momentum
residual pi_I = rho Dv/Dt + grad p - rho (g - 2 Omega x v)
(balance.momentum_residual), one formula for both kinds:

    phi(v) + phi_star(f) + <pi_I, v>,      f = N(P f_raw),  f_raw = -pi_I

N removes the stencil null modes (means and checkerboards), which K
annihilates.  Only the pressure depends on the kind: a barotropic path takes
grad p(rho) from its EOS and P is the identity; an incompressible path leaves
it out and P, the Leray projection, removes it from f, so it is recovered
afterwards as the multiplier of the constraint.  The pairing is the head
loss; the Coriolis force does no work in it.  With r = f - K v the term is
1/2 <K^(-1) r, r> - <f_raw - N f_raw, v - N v> (v divergence free for the
incompressible kind): the first part is nonnegative and vanishes exactly on
trajectories of the viscous flow equations, and the pairing of the null
parts is the only term that can make the functional negative.

One matrix-free nonlinear conjugate gradient (Polak-Ribiere+) with Armijo
backtracking minimizes both kinds with the initial state pinned: the
incompressible kind on the divergence-free affine subspace, the compressible
kind with the densities re-slaved to the mass balance on every trial path
and a gradient that freezes the density response.

The incompressible descent is preconditioned by the exact inverse of the
functional's Hessian on linear Stokes paths (see _stokes_preconditioner):
one pair of bidiagonal sweeps over the slices per wavenumber.  Every line
search then starts at the unit step, and the stencil null modes (per-slice
means and checkerboards) stay at the start's values.  K annihilates them, so
the functional reaches them through the pairing term (and advection) only;
that term telescopes to rho0/2 |null part of the last slice|^2, and a
descent left free to move them drifts every slice's null part to lower it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fields as fd
from .balance import (BarotropicPowerEos, DensityError, Eos, FluidState, IncompressibleEos,
                      momentum_residual)
from .dissipation import ConjugateSolve, k_of_strain, phi, solve_k, w_density
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation


# --- divergence-free projection --------------------------------------------

def leray_project(v: VectorField, out: Optional[np.ndarray] = None
                  ) -> tuple[VectorField, ScalarField]:
    """Split v = v_df + grad(q) with div(v_df) = 0 on the periodic grid.

    The pressure Poisson equation laplacian(q) = div(v), with the Laplacian
    composed as div(grad(.)), is solved exactly per wavenumber from the
    stencil divergence (symbol i s): q_hat = -rfft2(div v) / |s|^2, zero on
    the stencil null modes.  The projector is therefore idempotent to
    round-off, and means and the checkerboard modes pass through untouched.

    With out, a C-contiguous (3, nx, ny) array apart from v, the divergence
    and then v_df are written there; the FFT output is the one temporary.
    """
    if not np.isfinite(v.data).all():
        raise FloatingPointError("pressure Poisson solve: non-finite input")
    if out is not None and np.may_share_memory(v.data, out):
        raise ValueError("leray_project: out must not overlap the input")
    grid = v.grid
    if out is None:
        out = np.empty_like(v.data)
    div, div_y = fd.central_differences(grid, v.data[0], v.data[1], out=(out[0], out[1]))
    div += div_y
    qh = np.fft.rfft2(div)
    np.multiply(qh, fd.spectral_symbols(grid).inv_s2, out=qh)
    np.negative(qh, out=qh)
    q = np.fft.irfft2(qh, s=grid.shape)
    # v - grad(q): the gradient is differenced into out, then subtracted from
    # v there; its z component is zero, and v_z - 0 is v_z bit for bit
    fd.central_differences(grid, q, out=(out[0], out[1]))
    np.subtract(v.data[:2], out[:2], out=out[:2])
    out[2] = v.data[2]
    return VectorField(grid, out), ScalarField(grid, q)


# --- paths ------------------------------------------------------------------

def check_path_times(times) -> None:
    """ValueError unless there are two or more finite times, increasing uniformly."""
    if len(times) < 2 or not np.isfinite(times).all():
        raise ValueError("a path needs at least two time samples, all finite")
    dts = np.diff(times)
    if np.any(dts <= 0) or np.abs(dts - dts[0]).max() > 1e-10 * dts[0]:
        raise ValueError("path times must increase in uniform steps")


@dataclass
class Path:
    """Uniformly sampled sequence of states over [0, T]; the first is pinned.

    For the incompressible kind every slice is divergence free and the
    density is the constant rho0; for the compressible kind the densities
    ride along with the velocities (slaved to the mass balance when the path
    is produced by slave_density or the reference steppers)."""

    states: list[FluidState]
    pressures: Optional[list[ScalarField]] = None  # per interval, incompressible only

    def __post_init__(self):
        check_path_times([s.t for s in self.states])
        grid = self.states[0].grid
        eos = self.states[0].eos
        for s in self.states:
            if s.grid != grid or s.eos != eos:
                raise ValueError("all path states must share one grid and one EOS")

    @property
    def grid(self) -> Grid2P:
        return self.states[0].grid

    @property
    def eos(self) -> Eos:
        return self.states[0].eos

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def dt(self) -> float:
        return self.states[1].t - self.states[0].t

    @property
    def n_intervals(self) -> int:
        return len(self.states) - 1

    @property
    def kind(self) -> str:
        return "incompressible" if isinstance(self.eos, IncompressibleEos) else "compressible"

    def velocities(self) -> list[VectorField]:
        return [s.v for s in self.states]

    def with_velocities(self, new_free: list[VectorField]) -> "Path":
        """Same path with the free slices (k >= 1) replaced; densities kept."""
        if len(new_free) != self.n_intervals:
            raise ValueError("need one velocity per free slice")
        states = [self.states[0]]
        for s, v in zip(self.states[1:], new_free):
            states.append(FluidState(s.t, v, s.rho, s.eos))
        return Path(states)


def incompressible_path(grid: Grid2P, eos: IncompressibleEos, times,
                        velocities: list[VectorField]) -> Path:
    rho = ScalarField.full(grid, eos.rho0)
    states = [FluidState(float(t), v, rho, eos) for t, v in zip(times, velocities)]
    return Path(states)


_MASS_TOL, _MASS_MAX_ITER = 1e-13, 500   # fixed point: update / density scale, sweeps


def slave_density(rho_initial: ScalarField, velocities: list[VectorField],
                  times) -> list[ScalarField]:
    """March the discrete mass balance: each new density solves
    (rho_next - rho_prev)/dt + div(rho_mid v_mid) = 0 (implicit midpoint,
    fixed-point iteration).  Conservative form: total mass is exact.

    Raises DensityError when the fixed point stalls or a density comes out
    non-positive."""
    densities = [rho_initial]
    for k in range(len(velocities) - 1):
        dt = float(times[k + 1] - times[k])
        v_mid = 0.5 * (velocities[k] + velocities[k + 1])
        rho_prev = densities[-1]
        rho_next = rho_prev.copy()
        scale = float(np.abs(rho_prev.data).max())
        for _ in range(_MASS_MAX_ITER):
            rho_mid = 0.5 * (rho_prev + rho_next)
            update = rho_prev - dt * fd.div_vector(fd.scalar_times_vector(rho_mid, v_mid))
            delta = float(np.abs(update.data - rho_next.data).max())
            rho_next = update
            if delta <= _MASS_TOL * scale:
                break
        else:
            raise DensityError(f"mass-balance fixed point stalled at interval {k}")
        if np.any(rho_next.data <= 0):
            raise DensityError(f"density became non-positive at interval {k}")
        densities.append(rho_next)
    return densities


def compressible_path(grid: Grid2P, eos: BarotropicPowerEos, times,
                      velocities: list[VectorField],
                      densities: Optional[list[ScalarField]] = None) -> Path:
    if densities is None:
        densities = slave_density(ScalarField.full(grid, eos.rho0), velocities, times)
    states = [FluidState(float(t), v, rho, eos)
              for t, v, rho in zip(times, velocities, densities)]
    return Path(states)


# --- reports ------------------------------------------------------------------

@dataclass
class SbenReport:
    """Per-interval breakdown of the functional plus minimizer bookkeeping."""

    kind: str
    midpoint_times: np.ndarray
    phi_terms: np.ndarray
    phi_star_terms: np.ndarray
    pairing_terms: np.ndarray
    ns_residual_norms: np.ndarray   # |f - K(v_mid)| per interval
    discarded_mean_norms: np.ndarray
    dt: float
    grad_norm_history: list = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0

    @property
    def gap_terms(self) -> np.ndarray:
        return self.phi_terms + self.phi_star_terms + self.pairing_terms

    @property
    def total_pi(self) -> float:
        return float(self.gap_terms.sum() * self.dt)

    @property
    def dissipation_integral(self) -> float:
        """Time integral of phi along the path; the natural scale of the functional."""
        return float(self.phi_terms.sum() * self.dt)

    def summary_text(self) -> str:
        lines = [
            f"kind                 : {self.kind}",
            f"intervals            : {len(self.phi_terms)} (dt = {self.dt:.6g})",
            f"total functional     : {self.total_pi:.12e}",
            f"dissipation integral : {self.dissipation_integral:.12e}",
            f"max NS residual      : {self.ns_residual_norms.max():.6e}",
            f"max discarded mean   : {self.discarded_mean_norms.max():.6e}",
            f"iterations           : {self.iterations}",
            f"wall time [s]        : {self.wall_time:.3f}",
            "",
            "  k    t_mid        phi            phi_star       pairing        gap",
        ]
        for k, t in enumerate(self.midpoint_times):
            lines.append(
                f"{k:4d}  {t:9.5f}  {self.phi_terms[k]: .6e}  {self.phi_star_terms[k]: .6e}"
                f"  {self.pairing_terms[k]: .6e}  {self.gap_terms[k]: .6e}")
        if self.grad_norm_history:
            lines.append("")
            lines.append("gradient norm history: " +
                         ", ".join(f"{g:.3e}" for g in self.grad_norm_history))
        return "\n".join(lines) + "\n"


@dataclass
class _IntervalCore:
    """One interval's terms, as the report, the pressures and the gradient read
    them; kv = K(v_mid) comes from the one Jacobian of v_mid that
    _interval_core takes."""

    t_mid: float
    v_mid: VectorField
    accel: VectorField
    f_raw: VectorField      # unprojected conjugate argument
    u: VectorField          # K^(-1) f, f the projected conjugate argument
    kv: VectorField         # K(v_mid)
    phi_v: float
    phi_star_f: float
    pairing: float
    discarded_mean: float
    ns_residual: float


def _differentiate_midpoint(v_mid: VectorField, mu: float
                            ) -> tuple[VectorField, float, VectorField]:
    """(v_mid . grad) v_mid, phi(v_mid) and K(v_mid) from one Jacobian of v_mid.

    The advection has the operands and order of fd.advect, and phi and K
    share one strain D, so all three equal the separate calls bit for bit.
    The Jacobian and D are freed on return, before the interval's K^(-1) solve.
    """
    grid = v_mid.grid
    jx, jy = fd.central_differences(grid, v_mid.data)
    advection = VectorField(grid, v_mid.data[0] * jx + v_mid.data[1] * jy)
    strain = fd.strain_from_columns(grid, jx, jy)
    return advection, fd.integrate(w_density(strain, mu)), k_of_strain(strain, mu)


def _pressure_force(path: Path, rho_mid: ScalarField) -> Optional[VectorField]:
    """grad p(rho_mid) from a barotropic EOS; None for the incompressible
    multiplier, which the Leray projection of the conjugate argument removes."""
    if path.kind == "incompressible":
        return None
    return fd.grad_scalar(ScalarField(path.grid, path.eos.pressure(rho_mid.data)))


def _interval_core(path: Path, k: int, mu: float, grav: Gravitation) -> _IntervalCore:
    """The interval's terms from f_raw = -pi_I, for both kinds (see the module
    docstring).  v_mid is differenced once (see _differentiate_midpoint), and
    the core keeps K(v_mid) for the residual, the pressure and the gradient."""
    s_prev, s_next = path.states[k], path.states[k + 1]
    t_mid = 0.5 * (s_prev.t + s_next.t)
    v_mid = 0.5 * (s_prev.v + s_next.v)
    rho_mid = 0.5 * (s_prev.rho + s_next.rho)
    advection, phi_v, kv = _differentiate_midpoint(v_mid, mu)
    accel = (1.0 / path.dt) * (s_next.v - s_prev.v) + advection
    pi_i = momentum_residual(rho_mid, accel, v_mid, grav, t_mid,
                             _pressure_force(path, rho_mid))
    pairing = fd.inner(pi_i, v_mid)
    f_raw = -pi_i
    del pi_i    # freed before the projection and the K^(-1) solve
    f = fd.remove_stencil_null(leray_project(f_raw)[0] if path.kind == "incompressible"
                               else f_raw)

    discarded = float(np.linalg.norm(fd.component_means(f_raw)))
    u = solve_k(f, mu)
    phi_star_f = phi(u, mu)
    ns_residual = fd.l2_norm(f - kv)
    return _IntervalCore(t_mid, v_mid, accel, f_raw, u, kv, phi_v, phi_star_f,
                         pairing, discarded, ns_residual)


def _assemble(path: Path, mu: float, grav: Gravitation
              ) -> tuple[list[_IntervalCore], SbenReport]:
    start = time.perf_counter()
    cores = [_interval_core(path, k, mu, grav) for k in range(path.n_intervals)]
    report = SbenReport(
        kind=path.kind,
        midpoint_times=np.array([c.t_mid for c in cores]),
        phi_terms=np.array([c.phi_v for c in cores]),
        phi_star_terms=np.array([c.phi_star_f for c in cores]),
        pairing_terms=np.array([c.pairing for c in cores]),
        ns_residual_norms=np.array([c.ns_residual for c in cores]),
        discarded_mean_norms=np.array([c.discarded_mean for c in cores]),
        dt=path.dt,
        wall_time=time.perf_counter() - start,
    )
    return cores, report


def _recover_pressures(cores: list[_IntervalCore]) -> list[ScalarField]:
    """Multiplier pressure per interval: the potential part of the full
    constitutive balance, grad(p) = f_raw - K(v_mid) at the minimum."""
    pressures = []
    for c in cores:
        _, q = leray_project(c.f_raw - c.kv)
        pressures.append(ScalarField(q.grid, q.data - q.data.mean()))
    return pressures


def multiplier_pressures(path: Path, mu: float, grav: Gravitation) -> list[ScalarField]:
    """Zero-mean multiplier pressure per interval of an incompressible path."""
    if path.kind != "incompressible":
        raise ValueError("multiplier pressure is defined for the incompressible kind")
    return evaluate_path(path, mu, grav)[1]


def evaluate_path(path: Path, mu: float, grav: Gravitation
                  ) -> tuple[SbenReport, Optional[list[ScalarField]]]:
    """Evaluate the space-time functional on a path of either kind and, for the
    incompressible kind, recover the zero-mean multiplier pressure per interval
    from the same interval cores (None for the compressible kind)."""
    cores, report = _assemble(path, mu, grav)
    if path.kind != "incompressible":
        return report, None
    return report, _recover_pressures(cores)


def assemble_pi_incompressible(path: Path, mu: float, grav: Gravitation,
                               cfg: ConjugateSolve) -> SbenReport:
    """The report of evaluate_path on an incompressible path, without the
    pressures; cfg is ignored.  It stays for the benchmark's workloads
    (perfbench/workloads.py), which call it with this signature."""
    if path.kind != "incompressible":
        raise ValueError("path carries a compressible EOS")
    _, report = _assemble(path, mu, grav)
    return report


# --- gradient -----------------------------------------------------------------

def _jacobian_transpose_dot(v: VectorField, w: VectorField) -> VectorField:
    """(grad v)^T w: component i is sum_j w_j d_i v_j, summed in order j = 0, 1, 2,
    from the two in-plane Jacobian columns of v (the z component is zero)."""
    out = np.zeros_like(w.data)
    wx, wy, wz = w.data
    for i, col in enumerate(fd.central_differences(v.grid, v.data)):
        out[i] = col[0] * wx + col[1] * wy + col[2] * wz
    return VectorField(v.grid, out)


def _interval_gradient_pieces(path: Path, k: int, core: _IntervalCore,
                              grav: Gravitation) -> tuple[VectorField, VectorField]:
    """Coefficients (E, F) of the interval's first variation
    d(Pi_k)/dt = <E, d v_mid> + <F, d (time difference)>."""
    rho_mid = 0.5 * (path.states[k].rho + path.states[k + 1].rho)
    grad_p = _pressure_force(path, rho_mid)
    w = fd.scalar_times_vector(rho_mid, core.v_mid - core.u)
    e = (_jacobian_transpose_dot(core.v_mid, w) - fd.div_outer(core.v_mid, w)
         + core.kv
         + fd.scalar_times_vector(rho_mid, core.accel - grav.gravity(core.t_mid)))
    if grad_p is not None:
        e = e + grad_p
    e = e + 2.0 * fd.scalar_times_vector(
        rho_mid, fd.cross(grav.coriolis_vector(core.t_mid), core.u))
    return e, w


def gradient_pi(path: Path, mu: float, grav: Gravitation,
                cores: Optional[list[_IntervalCore]] = None) -> list[VectorField]:
    """Exact gradient of the discrete functional with respect to the free
    velocity slices v_k, k >= 1.  For the incompressible kind each slice is
    projected onto divergence-free fields (the feasible directions).

    For the compressible kind the density/pressure response is frozen, which
    makes the gradient approximate; see minimize_compressible."""
    if cores is None:
        cores = [_interval_core(path, k, mu, grav) for k in range(path.n_intervals)]
    dt = path.dt
    n = path.n_intervals
    grads: list[VectorField] = []
    pieces = [_interval_gradient_pieces(path, k, cores[k], grav) for k in range(n)]
    for j in range(1, n + 1):
        e_prev, f_prev = pieces[j - 1]
        g = dt * (0.5 * e_prev) + f_prev
        if j <= n - 1:
            e_next, f_next = pieces[j]
            g = g + dt * (0.5 * e_next) - f_next
        if path.kind == "incompressible":
            g, _ = leray_project(g)
        grads.append(g)
    return grads


def path_dot(a: list[VectorField], b: list[VectorField]) -> float:
    return sum(fd.inner(x, y) for x, y in zip(a, b))


# --- minimizer ------------------------------------------------------------------

@dataclass(frozen=True)
class MinimizeConfig:
    tol_pi_rel: float = 1e-8       # on the initial path's dissipation integral
    tol_grad_rel: float = 1e-6
    max_iter: int = 500
    restart_every: int = 20
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60


@dataclass
class MinimizeResult:
    path: Path
    report: SbenReport
    converged: bool
    message: str


def _project_free_slices(path: Path) -> Path:
    """Project the free slices onto divergence-free fields.

    A slice that the projection moves only at round-off is already feasible
    and is kept bit for bit: moving it would shift the functional, a sum of
    O(1) terms that cancel on a solution, by their round-off, so a minimizer
    started on a solution would report a different value than evaluating it.
    """
    free = []
    for s in path.states[1:]:
        v_df, _ = leray_project(s.v)
        moved = fd.linf_norm(v_df - s.v) > 1e-12 * fd.linf_norm(s.v)
        free.append(v_df if moved else s.v)
    return path.with_velocities(free)


Preconditioner = Callable[[list[VectorField]], list[VectorField]]


def _stokes_preconditioner(path: Path, mu: float) -> Preconditioner:
    """Exact inverse of the incompressible functional's Hessian on Stokes paths.

    On divergence-free fields K acts per wavenumber as the scalar
    a = mu |s|^2.  With advection dropped, interval k's residual is
    r_k = alpha v_(k+1) + beta v_k with alpha = a/2 + rho0/dt and
    beta = a/2 - rho0/dt, and Pi = sum_k (dt / 2a) |r_k|^2.  With v_0 pinned,
    r = B v for a lower-bidiagonal B, so the Hessian over the free slices is
    (dt / a) B^T B and its inverse is applied per mode by a backward sweep
    B^T y = g, a forward sweep B z = y and the factor a / dt.  The sweeps are
    stable because |beta / alpha| < 1.  The factor vanishes on the stencil
    null modes (a = 0), so the preconditioned directions never move them.
    A scalar per mode, the operator commutes with leray_project.
    """
    grid = path.grid
    sym = fd.spectral_symbols(grid)
    a = mu * (sym.sx**2 + sym.sy**2)
    alpha = 0.5 * a + path.eos.rho0 / path.dt
    beta = 0.5 * a - path.eos.rho0 / path.dt
    scale = a / path.dt

    def apply(grads: list[VectorField]) -> list[VectorField]:
        h = np.fft.rfft2(np.stack([g.data for g in grads]))
        n = len(grads)
        h[n - 1] /= alpha
        for k in range(n - 2, -1, -1):      # B^T y = g, upper bidiagonal
            h[k] = (h[k] - beta * h[k + 1]) / alpha
        h[0] /= alpha
        for k in range(1, n):               # B z = y, lower bidiagonal
            h[k] = (h[k] - beta * h[k - 1]) / alpha
        out = np.fft.irfft2(h * scale, s=grid.shape)
        return [VectorField(grid, z) for z in out]

    return apply


def _descend(path: Path, build: Callable[[list[VectorField]], Path], mu: float,
             grav: Gravitation, opts: MinimizeConfig,
             on_iteration: Optional[Callable[[int, float, float], None]] = None,
             precondition: Optional[Preconditioner] = None
             ) -> tuple[Path, list[_IntervalCore], SbenReport, bool, str]:
    """Nonlinear conjugate gradient (Polak-Ribiere+, periodic restart) with
    Armijo backtracking over the free slices of a feasible start path.

    build(free) makes the trial path from the free velocities; a trial it
    cannot make (DensityError) is a rejected step, like an Armijo failure.
    With a preconditioner P the direction is -P g + beta d, with
    beta = <g+, P g+ - P g> / <g, P g>, a non-descent direction resets to
    -P g, and every line search starts at the unit step.  Without one
    (P = identity) the first step is half the path's velocity scale along
    the direction and each later one starts at twice the last accepted step.
    The gradient norm (the relative tolerance and the history) leaves out
    the stencil null modes when P is given: P never moves them, so their part
    of the gradient never shrinks.
    Returns the last accepted path, its cores and report (with the gradient
    norm history and iteration count), and the convergence flag and message.
    """
    def norm(grads: list[VectorField]) -> float:
        if precondition is not None:
            grads = [fd.remove_stencil_null(g) for g in grads]
        return np.sqrt(max(path_dot(grads, grads), 0.0))

    cores, report = _assemble(path, mu, grav)
    pi_val = report.total_pi
    tol_pi = opts.tol_pi_rel * report.dissipation_integral
    grad = gradient_pi(path, mu, grav, cores=cores)
    pgrad = grad if precondition is None else precondition(grad)
    gnorm0 = norm(grad)
    history = [gnorm0]

    direction = [-p for p in pgrad]
    alpha_prev = None
    converged = False
    message = "max_iter reached"
    iters = 0

    for it in range(opts.max_iter):
        gnorm = history[-1]
        if pi_val <= tol_pi:
            converged, message = True, f"functional below tolerance {tol_pi:.3e}"
            break
        if gnorm <= opts.tol_grad_rel * gnorm0:
            converged, message = True, "gradient norm below relative tolerance"
            break

        slope = path_dot(grad, direction)
        if slope >= 0:
            direction = [-p for p in pgrad]
            slope = -path_dot(grad, pgrad)

        dnorm = np.sqrt(max(path_dot(direction, direction), 0.0))
        if dnorm == 0.0:
            converged, message = True, "vanishing search direction"
            break
        if precondition is not None:
            alpha = 1.0
        elif alpha_prev is None:
            vel_scale = max(np.sqrt(sum(fd.inner(s.v, s.v) for s in path.states)
                                    / len(path.states)), 1e-12)
            alpha = 0.5 * vel_scale / dnorm
        else:
            alpha = 2.0 * alpha_prev

        accepted = False
        for _ in range(opts.max_backtracks):
            try:
                trial = build([path.states[j + 1].v + alpha * direction[j]
                               for j in range(path.n_intervals)])
            except DensityError:
                alpha *= opts.backtrack_factor
                continue
            trial_cores, trial_report = _assemble(trial, mu, grav)
            if trial_report.total_pi <= pi_val + opts.armijo_c * alpha * slope:
                accepted = True
                break
            alpha *= opts.backtrack_factor
        if not accepted:
            message = "line search failed; returning last accepted path"
            break

        alpha_prev = alpha
        new_grad = gradient_pi(trial, mu, grav, cores=trial_cores)
        new_pgrad = new_grad if precondition is None else precondition(new_grad)
        beta = max(0.0, (path_dot(new_grad, new_pgrad) - path_dot(new_grad, pgrad))
                   / max(path_dot(grad, pgrad), 1e-300))
        if (it + 1) % opts.restart_every == 0:
            beta = 0.0
        direction = [-p + beta * d for p, d in zip(new_pgrad, direction)]

        path, cores, report = trial, trial_cores, trial_report
        pi_val = report.total_pi
        grad, pgrad = new_grad, new_pgrad
        history.append(norm(grad))
        iters = it + 1
        if on_iteration is not None:
            on_iteration(iters, pi_val, history[-1])
    else:
        iters = opts.max_iter

    report.grad_norm_history = [float(g) for g in history]
    report.iterations = iters
    return path, cores, report, converged, message


def minimize(path0: Path, mu: float, grav: Gravitation,
             opts: MinimizeConfig = MinimizeConfig(),
             on_iteration: Optional[Callable[[int, float, float], None]] = None
             ) -> MinimizeResult:
    """Descend the functional over the free slices of an incompressible path.

    All iterates stay on the divergence-free affine subspace with the initial
    state pinned; the pressures of the result are the recovered multipliers.
    The accepted-step values of the functional are monotone non-increasing.
    The descent is preconditioned by the exact Stokes Hessian inverse
    (_stokes_preconditioner), so each line search starts at the unit step
    and the stencil null modes of the free slices keep the start's values.
    """
    if path0.kind != "incompressible":
        raise ValueError("minimize handles the incompressible kind; "
                         "see minimize_compressible for barotropic paths")
    start = time.perf_counter()
    path = _project_free_slices(path0)
    path, cores, report, converged, message = _descend(
        path, path.with_velocities, mu, grav, opts, on_iteration,
        _stokes_preconditioner(path, mu))
    path.pressures = _recover_pressures(cores)
    report.wall_time = time.perf_counter() - start
    return MinimizeResult(path, report, converged, message)


def minimize_compressible(path0: Path, mu: float, grav: Gravitation,
                          opts: MinimizeConfig = MinimizeConfig()) -> MinimizeResult:
    """Descend the functional over the free slices of a barotropic path.

    The densities are re-slaved to the mass balance for every trial path, a
    trial whose densities cannot be re-slaved is a rejected step, and the
    gradient freezes the density/pressure response, so the search directions
    are approximate; Armijo still guarantees monotone decrease.
    """
    if path0.kind != "compressible":
        raise ValueError("minimize_compressible needs a barotropic path")
    start = time.perf_counter()
    s0 = path0.states[0]

    def rebuild(free: list[VectorField]) -> Path:
        velocities = [s0.v] + free
        densities = slave_density(s0.rho, velocities, path0.times)
        return compressible_path(path0.grid, path0.eos, path0.times, velocities, densities)

    path, _, report, converged, message = _descend(
        rebuild([s.v for s in path0.states[1:]]), rebuild, mu, grav, opts)
    report.wall_time = time.perf_counter() - start
    return MinimizeResult(path, report, converged, message)
