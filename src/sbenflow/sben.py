"""Space-time functional for viscous flow paths and its minimization.

For a time-sampled velocity path the functional accumulates, per interval and
at its balance.Midpoint (the package's one midpoint rule), the Fenchel gap of
the irreversible momentum residual Midpoint.residual,
pi_I = rho Dv/Dt + grad p - rho (g - 2 Omega x v), one formula for both kinds
that is the interval's symplectic gap symplectic.constitutive_gap:

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

A path is stored along its time axis, as the arrays V (T+1, 3, nx, ny) and
rho (T+1, nx, ny).  Each interval term depends on the interval's two end
slices only, so the assembly, the adjoint gradient and the descent work on
blocks of consecutive intervals, every operator applied once to the stacked
slices of a block (fields.py: a field's data may carry leading axes).  The
per-interval entries are per-slice reductions, so every term has the bits of
the interval computed alone.  A block holds as many slices as fit in
_BLOCK_BYTES: small grids batch many, 64^2 and larger grids take one.
evaluate_path reduces each block to its report rows and pressures as soon as
it is built, and gradient_pi builds its blocks one at a time, so their peak
memory is one block's temporaries, whatever the number of intervals; only
the descent keeps every block of a path, for its gradient and pressures.

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

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fields as fd
from .balance import (BarotropicPowerEos, DensityError, Eos, FluidState, IncompressibleEos,
                      Midpoint)
from .dissipation import ConjugateSolve, k_of_strain, phi, solve_k, w_density
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation


# --- divergence-free projection --------------------------------------------

def leray_project(v: VectorField, out: Optional[np.ndarray] = None
                  ) -> tuple[VectorField, ScalarField]:
    """Split v = v_df + grad(q) with div(v_df) = 0 on the periodic grid, for
    v one field or a stack of them (one batched transform pair for the stack).

    The pressure Poisson equation laplacian(q) = div(v), with the Laplacian
    composed as div(grad(.)), is solved exactly per wavenumber from the
    stencil divergence (symbol i s): q_hat = -rfft2(div v) / |s|^2, zero on
    the stencil null modes.  The projector is therefore idempotent to
    round-off, and means and the checkerboard modes pass through untouched.

    With out, a C-contiguous array of v's shape apart from v, v_df is written
    there; for one field the divergence is formed there too, and the FFT
    output is the one temporary.
    """
    data = v.data
    if not np.isfinite(data).all():
        raise FloatingPointError("pressure Poisson solve: non-finite input")
    if out is not None and np.may_share_memory(data, out):
        raise ValueError("leray_project: out must not overlap the input")
    grid = v.grid
    if out is None:
        out = np.empty_like(data)
    vx, vy, vz = fd.components(data)
    ox, oy, oz = fd.components(out)
    # out's x and y planes hold the divergence and then grad(q); in a stack
    # of several fields they are strided, and a scratch pair stands in
    planes = (ox, oy) if ox.flags.c_contiguous else np.empty((2, *vx.shape))
    div, div_y = fd.central_differences(grid, vx, vy, out=planes)
    div += div_y
    qh = np.fft.rfft2(div)
    np.multiply(qh, fd.spectral_symbols(grid).inv_s2, out=qh)
    np.negative(qh, out=qh)
    q = np.fft.irfft2(qh, s=grid.shape)
    # v - grad(q): the gradient is differenced into the planes, then
    # subtracted from v; its z component is zero, and v_z - 0 is v_z bit for bit
    qx, qy = fd.central_differences(grid, q, out=planes)
    np.subtract(vx, qx, out=ox)
    np.subtract(vy, qy, out=oy)
    oz[...] = vz
    return VectorField(grid, out), ScalarField(grid, q)


# --- paths ------------------------------------------------------------------

def check_path_times(times) -> None:
    """ValueError unless there are two or more finite times, increasing uniformly."""
    if len(times) < 2 or not np.isfinite(times).all():
        raise ValueError("a path needs at least two time samples, all finite")
    dts = np.diff(times)
    if np.any(dts <= 0) or np.abs(dts - dts[0]).max() > 1e-10 * dts[0]:
        raise ValueError("path times must increase in uniform steps")


def _stacked(fields) -> np.ndarray:
    """A list of fields as one array along a new leading axis; an array as it is."""
    return fields if isinstance(fields, np.ndarray) else np.stack([f.data for f in fields])


class Path:
    """Uniformly sampled sequence of states over [0, T]; the first is pinned.

    A path is its arrays along the time axis, taken as they are: times
    (T+1,), the velocities V (T+1, 3, nx, ny) and the densities rho (T+1,
    nx, ny) of one fluid, eos.  For the incompressible kind every slice is
    divergence free, rho is the constant rho0 (a read-only broadcast; a rho
    given must equal it) and pressures, when known, are the (T, nx, ny)
    multipliers of the intervals.  For the compressible kind the densities
    ride along with the velocities (slaved to the mass balance by
    slave_density or the reference steppers) and are checked positive once,
    on the array.  path.states gives the slices as FluidStates whose fields
    are views of the arrays.
    """

    def __init__(self, grid: Grid2P, eos: Eos, times, V: np.ndarray,
                 rho: Optional[np.ndarray] = None, pressures: Optional[np.ndarray] = None):
        check_path_times(times)
        shape = (len(times), *grid.shape)
        if V.shape != (len(times), 3, *grid.shape):
            raise ValueError(f"velocities of shape {V.shape}, not (T+1, 3, nx, ny) = "
                             f"{(len(times), 3, *grid.shape)}")
        if isinstance(eos, IncompressibleEos):
            if rho is not None and np.any(rho != eos.rho0):
                raise ValueError("an incompressible path's density is its rho0")
            rho = np.broadcast_to(np.full(grid.shape, eos.rho0), shape)
        elif rho is None or rho.shape != shape:
            raise ValueError(f"a compressible path needs densities of shape {shape}")
        elif np.any(rho <= 0):
            raise ValueError("density must be positive everywhere")
        if pressures is not None and not (isinstance(eos, IncompressibleEos) and
                                          pressures.shape == (shape[0] - 1, *grid.shape)):
            raise ValueError(f"pressures of shape {pressures.shape}: only an incompressible "
                             f"path has them, (T, nx, ny) = {(shape[0] - 1, *grid.shape)}")
        self.grid, self.eos, self.times, self.V, self.rho = (
            grid, eos, np.array(times, dtype=float), V, rho)
        self.pressures = pressures

    @functools.cached_property
    def states(self) -> list[FluidState]:
        return [FluidState(float(t), VectorField(self.grid, v), ScalarField(self.grid, r),
                           self.eos) for t, v, r in zip(self.times, self.V, self.rho)]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1

    @property
    def kind(self) -> str:
        return "incompressible" if isinstance(self.eos, IncompressibleEos) else "compressible"

    def midpoint(self, intervals: slice) -> Midpoint:
        """The Midpoint of a block of consecutive intervals (views of V and rho)."""
        a, b = intervals.start, intervals.stop
        return Midpoint(self.grid, self.eos, 0.5 * (self.times[a] + self.times[a + 1]),
                        self.dt, (self.V[a:b], self.V[a + 1:b + 1]),
                        (self.rho[a:b], self.rho[a + 1:b + 1]))

    def with_velocities(self, new_free) -> "Path":
        """Same path with the free slices (k >= 1) replaced by new_free, a
        (T, 3, nx, ny) array or a list of T VectorFields; densities kept,
        no pressures."""
        if len(new_free) != self.n_intervals:
            raise ValueError("need one velocity per free slice")
        path = Path.__new__(Path)     # shares the checked times and densities
        path.grid, path.eos, path.times, path.rho = self.grid, self.eos, self.times, self.rho
        path.V, path.pressures = np.concatenate([self.V[:1], _stacked(new_free)]), None
        return path


def incompressible_path(grid: Grid2P, eos: IncompressibleEos, times, velocities) -> Path:
    """The path of these velocities (a list of VectorFields or a (T+1, 3, nx, ny) array)."""
    return Path(grid, eos, times, _stacked(velocities))


_MASS_TOL, _MASS_MAX_ITER = 1e-13, 500   # fixed point: update / density scale, sweeps


def slave_density(rho_initial: ScalarField, velocities, times) -> np.ndarray:
    """March the discrete mass balance: each new density solves
    (rho_next - rho_prev)/dt + div(rho_mid v_mid) = 0 (implicit midpoint,
    fixed-point iteration).  Conservative form: total mass is exact.

    velocities is a list of VectorFields or a (T+1, 3, nx, ny) array; the
    densities come back as a (T+1, nx, ny) array.  Raises DensityError when
    the fixed point stalls or a density comes out non-positive."""
    grid = rho_initial.grid
    V = _stacked(velocities)
    densities = np.empty((len(V), *grid.shape))
    densities[0] = rho_initial.data
    for k in range(len(V) - 1):
        dt = float(times[k + 1] - times[k])
        v_mid = 0.5 * VectorField(grid, V[k] + V[k + 1])
        rho_prev = ScalarField(grid, densities[k])
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
        densities[k + 1] = rho_next.data
    return densities


def compressible_path(grid: Grid2P, eos: BarotropicPowerEos, times, velocities,
                      densities=None) -> Path:
    """The path of these velocities and densities (lists of fields or stacked
    arrays); without densities they are slaved to the mass balance from rho0."""
    V = _stacked(velocities)
    if densities is None:
        densities = slave_density(ScalarField.full(grid, eos.rho0), V, times)
    return Path(grid, eos, times, V, _stacked(densities))


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


# --- blocks of intervals ---------------------------------------------------------

# Bytes of the (c, 3, nx, ny) velocity block that one pass of the interval
# core, the gradient or the free-slice projection works on: c = 16 slices at
# 16^2, 4 at 32^2 and one from 64^2 up.  A core's temporaries, about ten
# fields of the block's size, are what evaluate_path and gradient_pi hold at
# their peak, so the budget bounds their memory; more slices per block would
# raise it by c times a slice's (the sweep is in CHANGES.md).  The descent
# keeps five fields per interval of each path it holds, whatever the budget.
_BLOCK_BYTES = 96 * 1024


def _blocks(path: Path) -> list[slice]:
    """Consecutive runs of intervals, as many per run as fit in _BLOCK_BYTES."""
    n = path.n_intervals
    c = max(1, _BLOCK_BYTES // path.V[0].nbytes)
    return [slice(a, min(a + c, n)) for a in range(0, n, c)]


@dataclass
class _Block:
    """The terms of a block of consecutive intervals, stacked along time, as
    the pressures and the gradient read them; kv = K(v_mid) comes from the
    one Jacobian of v_mid = mid.v that _block_core takes."""

    intervals: slice
    mid: Midpoint
    accel: VectorField
    f_raw: VectorField      # unprojected conjugate argument
    u: VectorField          # K^(-1) f, f the projected conjugate argument
    kv: VectorField         # K(v_mid)


def _differentiate_midpoint(v_mid: VectorField, mu: float
                            ) -> tuple[VectorField, np.ndarray, VectorField]:
    """(v_mid . grad) v_mid, phi(v_mid) and K(v_mid) from one Jacobian of v_mid.

    The advection has the operands and order of fd.advect, and phi and K
    share one strain D, so all three equal the separate calls bit for bit.
    The column jy is freed before K is built from D, and D on return, before
    the K^(-1) solve.
    """
    grid = v_mid.grid
    jx, jy = fd.central_differences(grid, v_mid.data)
    strain = fd.strain_from_columns(grid, jx, jy)
    # v_x d/dx v + v_y d/dy v, written over the columns once D is built
    fd.advect_columns(v_mid.data, jx, jy)
    del jy
    phi_v = fd.integrate(w_density(strain, mu))
    return VectorField(grid, jx), phi_v, k_of_strain(strain, mu)


def _block_core(path: Path, intervals: slice, mu: float, grav: Gravitation
                ) -> tuple[_Block, np.ndarray]:
    """The block's terms from f_raw = -pi_I, for both kinds (see the module
    docstring), and its report rows (phi, phi_star, pairing, discarded mean,
    NS residual), one entry per interval.  v_mid is differenced once (see
    _differentiate_midpoint), and the block keeps K(v_mid) for the residual,
    the pressures and the gradient.  The incompressible multiplier is left
    out of pi_I: the Leray projection of f removes it."""
    mid = path.midpoint(intervals)
    advection, phi_v, kv = _differentiate_midpoint(mid.v, mu)
    accel = mid.material_derivative(advection)     # after the Jacobian's peak
    del advection
    f_raw = mid.residual(grav, accel)
    pairing = fd.inner(f_raw, mid.v)
    np.negative(f_raw.data, out=f_raw.data)     # pi_I becomes f_raw in place
    f = fd.remove_stencil_null(leray_project(f_raw)[0] if path.kind == "incompressible"
                               else f_raw)

    discarded = [np.linalg.norm(m) for m in fd.component_means(f_raw)]
    ns_residual = fd.l2_norm(f - kv)
    u = solve_k(f, mu)
    del f       # before phi(u), the core's largest set of temporaries
    phi_star_f = phi(u, mu)
    terms = np.array([phi_v, phi_star_f, pairing, discarded, ns_residual])
    return _Block(intervals, mid, accel, f_raw, u, kv), terms


def _assemble(path: Path, mu: float, grav: Gravitation,
              take: Callable[[_Block], object]) -> SbenReport:
    """The functional's one block loop: build each block's core, keep its
    report rows and hand the block to take, which keeps it (the descent) or
    reduces it (evaluate_path), before the next block is built."""
    start = time.perf_counter()
    terms = []
    for b in _blocks(path):
        blk, rows = _block_core(path, b, mu, grav)
        terms.append(rows)
        take(blk)
        del blk     # unless take kept it, the block is freed here
    phi_v, phi_star_f, pairing, discarded, ns_residual = np.concatenate(terms, axis=1)
    return SbenReport(
        kind=path.kind,
        midpoint_times=0.5 * (path.times[:-1] + path.times[1:]),
        phi_terms=phi_v, phi_star_terms=phi_star_f, pairing_terms=pairing,
        ns_residual_norms=ns_residual, discarded_mean_norms=discarded,
        dt=path.dt,
        wall_time=time.perf_counter() - start,
    )


def _recover_pressures(blocks: list[_Block], out: np.ndarray) -> np.ndarray:
    """Multiplier pressure per interval, the potential part of the full
    constitutive balance, grad(p) = f_raw - K(v_mid) at the minimum, zero
    mean, written into the blocks' rows of out (T, nx, ny)."""
    for blk in blocks:
        _, q = leray_project(blk.f_raw - blk.kv)
        np.subtract(q.data, q.data.mean(axis=(-2, -1), keepdims=True), out=out[blk.intervals])
    return out


def multiplier_pressures(path: Path, mu: float, grav: Gravitation) -> np.ndarray:
    """Zero-mean multiplier pressure per interval of an incompressible path, (T, nx, ny)."""
    if path.kind != "incompressible":
        raise ValueError("multiplier pressure is defined for the incompressible kind")
    return evaluate_path(path, mu, grav)[1]


def _discard(blk: _Block) -> None:
    """The take of _assemble for a caller that needs the report only."""


def evaluate_path(path: Path, mu: float, grav: Gravitation
                  ) -> tuple[SbenReport, Optional[np.ndarray]]:
    """Evaluate the space-time functional on a path of either kind and, for the
    incompressible kind, recover the zero-mean multiplier pressures (T, nx,
    ny) from the same interval blocks (None for the compressible kind).
    Each block is reduced to its report rows and pressures as soon as it is
    built, so a block's temporaries, not the path's, bound the memory.  A
    report entry that is not finite (an overflow) is a FloatingPointError."""
    pressures = (np.empty((path.n_intervals, *path.grid.shape))
                 if path.kind == "incompressible" else None)
    report = _assemble(path, mu, grav, _discard if pressures is None else
                       lambda blk: _recover_pressures([blk], pressures))
    if not _finite(report):
        raise FloatingPointError("the functional is not finite on this path")
    return report, pressures


def _finite(report: SbenReport) -> bool:
    """Whether every entry of the report is finite: none overflowed."""
    return bool(np.isfinite([*report.gap_terms, *report.ns_residual_norms, report.total_pi,
                             *report.discarded_mean_norms, report.dissipation_integral]).all())


def assemble_pi_incompressible(path: Path, mu: float, grav: Gravitation,
                               cfg: ConjugateSolve) -> SbenReport:
    """The report of evaluate_path on an incompressible path, without the
    pressures; cfg is ignored.  It stays for the benchmark's workloads
    (perfbench/workloads.py), which call it with this signature."""
    if path.kind != "incompressible":
        raise ValueError("path carries a compressible EOS")
    return _assemble(path, mu, grav, _discard)


# --- gradient -----------------------------------------------------------------

def _jacobian_transpose_dot(v: VectorField, w: VectorField) -> VectorField:
    """(grad v)^T w: component i is sum_j w_j d_i v_j, summed in order j = 0, 1, 2,
    from the two in-plane Jacobian columns of v (the z component is zero)."""
    out = np.zeros_like(w.data)
    wx, wy, wz = fd.components(w.data)
    for i, col in enumerate(fd.central_differences(v.grid, v.data)):
        cx, cy, cz = fd.components(col)
        out[..., i, :, :] = cx * wx + cy * wy + cz * wz
    return VectorField(v.grid, out)


def _gradient_pieces(path: Path, blk: _Block, grav: Gravitation
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(dt E / 2, F) of the block's intervals, from the coefficients of each
    interval's first variation d(Pi_k)/dt = <E, d v_mid> + <F, d (time difference)>."""
    mid = blk.mid
    w = fd.scalar_times_vector(mid.rho, mid.v - blk.u)
    e = (_jacobian_transpose_dot(mid.v, w) - fd.div_outer(mid.v, w)
         + blk.kv
         + fd.scalar_times_vector(mid.rho, VectorField(path.grid, blk.accel.data - grav.g)))
    p = mid.pressure()
    if p is not None:
        e = e + fd.grad_scalar(p)
    e = e + 2.0 * fd.scalar_times_vector(
        mid.rho, VectorField(path.grid, grav.omega_cross(blk.u.data)))
    h = e.data
    h *= 0.5
    h *= path.dt
    return h, w.data


def gradient_pi(path: Path, mu: float, grav: Gravitation,
                blocks: Optional[list[_Block]] = None) -> VectorField:
    """Exact gradient of the discrete functional with respect to the free
    velocity slices v_k, k >= 1, as a stack of T fields.  For the
    incompressible kind each slice is projected onto divergence-free fields
    (the feasible directions).

    Slice k + 1 collects dt E / 2 + F of interval k and dt E / 2 - F of
    interval k + 1; the blocks run last to first, so each block's slices are
    complete, and projected in one call, once the next block is done.
    Without blocks, each block's core is built in that order and freed once
    its slices are done, so one block's temporaries bound the memory.
    For the compressible kind the density/pressure response is frozen, which
    makes the gradient approximate; see minimize."""
    if blocks is None:
        blocks = (_block_core(path, b, mu, grav)[0] for b in reversed(_blocks(path)))
    else:
        blocks = reversed(blocks)
    grads = np.empty_like(path.V[1:])
    later = None    # (dt E / 2, F) of the first interval of the block after this one
    for blk in blocks:
        h, f = _gradient_pieces(path, blk, grav)
        own = grads[blk.intervals]
        g = np.empty_like(own) if path.kind == "incompressible" else own
        np.add(h, f, out=g)
        g[:-1] += h[1:]
        g[:-1] -= f[1:]
        if later is not None:
            g[-1] += later[0]
            g[-1] -= later[1]
        if path.kind == "incompressible":
            leray_project(VectorField(path.grid, g), out=own)
        later = h[0], f[0]
        del blk, g      # before the next block's core is built
    return VectorField(path.grid, grads)


def path_dot(a: VectorField, b: VectorField) -> float:
    """Sum over the slices of two stacks of <a_k, b_k>, added left to right."""
    return sum(fd.inner(a, b).tolist())


# --- minimizer ------------------------------------------------------------------

@dataclass(frozen=True)
class MinimizeConfig:
    tol_pi_rel: float = 1e-8       # on the initial path's dissipation integral
    tol_grad_rel: float = 1e-6
    max_iter: int = 500

    def __post_init__(self):
        for name in ("tol_pi_rel", "tol_grad_rel"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


# The line search: the Armijo constant c1 and halving of Nocedal & Wright,
# Numerical Optimization, section 3.1, and a periodic restart of the NCG.
_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
_RESTART_EVERY = 20


@dataclass
class MinimizeResult:
    path: Path
    report: SbenReport
    converged: bool
    message: str


def _project_free_slices(path: Path) -> Path:
    """Project the free slices onto divergence-free fields, a block at a time.

    A slice that the projection moves only at round-off is already feasible
    and is kept bit for bit: moving it would shift the functional, a sum of
    O(1) terms that cancel on a solution, by their round-off, so a minimizer
    started on a solution would report a different value than evaluating it.
    """
    free = path.V[1:]
    projected = np.empty_like(free)
    for b in _blocks(path):
        leray_project(VectorField(path.grid, free[b]), out=projected[b])
    axes = (-3, -2, -1)
    moved = np.abs(projected - free).max(axis=axes) > 1e-12 * np.abs(free).max(axis=axes)
    return path.with_velocities(np.where(moved[:, None, None, None], projected, free))


Preconditioner = Callable[[VectorField], VectorField]


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

    def apply(grads: VectorField) -> VectorField:
        h = np.fft.rfft2(grads.data)
        n = len(h)
        h[n - 1] /= alpha
        for k in range(n - 2, -1, -1):      # B^T y = g, upper bidiagonal
            h[k] = (h[k] - beta * h[k + 1]) / alpha
        h[0] /= alpha
        for k in range(1, n):               # B z = y, lower bidiagonal
            h[k] = (h[k] - beta * h[k - 1]) / alpha
        return VectorField(grid, np.fft.irfft2(h * scale, s=grid.shape))

    return apply


def _descend(path: Path, build: Callable[[np.ndarray], Path], mu: float,
             grav: Gravitation, opts: MinimizeConfig,
             on_iteration: Optional[Callable[[int, float, float], None]] = None,
             precondition: Optional[Preconditioner] = None
             ) -> tuple[Path, list[_Block], SbenReport, bool, str]:
    """Nonlinear conjugate gradient (Polak-Ribiere+, periodic restart) with
    Armijo backtracking over the free slices of a feasible start path.

    The gradients and directions are stacks of the T free slices.
    build(free) makes the trial path from the (T, 3, nx, ny) free velocities;
    a trial it cannot make (DensityError) or whose report is not finite is a
    rejected step, like an Armijo failure; a start whose report or gradient
    is not finite is a FloatingPointError.  With a preconditioner P the
    direction is -P g + beta d, with beta = <g+, P g+ - P g> / <g, P g>, a
    non-descent direction resets to -P g, and every line search starts at
    the unit step.  Without one (P = identity) the first step is half the
    path's velocity scale along the direction and each later one starts at
    twice the last accepted step.
    The gradient norm (the relative tolerance and the history) leaves out
    the stencil null modes when P is given: P never moves them, so their part
    of the gradient never shrinks.
    Returns the last accepted path, its blocks and report (with the gradient
    norm history and iteration count), and the convergence flag and message.
    """
    def norm(grads: VectorField) -> float:
        if precondition is not None:
            grads = fd.remove_stencil_null(grads)
        return np.sqrt(max(path_dot(grads, grads), 0.0))

    blocks = []
    report = _assemble(path, mu, grav, blocks.append)
    pi_val = report.total_pi
    tol_pi = opts.tol_pi_rel * report.dissipation_integral
    grad = gradient_pi(path, mu, grav, blocks=blocks)
    pgrad = grad if precondition is None else precondition(grad)
    gnorm0 = norm(grad)
    if not (_finite(report) and np.isfinite(gnorm0)):
        raise FloatingPointError("the functional or its gradient is not finite on the start path")
    history = [gnorm0]

    direction = -pgrad
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
            direction = -pgrad
            slope = -path_dot(grad, pgrad)

        dnorm = np.sqrt(max(path_dot(direction, direction), 0.0))
        if dnorm == 0.0:
            converged, message = True, "vanishing search direction"
            break
        if precondition is not None:
            alpha = 1.0
        elif alpha_prev is None:
            velocities = VectorField(path.grid, path.V)
            vel_scale = max(np.sqrt(path_dot(velocities, velocities) / len(path.V)), 1e-12)
            alpha = 0.5 * vel_scale / dnorm
        else:
            alpha = 2.0 * alpha_prev

        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = build(path.V[1:] + alpha * direction.data)
            except DensityError:
                alpha *= _BACKTRACK_FACTOR
                continue
            trial_blocks = []
            trial_report = _assemble(trial, mu, grav, trial_blocks.append)
            armijo = trial_report.total_pi <= pi_val + _ARMIJO_C * alpha * slope
            if armijo and _finite(trial_report):
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
        if not accepted:
            message = "line search failed; returning last accepted path"
            break

        alpha_prev = alpha
        new_grad = gradient_pi(trial, mu, grav, blocks=trial_blocks)
        new_pgrad = new_grad if precondition is None else precondition(new_grad)
        beta = max(0.0, (path_dot(new_grad, new_pgrad) - path_dot(new_grad, pgrad))
                   / max(path_dot(grad, pgrad), 1e-300))
        if (it + 1) % _RESTART_EVERY == 0:
            beta = 0.0
        direction = -new_pgrad + beta * direction

        path, blocks, report = trial, trial_blocks, trial_report
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
    return path, blocks, report, converged, message


def minimize(path0: Path, mu: float, grav: Gravitation,
             opts: MinimizeConfig = MinimizeConfig(),
             on_iteration: Optional[Callable[[int, float, float], None]] = None
             ) -> MinimizeResult:
    """Descend the functional over the free slices of a path of either kind,
    the initial state pinned; accepted values of the functional never rise.

    Incompressible: the iterates stay divergence free, the descent is
    preconditioned by the exact Stokes Hessian inverse, so each line search
    starts at the unit step and the stencil null modes of the free slices
    keep the start's values, and the result carries the recovered
    multiplier pressures.  Barotropic: every trial path's densities are
    re-slaved to the mass balance (a trial they cannot be is a rejected
    step), and the gradient freezes the density/pressure response.
    """
    start = time.perf_counter()
    if path0.kind == "incompressible":
        path = _project_free_slices(path0)
        build, precondition = path.with_velocities, _stokes_preconditioner(path, mu)
    else:
        rho_initial = ScalarField(path0.grid, path0.rho[0])

        def build(free: np.ndarray) -> Path:
            V = np.concatenate([path0.V[:1], free])
            return Path(path0.grid, path0.eos, path0.times, V,
                        slave_density(rho_initial, V, path0.times))

        path, precondition = build(path0.V[1:]), None
    path, blocks, report, converged, message = _descend(
        path, build, mu, grav, opts, on_iteration, precondition)
    if path.kind == "incompressible":
        path.pressures = _recover_pressures(
            blocks, np.empty((path.n_intervals, *path.grid.shape)))
    report.wall_time = time.perf_counter() - start
    return MinimizeResult(path, report, converged, message)


def minimize_compressible(path0: Path, mu: float, grav: Gravitation,
                          opts: MinimizeConfig = MinimizeConfig()) -> MinimizeResult:
    """minimize on a barotropic path.  The name stays for the benchmark's
    tracer (perfbench/tracer.py), which looks it up."""
    if path0.kind != "compressible":
        raise ValueError("minimize_compressible needs a barotropic path")
    return minimize(path0, mu, grav, opts)
