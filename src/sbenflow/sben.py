"""Space-time functional for viscous flow paths and its minimization.

Per interval, at its balance.Midpoint (the package's one midpoint rule), the
functional takes the Fenchel gap of the irreversible momentum residual
pi_I = rho Dv/Dt + grad p - rho (g - 2 Omega x v) (Midpoint.residual), one
formula for both kinds and the interval's symplectic.constitutive_gap:

    phi(v) + phi_star(f) + <pi_I, v> = 1/2 <K^(-1) r, r> - <f_raw - N f_raw, v - N v>

with f_raw = -pi_I, f = N P f_raw and r = f - K v.  N removes the stencil
null modes (means and checkerboards), which K annihilates.  A barotropic path
takes grad p(rho) from its EOS and P is the identity; an incompressible path
leaves the pressure out and P, the Leray projection, removes it from f, so it
comes back as the multiplier of the constraint.  The equality needs
P K v = K v: an incompressible path's slices are divergence free (the CLI
checks the archives it reads).

The right side is what is computed: a block of intervals makes one rfft2 of
f_raw - K v, on which P and N act per wavenumber.  Its first term is the
Parseval sum of that spectrum against its K^(-1) (dissipation.solve_k_spectrum),
nonnegative as computed and zero exactly on trajectories of the viscous flow
equations; the same spectrum gives |r| (the NS residual) and the multiplier
pressure.  phi_star(f) is what the gap leaves of phi(v) and the pairing (the
head loss: the Coriolis force does no work in it).  The pairing of the null
parts stays as it was: under a net body force the mean momentum balance,
which K does not see, enters through it alone.  It is the only term that can
make the functional negative, and minimize calls no path converged where it
does.

A path is stored along its time axis, as V (T+1, 3, nx, ny) and rho (T+1, nx,
ny).  Each interval term depends on its two end slices only, so the assembly,
the adjoint gradient and the descent work on blocks of as many consecutive
intervals as fit in _BLOCK_BYTES, every operator applied once to a block's
stacked slices (a field's data may carry leading axes); every entry is a
per-slice reduction, with the bits of the interval computed alone.
evaluate_path and gradient_pi hold one block's temporaries at a time; the
descent keeps every block of a path, for its gradient and pressures.

One matrix-free nonlinear conjugate gradient (Polak-Ribiere+) with Armijo
backtracking minimizes both kinds with the initial state pinned: the
incompressible kind on the divergence-free affine subspace, preconditioned by
the exact inverse of the functional's Hessian on linear Stokes paths
(_stokes_preconditioner), which never moves the null modes; the compressible
kind with the densities re-slaved to the mass balance on every trial path and
a gradient that freezes the density response.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fields as fd
from .balance import DensityError, Eos, FluidState, IncompressibleEos, Midpoint
from .dissipation import ConjugateSolve, k_of_strain, solve_k_spectrum, w_density
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation


# --- divergence-free projection --------------------------------------------

def leray_project(v: VectorField, out: Optional[np.ndarray] = None
                  ) -> tuple[VectorField, ScalarField]:
    """Split v = v_df + grad(q) with div(v_df) = 0 on the periodic grid, for
    v one field or a stack of them (one batched transform pair for the stack).

    laplacian(q) = div(v), the Laplacian composed as div(grad(.)), is solved
    per wavenumber from the stencil divergence: q_hat = -rfft2(div v) / |s|^2,
    zero on the stencil null modes, so the projector is idempotent to
    round-off and the means and checkerboards pass through.  With out, a
    C-contiguous array of v's shape apart from v, v_df is written there.
    """
    data = v.data
    _require_finite(data)
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
    project = _PlaneProjection(grid, np.ascontiguousarray(vx), np.ascontiguousarray(vy), planes)
    q = project(ox, oy)
    # grad(q) has a zero z component, and v_z - 0 is v_z bit for bit
    oz[...] = vz
    return VectorField(grid, out), ScalarField(grid, q)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise FloatingPointError("pressure Poisson solve: non-finite input")


class _PlaneProjection:
    """The projection of leray_project on the x and y planes vx, vy of one
    field or a stack, with its two stencils bound once (fd.Differences), for
    a caller that projects the same arrays many times: each call reads vx and
    vy as they are then, writes v_df's planes into ox and oy and returns q,
    in a buffer of the projection's own that the next call overwrites.

    vx and vy are C-contiguous; planes, a C-contiguous pair apart from them,
    takes the divergence and then grad(q), and may be (ox, oy).
    """

    def __init__(self, grid: Grid2P, vx: np.ndarray, vy: np.ndarray, planes):
        self._v = (vx, vy)
        self._div = fd.Differences(grid, vx, vy, out=planes)
        self._q = np.empty_like(vx)
        self._grad = fd.Differences(grid, self._q, out=planes)
        self._inv_s2 = fd.spectral_symbols(grid).inv_s2
        self._shape = grid.shape

    def __call__(self, ox: np.ndarray, oy: np.ndarray) -> np.ndarray:
        div, div_y = self._div()
        div += div_y
        qh = np.fft.rfft2(div)
        np.multiply(qh, self._inv_s2, out=qh)
        np.negative(qh, out=qh)
        # copied into the bound buffer: irfft2 writing there itself rounds
        # differently
        np.copyto(self._q, np.fft.irfft2(qh, s=self._shape))
        qx, qy = self._grad()
        vx, vy = self._v
        np.subtract(vx, qx, out=ox)
        np.subtract(vy, qy, out=oy)
        return self._q


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
    divergence free (the functional's residual form needs it), rho is the
    constant rho0 (a read-only broadcast; a rho given must equal it) and
    pressures, when known, are the (T, nx, ny) multipliers of the intervals.
    For the compressible kind the densities ride along with the velocities
    (slaved to the mass balance by slave_density or the reference steppers)
    and are checked positive once, on the array.  path.states gives the
    slices as FluidStates whose fields are views of the arrays.
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


# --- reports ------------------------------------------------------------------

@dataclass
class SbenReport:
    """Per-interval breakdown of the functional plus minimizer bookkeeping."""

    kind: str
    midpoint_times: np.ndarray
    phi_terms: np.ndarray
    phi_star_terms: np.ndarray
    pairing_terms: np.ndarray
    gap_terms: np.ndarray           # the interval terms of the functional
    ns_residual_norms: np.ndarray   # |r| = |N P f_raw - K(v_mid)| per interval
    discarded_mean_norms: np.ndarray
    dt: float
    grad_norm_history: list = field(default_factory=list)
    iterations: int = 0
    wall_time: float = 0.0

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
# fields of the block's size, bound the memory of evaluate_path and
# gradient_pi; the descent keeps each path's blocks, whatever the budget.
_BLOCK_BYTES = 96 * 1024


def _blocks(path: Path) -> list[slice]:
    """Consecutive runs of intervals, as many per run as fit in _BLOCK_BYTES."""
    n = path.n_intervals
    c = max(1, _BLOCK_BYTES // path.V[0].nbytes)
    return [slice(a, min(a + c, n)) for a in range(0, n, c)]


@dataclass
class _Block:
    """Terms of consecutive intervals, stacked in time, that pressures and gradient read."""

    intervals: slice
    mid: Midpoint
    accel: VectorField
    kv: VectorField             # K(v_mid)
    uh: np.ndarray              # rfft2 of K^(-1) r
    v_null: np.ndarray          # fd.null_coefficients of v_mid
    qh: Optional[np.ndarray]    # rfft2 of the multiplier (incompressible kind)


def _differentiate_midpoint(v_mid: VectorField, mu: float
                            ) -> tuple[VectorField, np.ndarray, VectorField]:
    """(v_mid . grad) v_mid, phi(v_mid) and K(v_mid) from one Jacobian of v_mid.

    The advection has the operands and order of fd.advect, and phi and K
    share one strain D, so all three equal the separate calls bit for bit.
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
    """The block's terms in the residual form, for both kinds (see the module
    docstring), and its report rows (phi, phi_star, pairing, gap, discarded
    mean, NS residual), one entry per interval.  v_mid is differenced once
    (see _differentiate_midpoint); one rfft2 of R = f_raw - K(v_mid) gives the
    rest.  The incompressible multiplier is left out of pi_I, and P removes
    from the spectrum its potential part q_hat = -i (s . R_hat) / |s|^2."""
    grid = path.grid
    mid = path.midpoint(intervals)
    advection, phi_v, kv = _differentiate_midpoint(mid.v, mu)
    accel = mid.material_derivative(advection)     # after the Jacobian's peak
    del advection
    f_raw = mid.residual(grav, accel)
    pairing = fd.inner(f_raw, mid.v)
    np.negative(f_raw.data, out=f_raw.data)     # pi_I becomes f_raw in place
    f_null, v_null = fd.null_coefficients(f_raw), fd.null_coefficients(mid.v)
    discarded = [np.linalg.norm(m) for m in f_null[..., 0]]     # the constant's: the means
    null_pairing = (f_null * v_null).sum(axis=(-2, -1))
    rh = np.fft.rfft2(np.subtract(f_raw.data, kv.data, out=f_raw.data))
    del f_raw
    qh = None
    if path.kind == "incompressible":     # P R_hat = R_hat - i s q_hat
        sym = fd.spectral_symbols(grid)
        qh = (sym.sx * rh[..., 0, :, :] + sym.sy * rh[..., 1, :, :]) * sym.inv_s2
        rh[..., :2, :, :] -= np.stack([sym.sx * qh, sym.sy * qh], axis=-3)
        qh *= -1j
    uh = solve_k_spectrum(grid, rh, mu)     # zero on the null modes, like the weights
    gap = 0.5 * fd.spectral_inner(grid, uh, rh) - null_pairing * (grid.lx * grid.ly)
    ns_residual = np.sqrt(np.maximum(fd.spectral_inner(grid, rh, rh), 0.0))
    terms = np.array([phi_v, gap - phi_v - pairing, pairing, gap, discarded, ns_residual])
    return _Block(intervals, mid, accel, kv, uh, v_null, qh), terms


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
    phi_v, phi_star_f, pairing, gap, discarded, ns_residual = np.concatenate(terms, axis=1)
    return SbenReport(
        kind=path.kind,
        midpoint_times=0.5 * (path.times[:-1] + path.times[1:]),
        phi_terms=phi_v, phi_star_terms=phi_star_f, pairing_terms=pairing, gap_terms=gap,
        ns_residual_norms=ns_residual, discarded_mean_norms=discarded,
        dt=path.dt,
        wall_time=time.perf_counter() - start,
    )


def _recover_pressures(blocks: list[_Block], out: np.ndarray) -> np.ndarray:
    """Zero-mean multiplier pressure per interval, the potential part of
    f_raw - K(v_mid), from each block's spectrum, into its rows of out (T, nx, ny)."""
    for blk in blocks:
        q = np.fft.irfft2(blk.qh, s=blk.mid.grid.shape)
        np.subtract(q, q.mean(axis=(-2, -1), keepdims=True), out=out[blk.intervals])
    return out


def multiplier_pressures(path: Path, mu: float, grav: Gravitation) -> np.ndarray:
    """Zero-mean multiplier pressure per interval of an incompressible path, (T, nx, ny)."""
    if path.kind != "incompressible":
        raise ValueError("multiplier pressure is defined for the incompressible kind")
    return evaluate_path(path, mu, grav)[1]


def evaluate_path(path: Path, mu: float, grav: Gravitation
                  ) -> tuple[SbenReport, Optional[np.ndarray]]:
    """The functional's report on a path of either kind and, for the
    incompressible kind, its zero-mean multiplier pressures (T, nx, ny), else
    None; each block is reduced as soon as it is built.  A report entry that
    is not finite (an overflow) is a FloatingPointError."""
    pressures = (np.empty((path.n_intervals, *path.grid.shape))
                 if path.kind == "incompressible" else None)
    report = _assemble(path, mu, grav, lambda blk: None if pressures is None else
                       _recover_pressures([blk], pressures))
    if not _finite(report):
        raise FloatingPointError("the functional is not finite on this path")
    return report, pressures


def _finite(report: SbenReport) -> bool:
    """Whether every entry of the report is finite: none overflowed."""
    return bool(np.isfinite([*report.gap_terms, *report.ns_residual_norms, report.total_pi,
                             *report.discarded_mean_norms, report.dissipation_integral]).all())


def assemble_pi_incompressible(path: Path, mu: float, grav: Gravitation,
                               cfg: ConjugateSolve) -> SbenReport:
    """The report of evaluate_path on an incompressible path; cfg is ignored
    (the benchmark's workloads call it with this signature)."""
    if path.kind != "incompressible":
        raise ValueError("path carries a compressible EOS")
    return _assemble(path, mu, grav, lambda blk: None)


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


def _conjugate_velocity(blk: _Block) -> VectorField:
    """u = K^(-1) f = K^(-1) r + N v_mid of the block's intervals, from its spectrum."""
    grid = blk.mid.grid
    u = np.fft.irfft2(blk.uh, s=grid.shape) + blk.mid.v.data
    return VectorField(grid, np.subtract(u, fd.null_part(grid, blk.v_null), out=u))


def _gradient_pieces(path: Path, blk: _Block, u: VectorField, grav: Gravitation
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(dt E / 2, F) of the block's intervals, from the coefficients of each
    interval's first variation d(Pi_k)/dt = <E, d v_mid> + <F, d (time difference)>,
    u their _conjugate_velocity."""
    mid = blk.mid
    w = fd.scalar_times_vector(mid.rho, mid.v - u)
    e = (_jacobian_transpose_dot(mid.v, w) - fd.div_outer(mid.v, w)
         + blk.kv
         + fd.scalar_times_vector(mid.rho, VectorField(path.grid, blk.accel.data - grav.g)))
    p = mid.pressure()
    if p is not None:
        e = e + fd.grad_scalar(p)
    e = e + 2.0 * fd.scalar_times_vector(
        mid.rho, VectorField(path.grid, grav.omega_cross(u.data)))
    h = e.data
    h *= 0.5
    h *= path.dt
    return h, w.data


def gradient_pi(path: Path, mu: float, grav: Gravitation,
                blocks: Optional[list[_Block]] = None) -> VectorField:
    """Exact gradient of the discrete functional with respect to the free
    velocity slices v_k, k >= 1, as a stack of T fields, for the
    incompressible kind projected onto divergence-free fields (the feasible
    directions), for the compressible kind with the density response frozen.

    Slice k + 1 collects dt E / 2 + F of interval k and dt E / 2 - F of
    interval k + 1; the blocks run last to first (without blocks, each core
    is built in that order and freed once its slices are done)."""
    if blocks is None:
        blocks = (_block_core(path, b, mu, grav)[0] for b in reversed(_blocks(path)))
    else:
        blocks = reversed(blocks)
    grads = np.empty_like(path.V[1:])
    later = None    # (dt E / 2, F) of the first interval of the block after this one
    for blk in blocks:
        h, f = _gradient_pieces(path, blk, _conjugate_velocity(blk), grav)
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
# a converged path is a flow: see minimize
_PI_FLOOR, _MEAN_TOL = 1e-13, 1e-6


@dataclass
class MinimizeResult:
    path: Path
    report: SbenReport
    converged: bool
    message: str


def _project_free_slices(path: Path) -> Path:
    """Project the free slices onto divergence-free fields, a block at a time.
    A slice the projection moves only at round-off is kept bit for bit, so a
    descent started on a solution reports what evaluating it does (such a
    move shifts Pi by 5e-12 of itself on a 16^2 Taylor-Green reference)."""
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

    On divergence-free fields K is the scalar a = mu |s|^2 per wavenumber.
    Without advection, r_k = alpha v_(k+1) + beta v_k (alpha = a/2 + rho0/dt,
    beta = a/2 - rho0/dt) and Pi = sum_k (dt / 2a) |r_k|^2; with v_0 pinned,
    r = B v for a lower-bidiagonal B, and the Hessian (dt / a) B^T B is
    inverted per mode by the sweeps B^T y = g and B z = y (stable: |beta| <
    alpha) and the factor a / dt, which vanishes on the null modes.  A
    scalar per mode, the operator commutes with leray_project."""
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

    build(free) makes the trial path from the (T, 3, nx, ny) free velocities;
    a trial it cannot make (DensityError) or whose report is not finite is a
    rejected step, like an Armijo failure; a start whose report or gradient
    is not finite is a FloatingPointError.  With a preconditioner P the
    direction is -P g + beta d, beta = <g+, P g+ - P g> / <g, P g>, a
    non-descent direction resets to -P g, every line search starts at the
    unit step, and the gradient norm leaves out the null modes, which P never
    moves.  Without one the first step is half the path's velocity scale
    along the direction and each later one twice the last accepted step.
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

    Incompressible: the iterates stay divergence free, preconditioned by the
    exact Stokes Hessian inverse (unit first steps; the null modes keep the
    start's values), and the result carries the multiplier pressures.
    Barotropic: every trial's densities are re-slaved to the mass balance (a
    trial they cannot be is a rejected step); the gradient freezes them.

    A stop on a tolerance is not converged on a path that is no flow, when
    the functional ends below -_PI_FLOOR (1e-13) times the dissipation
    integral or a discarded mean |mean of f_raw| above _MEAN_TOL (1e-6), a
    force density in the units of rho g that K does not see: it reads
    <= 2.5e-16 on the incompressible RK2 references, 7e-8 on a compressible
    one under g0 = 0.5 and 0.45-0.65 on paths that do not fall under it.
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
    pi, mean = report.total_pi, report.discarded_mean_norms.max()
    if converged and pi < -_PI_FLOOR * report.dissipation_integral:
        converged, message = False, (f"{message}, but the functional {pi:.3e} is below "
                                     f"-{_PI_FLOOR:g} of the dissipation integral")
    elif converged and mean > _MEAN_TOL:
        converged, message = False, (f"{message}, but a discarded mean of {mean:.3e} is above "
                                     f"{_MEAN_TOL:g}: not a flow")
    if path.kind == "incompressible":
        path.pressures = _recover_pressures(
            blocks, np.empty((path.n_intervals, *path.grid.shape)))
    report.wall_time = time.perf_counter() - start
    return MinimizeResult(path, report, converged, message)


def minimize_compressible(path0: Path, mu: float, grav: Gravitation,
                          opts: MinimizeConfig = MinimizeConfig()) -> MinimizeResult:
    """minimize on a barotropic path (a name the benchmark's tracer looks up)."""
    if path0.kind != "compressible":
        raise ValueError("minimize_compressible needs a barotropic path")
    return minimize(path0, mu, grav, opts)
