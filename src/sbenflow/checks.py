"""Structural invariant suite behind the ``check`` subcommand.

Each check returns a named pass/fail with a measured number, so a failure
points straight at the broken identity.  Randomized checks draw from the
configured seed for reproducible runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as fd
from .balance import (BarotropicPowerEos, FluidState, Midpoint, consistent_momentum,
                      momentum_reduction_gap)
from .config import RunConfig
from .dissipation import apply_k, fenchel_gap, phi, phi_star, sigma_i, solve_k
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation
from .sampling import random_scalar, random_solenoidal, random_vector
from .sben import Path, evaluate_path, leray_project
from .symplectic import PhasePoint, constitutive_gap, decompose, omega


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name:<38s} measured {self.measured:.3e}  bound {self.bound:.3e}"


def run_all(config: RunConfig) -> list[CheckResult]:
    grid = config.grid
    mu = config.viscosity.mu
    rng = np.random.default_rng(config.seed)
    out: list[CheckResult] = []
    kmax = min(3, (min(grid.nx, grid.ny) - 1) // 2)     # random modes below Nyquist
    # the convergence orders: at least 16 cells a side, then twice as fine
    coarse = Grid2P(max(grid.nx, 16), max(grid.ny, 16), grid.lx, grid.ly)
    refinement = (coarse, Grid2P(2 * coarse.nx, 2 * coarse.ny, grid.lx, grid.ly))

    # discrete integration by parts
    s = random_scalar(grid, rng, kmax)
    v = random_vector(grid, rng, kmax)
    scale = abs(fd.inner(fd.grad_scalar(s), v)) + 1.0
    resid = abs(fd.inner(fd.grad_scalar(s), v)
                + fd.integrate(ScalarField(grid, s.data * fd.div_vector(v).data)))
    out.append(CheckResult("gradient/divergence adjointness", resid <= 1e-12 * scale,
                           resid / scale, 1e-12))

    # second-order convergence of the gradient stencil
    errs = []
    for g in refinement:
        x = g.x()
        sg = ScalarField(g, np.sin(2.0 * np.pi * x / g.lx))
        exact = (2.0 * np.pi / g.lx) * np.cos(2.0 * np.pi * x / g.lx)
        errs.append(np.abs(fd.grad_scalar(sg).data[0] - exact).max())
    order = math.log2(errs[0] / errs[1])
    out.append(CheckResult("gradient convergence order", abs(order - 2.0) <= 0.2, order, 2.0))

    # curl of a gradient vanishes (commuting stencils make it exact)
    cg = fd.curl(fd.grad_scalar(s))
    cg_scale = fd.linf_norm(fd.grad_scalar(s)) + 1.0
    out.append(CheckResult("curl of gradient", fd.linf_norm(cg) <= 1e-12 * cg_scale,
                           fd.linf_norm(cg) / cg_scale, 1e-12))

    # symplectic form: antisymmetry and bilinearity.  The measurements are
    # folded with np.max and np.min, which keep a NaN, so that a NaN fails
    errs = []
    for _ in range(20):
        z1 = PhasePoint(random_vector(grid, rng, kmax), random_vector(grid, rng, kmax))
        z2 = PhasePoint(random_vector(grid, rng, kmax), random_vector(grid, rng, kmax))
        sc = abs(omega(z1, z2)) + 1.0
        errs += [abs(omega(z1, z2) + omega(z2, z1)) / sc, abs(omega(z1, z1)) / sc]
        a = rng.normal()
        z3 = PhasePoint(a * z1.v + z2.v, a * z1.pidot + z2.pidot)
        errs.append(abs(omega(z3, z2) - a * omega(z1, z2) - omega(z2, z2)) / sc)
    worst = float(np.max(errs))
    out.append(CheckResult("symplectic form antisymmetry", worst <= 1e-12, worst, 1e-12))

    # Stokes hypothesis: viscous stress is traceless
    d = fd.sym_grad(random_vector(grid, rng, kmax))
    tr = sigma_i(d, mu).trace()
    tr_scale = fd.linf_norm(ScalarField(grid, np.abs(sigma_i(d, mu).data).max(axis=0))) + 1.0
    out.append(CheckResult("viscous stress trace", fd.linf_norm(tr) <= 1e-12 * tr_scale,
                           fd.linf_norm(tr) / tr_scale, 1e-12))

    # Coriolis force never works: the body force of the steppers and the
    # momentum residual, at zero acceleration
    grav = Gravitation(grid, "rigid_rotation", {"omega": 1.0})
    vv = random_vector(grid, rng, kmax)
    power = fd.dot_vectors(VectorField(grid, grav.body_force(0.0, vv.data)), vv)
    p_scale = fd.linf_norm(vv) ** 2 + 1.0
    out.append(CheckResult("Coriolis power density", fd.linf_norm(power) <= 1e-12 * p_scale,
                           fd.linf_norm(power) / p_scale, 1e-12))

    # Fenchel inequality and the equality case
    gaps = []
    for _ in range(10):
        vv = random_vector(grid, rng, kmax)
        ff = fd.remove_mean(random_vector(grid, rng, kmax))
        sc = phi(vv, mu) + phi_star(ff, mu) + 1.0
        gaps.append(fenchel_gap(vv, ff, mu) / sc)
    worst_gap = float(np.min(gaps))
    out.append(CheckResult("Fenchel inequality", worst_gap >= -1e-12, worst_gap, -1e-12))

    vv = random_vector(grid, rng, kmax)
    eq_gap = abs(fenchel_gap(vv, apply_k(vv, mu), mu)) / (phi(vv, mu) + 1.0)
    out.append(CheckResult("Fenchel equality at f = K(v)", eq_gap <= 1e-8, eq_gap, 1e-8))

    # conjugate two-formula agreement
    ff = fd.remove_mean(apply_k(random_vector(grid, rng, kmax), mu))
    u = solve_k(ff, mu)
    two = abs(phi(u, mu) - 0.5 * fd.inner(ff, u)) / max(phi(u, mu), 1e-300)
    out.append(CheckResult("conjugate two-formula agreement", two <= 1e-10, two, 1e-10))

    # raw/reduced momentum balance reduction under the mass balance
    gaps = []
    for g in refinement:
        eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4)
        gz = Gravitation(g, "zero")
        dt = 0.1 * (g.dx / coarse.dx)
        states = []
        for t in (0.0, dt):
            # the box's own wavenumbers, so that the fields are periodic on it
            x, y = 2.0 * np.pi * g.x() / g.lx, 2.0 * np.pi * g.y() / g.ly
            rho = ScalarField(g, 1.0 + 0.2 * np.sin(x) * np.cos(y) * math.cos(t))
            vel = VectorField.from_components(
                g, np.sin(y) + 0.3 * np.cos(x + t), 0.2 * np.sin(x) * np.sin(y - t),
                0.1 * np.cos(x))
            states.append(FluidState(t, vel, rho, eos))
        gaps.append(fd.l2_norm(momentum_reduction_gap(states[0], states[1], gz)))
    red_order = math.log2(gaps[0] / gaps[1])
    out.append(CheckResult("momentum reduction identity order", red_order >= 1.8,
                           red_order, 1.8))

    # divergence projection: kills gradients, idempotent
    w = random_vector(grid, rng, kmax)
    w_df, _ = leray_project(w)
    div_after = fd.linf_norm(fd.div_vector(w_df)) / (fd.linf_norm(w) + 1.0)
    out.append(CheckResult("projection divergence", div_after <= 1e-10, div_after, 1e-10))
    w_df2, _ = leray_project(w_df)
    idem = fd.linf_norm(w_df2 - w_df) / (fd.linf_norm(w_df) + 1.0)
    out.append(CheckResult("projection idempotence", idem <= 1e-10, idem, 1e-10))

    # conjugate solve round trip
    v0 = fd.remove_mean(random_solenoidal(grid, rng, kmax))
    u0 = solve_k(apply_k(v0, mu), mu)
    rt = fd.l2_norm(u0 - fd.remove_mean(v0)) / max(fd.l2_norm(v0), 1e-300)
    out.append(CheckResult("conjugate solve round trip", rt <= 1e-8, rt, 1e-8))

    # the symplectic Fenchel gap of each interval is the functional's interval
    # term, on a path of the config's fluid: solenoidal slices at rho0 keep
    # the mass balance of either kind
    times = np.arange(3) * (config.time.t_final / config.time.n_intervals)
    path = Path(grid, config.case.eos, times,
                np.stack([random_solenoidal(grid, rng, kmax).data for _ in times]),
                np.full((len(times), *grid.shape), config.case.eos.rho0))
    report, pressures = evaluate_path(path, mu, config.gravitation)
    states = path.states
    momenta = [consistent_momentum(s, config.gravitation) for s in states]
    errs = []
    for k in range(path.n_intervals):
        z_i = decompose(states[k], states[k + 1], momenta[k], momenta[k + 1],
                        config.gravitation,
                        None if pressures is None else ScalarField(grid, pressures[k]))
        mid = Midpoint.of_pair(states[k], states[k + 1])
        gap = constitutive_gap(PhasePoint(mid.v, mid.rate(momenta[k].pi, momenta[k + 1].pi)),
                               z_i, mu)
        errs.append(abs(gap - report.gap_terms[k])
                    / (report.phi_terms[k] + report.phi_star_terms[k] + 1.0))
    worst = float(np.max(errs))
    out.append(CheckResult("constitutive gap = interval term", worst <= 1e-12, worst, 1e-12))

    return out
