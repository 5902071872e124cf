"""Reversible balance-law residuals for barotropic and incompressible flow.

Every interval residual is read from a Midpoint, the midpoint rule of an
interval (or a block of consecutive intervals) of a path, which
sben.Path.midpoint builds on the path's one dt: time derivatives by the
centered difference over the interval, spatial terms from the arithmetic
average of the two end states.  No residual takes a time: every
gravitation preset is steady.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import fields as fd
from .fields import Grid2P, ScalarField, VectorField
from .gravitation import Gravitation, gravitation_force


class PressureUndefinedError(ValueError):
    """Pressure requested from an incompressible EOS without a supplied multiplier field."""


class DensityError(FloatingPointError, ValueError):
    """A density is non-positive, or the discrete mass balance that
    determines it could not be solved (a numerical failure, CLI exit 3).
    FluidState raises it for a non-positive density, so it is also a
    ValueError."""


@dataclass(frozen=True)
class IncompressibleEos:
    """Constant-density fluid; pressure is a Lagrange multiplier, not a state function."""

    rho0: float = 1.0

    def __post_init__(self):
        if not 0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        raise PressureUndefinedError(
            "incompressible fluid: pressure must be supplied by the caller")

    def internal_energy(self, rho: np.ndarray) -> np.ndarray:
        return np.zeros_like(rho)


@dataclass(frozen=True)
class BarotropicPowerEos:
    """p(rho) = p0 (rho/rho0)^gamma with the matching convex internal energy."""

    p0: float = 1.0
    rho0: float = 1.0
    gamma: float = 1.4

    def __post_init__(self):
        if not (0 < self.p0 < math.inf and 0 < self.rho0 < math.inf):
            raise ValueError(f"p0 and rho0 must be positive and finite, got {self.p0}, {self.rho0}")
        if not 1.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 1 and finite, got {self.gamma}")

    def pressure(self, rho: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """p0 (rho/rho0)^gamma; with out, every step is computed in place there."""
        r = np.divide(rho, self.rho0, out=out)
        r **= self.gamma
        return np.multiply(self.p0, r, out=out)

    def internal_energy(self, rho: np.ndarray) -> np.ndarray:
        """Specific internal energy from de/drho = p/rho^2 (zero constant for gamma=1)."""
        r = np.asarray(rho) / self.rho0
        if self.gamma == 1.0:
            return (self.p0 / self.rho0) * np.log(r)
        return self.p0 / ((self.gamma - 1.0) * self.rho0) * r ** (self.gamma - 1.0)

    def sound_speed(self, rho: np.ndarray) -> np.ndarray:
        """sqrt(dp/drho)."""
        r = np.asarray(rho) / self.rho0
        return np.sqrt(self.gamma * self.p0 / self.rho0 * r ** (self.gamma - 1.0))


Eos = Union[IncompressibleEos, BarotropicPowerEos]


@dataclass(frozen=True)
class FluidState:
    """Velocity and density at one time instant; pressure is always derived."""

    t: float
    v: VectorField
    rho: ScalarField
    eos: Eos

    def __post_init__(self):
        fd._check_same_grid(self.v, self.rho)
        if isinstance(self.eos, IncompressibleEos):
            if np.any(self.rho.data != self.eos.rho0):
                raise ValueError("an incompressible fluid's density is its rho0")
        elif np.any(self.rho.data <= 0):
            raise DensityError("density must be positive everywhere")

    @property
    def grid(self):
        return self.v.grid


@dataclass(frozen=True)
class Momentum:
    """Generalized momentum field; equals rho (v + A) whenever the velocity
    definition of the canonical equations holds."""

    pi: VectorField


class Midpoint:
    """The midpoint rule of a block of consecutive intervals of a path, one
    interval being a block of one; Path.midpoint builds it, on the path's
    one dt, from the stacked end slices (v_ends, rho_ends: views, as
    (previous, next) pairs of arrays).  Spatial terms are taken at their
    average v and rho (the constant rho0 for an incompressible fluid), time
    derivatives by their difference over dt, formed when asked for.  The
    pressure is p(rho) from a barotropic EOS, or the multiplier a caller
    supplies.  Every operator acts on stacks, so a block's residuals are its
    intervals', each with the bits of the interval's own Midpoint."""

    def __init__(self, grid: Grid2P, eos: Eos, dt: float, v_ends: tuple, rho_ends: tuple,
                 multiplier: Optional[ScalarField] = None):
        self.grid, self.eos, self.dt = grid, eos, dt
        self.v_ends, self.rho_ends, self.multiplier = v_ends, rho_ends, multiplier
        self.v = VectorField(grid, self.mean(*v_ends))
        self.rho = (eos.rho0 if isinstance(eos, IncompressibleEos)
                    else ScalarField(grid, self.mean(*rho_ends)))

    @staticmethod
    def mean(prev, next):
        """The average of two end values (arrays or fields)."""
        m = prev + next
        m *= 0.5
        return m

    def rate(self, prev, next):
        """The time difference of two end values (arrays or fields) over dt."""
        d = next - prev
        d *= 1.0 / self.dt
        return d

    def consistent_momenta(self, grav: Gravitation) -> tuple[Momentum, Momentum]:
        """pi = rho (v + A) at both ends, the momenta consistent with the
        velocity definition."""
        a = grav.vector_potential()
        return tuple(Momentum(fd.scalar_times_vector(ScalarField(self.grid, rho),
                                                     VectorField(self.grid, v) + a))
                     for v, rho in zip(self.v_ends, self.rho_ends))

    def material_derivative(self, advection: Optional[VectorField] = None) -> VectorField:
        """Dv/Dt = dv/dt + (v . grad) v; advection, when given, is (v . grad) v."""
        if advection is None:
            advection = fd.advect(self.v, self.v)
        accel = self.rate(*self.v_ends)
        accel += advection.data
        return VectorField(self.grid, accel)

    def pressure(self) -> Optional[ScalarField]:
        """p(rho) from a barotropic EOS, else the multiplier (None: left out)."""
        if isinstance(self.eos, IncompressibleEos):
            return self.multiplier
        return ScalarField(self.grid, self.eos.pressure(self.rho.data))

    def require_pressure(self) -> None:
        """PressureUndefinedError for an incompressible midpoint without a
        multiplier, checked first by every residual that holds the pressure."""
        if self.multiplier is None and isinstance(self.eos, IncompressibleEos):
            raise PressureUndefinedError(
                "incompressible midpoint needs the multiplier pressure field")

    def residual(self, grav: Gravitation, accel: Optional[VectorField] = None) -> VectorField:
        """pi_I = rho accel + grad p - rho (g - 2 Omega x v) (momentum_residual),
        accel the material derivative unless given.  It vanishes on inviscid
        trajectories; on viscous ones it is the divergence of the viscous
        stress, and inner(pi_I, v) is the head loss (the Coriolis force is
        workless)."""
        if accel is None:
            accel = self.material_derivative()
        p = self.pressure()
        return momentum_residual(self.rho, accel, self.v, grav,
                                 None if p is None else fd.grad_scalar(p))

    def mass_residual(self) -> ScalarField:
        """d(rho)/dt + div(rho v)."""
        drho = ScalarField(self.grid, self.rate(*self.rho_ends))
        return drho + fd.div_vector(fd.scalar_times_vector(self.rho, self.v))


def momentum_residual(rho: Union[ScalarField, float], accel: VectorField, v: VectorField,
                      grav: Gravitation, grad_p: Optional[VectorField] = None) -> VectorField:
    """rho accel [+ grad_p] - rho (g - 2 Omega x v): pi_I when accel is Dv/Dt.
    With grad_p None the pressure is left out (the incompressible multiplier).
    rho may be a constant; the fields may be stacks (one residual per field)."""
    r = fd.scalar_times_vector(rho, accel)
    if grad_p is not None:
        r = r + grad_p
    return r - gravitation_force(rho, v, grav)


def raw_momentum_residual(mid: Midpoint, pi_prev: Momentum, pi_next: Momentum,
                          grav: Gravitation) -> VectorField:
    """Pre-simplification momentum balance
    -d(pi)/dt + div(sigma_R - v (x) pi) + rho ((grad A) . v - grad phi).

    The outer-product divergence is taken in conservative form; sigma_R = -p I.
    Sampled pi must be periodic (supply A = 0 presets when building pi as
    rho (v + A)); the gravitation Jacobian itself is analytic.
    """
    mid.require_pressure()
    pi_mid = mid.mean(pi_prev.pi, pi_next.pi)
    dpi = mid.rate(pi_prev.pi, pi_next.pi)
    grad_a_v = fd.jac_transpose_dot(grav.grad_A(), mid.v)
    potential = fd.scalar_times_vector(mid.rho, grad_a_v - grav.grad_phi())
    return -dpi - fd.grad_scalar(mid.pressure()) - fd.div_outer(mid.v, pi_mid) + potential


def momentum_reduction_gap(mid: Midpoint, grav: Gravitation) -> VectorField:
    """Difference between the raw and reduced (-pi_I) momentum balances once
    the mass balance is credited: raw + pi_I + mass_residual (v + A), at the
    consistent momenta.

    Identically zero in the continuum for pi = rho (v + A); discretely it
    decays at second order for smooth fields.
    """
    raw = raw_momentum_residual(mid, *mid.consistent_momenta(grav), grav)
    carrier = mid.v + grav.vector_potential()
    return raw + mid.residual(grav) + fd.scalar_times_vector(mid.mass_residual(), carrier)


def _hamiltonian_density(mid: Midpoint, rho: np.ndarray, pi: Momentum,
                         grav: Gravitation) -> ScalarField:
    """H = |pi - rho A|^2 / (2 rho) + rho (phi + e_int) at one end of mid."""
    a = grav.vector_potential().data
    excess = VectorField(mid.grid, pi.pi.data - rho[..., None, :, :] * a)
    kinetic = 0.5 * fd.dot_vectors(excess, excess).data / rho
    potential = rho * (grav.phi().data + mid.eos.internal_energy(rho))
    return ScalarField(mid.grid, kinetic + potential)


def energy_residual(mid: Midpoint, pi_prev: Momentum, pi_next: Momentum,
                    grav: Gravitation) -> ScalarField:
    """Diagnostic residual of the energy balance
    dH/dt + div(H v - sigma_R . v) - rho (dphi/dt - dA/dt . v).

    Zero (at second order) only for reversible exact trajectories.
    """
    mid.require_pressure()
    h_prev, h_next = (_hamiltonian_density(mid, rho, pi, grav)
                      for rho, pi in zip(mid.rho_ends, (pi_prev, pi_next)))
    # sigma_R . v = -p v for a barotropic/incompressible fluid
    flux = fd.scalar_times_vector(mid.mean(h_prev, h_next) + mid.pressure(), mid.v)
    rho = mid.rho.data if isinstance(mid.rho, ScalarField) else mid.rho
    source = rho * (grav.dphi_dt().data - fd.dot_vectors(grav.dA_dt(), mid.v).data)
    return mid.rate(h_prev, h_next) + fd.div_vector(flux) - ScalarField(mid.grid, source)
