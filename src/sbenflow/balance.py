"""Reversible balance-law residuals for barotropic and incompressible flow.

All interval residuals are evaluated at the time midpoint of a pair of
consecutive states: time derivatives by the centered difference over the
interval, spatial terms from the arithmetic average of the two states.
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


def consistent_momentum(state: FluidState, grav: Gravitation) -> Momentum:
    """pi = rho (v + A), the momentum consistent with the velocity definition."""
    a = grav.vector_potential(state.t)
    return Momentum(fd.scalar_times_vector(state.rho, state.v + a))


class Midpoint:
    """The midpoint rule of one interval, or of a block of consecutive
    intervals given as stacked end slices (v_ends, rho_ends: views, as
    (previous, next) pairs of arrays): spatial terms at their average v and
    rho (the constant rho0 for an incompressible fluid), time derivatives by
    their difference over dt, formed when asked for.  t is the midpoint time
    (a block's first: every preset is steady); the pressure is p(rho) from a
    barotropic EOS, or the multiplier a caller supplies.  Every operator acts
    on stacks, so a block's residuals are its intervals', each with the bits
    of the interval's own Midpoint."""

    def __init__(self, grid: Grid2P, eos: Eos, t: float, dt: float, v_ends: tuple,
                 rho_ends: tuple, multiplier: Optional[ScalarField] = None):
        if not dt > 0:
            raise ValueError(f"state pair must be time ordered, got dt = {dt}")
        self.grid, self.eos, self.t, self.dt = grid, eos, t, dt
        self.v_ends, self.rho_ends, self.multiplier = v_ends, rho_ends, multiplier
        self.v = VectorField(grid, self.mean(*v_ends))
        self.rho = (eos.rho0 if isinstance(eos, IncompressibleEos)
                    else ScalarField(grid, self.mean(*rho_ends)))

    @classmethod
    def of_pair(cls, s_prev: FluidState, s_next: FluidState,
                multiplier: Optional[ScalarField] = None) -> "Midpoint":
        return cls(s_prev.grid, s_prev.eos, 0.5 * (s_prev.t + s_next.t), s_next.t - s_prev.t,
                   (s_prev.v.data, s_next.v.data), (s_prev.rho.data, s_next.rho.data),
                   multiplier)

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

    def residual(self, grav: Gravitation, accel: Optional[VectorField] = None) -> VectorField:
        """pi_I = rho accel + grad p - rho (g - 2 Omega x v) (momentum_residual),
        accel the material derivative unless given."""
        if accel is None:
            accel = self.material_derivative()
        p = self.pressure()
        return momentum_residual(self.rho, accel, self.v, grav, self.t,
                                 None if p is None else fd.grad_scalar(p))

    def mass_residual(self) -> ScalarField:
        """d(rho)/dt + div(rho v)."""
        drho = ScalarField(self.grid, self.rate(*self.rho_ends))
        return drho + fd.div_vector(fd.scalar_times_vector(self.rho, self.v))


def pair_midpoint(s_prev: FluidState, s_next: FluidState,
                  pressure: Optional[ScalarField] = None) -> Midpoint:
    """The Midpoint of a state pair for a residual that holds the pressure:
    an incompressible pair's is the multiplier, which the caller supplies."""
    if pressure is None and isinstance(s_prev.eos, IncompressibleEos):
        raise PressureUndefinedError(
            "incompressible state pair needs the multiplier pressure field")
    return Midpoint.of_pair(s_prev, s_next, pressure)


def mass_residual(s_prev: FluidState, s_next: FluidState) -> ScalarField:
    """d(rho)/dt + div(rho v) at the interval midpoint."""
    return Midpoint.of_pair(s_prev, s_next).mass_residual()


def material_derivative(s_prev: FluidState, s_next: FluidState) -> VectorField:
    """Dv/Dt = dv/dt + (v . grad) v at the interval midpoint."""
    return Midpoint.of_pair(s_prev, s_next).material_derivative()


def pi_i_residual(s_prev: FluidState, s_next: FluidState, grav: Gravitation,
                  pressure: Optional[ScalarField] = None) -> VectorField:
    """Irreversible momentum residual rho Dv/Dt + grad p - rho (g - 2 Omega x v).

    Vanishes exactly on inviscid barotropic trajectories; on viscous ones it
    equals the divergence of the viscous stress.
    """
    return pair_midpoint(s_prev, s_next, pressure).residual(grav)


def momentum_residual(rho: Union[ScalarField, float], accel: VectorField, v: VectorField,
                      grav: Gravitation, t: float,
                      grad_p: Optional[VectorField] = None) -> VectorField:
    """rho accel [+ grad_p] - rho (g - 2 Omega x v): pi_I when accel is Dv/Dt.
    With grad_p None the pressure is left out (the incompressible multiplier).
    rho may be a constant; the fields may be stacks (one residual per field)."""
    r = fd.scalar_times_vector(rho, accel)
    if grad_p is not None:
        r = r + grad_p
    return r - gravitation_force(rho, v, grav, t)


def head_loss(s_prev: FluidState, s_next: FluidState, grav: Gravitation,
              pressure: Optional[ScalarField] = None) -> float:
    """Pairing [rho Dv/Dt + grad p - rho g] . v integrated over the box: the
    Coriolis force is pointwise workless, so it is inner(pi_I, v_mid)."""
    mid = pair_midpoint(s_prev, s_next, pressure)
    return fd.inner(mid.residual(grav), mid.v)


def raw_momentum_residual(s_prev: FluidState, s_next: FluidState,
                          pi_prev: Momentum, pi_next: Momentum,
                          grav: Gravitation,
                          pressure: Optional[ScalarField] = None) -> VectorField:
    """Pre-simplification momentum balance
    -d(pi)/dt + div(sigma_R - v (x) pi) + rho ((grad A) . v - grad phi).

    The outer-product divergence is taken in conservative form; sigma_R = -p I.
    Sampled pi must be periodic (supply A = 0 presets when building pi as
    rho (v + A)); the gravitation Jacobian itself is analytic.
    """
    return _raw_momentum_residual(pair_midpoint(s_prev, s_next, pressure),
                                  pi_prev, pi_next, grav)


def _raw_momentum_residual(mid: Midpoint, pi_prev: Momentum, pi_next: Momentum,
                           grav: Gravitation) -> VectorField:
    pi_mid = mid.mean(pi_prev.pi, pi_next.pi)
    dpi = mid.rate(pi_prev.pi, pi_next.pi)
    grad_a_v = fd.jac_transpose_dot(grav.grad_A(mid.t), mid.v)
    potential = fd.scalar_times_vector(mid.rho, grad_a_v - grav.grad_phi(mid.t))
    return -dpi - fd.grad_scalar(mid.pressure()) - fd.div_outer(mid.v, pi_mid) + potential


def momentum_reduction_gap(s_prev: FluidState, s_next: FluidState, grav: Gravitation,
                           pressure: Optional[ScalarField] = None) -> VectorField:
    """Difference between the raw and reduced (-pi_I) momentum balances once
    the mass balance is credited: raw + pi_I + mass_residual (v + A).

    Identically zero in the continuum for pi = rho (v + A); discretely it
    decays at second order for smooth fields.
    """
    mid = pair_midpoint(s_prev, s_next, pressure)
    raw = _raw_momentum_residual(mid, consistent_momentum(s_prev, grav),
                                 consistent_momentum(s_next, grav), grav)
    carrier = mid.v + grav.vector_potential(mid.t)
    return raw + mid.residual(grav) + fd.scalar_times_vector(mid.mass_residual(), carrier)


def _hamiltonian_density(state: FluidState, pi: Momentum, grav: Gravitation) -> ScalarField:
    """H = |pi - rho A|^2 / (2 rho) + rho (phi + e_int)."""
    a = grav.vector_potential(state.t)
    rho = state.rho.data
    excess = pi.pi.data - rho[None] * a.data
    kinetic = 0.5 * np.einsum("i...,i...->...", excess, excess) / rho
    potential = rho * (grav.phi(state.t).data + state.eos.internal_energy(rho))
    return ScalarField(state.grid, kinetic + potential)


def energy_residual(s_prev: FluidState, s_next: FluidState,
                    pi_prev: Momentum, pi_next: Momentum,
                    grav: Gravitation,
                    pressure: Optional[ScalarField] = None) -> ScalarField:
    """Diagnostic residual of the energy balance
    dH/dt + div(H v - sigma_R . v) - rho (dphi/dt - dA/dt . v).

    Zero (at second order) only for reversible exact trajectories.
    """
    mid = pair_midpoint(s_prev, s_next, pressure)
    h_prev = _hamiltonian_density(s_prev, pi_prev, grav)
    h_next = _hamiltonian_density(s_next, pi_next, grav)
    # sigma_R . v = -p v for a barotropic/incompressible fluid
    flux = fd.scalar_times_vector(mid.mean(h_prev, h_next) + mid.pressure(), mid.v)
    rho = mid.rho.data if isinstance(mid.rho, ScalarField) else mid.rho
    source = rho * (grav.dphi_dt(mid.t).data
                    - np.einsum("i...,i...->...", grav.dA_dt(mid.t).data, mid.v.data))
    return mid.rate(h_prev, h_next) + fd.div_vector(flux) - ScalarField(mid.grid, source)
