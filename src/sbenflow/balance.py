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
from .fields import ScalarField, VectorField
from .gravitation import Gravitation, gravitation_force


class PressureUndefinedError(ValueError):
    """Pressure requested from an incompressible EOS without a supplied multiplier field."""


class DensityError(FloatingPointError):
    """A computed density turned non-positive, or the discrete mass balance
    that determines it could not be solved (a numerical failure, CLI exit 3)."""


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
        if np.any(self.rho.data <= 0):
            raise ValueError("density must be positive everywhere")

    @property
    def grid(self):
        return self.v.grid

    def pressure(self) -> ScalarField:
        return ScalarField(self.grid, self.eos.pressure(self.rho.data))


@dataclass(frozen=True)
class Momentum:
    """Generalized momentum field; equals rho (v + A) whenever the velocity
    definition of the canonical equations holds."""

    pi: VectorField


def consistent_momentum(state: FluidState, grav: Gravitation) -> Momentum:
    """pi = rho (v + A), the momentum consistent with the velocity definition."""
    a = grav.vector_potential(state.t)
    return Momentum(fd.scalar_times_vector(state.rho, state.v + a))


def _interval(s_prev: FluidState, s_next: FluidState):
    dt = s_next.t - s_prev.t
    if dt <= 0:
        raise ValueError(f"state pair must be time ordered, got dt = {dt}")
    v_mid = 0.5 * (s_prev.v + s_next.v)
    rho_mid = 0.5 * (s_prev.rho + s_next.rho)
    t_mid = 0.5 * (s_prev.t + s_next.t)
    return dt, t_mid, v_mid, rho_mid


def mass_residual(s_prev: FluidState, s_next: FluidState) -> ScalarField:
    """d(rho)/dt + div(rho v) at the interval midpoint."""
    dt, _, v_mid, rho_mid = _interval(s_prev, s_next)
    drho = (1.0 / dt) * (s_next.rho - s_prev.rho)
    return drho + fd.div_vector(fd.scalar_times_vector(rho_mid, v_mid))


def material_derivative(s_prev: FluidState, s_next: FluidState) -> VectorField:
    """Dv/Dt = dv/dt + (v . grad) v at the interval midpoint."""
    dt, _, v_mid, _ = _interval(s_prev, s_next)
    return _material_derivative(s_prev, s_next, dt, v_mid)


def _material_derivative(s_prev: FluidState, s_next: FluidState, dt: float,
                         v_mid: VectorField) -> VectorField:
    dv = (1.0 / dt) * (s_next.v - s_prev.v)
    return dv + fd.advect(v_mid, v_mid)


def _midpoint_pressure(eos: Eos, rho_mid: ScalarField,
                       pressure: Optional[ScalarField]) -> ScalarField:
    if isinstance(eos, IncompressibleEos):
        if pressure is None:
            raise PressureUndefinedError(
                "incompressible state pair needs the multiplier pressure field")
        return pressure
    return ScalarField(rho_mid.grid, eos.pressure(rho_mid.data))


def pi_i_residual(s_prev: FluidState, s_next: FluidState, grav: Gravitation,
                  pressure: Optional[ScalarField] = None) -> VectorField:
    """Irreversible momentum residual rho Dv/Dt + grad p - rho (g - 2 Omega x v).

    Vanishes exactly on inviscid barotropic trajectories; on viscous ones it
    equals the divergence of the viscous stress.
    """
    return _pi_i_residual(s_prev, s_next, _interval(s_prev, s_next), grav, pressure)


def _pi_i_residual(s_prev: FluidState, s_next: FluidState, interval: tuple,
                   grav: Gravitation, pressure: Optional[ScalarField]) -> VectorField:
    """pi_i_residual from the pair's _interval, whose midpoints it reuses."""
    dt, t_mid, v_mid, rho_mid = interval
    p = _midpoint_pressure(s_prev.eos, rho_mid, pressure)
    return momentum_residual(rho_mid, _material_derivative(s_prev, s_next, dt, v_mid), v_mid,
                             grav, t_mid, fd.grad_scalar(p))


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
    """Pairing [rho Dv/Dt + grad p - rho g] . v integrated over the box.

    The Coriolis force is pointwise workless, so this equals
    inner(pi_i_residual, v_mid) exactly.
    """
    interval = _interval(s_prev, s_next)
    return fd.inner(_pi_i_residual(s_prev, s_next, interval, grav, pressure), interval[2])


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
    dt, t_mid, v_mid, rho_mid = _interval(s_prev, s_next)
    p = _midpoint_pressure(s_prev.eos, rho_mid, pressure)
    pi_mid = 0.5 * (pi_prev.pi + pi_next.pi)
    dpi = (1.0 / dt) * (pi_next.pi - pi_prev.pi)

    grad_a_v = fd.jac_transpose_dot(grav.grad_A(t_mid), v_mid)
    potential = fd.scalar_times_vector(rho_mid, grad_a_v - grav.grad_phi(t_mid))
    return -dpi - fd.grad_scalar(p) - fd.div_outer(v_mid, pi_mid) + potential


def reduced_momentum_residual(s_prev: FluidState, s_next: FluidState,
                              grav: Gravitation,
                              pressure: Optional[ScalarField] = None) -> VectorField:
    """-rho Dv/Dt + div sigma_R + rho (g - 2 Omega x v); the negative of pi_i_residual."""
    return -pi_i_residual(s_prev, s_next, grav, pressure)


def momentum_reduction_gap(s_prev: FluidState, s_next: FluidState, grav: Gravitation,
                           pressure: Optional[ScalarField] = None) -> VectorField:
    """Difference between the raw and reduced momentum balances once the mass
    balance is credited: raw - reduced + mass_residual (v + A).

    Identically zero in the continuum for pi = rho (v + A); discretely it
    decays at second order for smooth fields.
    """
    dt, t_mid, v_mid, _ = _interval(s_prev, s_next)
    pi_prev = consistent_momentum(s_prev, grav)
    pi_next = consistent_momentum(s_next, grav)
    raw = raw_momentum_residual(s_prev, s_next, pi_prev, pi_next, grav, pressure)
    reduced = reduced_momentum_residual(s_prev, s_next, grav, pressure)
    carrier = v_mid + grav.vector_potential(t_mid)
    mass_term = fd.scalar_times_vector(mass_residual(s_prev, s_next), carrier)
    return raw - reduced + mass_term


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
    dt, t_mid, v_mid, rho_mid = _interval(s_prev, s_next)
    p = _midpoint_pressure(s_prev.eos, rho_mid, pressure)
    h_prev = _hamiltonian_density(s_prev, pi_prev, grav)
    h_next = _hamiltonian_density(s_next, pi_next, grav)
    h_mid = 0.5 * (h_prev + h_next)
    dh = (1.0 / dt) * (h_next - h_prev)

    # sigma_R . v = -p v for a barotropic/incompressible fluid
    flux = fd.scalar_times_vector(h_mid + p, v_mid)
    da_dt = grav.dA_dt(t_mid)
    source_data = rho_mid.data * (grav.dphi_dt(t_mid).data
                                  - np.einsum("i...,i...->...", da_dt.data, v_mid.data))
    return dh + fd.div_vector(flux) - ScalarField(rho_mid.grid, source_data)
