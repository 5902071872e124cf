"""Phase-space pairs, the canonical two-form, and the symplectic conjugate.

A phase point pairs the velocity with the momentum rate, zeta = (v, dpi/dt);
the canonical form is

    omega(z, z') = integral( v . pidot' - pidot . v' ).

Splitting a state pair into reversible plus irreversible parts gives
zeta_I = (v_I, pi_I) with v_I = v - pi/rho + A and pi_I the barotropic
momentum residual.  Because the dissipation potential ignores the momentum
rate, the symplectic conjugate collapses to an indicator: it is
phi_star(-pi_I) when v_I vanishes and infinite otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import fields as fd
from .balance import FluidState, Momentum, pi_i_residual
from .dissipation import phi, phi_star
from .fields import ScalarField, VectorField
from .gravitation import Gravitation


class InfinitePolarValue(Exception):
    """Signals an infinite symplectic conjugate; carries the offending |v_I|."""

    def __init__(self, v_i_norm: float, threshold: float):
        super().__init__(
            f"symplectic conjugate is infinite: |v_I|_inf = {v_i_norm:.3e} "
            f"exceeds the indicator threshold {threshold:.3e}")
        self.v_i_norm = v_i_norm
        self.threshold = threshold


@dataclass(frozen=True)
class PhasePoint:
    v: VectorField
    pidot: VectorField

    def __post_init__(self):
        fd._check_same_grid(self.v, self.pidot)


@dataclass(frozen=True)
class PhaseDecomposition:
    v_i: VectorField
    pi_i: VectorField


def omega(z: PhasePoint, zp: PhasePoint) -> float:
    """Canonical symplectic pairing; bilinear and antisymmetric."""
    return fd.inner(z.v, zp.pidot) - fd.inner(z.pidot, zp.v)


def decompose(s_prev: FluidState, s_next: FluidState,
              pi_prev: Momentum, pi_next: Momentum,
              grav: Gravitation,
              pressure: Optional[ScalarField] = None) -> PhaseDecomposition:
    """Irreversible part of the interval's phase velocity.

    v_I = v - pi/rho + A uses midpoint averages; pi_I is the barotropic
    momentum residual of the pair.
    """
    t_mid = 0.5 * (s_prev.t + s_next.t)
    v_mid = 0.5 * (s_prev.v + s_next.v)
    rho_mid = 0.5 * (s_prev.rho + s_next.rho)
    pi_mid = 0.5 * (pi_prev.pi + pi_next.pi)

    pi_over_rho = VectorField(v_mid.grid, pi_mid.data / rho_mid.data[None])
    v_i = v_mid - pi_over_rho + grav.vector_potential(t_mid)
    return PhaseDecomposition(v_i, pi_i_residual(s_prev, s_next, grav, pressure))


def symplectic_polar(z_i: PhaseDecomposition, mu: float,
                     v_tol: float = 1e-8, v_scale: float = 1.0) -> float:
    """Symplectic conjugate of the dissipation potential at zeta_I.

    Finite branch: phi_star of the mean-projected -pi_I, taken when
    |v_I|_inf <= v_tol * v_scale; otherwise raises InfinitePolarValue.
    """
    threshold = v_tol * max(v_scale, 1e-300)
    v_i_norm = fd.linf_norm(z_i.v_i)
    if v_i_norm > threshold:
        raise InfinitePolarValue(v_i_norm, threshold)
    return phi_star(fd.remove_mean(-z_i.pi_i), mu)


def constitutive_gap(z: PhasePoint, z_i: PhaseDecomposition, mu: float,
                     v_tol: float = 1e-8, v_scale: float = 1.0) -> float:
    """phi(v) + polar(zeta_I) - omega(zeta_I, zeta); zero exactly on the
    dissipative constitutive manifold, +inf when the indicator trips."""
    try:
        polar = symplectic_polar(z_i, mu, v_tol=v_tol, v_scale=v_scale)
    except InfinitePolarValue:
        return float("inf")
    pairing = fd.inner(z_i.v_i, z.pidot) - fd.inner(z_i.pi_i, z.v)
    return phi(z.v, mu) + polar - pairing
