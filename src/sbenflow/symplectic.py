"""Phase-space pairs, the canonical two-form, and the symplectic conjugate.

A phase point pairs the velocity with the momentum rate, zeta = (v, dpi/dt);
the canonical form is

    omega(z, z') = integral( v . pidot' - pidot . v' ).

Splitting an interval of a path into reversible plus irreversible parts
gives zeta_I = (v_I, pi_I) at the interval's balance.Midpoint (Path.midpoint):
v_I the average over the end slices of v - pi/rho + A, which vanishes on
consistent momenta, and pi_I the midpoint's momentum residual.  Because the
dissipation potential ignores the momentum rate, the symplectic conjugate
collapses to an indicator: it is phi_star(-pi_I) when v_I vanishes and
infinite otherwise.  At zeta = (v_mid, dpi/dt), with an incompressible
interval's multiplier as its pressure, the gap is the space-time
functional's interval term Pi_k (sben).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fields as fd
from .balance import Midpoint, Momentum
from .dissipation import phi, phi_star
from .fields import VectorField
from .gravitation import Gravitation

# |v_I|_inf above which the symplectic conjugate is infinite (absolute)
V_I_TOL = 1e-8


class InfinitePolarValue(Exception):
    """Signals an infinite symplectic conjugate; carries the offending |v_I|."""

    def __init__(self, v_i_norm: float):
        super().__init__(
            f"symplectic conjugate is infinite: |v_I|_inf = {v_i_norm:.3e} "
            f"exceeds the indicator threshold {V_I_TOL:.3e}")
        self.v_i_norm = v_i_norm


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


def decompose(mid: Midpoint, pi_prev: Momentum, pi_next: Momentum,
              grav: Gravitation) -> PhaseDecomposition:
    """Irreversible part of the phase velocity of mid's interval(s): v_I is
    the average over the end slices of v - pi/rho + A, and pi_I the momentum
    residual of mid, which must hold the pressure (PressureUndefinedError)."""
    mid.require_pressure()
    a = grav.vector_potential().data
    ends = [v + a - pi.pi.data / rho[..., None, :, :]
            for v, pi, rho in zip(mid.v_ends, (pi_prev, pi_next), mid.rho_ends)]
    return PhaseDecomposition(VectorField(mid.grid, mid.mean(*ends)), mid.residual(grav))


def symplectic_polar(z_i: PhaseDecomposition, mu: float) -> float:
    """Symplectic conjugate of the dissipation potential at zeta_I.

    Finite branch: phi_star of the mean-projected -pi_I, taken when
    |v_I|_inf <= V_I_TOL; otherwise raises InfinitePolarValue.
    """
    v_i_norm = fd.linf_norm(z_i.v_i)
    if v_i_norm > V_I_TOL:
        raise InfinitePolarValue(v_i_norm)
    return phi_star(fd.remove_mean(-z_i.pi_i), mu)


def constitutive_gap(z: PhasePoint, z_i: PhaseDecomposition, mu: float) -> float:
    """phi(v) + polar(zeta_I) - omega(zeta_I, zeta); zero exactly on the
    dissipative constitutive manifold, +inf when the indicator trips.  At
    an interval's midpoint it is the functional's interval term Pi_k."""
    try:
        polar = symplectic_polar(z_i, mu)
    except InfinitePolarValue:
        return float("inf")
    pairing = fd.inner(z_i.v_i, z.pidot) - fd.inner(z_i.pi_i, z.v)
    return phi(z.v, mu) + polar - pairing
