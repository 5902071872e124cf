"""Convex dissipation potential, viscous stress and Fenchel conjugation.

The dissipation density is the quadratic

    W(D) = mu [ Tr(D^2) - (1/3) (Tr D)^2 ],

whose stress gradient is the traceless sigma = 2 mu (D - Tr(D) I / 3): pure
dilatation does not dissipate.  The induced elliptic operator

    K(v) = -div( sigma(sym_grad(v)) )

is symmetric positive semidefinite in the discrete calculus with
<K(u), u> = 2 phi(u) exactly.  On the torus K annihilates constants (and the
stencil checkerboards), so conjugation works on mean-free representatives:
phi_star(f) is finite only for zero-mean f and is evaluated as the
dissipation of K^(-1) f.  K is a Fourier multiplier on the periodic grid, so
K^(-1) is the exact per-wavenumber inverse of its 3x3 symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as fd
from .fields import ScalarField, SymTensorField, VectorField, XX, YY, ZZ


class NonZeroMeanError(ValueError):
    """f outside the range of K: a nonzero-mean forcing has no preimage on the torus."""


@dataclass(frozen=True)
class Viscosity:
    mu: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError(f"dynamic viscosity must be positive and finite, got {self.mu}")


@dataclass(frozen=True)
class ConjugateSolve:
    """Settings of the former iterative K^(-1) solve, which is exact now;
    nothing reads them, but the benchmark's workloads still pass one."""

    tol: float = 1e-10
    max_iter: int = 50_000


def _trace(d: SymTensorField) -> np.ndarray:
    return d.data[..., XX, :, :] + d.data[..., YY, :, :] + d.data[..., ZZ, :, :]


def w_density(d: SymTensorField, mu: float) -> ScalarField:
    """Pointwise dissipation density W(D) >= 0 (of each field of a stack)."""
    sq = np.einsum("...cij,...cij,c->...ij", d.data, d.data, fd._SYM_WEIGHTS)
    return ScalarField(d.grid, mu * (sq - _trace(d)**2 / 3.0))


def sigma_i(d: SymTensorField, mu: float) -> SymTensorField:
    """Viscous stress 2 mu (D - Tr(D) I / 3); traceless by construction."""
    out = 2.0 * mu * d.data
    third = 2.0 * mu * _trace(d) / 3.0
    for c in (XX, YY, ZZ):
        out[..., c, :, :] -= third
    return SymTensorField(d.grid, out)


def phi(v: VectorField, mu: float):
    """Dissipation functional: integral of W over the box (one value per field
    of a stack). Zero iff v is constant."""
    return fd.integrate(w_density(fd.sym_grad(v), mu))


def k_of_strain(d: SymTensorField, mu: float) -> VectorField:
    """-div(sigma(D)): K(v) from its strain D = sym_grad(v), for callers that
    already hold D (phi(v) is the integral of w_density of the same D)."""
    kv = fd.div_tensor(sigma_i(d, mu))
    np.negative(kv.data, out=kv.data)
    return kv


def apply_k(v: VectorField, mu: float) -> VectorField:
    """K(v) = -div(sigma(sym_grad v)); zero-mean output for any input."""
    return k_of_strain(fd.sym_grad(v), mu)


def _check_zero_mean(f: VectorField):
    means = fd.component_means(f)
    scale = float(np.abs(f.data).max())
    if scale == 0.0:
        return
    if np.abs(means).max() > 1e-8 * scale:
        raise NonZeroMeanError(
            f"f outside range of K: component means {means} exceed 1e-8 of the field scale")


def solve_k(f: VectorField, mu: float) -> VectorField:
    """Mean-free v with K(v) = f, exact per wavenumber (solve_k_spectrum), for
    f one field or a stack of them (one batched transform pair for the stack);
    phi_star, not this solve, rejects a nonzero mean."""
    if not np.isfinite(f.data).all():
        raise FloatingPointError("viscous conjugate solve: non-finite right-hand side")
    uh = solve_k_spectrum(f.grid, np.fft.rfft2(f.data), mu)
    return VectorField(f.grid, np.fft.irfft2(uh, s=f.grid.shape))


def solve_k_spectrum(grid, fh: np.ndarray, mu: float) -> np.ndarray:
    """The rfft2 spectrum of K^(-1) f from f's.  With the central-difference
    symbol i*s, the in-plane block of K is mu (|s|^2 I + s s^T / 3), inverted
    by (I - s s^T / (4|s|^2)) / (mu |s|^2), and the out-of-plane component by
    1 / (mu |s|^2).  The stencil null modes of f (means and checkerboards)
    are dropped, which projects f onto the range of K."""
    sym = fd.spectral_symbols(grid)
    inv_mu_s2 = sym.inv_s2 / mu
    fx, fy, fz = fd.components(fh)
    s_dot_f = (sym.sx * fx + sym.sy * fy) * (0.25 * sym.inv_s2)
    uh = np.empty_like(fh)
    ux, uy, uz = fd.components(uh)
    np.multiply(fx - sym.sx * s_dot_f, inv_mu_s2, out=ux)
    np.multiply(fy - sym.sy * s_dot_f, inv_mu_s2, out=uy)
    np.multiply(fz, inv_mu_s2, out=uz)
    return uh


def phi_star(f: VectorField, mu: float) -> float:
    """Fenchel polar of phi for zero-mean f: the dissipation of K^(-1) f.

    phi_star is +infinity off the range of K, so a mean above 1e-8 of the
    field scale is a NonZeroMeanError.
    """
    _check_zero_mean(f)
    return phi(solve_k(f, mu), mu)


def fenchel_gap(v: VectorField, f: VectorField, mu: float) -> float:
    """phi(v) + phi_star(f) - <f, v>; nonnegative, zero iff f = K(v) mod constants."""
    return phi(v, mu) + phi_star(f, mu) - fd.inner(f, v)
