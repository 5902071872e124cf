"""Galilean gravitation: the potentials and fields of two constants.

The paper brings gravitation in through the potentials (phi, A), with
g = -grad(phi) - dA/dt and Omega = (1/2) curl(A).  Every preset is steady and
uniform, so all of it is a formula in two constants, the only code that reads
a preset's parameters: g = (-0.0, g_y, -0.0) (Gravitation.g, a read-only
(3, 1, 1) array; g_y is -g0 - 0.0 under uniform_gravity, else -0.0) and
Omega = (0, 0, w) (Gravitation._rotation; omega under rigid_rotation, else
0.0).  phi = -g . x, A = Omega x x, grad(phi) = -g, dA_x/dy = -w, dA_y/dx = w
and both time derivatives are zero (A_x and dA_x/dy are +0.0 without
rotation, -0.0 for omega = 0.0).  No derivative differences sampled data, so
the non-periodic potentials give constant fields; gravity() and
coriolis_vector() are read-only broadcast views of the two constants.  No
accessor takes a time: a steady preset has none to read.

Gravitation.body_force is the force per unit mass acc + g - 2 Omega x v, for
the steppers and, through gravitation_force, the momentum residual; its
Coriolis product omega_cross also serves the functional's gradient.  Both give
the bits of the same composition over gravity() and coriolis_vector() for
every input, signed zeros and non-finite entries included (the products of a
zero component of Omega are 0 v, kept as such; the -0.0 components of g, the
additive identity, are left out), and for the in-plane rows (v_x, v_y) of a
planar field (v_z = +0.0), as the reference steppers pass them, the bits of
the field's first two rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .fields import Grid2P, ScalarField, Tensor33Field, VectorField, scalar_times_vector

PRESETS = ("zero", "uniform_gravity", "rigid_rotation")
# the parameters each preset reads
PRESET_PARAMETERS = {"zero": (), "uniform_gravity": ("g0",), "rigid_rotation": ("omega",)}


class UnknownPresetError(ValueError):
    """Raised for a gravitation preset id that is not registered."""


@dataclass(frozen=True)
class Gravitation:
    """A steady, uniform preset bound to a grid (see the module docstring).

    Presets:
      zero             -- g = 0, Omega = 0
      uniform_gravity  -- g = (0, -g0, 0), g0 = 9.81 by default.  phi = g0 y is
                          not periodic; evaluate and minimize accept the preset,
                          and minimize reports paths that are not flows as not
                          converged (ROADMAP item 13)
      rigid_rotation   -- Omega = (0, 0, omega), omega = 1 by default
    """

    grid: Grid2P
    preset: str = "zero"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UnknownPresetError(f"unknown gravitation preset {self.preset!r}; known: {PRESETS}")
        object.__setattr__(self, "params", dict(self.params))

    @functools.cached_property
    def g(self) -> np.ndarray:
        """g as a read-only (3, 1, 1) array, the bits of every cell of gravity()."""
        g = np.full((3, 1, 1), -0.0)
        if self.preset == "uniform_gravity":
            g[1] = -float(self.params.get("g0", 9.81)) - 0.0
        g.flags.writeable = False
        return g

    @functools.cached_property
    def _rotation(self) -> float:
        """w, the z component of Omega."""
        return float(self.params.get("omega", 1.0)) if self.preset == "rigid_rotation" else 0.0

    @functools.cached_property
    def _minus_rotation(self) -> float:
        """-w, the factor of y in A_x: +0.0 without rotation, -0.0 for omega = 0.0."""
        return -self._rotation if self.preset == "rigid_rotation" else 0.0

    # potentials and derived fields ----------------------------------------

    def phi(self) -> ScalarField:
        """-g . position."""
        return ScalarField(self.grid, -(self.g[0] * self.grid.x() + self.g[1] * self.grid.y()))

    def vector_potential(self) -> VectorField:
        """Omega x position = (-w y, w x, 0)."""
        return VectorField.from_components(self.grid, self._minus_rotation * self.grid.y(),
                                           self._rotation * self.grid.x())

    def dA_dt(self) -> VectorField:
        return VectorField.zeros(self.grid)

    def dphi_dt(self) -> ScalarField:
        return ScalarField.zeros(self.grid)

    def grad_phi(self) -> VectorField:
        """-g in every cell."""
        return VectorField(self.grid, np.negative(np.broadcast_to(self.g, (3, *self.grid.shape))))

    def grad_A(self) -> Tensor33Field:
        """The Jacobian dA_i/dx_j: -w at (x, y), w at (y, x), 0 elsewhere."""
        j = Tensor33Field.zeros(self.grid)
        j.data[0, 1] = self._minus_rotation
        j.data[1, 0] = self._rotation
        return j

    def gravity(self) -> VectorField:
        """-grad(phi) - dA/dt: a read-only view of g."""
        return VectorField(self.grid, np.broadcast_to(self.g, (3, *self.grid.shape)))

    def coriolis_vector(self) -> VectorField:
        """(1/2) curl(A) = (0, 0, w), as a read-only view."""
        omega = np.array([0.0, 0.0, self._rotation])[:, None, None]
        return VectorField(self.grid, np.broadcast_to(omega, (3, *self.grid.shape)))

    def omega_cross(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Omega x v for a field or a stack v (..., 3, nx, ny), as fd.cross
        composes it: component i is Omega_j v_k - Omega_k v_j, (i, j, k)
        cyclic, into out (or a new array), which may not overlap v.

        v may also be the in-plane rows (..., 2, nx, ny) of a planar field,
        whose v_z is +0.0: there 0 v_z is +0.0, so x is +0.0 - w v_y and y is
        w v_x, the bits of the first two rows of the field's product.
        """
        b = np.empty_like(v) if out is None else out
        w = self._rotation
        if v.shape[-3] == 2:
            bx, by = b[..., 0, :, :], b[..., 1, :, :]
            np.multiply(w, v[..., 1, :, :], out=bx)
            np.subtract(0.0, bx, out=bx)
            np.multiply(w, v[..., 0, :, :], out=by)
            return b
        a = np.empty_like(v)
        zyx = v[..., ::-1, :, :]
        np.multiply(0.0, zyx[..., :2, :, :], out=a[..., ::2, :, :])   # 0 v_z, ., 0 v_y
        np.multiply(w, v[..., 0, :, :], out=a[..., 1, :, :])           # ., w v_x, .
        np.multiply(w, v[..., 1, :, :], out=b[..., 0, :, :])           # w v_y, ., .
        np.multiply(0.0, zyx[..., ::2, :, :], out=b[..., 1:, :, :])    # ., 0 v_z, 0 v_x
        return np.subtract(a, b, out=b)

    def body_force(self, acc, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """acc + g - 2 Omega x v, the body force per unit mass added to acc,
        for a field or a stack v, or the in-plane rows of a planar one (see
        omega_cross); acc is a constant or an array of v's shape, which
        uniform_gravity overwrites with acc + g.  out is omega_cross's and
        receives the result: it may not overlap acc."""
        force = self.omega_cross(v, out)
        if self.preset == "rigid_rotation":
            force *= 2.0    # elsewhere Omega x v is 0 v - 0 v, which doubling keeps
        if self.preset == "uniform_gravity":
            acc = np.add(acc, self.g[:v.shape[-3]],
                         out=acc if isinstance(acc, np.ndarray) else None)
        return np.subtract(acc, force, out=force)


def eval_gravity(g: Gravitation) -> VectorField:
    return g.gravity()


def eval_coriolis_vector(g: Gravitation) -> VectorField:
    return g.coriolis_vector()


def gravitation_force(rho, v: VectorField, g: Gravitation) -> VectorField:
    """rho (g - 2 Omega x v), the gravity plus Coriolis force density; rho a
    ScalarField or a constant.  It is body_force with acc = -0.0, since
    -0.0 + g is g bit for bit."""
    return scalar_times_vector(rho, VectorField(v.grid, g.body_force(-0.0, v.data)))
