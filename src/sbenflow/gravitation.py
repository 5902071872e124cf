"""Galilean gravitation: scalar/vector potentials and the derived fields.

The potentials (phi, A) are analytic presets sampled onto the grid; gravity
and the rotation vector are derived from them,

    g = -grad(phi) - dA/dt,        Omega = (1/2) curl(A),

with every derivative taken analytically from the preset, never by
differencing sampled data.  That keeps non-periodic potentials (uniform
gravity, rigid rotation) usable: their derived fields are constant or
periodic even though phi and A themselves are not.  Every preset is steady
in time and uniform (below), so gravity() and coriolis_vector() are read-only
broadcast views of two constants: no caller can change what the next one sees.

Every preset is also uniform: g = (-0.0, g_y, -0.0) and Omega = (0, 0, w)
are two constants, g_y = -g0 - 0.0 (-0.0 but for uniform_gravity) and w
(0.0 but for rigid_rotation).  Gravitation.body_force computes the force per
unit mass acc + g - 2 Omega x v from them, for the steppers and, through
gravitation_force, for the momentum residual; Gravitation.omega_cross is its
Coriolis product, which the functional's gradient also reads.  Both give the
bits of the same composition over the (3, nx, ny) fields gravity() and
coriolis_vector(), for every input, signed zeros and non-finite entries
included: the products of a zero component of Omega are 0 v, kept as such,
and the -0.0 components of g, the additive identity, are left out.  Both
also take the in-plane rows (v_x, v_y) of a planar field, whose v_z is
+0.0, as the reference steppers do, and give the bits of the field's first
two rows.
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
    """Preset-backed potentials bound to a grid.

    Presets:
      zero             -- phi = 0, A = 0
      uniform_gravity  -- phi = g0 * y, A = 0 (g = (0, -g0, 0)); the potential
                          is not periodic, so this preset is meant for force
                          residual checks, not for functional evaluation
      rigid_rotation   -- A = Omega0 x position with Omega0 = (0, 0, omega),
                          phi = 0 (g = 0, Omega = (0, 0, omega))
    """

    grid: Grid2P
    preset: str = "zero"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise UnknownPresetError(f"unknown gravitation preset {self.preset!r}; known: {PRESETS}")
        object.__setattr__(self, "params", dict(self.params))

    def _g0(self) -> float:
        return float(self.params.get("g0", 9.81))

    def _omega(self) -> float:
        return float(self.params.get("omega", 1.0))

    # potentials -----------------------------------------------------------

    def phi(self, t: float) -> ScalarField:
        if self.preset == "uniform_gravity":
            return ScalarField(self.grid, self._g0() * self.grid.y())
        return ScalarField.zeros(self.grid)

    def vector_potential(self, t: float) -> VectorField:
        if self.preset == "rigid_rotation":
            w = self._omega()
            return VectorField.from_components(self.grid, -w * self.grid.y(), w * self.grid.x())
        return VectorField.zeros(self.grid)

    def dA_dt(self, t: float) -> VectorField:
        # all presets are steady in time
        return VectorField.zeros(self.grid)

    def dphi_dt(self, t: float) -> ScalarField:
        return ScalarField.zeros(self.grid)

    def grad_phi(self, t: float) -> VectorField:
        if self.preset == "uniform_gravity":
            g = VectorField.zeros(self.grid)
            g.data[1] = self._g0()
            return g
        return VectorField.zeros(self.grid)

    def grad_A(self, t: float) -> Tensor33Field:
        """Analytic Jacobian dA_i/dx_j."""
        j = Tensor33Field.zeros(self.grid)
        if self.preset == "rigid_rotation":
            w = self._omega()
            j.data[0, 1] = -w
            j.data[1, 0] = w
        return j

    # derived fields ---------------------------------------------------------

    def gravity(self, t: float) -> VectorField:
        """-grad(phi) - dA/dt, the same for every t: a read-only view of g."""
        return VectorField(self.grid, np.broadcast_to(self.g, (3, *self.grid.shape)))

    def coriolis_vector(self, t: float) -> VectorField:
        """(1/2) curl(A) = (0, 0, w), the same for every t, as a read-only view."""
        omega = np.array([0.0, 0.0, self._rotation])[:, None, None]
        return VectorField(self.grid, np.broadcast_to(omega, (3, *self.grid.shape)))

    # the two constants ------------------------------------------------------

    @functools.cached_property
    def g(self) -> np.ndarray:
        """g as a read-only (3, 1, 1) array, the bits of every cell of gravity()."""
        g = np.full((3, 1, 1), -0.0)
        if self.preset == "uniform_gravity":
            g[1] = -self._g0() - 0.0
        g.flags.writeable = False
        return g

    @functools.cached_property
    def _rotation(self) -> float:
        """w, the z component of Omega."""
        return self._omega() if self.preset == "rigid_rotation" else 0.0

    def omega_cross(self, v: np.ndarray, out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
        """Omega x v for a field or a stack v (..., 3, nx, ny), as fd.cross
        composes it: component i is Omega_j v_k - Omega_k v_j, (i, j, k)
        cyclic.  The products go into work (or a new array), the result into
        out (or a new array); neither may overlap v or the other.

        v may also be the in-plane rows (..., 2, nx, ny) of a planar field,
        whose v_z is +0.0: there 0 v_z is +0.0, so x is +0.0 - w v_y and y is
        w v_x, the bits of the first two rows of the field's product, and
        work is not used.
        """
        b = np.empty_like(v) if out is None else out
        w = self._rotation
        if v.shape[-3] == 2:
            bx, by = b[..., 0, :, :], b[..., 1, :, :]
            np.multiply(w, v[..., 1, :, :], out=bx)
            np.subtract(0.0, bx, out=bx)
            np.multiply(w, v[..., 0, :, :], out=by)
            return b
        a = np.empty_like(v) if work is None else work
        zyx = v[..., ::-1, :, :]
        np.multiply(0.0, zyx[..., :2, :, :], out=a[..., ::2, :, :])   # 0 v_z, ., 0 v_y
        np.multiply(w, v[..., 0, :, :], out=a[..., 1, :, :])           # ., w v_x, .
        np.multiply(w, v[..., 1, :, :], out=b[..., 0, :, :])           # w v_y, ., .
        np.multiply(0.0, zyx[..., ::2, :, :], out=b[..., 1:, :, :])    # ., 0 v_z, 0 v_x
        return np.subtract(a, b, out=b)

    def body_force(self, acc, v: np.ndarray, out: Optional[np.ndarray] = None,
                   work: Optional[np.ndarray] = None) -> np.ndarray:
        """acc + g - 2 Omega x v, the body force per unit mass added to acc,
        for a field or a stack v, or the in-plane rows of a planar one (see
        omega_cross); acc is a constant or an array of v's shape, which
        uniform_gravity overwrites with acc + g.  out and work are
        omega_cross's, and out receives the result: neither may overlap acc."""
        force = self.omega_cross(v, out, work)
        if self.preset == "rigid_rotation":
            force *= 2.0    # elsewhere Omega x v is 0 v - 0 v, which doubling keeps
        if self.preset == "uniform_gravity":
            acc = np.add(acc, self.g[:v.shape[-3]],
                         out=acc if isinstance(acc, np.ndarray) else None)
        return np.subtract(acc, force, out=force)


def eval_gravity(g: Gravitation, t: float) -> VectorField:
    return g.gravity(t)


def eval_coriolis_vector(g: Gravitation, t: float) -> VectorField:
    return g.coriolis_vector(t)


def gravitation_force(rho, v: VectorField, g: Gravitation, t: float) -> VectorField:
    """rho (g - 2 Omega x v), the gravity plus Coriolis force density; rho a
    ScalarField or a constant.  It is body_force with acc = -0.0, since
    -0.0 + g is g bit for bit."""
    return scalar_times_vector(rho, VectorField(v.grid, g.body_force(-0.0, v.data)))
