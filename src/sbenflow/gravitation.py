"""Galilean gravitation: scalar/vector potentials and the derived fields.

The potentials (phi, A) are analytic presets sampled onto the grid; gravity
and the rotation vector are derived from them,

    g = -grad(phi) - dA/dt,        Omega = (1/2) curl(A),

with every derivative taken analytically from the preset, never by
differencing sampled data.  That keeps non-periodic potentials (uniform
gravity, rigid rotation) usable: their derived fields are constant or
periodic even though phi and A themselves are not.  Every preset is steady
in time, so g and Omega are built once per instance, on first use, and
shared read-only: no caller can change what the next one sees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from .fields import Grid2P, ScalarField, Tensor33Field, VectorField, cross, scalar_times_vector

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
        """-grad(phi) - dA/dt, read-only and the same for every t."""
        return self._gravity

    def coriolis_vector(self, t: float) -> VectorField:
        """(1/2) curl(A), read-only and the same for every t."""
        return self._coriolis

    @functools.cached_property
    def _gravity(self) -> VectorField:
        return _read_only(-self.grad_phi(0.0) - self.dA_dt(0.0))

    @functools.cached_property
    def _coriolis(self) -> VectorField:
        omega = VectorField.zeros(self.grid)
        if self.preset == "rigid_rotation":
            omega.data[2] = self._omega()
        return _read_only(omega)


def _read_only(v: VectorField) -> VectorField:
    v.data.flags.writeable = False
    return v


def eval_gravity(g: Gravitation, t: float) -> VectorField:
    return g.gravity(t)


def eval_coriolis_vector(g: Gravitation, t: float) -> VectorField:
    return g.coriolis_vector(t)


def gravitation_force(rho, v: VectorField, g: Gravitation, t: float) -> VectorField:
    """rho (g - 2 Omega x v), the gravity plus Coriolis force density; rho a
    ScalarField or a constant."""
    omega = g.coriolis_vector(t)
    return scalar_times_vector(rho, g.gravity(t) - 2.0 * cross(omega, v))
