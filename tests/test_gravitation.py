import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.fields import ScalarField, VectorField
from sbenflow.gravitation import (Gravitation, UnknownPresetError, eval_coriolis_vector,
                                  eval_gravity, gravitation_force)
from sbenflow.sampling import random_vector


def test_unknown_preset_rejected(grid32):
    with pytest.raises(UnknownPresetError):
        Gravitation(grid32, "dark_energy")


def test_zero_preset(grid32):
    g = Gravitation(grid32, "zero")
    assert fd.linf_norm(eval_gravity(g, 0.0)) == 0.0
    assert fd.linf_norm(eval_coriolis_vector(g, 0.0)) == 0.0


def test_uniform_gravity_points_down(grid32):
    g = Gravitation(grid32, "uniform_gravity", {"g0": 9.0})
    grav = eval_gravity(g, 1.3)
    assert np.all(grav.data[1] == -9.0)
    assert np.abs(grav.data[0]).max() == 0.0
    assert fd.linf_norm(eval_coriolis_vector(g, 0.0)) == 0.0


def test_rigid_rotation_preset(grid32):
    w = 0.7
    g = Gravitation(grid32, "rigid_rotation", {"omega": w})
    om = eval_coriolis_vector(g, 0.0)
    assert np.all(om.data[2] == w)
    assert np.abs(om.data[:2]).max() == 0.0
    assert fd.linf_norm(eval_gravity(g, 0.0)) == 0.0

    # (1/2) curl A recomputed from the sampled potential matches the preset
    # away from the periodic seam (A itself is not periodic)
    a = g.vector_potential(0.0)
    om_num = 0.5 * fd.curl(a).data[2]
    interior = om_num[2:-2, 2:-2]
    assert np.abs(interior - w).max() < 1e-12


def test_jacobian_identity_for_rotation(grid32, rng):
    # (grad A) . v - (v . grad) A = -2 Omega x v
    w = 1.3
    g = Gravitation(grid32, "rigid_rotation", {"omega": w})
    v = random_vector(grid32, rng)
    jac = g.grad_A(0.0)
    lhs = fd.jac_transpose_dot(jac, v) - fd.jac_dot(jac, v)
    rhs = -2.0 * fd.cross(eval_coriolis_vector(g, 0.0), v)
    assert fd.linf_norm(lhs - rhs) < 1e-13


class TestGravitationForce:
    def test_no_rotation_gives_rho_g(self, grid32):
        g = Gravitation(grid32, "uniform_gravity", {"g0": 2.0})
        rho = ScalarField.full(grid32, 3.0)
        v = random_vector(grid32, np.random.default_rng(1))
        force = gravitation_force(rho, v, g, 0.0)
        assert np.all(force.data[1] == -6.0)
        assert np.abs(force.data[0]).max() == 0.0

    def test_velocity_parallel_to_axis(self, grid32):
        g = Gravitation(grid32, "rigid_rotation", {"omega": 2.0})
        rho = ScalarField.full(grid32, 1.0)
        v = VectorField.from_components(grid32, 0 * grid32.x(), 0 * grid32.x(),
                                        np.full(grid32.shape, 1.5))
        assert fd.linf_norm(gravitation_force(rho, v, g, 0.0)) == 0.0

    def test_unit_case(self, grid32):
        # omega = 1, v = (1,0,0), rho = 1, g = 0 -> force = -2 Omega x v = (0,-2,0)
        g = Gravitation(grid32, "rigid_rotation", {"omega": 1.0})
        rho = ScalarField.full(grid32, 1.0)
        v = VectorField.from_components(grid32, np.full(grid32.shape, 1.0), 0 * grid32.x())
        force = gravitation_force(rho, v, g, 0.0)
        assert np.all(force.data[1] == -2.0)
        assert np.abs(force.data[[0, 2]]).max() == 0.0

    def test_coriolis_is_workless(self, grid32, rng):
        g = Gravitation(grid32, "rigid_rotation", {"omega": 1.0})
        v = random_vector(grid32, rng)
        om = eval_coriolis_vector(g, 0.0)
        power = fd.dot_vectors(-2.0 * fd.cross(om, v), v)
        assert fd.linf_norm(power) <= 1e-12 * (fd.linf_norm(v)**2 + 1.0)


@pytest.mark.parametrize("preset,params", [("zero", {}), ("uniform_gravity", {"g0": 9.0}),
                                           ("rigid_rotation", {"omega": 0.7})])
def test_derived_fields_are_built_once_and_read_only(grid32, preset, params):
    g = Gravitation(grid32, preset, params)
    for t in (0.0, 0.3, 1.7, -2.0, 1e6):
        want = -g.grad_phi(t) - g.dA_dt(t)
        got = g.gravity(t)
        assert np.array_equal(got.data, want.data)
        assert got.data.tobytes() == want.data.tobytes()
        omega = g.coriolis_vector(t)
        assert np.all(omega.data[2] == (params["omega"] if preset == "rigid_rotation" else 0.0))
        assert np.all(omega.data[:2] == 0.0)
    for field in (g.gravity(0.5), g.coriolis_vector(0.5)):
        with pytest.raises(ValueError):
            field.data[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            field.data += 1.0
