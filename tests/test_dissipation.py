import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.dissipation import (NonZeroMeanError, Viscosity, apply_k,
                                  fenchel_gap, phi, phi_star, sigma_i, solve_k, w_density)
from sbenflow.fields import Grid2P, SymTensorField, VectorField, XX, YY, ZZ, XY
from sbenflow.oracle import taylor_green_analytic
from sbenflow.sampling import random_vector

from conftest import TWO_PI

MU = 0.7


def test_viscosity_must_be_positive():
    with pytest.raises(ValueError):
        Viscosity(mu=0.0)


def _tensor(grid, **entries):
    data = np.zeros((6, *grid.shape))
    idx = {"xx": XX, "yy": YY, "zz": ZZ, "xy": XY, "xz": 4, "yz": 5}
    for k, val in entries.items():
        data[idx[k]] = val
    return SymTensorField(grid, data)


class TestDensityAndStress:
    def test_zero_strain(self, grid16):
        assert fd.integrate(w_density(SymTensorField.zeros(grid16), MU)) == 0.0

    def test_pure_dilatation_is_free(self, grid16):
        # W(a I) = mu (3 a^2 - 3 a^2) = 0: volumetric motion does not dissipate
        d = _tensor(grid16, xx=2.0, yy=2.0, zz=2.0)
        assert fd.linf_norm(w_density(d, MU)) <= 1e-14
        assert fd.linf_norm(sigma_i(d, MU)) <= 1e-14

    def test_pure_shear_density(self, grid16):
        s = 1.3
        d = _tensor(grid16, xy=s)
        w = w_density(d, MU)
        # Tr(D^2) = 2 s^2 and Tr D = 0, so W = 2 mu s^2
        assert np.abs(w.data - 2 * MU * s**2).max() < 1e-13

    def test_uniaxial_stress(self, grid16):
        dval = 0.9
        d = _tensor(grid16, xx=dval)
        s = sigma_i(d, MU)
        assert np.abs(s.data[XX] - 4 * MU * dval / 3).max() < 1e-13
        assert np.abs(s.data[YY] + 2 * MU * dval / 3).max() < 1e-13
        assert np.abs(s.data[ZZ] + 2 * MU * dval / 3).max() < 1e-13

    def test_stress_trace_vanishes(self, grid32, rng):
        d = fd.sym_grad(random_vector(grid32, rng))
        tr = sigma_i(d, MU).trace()
        assert fd.linf_norm(tr) <= 1e-13 * (np.abs(sigma_i(d, MU).data).max() + 1)

    def test_density_nonnegative(self, grid32, rng):
        d = fd.sym_grad(random_vector(grid32, rng))
        assert w_density(d, MU).data.min() >= -1e-15


class TestPhi:
    def test_constant_velocity(self, grid32):
        v = VectorField.from_components(grid32, np.full(grid32.shape, 2.0),
                                        np.full(grid32.shape, -1.0))
        assert phi(v, MU) == 0.0
        w = random_vector(grid32, np.random.default_rng(3))
        assert phi(w + v, MU) == pytest.approx(phi(w, MU), rel=1e-12)

    def test_vortex_value_converges(self):
        # independent quadrature: W for this mode is 2 mu cos^2(x) cos^2(y),
        # whose integral is 2 mu pi^2; cross-checked by <K v, v> = 2 phi
        vals = []
        for nx in (16, 32, 64):
            g = Grid2P(nx, nx, TWO_PI, TWO_PI)
            state, _ = taylor_green_analytic(0.0, 0.0, g)
            vals.append(phi(state.v, MU))
            assert fd.inner(apply_k(state.v, MU), state.v) == pytest.approx(
                2 * vals[-1], rel=1e-12)
        exact = 2 * np.pi**2 * MU
        errors = [abs(v - exact) for v in vals]
        print("phi values", vals, "exact", exact)
        assert errors[2] < errors[1] < errors[0]
        assert vals[2] == pytest.approx(exact, rel=1e-2)


class TestOperatorK:
    def test_annihilates_constants(self, grid32):
        v = VectorField.from_components(grid32, np.full(grid32.shape, 1.0),
                                        np.full(grid32.shape, 2.0), np.full(grid32.shape, 3.0))
        assert fd.linf_norm(apply_k(v, MU)) == 0.0

    def test_vortex_eigenmode(self, grid32):
        # the vortex is divergence free with (discrete) |k|^2 = 2 sinc^2(h):
        # K v = -mu lap v = 2 mu sinc^2(h) v, converging to 2 mu v
        state, _ = taylor_green_analytic(0.0, 0.0, grid32)
        kv = apply_k(state.v, MU)
        h = grid32.dx
        lam = 2 * MU * (np.sin(h) / h) ** 2
        assert fd.linf_norm(kv - lam * state.v) <= 1e-12 * lam
        assert fd.linf_norm(kv - 2 * MU * state.v) <= 2 * MU * h**2

    def test_zero_mean_output(self, grid32, rng):
        v = random_vector(grid32, rng)
        means = fd.component_means(apply_k(v, MU))
        assert np.abs(means).max() <= 1e-14 * fd.linf_norm(v) / grid32.dx**2

    def test_symmetry_and_positivity(self, grid32, rng):
        for _ in range(50):
            u, w = random_vector(grid32, rng), random_vector(grid32, rng)
            s1 = fd.inner(apply_k(u, MU), w)
            s2 = fd.inner(u, apply_k(w, MU))
            assert abs(s1 - s2) <= 1e-12 * (abs(s1) + 1)
            quad = fd.inner(apply_k(u, MU), u)
            assert quad == pytest.approx(2 * phi(u, MU), rel=1e-12)
            assert quad >= 0.0


class TestSolveK:
    def test_round_trip(self, grid32, rng):
        v0 = random_vector(grid32, rng)
        f = apply_k(v0, MU)
        v = solve_k(f, MU)
        ref = fd.remove_mean(v0)
        assert fd.l2_norm(v - ref) <= 1e-8 * fd.l2_norm(ref)

    def test_zero_rhs(self, grid32):
        assert fd.linf_norm(solve_k(VectorField.zeros(grid32), MU)) == 0.0

    def test_eigenmode_rhs(self, grid32):
        state, _ = taylor_green_analytic(0.0, 0.0, grid32)
        h = grid32.dx
        lam = 2 * MU * (np.sin(h) / h) ** 2
        v = solve_k(lam * state.v, MU)
        assert fd.l2_norm(v - state.v) <= 1e-9 * fd.l2_norm(state.v)

    def test_null_modes_dropped(self, grid32, rng):
        f = fd.remove_stencil_null(random_vector(grid32, rng))
        shifted = VectorField(grid32, f.data + 0.5 + (-1.0) ** np.arange(32)[:, None])
        v = solve_k(shifted, MU)
        assert fd.linf_norm(v - solve_k(f, MU)) <= 1e-12 * fd.linf_norm(v)
        assert fd.linf_norm(apply_k(v, MU) - f) <= 1e-10 * fd.linf_norm(f)

    def test_non_finite_rhs_rejected(self, grid32, rng):
        for bad in (np.nan, np.inf):
            f = fd.remove_mean(random_vector(grid32, rng, kmax=7))
            f.data[1, 3, 5] = bad
            with pytest.raises(FloatingPointError, match="non-finite"):
                solve_k(f, MU)


class TestPhiStar:
    def test_zero(self, grid32):
        assert phi_star(VectorField.zeros(grid32), MU) == 0.0

    def test_nonzero_mean_rejected(self, grid32, rng):
        f = random_vector(grid32, rng)
        f = VectorField(grid32, f.data + 0.5)
        with pytest.raises(NonZeroMeanError, match="outside range"):
            phi_star(f, MU)

    def test_conjugacy_equality(self, grid32, rng):
        for _ in range(10):
            v = random_vector(grid32, rng)
            f = apply_k(v, MU)
            assert phi_star(f, MU) == pytest.approx(phi(v, MU), rel=1e-8)

    def test_quadratic_scaling(self, grid32, rng):
        f = fd.remove_mean(apply_k(random_vector(grid32, rng), MU))
        assert phi_star(2.0 * f, MU) == pytest.approx(4.0 * phi_star(f, MU),
                                                           rel=1e-8)

    def test_two_formula_agreement(self, grid32, rng):
        for _ in range(5):
            f = apply_k(random_vector(grid32, rng), MU)
            u = solve_k(f, MU)
            a = phi(u, MU)
            b = 0.5 * fd.inner(f, u)
            assert abs(a - b) <= 1e-10 * max(a, 1e-300)


class TestFenchelGap:
    def test_equality_case(self, grid32, rng):
        for _ in range(50):
            v = random_vector(grid32, rng)
            gap = fenchel_gap(v, apply_k(v, MU), MU)
            assert abs(gap) <= 1e-8 * (phi(v, MU) + 1.0)

    def test_zero_velocity_positive_force(self, grid32, rng):
        f = fd.remove_mean(apply_k(random_vector(grid32, rng), MU))
        assert phi_star(f, MU) > 0.0
        assert fenchel_gap(VectorField.zeros(grid32), f, MU) > 0.0

    def test_random_pairs_strictly_positive(self, grid32, rng):
        for _ in range(20):
            v = random_vector(grid32, rng)
            f = fd.remove_mean(random_vector(grid32, rng))
            gap = fenchel_gap(v, f, MU)
            scale = phi(v, MU) + phi_star(f, MU) + 1.0
            assert gap >= -1e-12 * scale
            assert gap > 1e-6 * scale  # independent draws never sit on the manifold
