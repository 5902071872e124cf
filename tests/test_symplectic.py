import math

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.balance import FluidState, IncompressibleEos, Midpoint, consistent_momentum
from sbenflow.dissipation import apply_k, fenchel_gap, phi
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import CaseSpec, reference_path, taylor_green_analytic
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector
from sbenflow.sben import evaluate_path
from sbenflow.symplectic import (InfinitePolarValue, PhaseDecomposition, PhasePoint,
                                 constitutive_gap, decompose, omega, symplectic_polar)

from conftest import TWO_PI

MU = 0.4


class TestOmega:
    def test_self_pairing_vanishes(self, grid32, rng):
        z = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
        assert omega(z, z) == 0.0

    def test_antisymmetry(self, grid32, rng):
        for _ in range(20):
            z1 = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
            z2 = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
            s = abs(omega(z1, z2)) + 1.0
            assert abs(omega(z1, z2) + omega(z2, z1)) <= 1e-12 * s

    def test_bilinearity(self, grid32, rng):
        z1 = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
        z2 = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
        zp = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
        a = 1.7
        z3 = PhasePoint(a * z1.v + z2.v, a * z1.pidot + z2.pidot)
        lhs = omega(z3, zp)
        rhs = a * omega(z1, zp) + omega(z2, zp)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_block_reduction(self, grid32, rng):
        # omega((v, 0), (0, q)) collapses to the plain pairing of v and q
        v, q = random_vector(grid32, rng), random_vector(grid32, rng)
        z = PhasePoint(v, VectorField.zeros(grid32))
        zp = PhasePoint(VectorField.zeros(grid32), q)
        assert omega(z, zp) == pytest.approx(fd.inner(v, q), rel=1e-14)


def _vortex_pair(nx, nu, dt, t0=0.1):
    g = Grid2P(nx, nx, TWO_PI, TWO_PI)
    s0, _ = taylor_green_analytic(t0, nu, g)
    s1, _ = taylor_green_analytic(t0 + dt, nu, g)
    _, p_mid = taylor_green_analytic(t0 + 0.5 * dt, nu, g)
    grav = Gravitation(g, "zero")
    return g, s0, s1, p_mid, grav


PRESETS = {"zero": {}, "uniform_gravity": {"g0": 0.5}, "rigid_rotation": {"omega": 0.8}}


def _path(kind, preset, noisy):
    """A 16^2 RK2 reference path of 8 intervals, or it with solenoidal noise
    at a tenth of each free slice's norm (the densities kept)."""
    grid = Grid2P(16, 16, TWO_PI, TWO_PI)
    grav = Gravitation(grid, preset, PRESETS[preset])
    case_id = "compressible_smooth" if kind == "compressible" else "taylor_green"
    path = reference_path(CaseSpec(case_id, grid, 0.25, 32, {"amplitude": 0.05}), 0.1, grav,
                          n_out=8)
    if noisy:
        rng = np.random.default_rng(7)
        noise = np.stack([random_solenoidal(grid, rng, kmax=5).data for _ in path.V[1:]])
        scale = np.sqrt((path.V[1:] ** 2).sum() / (noise ** 2).sum())
        path = path.with_velocities(path.V[1:] + 0.1 * scale * noise)
    return path, grav


def _pairs(path, grav, pressures=None):
    """(midpoint, decomposition, phase point) per interval; the phase point
    is (v_mid, d pi / dt) of the consistent momenta."""
    states = path.states
    momenta = [consistent_momentum(s, grav) for s in states]
    for k in range(path.n_intervals):
        mid = Midpoint.of_pair(states[k], states[k + 1])
        z_i = decompose(states[k], states[k + 1], momenta[k], momenta[k + 1], grav,
                        pressure=None if pressures is None
                        else ScalarField(path.grid, pressures[k]))
        yield mid, z_i, PhasePoint(mid.v, mid.rate(momenta[k].pi, momenta[k + 1].pi))


class TestDecompose:
    @pytest.mark.parametrize("preset", ["zero", "rigid_rotation"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_consistent_momentum_kills_v_i_at_variable_density(self, preset, noisy):
        path, grav = _path("compressible", preset, noisy)
        for mid, z_i, _ in _pairs(path, grav):
            assert fd.linf_norm(z_i.v_i) <= 1e-13 * fd.linf_norm(mid.v)

    def test_noisy_density_pair(self, grid16, rng):
        # consistent momenta at an arbitrary positive density, under rotation
        path, grav = _path("compressible", "rigid_rotation", noisy=True)
        s0, s1 = path.states[:2]
        states = [FluidState(s.t, s.v + 0.1 * random_vector(grid16, rng),
                             s.rho + 0.3 * random_scalar(grid16, rng, amplitude=0.5), s.eos)
                  for s in (s0, s1)]
        z_i = decompose(*states, *(consistent_momentum(s, grav) for s in states), grav)
        v_mid = Midpoint.of_pair(*states).v
        assert fd.linf_norm(z_i.v_i) <= 1e-13 * fd.linf_norm(v_mid)

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    @pytest.mark.parametrize("preset", list(PRESETS))
    @pytest.mark.parametrize("noisy", [False, True])
    def test_constitutive_gap_is_the_interval_term(self, kind, preset, noisy):
        # the symplectic Fenchel gap of each interval is the functional's
        # interval term Pi_k (incompressible: with evaluate_path's pressures)
        path, grav = _path(kind, preset, noisy)
        report, pressures = evaluate_path(path, MU, grav)
        for k, (mid, z_i, z) in enumerate(_pairs(path, grav, pressures)):
            gap = constitutive_gap(z, z_i, MU)
            scale = (report.phi_terms[k] + report.phi_star_terms[k]
                     + fd.l2_norm(z_i.pi_i) * fd.l2_norm(mid.v))
            assert abs(gap - report.gap_terms[k]) <= 1e-13 * scale

    def test_consistent_momentum_kills_v_i(self, grid32, rng):
        eos = IncompressibleEos()
        rho = ScalarField.full(grid32, eos.rho0)
        s0 = FluidState(0.0, random_vector(grid32, rng), rho, eos)
        s1 = FluidState(0.1, random_vector(grid32, rng), rho, eos)
        grav = Gravitation(grid32, "zero")
        z_i = decompose(s0, s1, consistent_momentum(s0, grav),
                        consistent_momentum(s1, grav), grav,
                        pressure=ScalarField.zeros(grid32))
        assert fd.linf_norm(z_i.v_i) <= 1e-14

    def test_steady_euler_state_is_reversible(self):
        errs = []
        for nx in (16, 32, 64):
            g, s0, s1, p_mid, grav = _vortex_pair(nx, nu=0.0, dt=TWO_PI / nx)
            z_i = decompose(s0, s1, consistent_momentum(s0, grav),
                            consistent_momentum(s1, grav), grav, pressure=p_mid)
            assert fd.linf_norm(z_i.v_i) <= 1e-14
            errs.append(fd.l2_norm(z_i.pi_i))
        assert errs[2] < errs[1] / 3 < errs[0] / 9  # second-order decay

    def test_viscous_state_exposes_stress_divergence(self):
        # pi_I converges (second order) to mu lap v = -2 mu v on this mode
        nu = 0.1
        errs = []
        for nx in (16, 32, 64):
            g, s0, s1, p_mid, grav = _vortex_pair(nx, nu=nu, dt=TWO_PI / nx)
            z_i = decompose(s0, s1, consistent_momentum(s0, grav),
                            consistent_momentum(s1, grav), grav, pressure=p_mid)
            assert fd.linf_norm(z_i.v_i) <= 1e-14
            v_mid = 0.5 * (s0.v + s1.v)
            errs.append(fd.l2_norm(z_i.pi_i - (-2 * nu) * v_mid))
        print("viscous decompose errors", errs)
        assert errs[1] < errs[0] / 3.4 and errs[2] < errs[1] / 3.4


class TestSymplecticPolar:
    def test_zero_decomposition(self, grid32):
        z_i = PhaseDecomposition(VectorField.zeros(grid32), VectorField.zeros(grid32))
        assert symplectic_polar(z_i, MU) == 0.0

    def test_equality_branch(self, grid32, rng):
        v = random_vector(grid32, rng)
        z_i = PhaseDecomposition(VectorField.zeros(grid32), -apply_k(v, MU))
        assert symplectic_polar(z_i, MU) == pytest.approx(phi(v, MU), rel=1e-8)

    def test_indicator_trips(self, grid32, rng):
        v_i = random_vector(grid32, rng)
        z_i = PhaseDecomposition(v_i, VectorField.zeros(grid32))
        with pytest.raises(InfinitePolarValue) as err:
            symplectic_polar(z_i, MU)
        assert err.value.v_i_norm == pytest.approx(fd.linf_norm(v_i))


class TestConstitutiveGap:
    def test_dissipative_equality(self, grid32, rng):
        # pi_I = -K(v) with v_I = 0 sits exactly on the constitutive manifold
        v = random_vector(grid32, rng)
        z = PhasePoint(v, random_vector(grid32, rng))
        z_i = PhaseDecomposition(VectorField.zeros(grid32), -apply_k(v, MU))
        gap = constitutive_gap(z, z_i, MU)
        assert abs(gap) <= 1e-8 * (phi(v, MU) + 1.0)

    def test_reversible_point_pays_the_dissipation(self, grid32, rng):
        v = random_vector(grid32, rng)
        z = PhasePoint(v, VectorField.zeros(grid32))
        z_i = PhaseDecomposition(VectorField.zeros(grid32), VectorField.zeros(grid32))
        assert constitutive_gap(z, z_i, MU) == pytest.approx(phi(v, MU), rel=1e-12)
        assert phi(v, MU) > 0.0

    def test_random_decompositions_strictly_positive(self, grid32, rng):
        for _ in range(10):
            v = random_vector(grid32, rng)
            z = PhasePoint(v, random_vector(grid32, rng))
            pi_i = fd.remove_mean(random_vector(grid32, rng))
            z_i = PhaseDecomposition(VectorField.zeros(grid32), pi_i)
            gap = constitutive_gap(z, z_i, MU)
            assert gap > 0.0

    def test_infinite_branch(self, grid32, rng):
        z = PhasePoint(random_vector(grid32, rng), random_vector(grid32, rng))
        z_i = PhaseDecomposition(random_vector(grid32, rng), VectorField.zeros(grid32))
        assert constitutive_gap(z, z_i, MU) == math.inf

    def test_reduction_to_classical_gap(self, grid32, rng):
        # with v_I = 0 and mean-free pi_I the symplectic gap equals the
        # classical one for f = -pi_I
        for _ in range(5):
            v = random_vector(grid32, rng)
            pi_i = fd.remove_mean(random_vector(grid32, rng))
            z = PhasePoint(v, random_vector(grid32, rng))
            z_i = PhaseDecomposition(VectorField.zeros(grid32), pi_i)
            sym = constitutive_gap(z, z_i, MU)
            classical = fenchel_gap(v, -pi_i, MU)
            scale = abs(classical) + 1.0
            assert abs(sym - classical) <= 1e-12 * scale

    def test_gap_invariant_under_velocity_constants(self, grid32, rng):
        v = random_vector(grid32, rng)
        pi_i = fd.remove_mean(random_vector(grid32, rng))
        z_i = PhaseDecomposition(VectorField.zeros(grid32), pi_i)
        shift = VectorField.from_components(grid32, np.full(grid32.shape, 0.8),
                                            np.full(grid32.shape, -0.3))
        g1 = constitutive_gap(PhasePoint(v, VectorField.zeros(grid32)), z_i, MU)
        g2 = constitutive_gap(PhasePoint(v + shift, VectorField.zeros(grid32)), z_i, MU)
        assert g1 == pytest.approx(g2, rel=1e-10, abs=1e-10)
