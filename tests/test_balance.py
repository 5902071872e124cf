import math

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.balance import (BarotropicPowerEos, DensityError, FluidState, IncompressibleEos,
                              PressureUndefinedError, energy_residual, momentum_reduction_gap,
                              momentum_residual, raw_momentum_residual)
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import taylor_green_analytic
from sbenflow.sampling import random_solenoidal
from sbenflow.sben import Path
from sbenflow.symplectic import decompose

from conftest import TWO_PI, interval_midpoint, observed_order, signed_zero_vectors


def _tg_pair(nx, nu, dt, t0=0.2):
    g = Grid2P(nx, nx, TWO_PI, TWO_PI)
    s0, p0 = taylor_green_analytic(t0, nu, g)
    s1, p1 = taylor_green_analytic(t0 + dt, nu, g)
    _, p_mid = taylor_green_analytic(t0 + dt / 2, nu, g)
    return g, s0, s1, p_mid


def test_eos_validation():
    with pytest.raises(ValueError):
        BarotropicPowerEos(p0=-1.0)
    with pytest.raises(ValueError):
        BarotropicPowerEos(gamma=0.5)
    with pytest.raises(ValueError):
        IncompressibleEos(rho0=0.0)
    eos = BarotropicPowerEos(p0=2.0, rho0=1.0, gamma=1.4)
    # pressure monotone increasing in density
    rho = np.linspace(0.5, 2.0, 50)
    assert np.all(np.diff(eos.pressure(rho)) > 0)
    # internal energy consistent with de/drho = p / rho^2 (finite differences)
    h = 1e-6
    de = (eos.internal_energy(rho + h) - eos.internal_energy(rho - h)) / (2 * h)
    assert np.abs(de - eos.pressure(rho) / rho**2).max() < 1e-6


def test_isothermal_internal_energy():
    eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.0)
    rho = np.linspace(0.5, 2.0, 20)
    h = 1e-6
    de = (eos.internal_energy(rho + h) - eos.internal_energy(rho - h)) / (2 * h)
    assert np.abs(de - eos.pressure(rho) / rho**2).max() < 1e-6


@pytest.mark.parametrize("gamma", [1.4, 1.0])
def test_eos_derivatives_off_the_unit_reference_state(gamma):
    # p0 and rho0 away from 1, where several wrong formulas agree with the
    # right one: e'(rho) = p / rho^2 and c^2 = dp/drho by central differences,
    # and the values at rho0 that fix e's constant and c's scale
    p0, rho0 = 2.5, 1.7
    eos = BarotropicPowerEos(p0=p0, rho0=rho0, gamma=gamma)
    rho = np.linspace(0.6, 3.1, 26)
    h = 1e-6 * rho
    de = (eos.internal_energy(rho + h) - eos.internal_energy(rho - h)) / (2 * h)
    dp = (eos.pressure(rho + h) - eos.pressure(rho - h)) / (2 * h)
    assert np.abs(de / (eos.pressure(rho) / rho**2) - 1.0).max() < 1e-8
    assert np.abs(dp / eos.sound_speed(rho)**2 - 1.0).max() < 1e-8
    e0 = 0.0 if gamma == 1.0 else p0 / ((gamma - 1.0) * rho0)
    assert eos.internal_energy(np.array(rho0)) == pytest.approx(e0, abs=1e-15)
    assert eos.sound_speed(np.array(rho0))**2 == pytest.approx(gamma * p0 / rho0, rel=1e-14)


def test_state_requires_positive_density(grid16):
    eos = BarotropicPowerEos()
    with pytest.raises(ValueError):
        FluidState(0.0, VectorField.zeros(grid16), ScalarField.full(grid16, 1.0) * 0.0, eos)
    # a numerical failure too (CLI exit 3), whichever of the two a caller catches
    rho = np.ones(grid16.shape)
    rho[3, 5] = -1e-300
    with pytest.raises(DensityError, match="positive everywhere"):
        FluidState(0.0, VectorField.zeros(grid16), ScalarField(grid16, rho), eos)
    assert issubclass(DensityError, ValueError) and issubclass(DensityError, FloatingPointError)


def test_incompressible_state_density_is_rho0():
    # balance's residuals take rho0 for an incompressible fluid, so a state
    # with another density field would be read with a density it does not have
    g = Grid2P(8, 8, TWO_PI, TWO_PI)
    v = VectorField.from_components(g, np.sin(g.x()), 0.0 * g.x())
    with pytest.raises(ValueError, match="rho0"):
        FluidState(0.0, v, ScalarField.full(g, 2.0), IncompressibleEos(1.0))
    state = FluidState(0.0, v, ScalarField.full(g, 2.0), IncompressibleEos(2.0))
    assert state.rho.data.max() == 2.0


def test_time_ordering_enforced(grid16):
    # an interval's Midpoint comes from a path, whose times must increase
    eos = IncompressibleEos()
    s = FluidState(0.0, VectorField.zeros(grid16), ScalarField.full(grid16, 1.0), eos)
    with pytest.raises(ValueError, match="increase"):
        interval_midpoint(s, s)


def test_mass_residual_solenoidal_flow(grid32, rng):
    eos = IncompressibleEos()
    rho = ScalarField.full(grid32, 1.0)
    v = random_solenoidal(grid32, rng)
    s0 = FluidState(0.0, v, rho, eos)
    s1 = FluidState(0.1, v, rho, eos)
    resid = interval_midpoint(s0, s1).mass_residual()
    assert fd.linf_norm(resid) <= 1e-13 * fd.linf_norm(v) / grid32.dx


def test_mass_residual_manufactured_order():
    # rho = 1 + 0.1 sin(x - t), v = (1, 0, 0) solves the continuity equation
    eos = BarotropicPowerEos()
    errs = []
    for nx in (16, 32, 64):
        g = Grid2P(nx, nx, TWO_PI, TWO_PI)
        dt = g.dx
        states = []
        for t in (0.0, dt):
            rho = ScalarField(g, 1.0 + 0.1 * np.sin(g.x() - t))
            v = VectorField.from_components(g, np.ones(g.shape), np.zeros(g.shape))
            states.append(FluidState(t, v, rho, eos))
        errs.append(fd.linf_norm(interval_midpoint(*states).mass_residual()))
    order = observed_order(errs)
    print("mass residual errors", errs, "order", order)
    assert order >= 1.8


def test_material_derivative_uniform_steady(grid32):
    eos = IncompressibleEos()
    v = VectorField.from_components(grid32, np.full(grid32.shape, 2.0),
                                    np.full(grid32.shape, -1.0))
    rho = ScalarField.full(grid32, 1.0)
    s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.5, v, rho, eos)
    assert fd.linf_norm(interval_midpoint(s0, s1).material_derivative()) == 0.0


def test_material_derivative_shear_exact(grid32):
    # unidirectional shear advects itself trivially: (v . grad) v = 0
    eos = IncompressibleEos()
    v = VectorField.from_components(grid32, np.sin(grid32.y()), np.zeros(grid32.shape))
    rho = ScalarField.full(grid32, 1.0)
    s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
    assert fd.linf_norm(interval_midpoint(s0, s1).material_derivative()) <= 1e-14


def test_material_derivative_euler_vortex_order():
    # steady inviscid vortex: Dv/Dt + grad(p)/rho = 0
    errs = []
    for nx in (16, 32, 64):
        dt = TWO_PI / nx
        g, s0, s1, p_mid = _tg_pair(nx, nu=0.0, dt=dt)
        resid = (interval_midpoint(s0, s1).material_derivative()
                 + (1.0 / s0.eos.rho0) * fd.grad_scalar(p_mid))
        errs.append(fd.l2_norm(resid)[0])
    order = observed_order(errs)
    print("euler vortex errors", errs, "order", order)
    assert order >= 1.8


class TestPiIResidual:
    def test_rest_state(self, grid32):
        eos = BarotropicPowerEos()
        rho = ScalarField.full(grid32, 1.0)
        v = VectorField.zeros(grid32)
        s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
        grav = Gravitation(grid32, "zero")
        assert fd.linf_norm(interval_midpoint(s0, s1).residual(grav)) == 0.0

    def test_incompressible_needs_pressure(self, grid32, rng):
        # pi_I leaves a missing multiplier out, as the functional's residual
        # form needs; every residual that holds the pressure refuses instead
        eos = IncompressibleEos()
        rho = ScalarField.full(grid32, 1.0)
        s0 = FluidState(0.0, random_solenoidal(grid32, rng), rho, eos)
        s1 = FluidState(0.1, random_solenoidal(grid32, rng), rho, eos)
        grav = Gravitation(grid32, "rigid_rotation", {"omega": 0.8})
        mid = interval_midpoint(s0, s1)
        without = momentum_residual(1.0, mid.material_derivative(), mid.v, grav)
        assert mid.residual(grav).data.tobytes() == without.data.tobytes()
        momenta = mid.consistent_momenta(grav)
        for needs_pressure in (lambda: raw_momentum_residual(mid, *momenta, grav),
                               lambda: momentum_reduction_gap(mid, grav),
                               lambda: energy_residual(mid, *momenta, grav),
                               lambda: decompose(mid, *momenta, grav)):
            with pytest.raises(PressureUndefinedError):
                needs_pressure()

    def test_steady_euler_vortex_order(self):
        errs = []
        for nx in (16, 32, 64):
            dt = TWO_PI / nx
            g, s0, s1, p_mid = _tg_pair(nx, nu=0.0, dt=dt)
            grav = Gravitation(g, "zero")
            errs.append(fd.l2_norm(interval_midpoint(s0, s1, p_mid).residual(grav))[0])
        order = observed_order(errs)
        print("pi_I euler errors", errs, "order", order)
        assert order >= 1.8

    def test_viscous_vortex_matches_stress_divergence(self):
        # on the decaying vortex, pi_I converges to mu Lap v = -2 mu v
        nu, rho0 = 0.1, 1.0
        mu = nu * rho0
        errs = []
        for nx in (16, 32, 64):
            dt = TWO_PI / nx
            g, s0, s1, p_mid = _tg_pair(nx, nu=nu, dt=dt)
            grav = Gravitation(g, "zero")
            resid = interval_midpoint(s0, s1, p_mid).residual(grav)
            v_mid = 0.5 * (s0.v + s1.v)
            errs.append(fd.l2_norm(resid - (-2.0 * mu) * v_mid)[0])
        order = observed_order(errs)
        print("viscous pi_I errors", errs, "order", order)
        assert order >= 1.8

    def test_discrete_identity_with_eos_pressure(self, grid32, rng):
        # with G = 0, pi_I literally equals rho D v/Dt + grad p(rho_mid)
        eos = BarotropicPowerEos(p0=1.3, gamma=1.4)
        grav = Gravitation(grid32, "zero")
        x, y = grid32.x(), grid32.y()
        s0 = FluidState(0.0, random_solenoidal(grid32, rng),
                        ScalarField(grid32, 1.0 + 0.1 * np.sin(x) * np.cos(y)), eos)
        s1 = FluidState(0.05, random_solenoidal(grid32, rng),
                        ScalarField(grid32, 1.0 + 0.1 * np.cos(x) * np.sin(y)), eos)
        mid = interval_midpoint(s0, s1)
        rho_mid = 0.5 * (s0.rho + s1.rho)
        expected = (fd.scalar_times_vector(rho_mid, mid.material_derivative())
                    + fd.grad_scalar(ScalarField(grid32, eos.pressure(rho_mid.data))))
        assert fd.linf_norm(mid.residual(grav) - expected) <= 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("kind", ["incompressible", "compressible"])
def test_momentum_residual_keeps_the_field_composition(grid16, preset, lead, kind):
    # the body force comes from the preset's two constants, with the bits of
    # rho (g - 2 Omega x v) over the gravity and Coriolis fields, on one field
    # and on a stack
    rng = np.random.default_rng(11)
    grav = Gravitation(grid16, preset, {"g0": 0.5, "omega": 0.8})
    accel, v = (VectorField(grid16, signed_zero_vectors(grid16, rng, lead)) for _ in range(2))
    if kind == "incompressible":
        rho, grad_p = 1.3, None
    else:
        rho = ScalarField(grid16, 1.0 + rng.random((*lead, *grid16.shape)))
        grad_p = VectorField(grid16, rng.normal(size=v.data.shape))
    got = momentum_residual(rho, accel, v, grav, grad_p)
    want = fd.scalar_times_vector(rho, accel)
    if grad_p is not None:
        want = want + grad_p
    want = want - fd.scalar_times_vector(
        rho, grav.gravity() - 2.0 * fd.cross(grav.coriolis_vector(), v))
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
@pytest.mark.parametrize("eos", [BarotropicPowerEos(p0=2.0, gamma=1.4), IncompressibleEos(1.3)],
                         ids=["compressible", "incompressible"])
def test_block_midpoint_gives_each_intervals_residuals(grid16, preset, eos):
    # a block of intervals is a stack: each of its residuals, and the pi_I of
    # decompose, has the bits of the interval's own Midpoint.  The path has
    # one clock: 0.3 - 0.2 is not 0.1 in binary, and every interval
    # differences over times[1] - times[0]
    rng = np.random.default_rng(5)
    n = 3
    V = rng.normal(size=(n + 1, 3, *grid16.shape))
    rho = multiplier = None
    if isinstance(eos, BarotropicPowerEos):
        rho = 1.0 + 0.2 * rng.random((n + 1, *grid16.shape))
    else:
        multiplier = ScalarField(grid16, rng.normal(size=(n, *grid16.shape)))
    path = Path(grid16, eos, [0.0, 0.1, 0.2, 0.3], V, rho)
    grav = Gravitation(grid16, preset, {"g0": 0.5, "omega": 0.8})

    def interval(k):
        return path.midpoint(slice(k, k + 1), None if multiplier is None
                             else ScalarField(grid16, multiplier.data[k:k + 1]))

    block = path.midpoint(slice(0, n), multiplier)
    for residual in (lambda mid: mid.material_derivative(), lambda mid: mid.mass_residual(),
                     lambda mid: mid.residual(grav),
                     lambda mid: decompose(mid, *mid.consistent_momenta(grav), grav).pi_i):
        got = residual(block).data
        assert got.shape[0] == n
        for k in range(n):
            alone = residual(interval(k)).data[0]
            assert got[k].tobytes() == alone.tobytes(), k


def test_pressure_gradient_is_workless_on_solenoidal(grid32, rng):
    # the pairing sees no pressure contribution when div v = 0 (skew adjointness)
    eos = IncompressibleEos()
    rho = ScalarField.full(grid32, 1.0)
    v = random_solenoidal(grid32, rng)
    s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.05, v, rho, eos)
    grav = Gravitation(grid32, "zero")
    p_a = ScalarField(grid32, np.sin(grid32.x()) * np.cos(grid32.y()))
    p_b = ScalarField(grid32, np.cos(2 * grid32.x()))
    mid_a, mid_b = interval_midpoint(s0, s1, p_a), interval_midpoint(s0, s1, p_b)
    # the head loss, inner(pi_I, v_mid)
    hl_a = fd.inner(mid_a.residual(grav), mid_a.v)[0]
    hl_b = fd.inner(mid_b.residual(grav), mid_b.v)[0]
    scale = fd.l2_norm(v) ** 2 / grid32.dx + 1.0
    assert abs(hl_a - hl_b) <= 1e-12 * scale


class TestRawMomentum:
    def test_all_zero_fields(self, grid32):
        eos = BarotropicPowerEos()
        rho = ScalarField.full(grid32, 1.0)
        v = VectorField.zeros(grid32)
        s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
        grav = Gravitation(grid32, "zero")
        mid = interval_midpoint(s0, s1)
        resid = raw_momentum_residual(mid, *mid.consistent_momenta(grav), grav)
        # uniform rho gives a constant pressure whose gradient vanishes exactly
        assert fd.linf_norm(resid) == 0.0

    def test_hydrostatic_interior(self, grid32):
        # v = 0 with grad p = -rho grad(phi): residual vanishes away from the
        # seam where the sampled linear pressure wraps around
        g0 = 2.0
        rho0 = 1.5
        eos = IncompressibleEos(rho0)
        grav = Gravitation(grid32, "uniform_gravity", {"g0": g0})
        rho = ScalarField.full(grid32, rho0)
        v = VectorField.zeros(grid32)
        s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
        p = ScalarField(grid32, -rho0 * g0 * grid32.y())
        mid = interval_midpoint(s0, s1, p)
        resid = raw_momentum_residual(mid, *mid.consistent_momenta(grav), grav)
        interior = resid.data[..., 2:-2]
        assert np.abs(interior).max() <= 1e-12 * rho0 * g0


def test_momentum_reduction_gap_zero_fields(grid32):
    eos = BarotropicPowerEos()
    rho = ScalarField.full(grid32, 1.0)
    v = VectorField.zeros(grid32)
    s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
    grav = Gravitation(grid32, "zero")
    assert fd.linf_norm(momentum_reduction_gap(interval_midpoint(s0, s1), grav)) == 0.0


def _manufactured_pair(g, dt, preset="zero", params=None):
    eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4)
    grav = Gravitation(g, preset, params or {})
    states = []
    for t in (0.0, dt):
        x, y = g.x(), g.y()
        rho = ScalarField(g, 1.0 + 0.2 * np.sin(x) * np.cos(y) * math.cos(t)
                          + 0.1 * np.cos(2 * y - t))
        v = VectorField.from_components(
            g, np.sin(y) + 0.3 * np.cos(x + t),
            0.2 * np.sin(x) * np.sin(y - t), 0.1 * np.cos(x))
        states.append(FluidState(t, v, rho, eos))
    return states[0], states[1], grav


@pytest.mark.parametrize("preset,params", [("zero", {}), ("uniform_gravity", {"g0": 1.5})])
def test_momentum_reduction_gap_order(preset, params):
    errs = []
    for nx in (16, 32, 64):
        g = Grid2P(nx, nx, TWO_PI, TWO_PI)
        s0, s1, grav = _manufactured_pair(g, dt=0.5 * g.dx, preset=preset, params=params)
        errs.append(fd.l2_norm(momentum_reduction_gap(interval_midpoint(s0, s1), grav))[0])
    order = observed_order(errs)
    print(f"reduction gap ({preset}) errors", errs, "order", order)
    assert order >= 1.8


class TestEnergyResidual:
    def test_hydrostatic_static(self, grid32):
        # no flow, steady potentials: every term of the balance is zero
        rho0, g0 = 1.2, 3.0
        eos = IncompressibleEos(rho0)
        grav = Gravitation(grid32, "uniform_gravity", {"g0": g0})
        rho = ScalarField.full(grid32, rho0)
        v = VectorField.zeros(grid32)
        s0, s1 = FluidState(0.0, v, rho, eos), FluidState(0.1, v, rho, eos)
        p = ScalarField(grid32, -rho0 * g0 * grid32.y())
        mid = interval_midpoint(s0, s1, p)
        resid = energy_residual(mid, *mid.consistent_momenta(grav), grav)
        assert fd.linf_norm(resid) == 0.0

    def test_steady_euler_vortex_order(self):
        errs = []
        for nx in (16, 32, 64):
            dt = TWO_PI / nx
            g, s0, s1, p_mid = _tg_pair(nx, nu=0.0, dt=dt)
            grav = Gravitation(g, "zero")
            mid = interval_midpoint(s0, s1, p_mid)
            resid = energy_residual(mid, *mid.consistent_momenta(grav), grav)
            errs.append(fd.l2_norm(resid)[0])
        order = observed_order(errs)
        print("energy residual errors", errs, "order", order)
        assert order >= 1.8

    def test_viscous_vortex_dissipates(self):
        nu = 0.1
        g, s0, s1, p_mid = _tg_pair(32, nu=nu, dt=0.05)
        grav = Gravitation(g, "zero")
        mid = interval_midpoint(s0, s1, p_mid)
        resid = energy_residual(mid, *mid.consistent_momenta(grav), grav)
        assert fd.integrate(resid)[0] < 0.0
