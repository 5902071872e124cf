import itertools
import math

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.balance import BarotropicPowerEos, FluidState, IncompressibleEos
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import (CASE_IDS, CaseSpec, StepScratch, UnstableStepError, _compressible_rhs,
                             _incompressible_rhs, initial_state, reference_path,
                             shear_decay_analytic, stable_dt, step_compressible,
                             step_incompressible, taylor_green_analytic)
from sbenflow.sampling import random_scalar, random_vector
from sbenflow.sben import leray_project

from conftest import TWO_PI, leray_two_component


def test_case_spec_validation(grid16):
    with pytest.raises(ValueError):
        CaseSpec("lid_driven", grid16, 1.0, 10)
    with pytest.raises(ValueError):
        CaseSpec("taylor_green", grid16, -1.0, 10)


class TestCaseSpec:
    def test_default_fluid_follows_the_case_kind(self, grid16):
        assert CaseSpec("taylor_green", grid16, 1.0, 10).eos == IncompressibleEos()
        assert CaseSpec("compressible_smooth", grid16, 1.0, 10).eos == BarotropicPowerEos()

    @pytest.mark.parametrize("case_id, eos", [
        ("compressible_smooth", IncompressibleEos(2.0)),
        ("taylor_green", BarotropicPowerEos()),
        ("rigid_rotation", BarotropicPowerEos())])
    def test_fluid_of_the_wrong_kind_rejected(self, grid16, case_id, eos):
        with pytest.raises(ValueError, match="fluid"):
            CaseSpec(case_id, grid16, 1.0, 10, eos=eos)

    @pytest.mark.parametrize("case_id, params, match", [
        ("compressible_smooth", {"gamma": 1.4}, "gamma"),
        ("taylor_green", {"rho0": 2.0}, "rho0"),
        ("taylor_green", {"gamma": 1.67}, "gamma"),
        ("taylor_green", {"amplitdue": 1.0}, "amplitdue"),
        ("rigid_rotation", {"omega": 2.0}, "omega"),
        ("rigid_rotation", {"amplitude": 1.0}, "amplitude"),
        ("compressible_smooth", {"amplitude": 1.0}, "amplitude")])
    def test_parameters_checked(self, grid16, case_id, params, match):
        eos = BarotropicPowerEos(gamma=1.67) if case_id == "compressible_smooth" else None
        with pytest.raises(ValueError, match=match):
            CaseSpec(case_id, grid16, 1.0, 10, params, eos)

    def test_fluid_constants_and_nu_accepted(self, grid16):
        eos = BarotropicPowerEos(p0=2.0, rho0=1.5, gamma=1.67)
        params = {"p0": 2.0, "rho0": 1.5, "gamma": 1.67, "nu": 0.3, "amplitude": 0.1}
        assert CaseSpec("compressible_smooth", grid16, 1.0, 10, params, eos).eos == eos

    @pytest.mark.parametrize("case_id", ["taylor_green", "shear_decay", "compressible_smooth"])
    def test_analytic_cases_need_the_two_pi_box(self, case_id):
        with pytest.raises(ValueError, match="box"):
            CaseSpec(case_id, Grid2P(16, 16, 5.0, TWO_PI), 1.0, 10)

    def test_rigid_rotation_on_any_box(self):
        case = CaseSpec("rigid_rotation", Grid2P(16, 16, 5.0, 3.0), 1.0, 10)
        assert fd.linf_norm(initial_state(case).v) == 0.0


class TestInitialState:
    def test_fluid_from_the_case(self, grid16):
        eos = BarotropicPowerEos(p0=2.0, rho0=1.5, gamma=1.67)
        state = initial_state(CaseSpec("compressible_smooth", grid16, 1.0, 10,
                                       {"amplitude": 0.1}, eos))
        assert state.eos is eos
        assert fd.integrate(state.rho) == pytest.approx(1.5 * TWO_PI**2, rel=1e-12)
        state = initial_state(CaseSpec("rigid_rotation", grid16, 1.0, 10,
                                       eos=IncompressibleEos(1.3)))
        assert np.all(state.rho.data == 1.3)

    @pytest.mark.parametrize("case_id", ["taylor_green", "shear_decay"])
    def test_incompressible_start_is_projected_once(self, grid16, case_id):
        case = CaseSpec(case_id, grid16, 1.0, 10, {"amplitude": 0.7})
        analytic = (taylor_green_analytic(0.0, 0.0, grid16, amplitude=0.7)[0]
                    if case_id == "taylor_green"
                    else shear_decay_analytic(0.0, 0.0, grid16, amplitude=0.7))
        _same_bits(initial_state(case).v.data, leray_project(analytic.v)[0].data)


def test_vortex_requires_square_box():
    with pytest.raises(ValueError):
        taylor_green_analytic(0.0, 0.1, Grid2P(16, 16, 1.0, 1.0))


def test_vortex_kinetic_energy(grid32):
    state, _ = taylor_green_analytic(0.0, 0.1, grid32, rho0=1.3)
    energy = 0.5 * 1.3 * fd.inner(state.v, state.v)
    assert energy == pytest.approx(1.3 * np.pi**2, rel=1e-12)


def test_vortex_decay_law(grid32):
    nu, t = 0.2, 0.7
    s0, _ = taylor_green_analytic(0.0, nu, grid32)
    st, _ = taylor_green_analytic(t, nu, grid32)
    e0 = fd.inner(s0.v, s0.v)
    et = fd.inner(st.v, st.v)
    assert et == pytest.approx(e0 * math.exp(-4 * nu * t), rel=1e-12)


def test_inviscid_vortex_is_steady(grid32):
    s0, _ = taylor_green_analytic(0.0, 0.0, grid32)
    s1, _ = taylor_green_analytic(5.0, 0.0, grid32)
    assert fd.linf_norm(s1.v - s0.v) == 0.0


GRAVITATIONS = {"zero": {}, "uniform_gravity": {"g0": 9.81},
                "rigid_rotation": {"omega": 2.0}}


# The reference steppers: the RK2 stages as compositions of the public
# operators and the field arithmetic, with the Leray projection and the EOS
# pressure written out as formulas.  The steppers work in place in scratch
# arrays and must give these bits.

def _reference_leray(v):
    inv_s2 = fd.spectral_symbols(v.grid).inv_s2
    qh = -np.fft.rfft2(fd.div_vector(v).data) * inv_s2
    q = ScalarField(v.grid, np.fft.irfft2(qh, s=v.grid.shape))
    return v - fd.grad_scalar(q)


def _reference_incompressible_rhs(v, t, nu, grav):
    omega = grav.coriolis_vector(t)
    return (-fd.advect(v, v) + nu * fd.laplacian(v)
            + grav.gravity(t) - 2.0 * fd.cross(omega, v))


def _reference_compressible_rhs(v, rho, t, mu, eos, grav):
    grid = v.grid
    p = ScalarField(grid, eos.p0 * (rho.data / eos.rho0) ** eos.gamma)
    visc = mu * fd.laplacian(v) + (mu / 3.0) * fd.grad_scalar(fd.div_vector(v))
    omega = grav.coriolis_vector(t)
    dv = (-fd.advect(v, v)
          + VectorField(grid, (visc.data - fd.grad_scalar(p).data) / rho.data[None])
          + grav.gravity(t) - 2.0 * fd.cross(omega, v))
    drho = -fd.div_vector(fd.scalar_times_vector(rho, v))
    return dv, drho


def _reference_step(state, dt, mu, grav):
    t, v, rho = state.t, state.v, state.rho
    if isinstance(state.eos, IncompressibleEos):
        nu = mu / state.eos.rho0
        k1 = _reference_incompressible_rhs(v, t, nu, grav)
        v_half = _reference_leray(v + (0.5 * dt) * k1)
        k2 = _reference_incompressible_rhs(v_half, t + 0.5 * dt, nu, grav)
        return FluidState(t + dt, _reference_leray(v + dt * k2), rho, state.eos)
    dv1, drho1 = _reference_compressible_rhs(v, rho, t, mu, state.eos, grav)
    dv2, drho2 = _reference_compressible_rhs(v + (0.5 * dt) * dv1, rho + (0.5 * dt) * drho1,
                                             t + 0.5 * dt, mu, state.eos, grav)
    return FluidState(t + dt, v + dt * dv2, rho + dt * drho2, state.eos)


def _three_projection_step(state, dt, mu, grav):
    """The incompressible step as it was before it projected the stage
    states: both slopes projected, then the new state, with the two-component
    Leray formula.  Equal to the step in exact arithmetic; kept as a
    round-off reference."""
    def rhs(v, t):
        return leray_two_component(_reference_incompressible_rhs(v, t, nu, grav))[0]

    t, v = state.t, state.v
    nu = mu / state.eos.rho0
    k1 = rhs(v, t)
    k2 = rhs(v + (0.5 * dt) * k1, t + 0.5 * dt)
    return FluidState(t + dt, leray_two_component(v + dt * k2)[0], state.rho, state.eos)


def _same_bits(got, want):
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _scratch_arrays(scratch):
    return [a for a in vars(scratch).values() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("preset", sorted(GRAVITATIONS))
class TestRightHandSides:
    """The steppers' right-hand sides and whole steps, computed in scratch
    arrays, must give the same bits as the reference composition above."""

    grid = Grid2P(12, 10, 2.0, 3.0)  # unequal sizes and spacings
    t = 0.3
    mu = 0.07

    def _fields(self, extreme=False):
        rng = np.random.default_rng(7)
        v = random_vector(self.grid, rng)
        v.data[2] = 0.0  # planar, like every case the steppers run
        s = random_scalar(self.grid, rng).data
        if extreme:
            # signed zeros in both in-plane components, and an infinite and
            # a NaN entry: the body force keeps the bits of its field
            # composition there too
            v.data[:2, ::2, ::3] = 0.0
            v.data[:2, 1::2, ::3] = -0.0
            v.data[0, 3, 4] = -np.inf
            v.data[1, 7, 2] = np.nan
        return v, ScalarField(self.grid, 1.0 + 0.2 * s / np.abs(s).max())

    def _state(self, kind):
        v, rho = self._fields()
        if kind == "incompressible":
            return FluidState(self.t, _reference_leray(v), ScalarField.full(self.grid, 1.3),
                              IncompressibleEos(1.3))
        return FluidState(self.t, v, rho, BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4))

    def _stepper(self, kind):
        return step_incompressible if kind == "incompressible" else step_compressible

    def _scratch(self, v):
        # a step's stage input: the in-plane rows of the planar field v
        w = StepScratch(self.grid)
        np.copyto(w.v, v.data[:2])
        return w

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("extreme", [False, True])
    def test_incompressible(self, preset, extreme):
        grav = Gravitation(self.grid, preset, GRAVITATIONS[preset])
        v, _ = self._fields(extreme)
        nu = 0.07
        want = _reference_incompressible_rhs(v, self.t, nu, grav)
        got = _incompressible_rhs(nu, grav, self._scratch(v))
        _same_bits(got, want.data[:2])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("extreme", [False, True])
    def test_compressible(self, preset, extreme):
        grav = Gravitation(self.grid, preset, GRAVITATIONS[preset])
        v, rho = self._fields(extreme)
        eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4)
        want_dv, want_drho = _reference_compressible_rhs(v, rho, self.t, self.mu, eos, grav)
        dv, drho = _compressible_rhs(rho.data, self.mu, eos, grav, self._scratch(v))
        _same_bits(dv, want_dv.data[:2])
        _same_bits(drho, want_drho.data)

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_consecutive_steps(self, preset, kind):
        # one scratch reused by every step, and a fresh one per step
        grav = Gravitation(self.grid, preset, GRAVITATIONS[preset])
        step = self._stepper(kind)
        want = shared = fresh = self._state(kind)
        scratch = StepScratch(self.grid)
        dt = 0.25 * stable_dt(want, self.mu)
        for _ in range(6):
            want = _reference_step(want, dt, self.mu, grav)
            shared = step(shared, dt, self.mu, grav, scratch)
            fresh = step(fresh, dt, self.mu, grav)
            for got in (shared, fresh):
                assert got.t == want.t
                _same_bits(got.v.data, want.v.data)
                _same_bits(got.rho.data, want.rho.data)

    def test_steps_match_three_projection_step(self, preset):
        # projecting the stage states instead of the slopes is the same
        # midpoint scheme on divergence-free states.  Measured over 6 steps
        # from 20 random states per preset: |dv| <= 3.4e-16 |v|.
        grav = Gravitation(self.grid, preset, GRAVITATIONS[preset])
        got = want = self._state("incompressible")
        dt = 0.25 * stable_dt(want, self.mu)
        for _ in range(6):
            got = step_incompressible(got, dt, self.mu, grav)
            want = _three_projection_step(want, dt, self.mu, grav)
            assert fd.linf_norm(got.v - want.v) <= 1e-14 * fd.linf_norm(want.v)

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_steps_do_not_alias(self, preset, kind):
        grav = Gravitation(self.grid, preset, GRAVITATIONS[preset])
        step = self._stepper(kind)
        states = [self._state(kind)]
        copies = [(states[0].v.data.copy(), states[0].rho.data.copy())]
        scratch = StepScratch(self.grid)
        dt = 1e-3
        for _ in range(4):
            prev = states[-1]
            new = step(prev, dt, self.mu, grav, scratch)
            fresh = [new.v.data] + ([new.rho.data] if kind == "compressible" else [])
            for a in fresh:
                for b in _scratch_arrays(scratch) + [prev.v.data, prev.rho.data]:
                    assert not np.shares_memory(a, b)
            if kind == "incompressible":
                assert new.rho is prev.rho  # the constant density rides along
            states.append(new)
            copies.append((new.v.data.copy(), new.rho.data.copy()))
        for s, (v, rho) in zip(states, copies, strict=True):
            _same_bits(s.v.data, v)
            _same_bits(s.rho.data, rho)


@pytest.mark.parametrize("case_id,params,mu", [
    ("taylor_green", {"nu": 0.1}, 0.1),
    ("compressible_smooth", {"amplitude": 0.05}, 0.05)])
def test_reference_path_slices_are_the_steps(case_id, params, mu):
    # every slice keeps the bits of its step: none is overwritten by a later
    # step through the shared scratch, and no two share memory
    grid = Grid2P(16, 16, TWO_PI, TWO_PI)
    grav = Gravitation(grid, "rigid_rotation", {"omega": 2.0})
    case = CaseSpec(case_id, grid, 0.2, 8, params)
    path = reference_path(case, mu, grav)
    if case_id == "taylor_green":
        # initial_state projects the analytic field once, as this does
        state, _ = taylor_green_analytic(0.0, 0.1, grid)
        state = FluidState(0.0, _reference_leray(state.v), state.rho, state.eos)
    else:
        state = initial_state(case)
    want = [state]
    for n in range(case.n_ref):
        state = _reference_step(state, case.t_final / case.n_ref, mu, grav)
        want.append(state)
    for got, ref in zip(path.states, want, strict=True):
        _same_bits(got.v.data, ref.v.data)
        _same_bits(got.rho.data, ref.rho.data)
    arrays = [s.v.data for s in path.states]
    if case_id == "compressible_smooth":
        arrays += [s.rho.data for s in path.states]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("preset", sorted(GRAVITATIONS))
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_reference_paths_are_planar(case_id, preset):
    # the planar contract holds along every run: each slice's v_z is +0.0
    # bit for bit, and each step has the bits of the three-component
    # reference composition, whose z row is +0.0 too
    grid = Grid2P(16, 16, TWO_PI, TWO_PI)
    grav = Gravitation(grid, preset, GRAVITATIONS[preset])
    case = CaseSpec(case_id, grid, 0.05, 4)
    mu = 0.05
    path = reference_path(case, mu, grav)
    assert not path.V[:, 2].view(np.int64).any()
    dt = case.t_final / case.n_ref
    for before, after in zip(path.states, path.states[1:]):
        want = _reference_step(before, dt, mu, grav)
        _same_bits(after.v.data, want.v.data)
        _same_bits(after.rho.data, want.rho.data)


@pytest.mark.parametrize("kind", ["incompressible", "compressible"])
@pytest.mark.parametrize("v_z", [-0.0, 1e-300, -2.5])
def test_steppers_refuse_a_non_planar_state(grid16, kind, v_z):
    case = CaseSpec("taylor_green" if kind == "incompressible" else "compressible_smooth",
                    grid16, 1.0, 10)
    state = initial_state(case)
    state.v.data[2, 3, 5] = v_z
    step = step_incompressible if kind == "incompressible" else step_compressible
    with pytest.raises(ValueError, match="planar"):
        step(state, 1e-3, 0.05, Gravitation(grid16, "zero"))


@pytest.mark.parametrize("kind", ["incompressible", "compressible"])
@pytest.mark.parametrize("where, value", [
    ("v_x", np.nan), ("v_x", -np.inf), ("v_y", np.inf), ("rho", np.nan), ("rho", -np.inf),
    ("rho", np.inf)])
def test_non_finite_state_refused(grid16, kind, where, value):
    # the reduced scalars of stable_dt carry a NaN or an infinity through,
    # so a step refuses the state before stepping it.  An incompressible
    # step reads rho0, not rho, and its bound reduces only rho's minimum: a
    # +inf density there is the whole field's
    case = CaseSpec("taylor_green" if kind == "incompressible" else "compressible_smooth",
                    grid16, 1.0, 10)
    state = initial_state(case)
    if where == "rho":
        if kind == "incompressible" and value == np.inf:
            state.rho.data[...] = value
        else:
            state.rho.data[4, 2] = value
    else:
        state.v.data[0 if where == "v_x" else 1, 7, 1] = value
    with pytest.raises(FloatingPointError, match="non-finite"):
        stable_dt(state, 0.05)
    step = step_incompressible if kind == "incompressible" else step_compressible
    with pytest.raises(FloatingPointError, match="non-finite"):
        step(state, 1e-3, 0.05, Gravitation(grid16, "zero"))


class TestIncompressibleStepper:
    def test_stability_bound_enforced(self, grid32):
        state, _ = taylor_green_analytic(0.0, 0.1, grid32)
        with pytest.raises(UnstableStepError) as err:
            step_incompressible(state, 10.0, 0.1, Gravitation(grid32, "zero"))
        assert err.value.suggested_dt < 10.0

    def test_vortex_accuracy_against_analytic(self):
        # convergence study fixed this threshold: 64^2, dt = 2e-3, t = 1,
        # nu = 0.1 lands well under 1% relative L2 error
        g = Grid2P(64, 64, TWO_PI, TWO_PI)
        grav = Gravitation(g, "zero")
        state, _ = taylor_green_analytic(0.0, 0.1, g)
        dt = 2e-3
        for _ in range(500):
            state = step_incompressible(state, dt, 0.1, grav)
        exact, _ = taylor_green_analytic(1.0, 0.1, g)
        rel = fd.l2_norm(state.v - exact.v) / fd.l2_norm(exact.v)
        print("vortex stepper relative error at t=1:", rel)
        assert rel < 0.01

    def test_shear_decay_accuracy(self):
        g = Grid2P(32, 32, TWO_PI, TWO_PI)
        grav = Gravitation(g, "zero")
        state = shear_decay_analytic(0.0, 0.2, g)
        dt = 5e-3
        for _ in range(100):
            state = step_incompressible(state, dt, 0.2, grav)
        exact = shear_decay_analytic(0.5, 0.2, g)
        assert fd.l2_norm(state.v - exact.v) / fd.l2_norm(exact.v) < 0.01

    def test_rotating_rest_state_stays_at_rest(self, grid16):
        grav = Gravitation(grid16, "rigid_rotation", {"omega": 2.0})
        state = FluidState(0.0, VectorField.zeros(grid16),
                           ScalarField.full(grid16, 1.0), IncompressibleEos())
        for _ in range(20):
            state = step_incompressible(state, 1e-2, 0.1, grav)
        assert fd.linf_norm(state.v) == 0.0

    def test_energy_decays_without_forcing(self, grid32, rng):
        from sbenflow.sampling import random_solenoidal
        from sbenflow.sben import leray_project
        grav = Gravitation(grid32, "zero")
        v0, _ = leray_project(random_solenoidal(grid32, rng))
        v0.data[2] = 0.0  # planar, as the steppers require
        state = FluidState(0.0, v0, ScalarField.full(grid32, 1.0), IncompressibleEos())
        energies = [fd.inner(state.v, state.v)]
        for _ in range(50):
            state = step_incompressible(state, 2e-3, 0.2, grav)
            energies.append(fd.inner(state.v, state.v))
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_momentum_conserved(self, grid32, rng):
        from sbenflow.sampling import random_solenoidal
        from sbenflow.sben import leray_project
        grav = Gravitation(grid32, "zero")
        v0, _ = leray_project(random_solenoidal(grid32, rng))
        v0.data[2] = 0.0  # planar, as the steppers require
        state = FluidState(0.0, v0, ScalarField.full(grid32, 1.0), IncompressibleEos())
        mom0 = fd.component_means(state.v)
        for _ in range(25):
            state = step_incompressible(state, 2e-3, 0.1, grav)
        assert np.abs(fd.component_means(state.v) - mom0).max() < 1e-13


class TestCompressibleStepper:
    def _rest_state(self, grid):
        eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4)
        return FluidState(0.0, VectorField.zeros(grid), ScalarField.full(grid, 1.0), eos)

    def test_rest_state_is_fixed_point(self, grid16):
        grav = Gravitation(grid16, "zero")
        state = self._rest_state(grid16)
        for _ in range(10):
            state = step_compressible(state, 1e-2, 0.05, grav)
        assert fd.linf_norm(state.v) == 0.0
        assert fd.linf_norm(ScalarField(grid16, state.rho.data - 1.0)) == 0.0

    def test_mass_conserved_over_many_steps(self, grid16):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("compressible_smooth", grid16, 1.0, 1,
                        {"gamma": 1.4, "amplitude": 0.05})
        state = initial_state(case)
        mass0 = fd.integrate(state.rho)
        for _ in range(1000):
            state = step_compressible(state, 2e-3, 0.02, grav)
        assert abs(fd.integrate(state.rho) - mass0) <= 1e-12 * abs(mass0)

    def test_acoustic_energy_decays_only_with_viscosity(self, grid32):
        grav = Gravitation(grid32, "zero")
        case = CaseSpec("compressible_smooth", grid32, 1.0, 1,
                        {"gamma": 1.4, "amplitude": 0.01})

        def acoustic_energy(s):
            eos = s.eos
            kinetic = 0.5 * fd.integrate(ScalarField(
                s.grid, s.rho.data * (s.v.data**2).sum(axis=0)))
            compression = fd.integrate(ScalarField(
                s.grid, s.rho.data * eos.internal_energy(s.rho.data)))
            return kinetic + compression

        results = {}
        for mu in (0.05, 0.0):
            state = initial_state(case)
            e0 = acoustic_energy(state)
            for _ in range(200):
                state = step_compressible(state, 2e-3, mu, grav) if mu > 0 else \
                    step_compressible(state, 2e-3, 1e-12, grav)
            results[mu] = acoustic_energy(state) - e0
        assert results[0.05] < 0.0
        assert abs(results[0.0]) < 10 * abs(results[0.05])

    def test_stability_bound(self, grid16):
        grav = Gravitation(grid16, "zero")
        state = self._rest_state(grid16)
        with pytest.raises(UnstableStepError):
            step_compressible(state, 1.0, 0.05, grav)


def _former_stable_dt_incompressible(state, mu):
    g = state.grid
    nu = mu / float(state.rho.data.min())
    adv = (np.abs(state.v.data[0]).max() / g.dx + np.abs(state.v.data[1]).max() / g.dy)
    diff = nu * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    return 0.5 / max(adv + diff, 1e-300)


def _former_stable_dt_compressible(state, mu):
    g = state.grid
    c = float(state.eos.sound_speed(state.rho.data).max())
    nu = mu / float(state.rho.data.min())
    adv = ((np.abs(state.v.data[0]).max() + c) / g.dx
           + (np.abs(state.v.data[1]).max() + c) / g.dy)
    diff = nu * (4.0 / 3.0) * (1.0 / g.dx**2 + 1.0 / g.dy**2)
    return 0.5 / max(adv + diff, 1e-300)


@pytest.mark.parametrize("kind", ["incompressible", "compressible"])
def test_stable_dt_is_the_former_bound_of_each_kind(kind):
    # the two per-kind formulas stable_dt replaced, kept as its reference
    rng = np.random.default_rng(23)
    for shape in ((16, 16, TWO_PI, TWO_PI), (12, 10, 1.5, 3.0), (8, 20, 0.2, 7.0)):
        grid = Grid2P(*shape)
        for _ in range(10):
            v = random_vector(grid, rng, amplitude=10.0 ** rng.uniform(-3, 1))
            mu = 10.0 ** rng.uniform(-4, 0)
            rho0 = rng.uniform(0.5, 2.0)
            if kind == "incompressible":
                state = FluidState(0.0, v, ScalarField.full(grid, rho0), IncompressibleEos(rho0))
                want = _former_stable_dt_incompressible(state, mu)
            else:
                s = random_scalar(grid, rng).data
                rho = ScalarField(grid, rho0 * (1.0 + 0.5 * s / np.abs(s).max()))
                eos = BarotropicPowerEos(p0=rng.uniform(0.5, 2.0), rho0=rho0,
                                         gamma=rng.uniform(1.0, 2.0))
                state = FluidState(0.0, v, rho, eos)
                want = _former_stable_dt_compressible(state, mu)
            got = stable_dt(state, mu)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestReferencePath:
    def test_resampling_must_divide(self, grid16):
        case = CaseSpec("taylor_green", grid16, 1.0, 10, {"nu": 0.1})
        with pytest.raises(ValueError):
            reference_path(case, 0.1, Gravitation(grid16, "zero"), n_out=3)

    def test_path_slices_are_divergence_free(self, grid16):
        case = CaseSpec("taylor_green", grid16, 0.5, 20, {"nu": 0.1})
        path = reference_path(case, 0.1, Gravitation(grid16, "zero"), n_out=5)
        assert path.n_intervals == 5
        assert path.kind == "incompressible"
        for s in path.states:
            assert fd.linf_norm(fd.div_vector(s.v)) <= 1e-10 * fd.linf_norm(s.v) / grid16.dx

    def test_uniform_times_after_resampling(self, grid16):
        case = CaseSpec("taylor_green", grid16, 0.75, 30, {"nu": 0.1})
        path = reference_path(case, 0.1, Gravitation(grid16, "zero"), n_out=6)
        dts = np.diff(path.times)
        assert np.abs(dts - dts[0]).max() <= 1e-12 * dts[0]
