import dataclasses
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow import sben
from sbenflow.balance import (BarotropicPowerEos, DensityError, IncompressibleEos,
                              momentum_residual)
from sbenflow.dissipation import ConjugateSolve, apply_k, phi, solve_k, solve_k_spectrum
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import CaseSpec, initial_state, reference_path, taylor_green_analytic
from sbenflow.sampling import random_scalar, random_solenoidal, random_vector
from sbenflow.sben import (MinimizeConfig, Path, assemble_pi_incompressible,
                           evaluate_path, gradient_pi,
                           incompressible_path, leray_project, minimize,
                           minimize_compressible, multiplier_pressures, path_dot,
                           slave_density)

from conftest import TWO_PI, compressible_path, functional_report, signed_zero_vectors



class TestLerayProjection:
    def test_divergence_free_input_unchanged(self, grid32, rng):
        v = random_solenoidal(grid32, rng)
        v_df, q = leray_project(v)
        assert fd.linf_norm(v_df - v) <= 1e-12 * fd.linf_norm(v)
        assert fd.linf_norm(q) <= 1e-12

    def test_pure_gradient_collapses_to_mean(self, grid32, rng):
        s = random_scalar(grid32, rng)
        v = fd.grad_scalar(s)
        v_df, q = leray_project(v)
        assert fd.linf_norm(v_df) <= 1e-10 * fd.linf_norm(v)
        # recovered potential matches s up to its mean
        delta = q.data - q.data.mean() - (s.data - s.data.mean())
        assert np.abs(delta).max() <= 1e-9 * np.abs(s.data).max()

    def test_random_field_projected_and_idempotent(self, grid32, rng):
        v = random_vector(grid32, rng)
        v_df, _ = leray_project(v)
        assert fd.linf_norm(fd.div_vector(v_df)) <= 1e-10 * fd.l2_norm(v) / grid32.dx
        v_df2, _ = leray_project(v_df)
        assert fd.linf_norm(v_df2 - v_df) <= 1e-10 * (fd.linf_norm(v_df) + 1e-300)

    def test_means_pass_through(self, grid32, rng):
        v = random_vector(grid32, rng)
        shifted = VectorField(grid32, v.data + np.array([1.0, -2.0, 0.5])[:, None, None])
        v_df, _ = leray_project(shifted)
        assert np.abs(fd.component_means(v_df) - fd.component_means(shifted)).max() < 1e-12


class TestPath:
    def test_needs_two_states(self, grid16):
        with pytest.raises(ValueError):
            Path(grid16, IncompressibleEos(), [0.0], np.zeros((1, 3, *grid16.shape)))

    def test_uniform_dt_enforced(self, grid16):
        with pytest.raises(ValueError, match="uniform"):
            Path(grid16, IncompressibleEos(), [0.0, 0.1, 0.3], np.zeros((3, 3, *grid16.shape)))

    def test_pressures_are_one_array_of_the_intervals(self, grid16):
        times, V = [0.0, 0.1, 0.2], np.zeros((3, 3, *grid16.shape))
        path = Path(grid16, IncompressibleEos(), times, V, pressures=np.ones((2, *grid16.shape)))
        assert path.pressures.shape == (2, *grid16.shape)
        for shape in ((1, *grid16.shape), (2, 8, 8)):
            with pytest.raises(ValueError, match="pressures of shape"):
                Path(grid16, IncompressibleEos(), times, V, pressures=np.ones(shape))
        with pytest.raises(ValueError, match="only an incompressible"):
            Path(grid16, BarotropicPowerEos(), times, V, np.ones((3, *grid16.shape)),
                 np.ones((2, *grid16.shape)))

    def test_kind_dispatch(self, grid16):
        times = [0.0, 0.1, 0.2]
        vels = [VectorField.zeros(grid16)] * 3
        p_inc = incompressible_path(grid16, IncompressibleEos(), times, vels)
        assert p_inc.kind == "incompressible"
        p_com = compressible_path(grid16, BarotropicPowerEos(), times, vels)
        assert p_com.kind == "compressible"
        grav = Gravitation(grid16, "zero")
        assert evaluate_path(p_com, 0.1, grav)[1] is None
        with pytest.raises(ValueError):
            multiplier_pressures(p_com, 0.1, grav)
        with pytest.raises(ValueError):
            minimize_compressible(p_inc, 0.1, grav)


class TestSlaveDensity:
    def test_mass_is_exactly_conserved(self, grid16, rng):
        eos = BarotropicPowerEos()
        times = np.linspace(0.0, 0.3, 4)
        vels = [random_vector(grid16, rng, amplitude=0.2) for _ in times]
        rho0 = ScalarField(grid16, 1.0 + 0.1 * np.cos(grid16.x()))
        densities = slave_density(rho0, vels, times)
        assert densities.shape == (len(times), *grid16.shape)
        m0 = fd.integrate(rho0)
        for rho in densities:
            assert fd.integrate(ScalarField(grid16, rho)) == pytest.approx(m0, rel=1e-13)

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_satisfies_discrete_mass_balance(self, grid16, rng, scale):
        # the fixed point stops on an update relative to the density's scale,
        # so the residual is round-off of that scale at any scale
        times = np.linspace(0.0, 0.2, 3)
        vels = np.stack([random_vector(grid16, rng, amplitude=0.2).data for _ in times])
        rho0 = ScalarField(grid16, scale * (1.0 + 0.1 * np.cos(grid16.x())))
        path = Path(grid16, BarotropicPowerEos(), times, vels,
                    slave_density(rho0, vels, times))
        for k in range(path.n_intervals):
            resid = path.midpoint(slice(k, k + 1)).mass_residual()
            assert fd.linf_norm(resid) <= 1e-12 * scale

    def test_stalled_fixed_point_is_a_density_error(self, grid16):
        # |v| dt / dx far above one: the fixed-point iteration cannot contract
        x, y = grid16.x(), grid16.y()
        v = VectorField.from_components(grid16, 0.5 * np.sin(x) * np.cos(y),
                                        0.5 * np.sin(y) * np.cos(x))
        with pytest.raises(DensityError, match="stalled"):
            slave_density(ScalarField.full(grid16, 1.0), [v, v], [0.0, 4.0])
        assert issubclass(DensityError, FloatingPointError)


class TestAssembly:
    def test_rigid_translation_has_zero_cost(self, grid16):
        # constant-in-time uniform velocity is an exact inviscid solution
        eos = IncompressibleEos()
        v = VectorField.from_components(grid16, np.full(grid16.shape, 1.2),
                                        np.full(grid16.shape, -0.4))
        path = incompressible_path(grid16, eos, [0.0, 0.1, 0.2], [v, v, v])
        rep = functional_report(path, 0.3, Gravitation(grid16, "zero"), "incompressible")
        assert rep.total_pi == 0.0

    def test_compressible_rest_state(self, grid16):
        eos = BarotropicPowerEos()
        v = VectorField.zeros(grid16)
        path = compressible_path(grid16, eos, [0.0, 0.1], [v, v])
        rep = functional_report(path, 0.3, Gravitation(grid16, "zero"), "compressible")
        assert rep.total_pi == 0.0

    def test_interval_gaps_nonnegative(self, grid16, rng):
        eos = IncompressibleEos()
        times = np.linspace(0.0, 0.3, 4)
        vels = [leray_project(random_solenoidal(grid16, rng))[0] for _ in times]
        path = incompressible_path(grid16, eos, times, vels)
        rep = functional_report(path, 0.2, Gravitation(grid16, "zero"), "incompressible")
        scale = rep.phi_terms.max() + 1.0
        assert rep.gap_terms.min() >= -1e-10 * scale
        assert rep.total_pi == pytest.approx(rep.gap_terms.sum() * path.dt, rel=1e-14)

    def test_pairing_equals_head_loss_under_rotation(self, grid16, rng):
        # the assembled pairing omits the Coriolis force; it still equals the
        # full residual pairing because that force never works
        eos = IncompressibleEos()
        grav = Gravitation(grid16, "rigid_rotation", {"omega": 0.8})
        times = np.linspace(0.0, 0.2, 3)
        vels = [leray_project(random_solenoidal(grid16, rng))[0] for _ in times]
        path = incompressible_path(grid16, eos, times, vels)
        rep = functional_report(path, 0.1, grav, "incompressible")
        zero_p = ScalarField.zeros(grid16)
        for k in range(path.n_intervals):
            mid = path.midpoint(slice(k, k + 1), zero_p)
            hl = fd.inner(mid.residual(grav), mid.v)[0]     # the head loss
            assert rep.pairing_terms[k] == pytest.approx(hl, rel=1e-12, abs=1e-12)

    def test_oracle_path_scores_near_zero(self, grid16):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.5, 32, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=8)
        rep = functional_report(path, 0.1, grav, "incompressible")
        assert rep.total_pi <= 1e-6 * rep.dissipation_integral

    def test_dissipation_ignores_constant_shift(self, grid16):
        # phi sees only the strain, so a constant boost leaves it unchanged
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.5, 32, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=4)
        rep = functional_report(path, 0.1, grav, "incompressible")
        shift = VectorField.from_components(grid16, np.full(grid16.shape, 0.7),
                                            np.full(grid16.shape, 0.0))
        boosted = incompressible_path(grid16, path.eos, path.times, path.V + shift.data)
        rep_b = functional_report(boosted, 0.1, grav, "incompressible")
        assert np.allclose(rep.phi_terms, rep_b.phi_terms, rtol=1e-10, atol=1e-12)

    def test_boosted_trajectory_still_scores_zero(self):
        # a moving-frame copy of the vortex (velocity shift plus coordinate
        # drift) solves the equations too, so its cost vanishes under
        # refinement exactly like the resting one
        nu, c = 0.1, 0.7
        pis = {"rest": [], "boosted": []}
        for nx, n in ((16, 8), (32, 16)):
            g = Grid2P(nx, nx, TWO_PI, TWO_PI)
            grav = Gravitation(g, "zero")
            eos = IncompressibleEos()
            times = np.linspace(0.0, 0.5, n + 1)
            x, y = g.x(), g.y()

            def tg(t, shift):
                amp = np.exp(-2 * nu * t)
                return VectorField.from_components(
                    g, amp * np.sin(x - c * t * shift) * np.cos(y) + c * shift,
                    -amp * np.cos(x - c * t * shift) * np.sin(y))

            for label, shift in (("rest", 0.0), ("boosted", 1.0)):
                path = incompressible_path(g, eos, times, [tg(t, shift) for t in times])
                rep = functional_report(path, nu, grav, "incompressible")
                pis[label].append(rep.total_pi)
        print("rest:", pis["rest"], "boosted:", pis["boosted"])
        for label in ("rest", "boosted"):
            order = np.log2(pis[label][0] / pis[label][1])
            assert order >= 1.8


    def test_benchmark_assembly_call_matches_evaluate_path(self, grid16, rng):
        # the benchmark computes tg-recover-16's start functional with this
        # four-argument call; it must give evaluate_path's terms bit for bit
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.25, 16, {"nu": 0.1, "amplitude": 1.0})
        ref = reference_path(case, 0.1, grav, n_out=2)
        noisy = ref.with_velocities([s.v + 0.1 * random_solenoidal(grid16, rng, kmax=3)
                                     for s in ref.states[1:]])
        for path in (ref, noisy):
            report = assemble_pi_incompressible(path, 0.1, grav, ConjugateSolve())
            expected = evaluate_path(path, 0.1, grav)[0]
            assert report.gap_terms.tobytes() == expected.gap_terms.tobytes()
            assert report.total_pi == expected.total_pi
        compressible = compressible_path(grid16, BarotropicPowerEos(), [0.0, 0.1],
                                         [VectorField.zeros(grid16)] * 2)
        with pytest.raises(ValueError):
            assemble_pi_incompressible(compressible, 0.1, grav, ConjugateSolve())


class TestGradient:
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_matches_finite_differences(self, rng, kind, preset):
        # Pi along three random directions of a noisy reference path's free
        # slices; a compressible path goes through with_velocities, which
        # keeps its densities, as the gradient freezes them.  Only the
        # compressible kind under rotation sees the sign of the Coriolis term:
        # on a planar incompressible path 2 Omega x w is a gradient, which the
        # projection removes
        g = Grid2P(8, 8, TWO_PI, TWO_PI)
        grav = Gravitation(g, preset, {"g0": 1.0, "omega": 0.8})
        case_id, draw = (("taylor_green", random_solenoidal) if kind == "incompressible"
                         else ("compressible_smooth", random_vector))
        base = reference_path(CaseSpec(case_id, g, 0.4, 16, {"nu": 0.1}), 0.1, grav, n_out=4)
        noisy = base.with_velocities([s.v + 0.3 * draw(g, rng, kmax=2)
                                      for s in base.states[1:]])
        grads = gradient_pi(noisy, 0.1, grav)
        for _ in range(3):
            d = VectorField(g, np.stack([draw(g, rng, kmax=2).data for _ in range(4)]))
            eps = 1e-5
            plus = noisy.with_velocities(noisy.V[1:] + eps * d.data)
            minus = noisy.with_velocities(noisy.V[1:] - eps * d.data)
            fd_val = (functional_report(plus, 0.1, grav, kind).total_pi
                      - functional_report(minus, 0.1, grav, kind).total_pi) / (2 * eps)
            adj_val = path_dot(grads, d)
            assert adj_val == pytest.approx(fd_val, rel=1e-6)

    def test_gradient_slices_are_divergence_free(self, rng):
        g = Grid2P(8, 8, TWO_PI, TWO_PI)
        grav = Gravitation(g, "zero")
        case = CaseSpec("taylor_green", g, 0.4, 16, {"nu": 0.1})
        base = reference_path(case, 0.1, grav, n_out=4)
        noisy = base.with_velocities([s.v + 0.3 * random_solenoidal(g, rng, kmax=2)
                                      for s in base.states[1:]])
        for gk in gradient_pi(noisy, 0.1, grav).data:
            gk = VectorField(g, gk)
            assert fd.linf_norm(fd.div_vector(gk)) <= 1e-10 * (fd.linf_norm(gk) + 1) / g.dx

    def test_near_zero_at_reference(self, grid16):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.5, 32, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=4)
        grads = gradient_pi(path, 0.1, grav)
        gnorm = np.sqrt(path_dot(grads, grads))
        vscale = np.sqrt(fd.inner(path.states[0].v, path.states[0].v))
        assert gnorm <= 1e-4 * vscale  # stationary up to discretization error


REPORT_NAMES = ("midpoint_times", "phi_terms", "phi_star_terms", "pairing_terms", "gap_terms",
                "ns_residual_norms", "discarded_mean_norms")


def _field_by_field(fn, *stacks):
    """fn applied to each field of equally long stacks, the results stacked."""
    grid = stacks[0].grid
    return VectorField(grid, np.stack([fn(*(VectorField(grid, a) for a in fields)).data
                                       for fields in zip(*(s.data for s in stacks))]))


def _separate_calls(v_mid, mu):
    """The midpoint terms of a stack of intervals as three separate calls per
    interval, each differencing v_mid on its own: advect(v_mid, v_mid),
    phi(v_mid) and apply_k(v_mid), the core's formulas before it took one
    Jacobian.  The pressures and the gradient then read apply_k(v_mid) as
    before too."""
    slices = [VectorField(v_mid.grid, v) for v in v_mid.data]
    return (_field_by_field(lambda v: fd.advect(v, v), v_mid),
            np.array([phi(v, mu) for v in slices]),
            _field_by_field(lambda v: apply_k(v, mu), v_mid))


def _padded_jacobian_contraction(v, w):
    """(grad v)^T w through the zero-padded (3, 3, nx, ny) Jacobian and
    np.einsum, field by field: the gradient's formula before it used the two
    Jacobian columns."""
    if v.data.ndim > 3:
        return _field_by_field(_padded_jacobian_contraction, v, w)
    return fd.jac_transpose_dot(fd.grad_vector(v), w)


# --- the per-slice formulas: the reference of the time-batched blocks ---------

@dataclass
class _SliceCore:
    """One interval's terms, computed for that interval alone."""

    t_mid: float
    v_mid: VectorField
    accel: VectorField
    f_raw: VectorField
    kv: VectorField
    phi_v: float
    pairing: float
    discarded_mean: float
    uh: np.ndarray = None
    v_null: np.ndarray = None
    qh: np.ndarray = None
    gap: float = None
    phi_star_f: float = None
    ns_residual: float = None


def _residual_form(kind, c, mu):
    """c with its residual-form terms, from its fields alone: one rfft2 of
    R = f_raw - K v_mid, the Leray projection (incompressible kind) and the
    K^(-1) symbol per wavenumber, Parseval sums and the null-part pairing."""
    grid = c.v_mid.grid
    rh = np.fft.rfft2((c.f_raw - c.kv).data)
    if kind == "incompressible":
        sym = fd.spectral_symbols(grid)
        t = (sym.sx * rh[0] + sym.sy * rh[1]) * sym.inv_s2
        rh[0] -= sym.sx * t
        rh[1] -= sym.sy * t
        c.qh = -1j * t
    c.uh = solve_k_spectrum(grid, rh, mu)
    c.v_null = fd.null_coefficients(c.v_mid)
    null_pairing = (fd.null_coefficients(c.f_raw) * c.v_null).sum(axis=(-2, -1))
    c.gap = 0.5 * fd.spectral_inner(grid, c.uh, rh) - null_pairing * (grid.lx * grid.ly)
    c.phi_star_f = c.gap - c.phi_v - c.pairing
    c.ns_residual = np.sqrt(max(fd.spectral_inner(grid, rh, rh), 0.0))
    return c


def _conjugate_velocity(c):
    """u = K^(-1) r + N v_mid of one interval."""
    grid = c.v_mid.grid
    return VectorField(grid, np.fft.irfft2(c.uh, s=grid.shape) + c.v_mid.data
                       - fd.null_part(grid, c.v_null))


def _conjugate_weight(rho, c):
    """w = rho (v_mid - u) = rho (N v_mid - K^(-1) r) of one interval."""
    grid = c.v_mid.grid
    return fd.scalar_times_vector(rho, VectorField(
        grid, fd.null_part(grid, c.v_null) - np.fft.irfft2(c.uh, s=grid.shape)))


def _residual_gradient(v_mid, w, residual, grav):
    """E = (grad v_mid)^T w - div(v_mid (x) w) - 2 Omega x w - R, with the
    padded Jacobian contraction."""
    return (_padded_jacobian_contraction(v_mid, w) - fd.div_outer(v_mid, w)
            - 2.0 * fd.cross(grav.coriolis_vector(), w) - residual)


def _slice_rho_mid(path, k):
    return 0.5 * (path.states[k].rho + path.states[k + 1].rho)


def _slice_pressure_force(path, rho_mid):
    if path.kind == "incompressible":
        return None
    return fd.grad_scalar(ScalarField(path.grid, path.eos.pressure(rho_mid.data)))


def _slice_core(path, k, mu, grav):
    """Interval k from the single-field operators, as the per-interval core
    computed it before the blocks: advect, phi and apply_k each difference
    v_mid, the density is the field rho_mid for both kinds, and pi_I and the
    residual form follow."""
    s_prev, s_next = path.states[k], path.states[k + 1]
    t_mid = 0.5 * (s_prev.t + s_next.t)
    v_mid = 0.5 * (s_prev.v + s_next.v)
    rho_mid = _slice_rho_mid(path, k)
    accel = (1.0 / path.dt) * (s_next.v - s_prev.v) + fd.advect(v_mid, v_mid)
    kv = apply_k(v_mid, mu)
    pi_i = momentum_residual(rho_mid, accel, v_mid, grav,
                             _slice_pressure_force(path, rho_mid))
    f_raw = -pi_i
    return _residual_form(path.kind, _SliceCore(
        t_mid, v_mid, accel, f_raw, kv, phi(v_mid, mu), fd.inner(pi_i, v_mid),
        float(np.linalg.norm(fd.component_means(f_raw)))), mu)


def _slice_gradient_pieces(path, k, core, grav):
    """Interval k's gradient coefficients (E, F) alone, read from its residual
    R = f_raw - K v_mid."""
    w = _conjugate_weight(_slice_rho_mid(path, k), core)
    return _residual_gradient(core.v_mid, w, core.f_raw - core.kv, grav), w


def _force_gradient_pieces(path, k, core, grav):
    """Interval k's (E, F) with pi_I's forces written out again, K v_mid +
    rho (accel - g) + grad p + 2 rho Omega x u: the gradient's formula before
    it read the residual, kept as its round-off reference."""
    rho_mid = _slice_rho_mid(path, k)
    grad_p = _slice_pressure_force(path, rho_mid)
    u = _conjugate_velocity(core)
    w = fd.scalar_times_vector(rho_mid, core.v_mid - u)
    e = (_padded_jacobian_contraction(core.v_mid, w) - fd.div_outer(core.v_mid, w)
         + core.kv
         + fd.scalar_times_vector(rho_mid, core.accel - grav.gravity()))
    if grad_p is not None:
        e = e + grad_p
    e = e + 2.0 * fd.scalar_times_vector(
        rho_mid, fd.cross(grav.coriolis_vector(), u))
    return e, w


def _slice_reference(path, mu, grav, core=_slice_core, pieces=_slice_gradient_pieces):
    """The report arrays by name, the pressure arrays (None for the
    compressible kind) and the (T, 3, nx, ny) gradient of a path, interval by
    interval and slice by slice."""
    cores = [core(path, k, mu, grav) for k in range(path.n_intervals)]
    report = {name: np.array([getattr(c, attr) for c in cores]) for name, attr in zip(
        REPORT_NAMES, ("t_mid", "phi_v", "phi_star_f", "pairing", "gap", "ns_residual",
                       "discarded_mean"))}
    pressures = None
    if path.kind == "incompressible":
        pressures = []
        for c in cores:
            q = np.fft.irfft2(c.qh, s=path.grid.shape)
            pressures.append(q - q.mean())
    n = path.n_intervals
    e_f = [pieces(path, k, cores[k], grav) for k in range(n)]
    grads = []
    for j in range(1, n + 1):
        e_prev, f_prev = e_f[j - 1]
        g = path.dt * (0.5 * e_prev) + f_prev
        if j <= n - 1:
            e_next, f_next = e_f[j]
            g = g + path.dt * (0.5 * e_next) - f_next
        if path.kind == "incompressible":
            g, _ = leray_project(g)
        grads.append(g.data)
    return report, pressures, np.stack(grads)


def _assert_same_bits(path, mu, grav, expected):
    """evaluate_path and gradient_pi give the expected arrays bit for bit."""
    report, pressures = evaluate_path(path, mu, grav)
    grads = gradient_pi(path, mu, grav)
    expected_report, expected_pressures, expected_grads = expected
    for name in REPORT_NAMES:
        assert getattr(report, name).tobytes() == expected_report[name].tobytes(), name
    if path.kind == "incompressible":
        assert pressures.shape == (path.n_intervals, *path.grid.shape)
        assert pressures.tobytes() == np.stack(expected_pressures).tobytes()
    else:
        assert pressures is None and expected_pressures is None
    assert grads.data.tobytes() == expected_grads.tobytes()
    return report


def _random_path(grid, kind, n_intervals, rng, rho0=1.0):
    times = [0.05 * k for k in range(n_intervals + 1)]
    if kind == "incompressible":
        return incompressible_path(grid, IncompressibleEos(rho0), times,
                                   [random_solenoidal(grid, rng) for _ in times])
    return compressible_path(grid, BarotropicPowerEos(rho0=rho0), times,
                             [random_vector(grid, rng, amplitude=0.1) for _ in times])


class TestTimeBatching:
    @pytest.mark.parametrize("nx, n_intervals, n_blocks", [
        (16, 1, 1), (16, 2, 1), (16, None, 2), (64, 3, 3)])
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_batched_equals_per_slice_bit_for_bit(self, kind, preset, nx, n_intervals,
                                                   n_blocks):
        # None: three intervals more than one block holds, so that a block
        # boundary falls inside the path; from 64^2 up a block is one slice
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        if n_intervals is None:
            n_intervals = sben._BLOCK_BYTES // (3 * nx * nx * 8) + 3
        path = _random_path(grid, kind, n_intervals, np.random.default_rng(nx + n_intervals),
                            rho0=1.3)
        assert len(sben._blocks(path)) == n_blocks
        grav = Gravitation(grid, preset, {"g0": 1.0, "omega": 0.8})
        report = _assert_same_bits(path, 0.1, grav, _slice_reference(path, 0.1, grav))
        assert report.phi_terms.min() > 0 and report.ns_residual_norms.min() > 0

    @pytest.mark.parametrize("nx, n_intervals", [(16, 2), (16, 16), (64, 3)])
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_gradient_matches_the_force_formula(self, kind, preset, nx, n_intervals):
        # the gradient read from R is, to round-off, the one that writes
        # pi_I's forces out again: at most 2.2e-16 of max |g| on these paths
        # and on such paths of sixteen intervals at 64^2 and 128^2
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        path = _random_path(grid, kind, n_intervals, np.random.default_rng(nx + n_intervals),
                            rho0=1.3)
        grav = Gravitation(grid, preset, {"g0": 1.0, "omega": 0.8})
        expected = _slice_reference(path, 0.1, grav, pieces=_force_gradient_pieces)[2]
        grads = gradient_pi(path, 0.1, grav).data
        assert np.abs(grads - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_intervals", [1, 3])
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_gradient_force_terms_keep_the_field_composition(self, grid16, kind, preset,
                                                             n_intervals, monkeypatch):
        # gradient_pi's one force term 2 Omega x w comes from the preset's
        # rotation, with the bits of the Coriolis field, on a block of one
        # interval and of three; w and R hold signed zeros and non-finite
        # entries (with K^(-1) r zero, w is rho times the block's null part)
        rng = np.random.default_rng(5)
        path = _random_path(grid16, kind, n_intervals, rng, rho0=1.3)
        grav = Gravitation(grid16, preset, {"g0": 0.5, "omega": 0.8})
        blk, _ = sben._block_core(path, slice(0, n_intervals), 0.1, grav)
        null = signed_zero_vectors(grid16, rng, (n_intervals,))
        residual = signed_zero_vectors(grid16, rng, (n_intervals,))
        blk = dataclasses.replace(blk, residual=residual, uh=np.zeros_like(blk.uh))
        monkeypatch.setattr(fd, "null_part", lambda grid, coeffs: null.copy())
        mid = blk.mid
        w = fd.scalar_times_vector(mid.rho, VectorField(grid16, null))
        e = (sben._jacobian_transpose_dot(mid.v, w) - fd.div_outer(mid.v, w)
             - 2.0 * fd.cross(grav.coriolis_vector(), w) - VectorField(grid16, residual))
        h, f = sben._gradient_pieces(path, blk, grav)
        assert h.tobytes() == (path.dt * (0.5 * e.data)).tobytes()
        assert f.tobytes() == w.data.tobytes()

    def test_path_arrays_and_views(self, grid16, rng):
        path = _random_path(grid16, "compressible", 3, rng)
        assert path.V.shape == (4, 3, 16, 16) and path.rho.shape == (4, 16, 16)
        for k, s in enumerate(path.states):
            assert s.t == path.times[k] and isinstance(s.t, float)
            assert np.shares_memory(s.v.data, path.V[k])
            assert np.shares_memory(s.rho.data, path.rho[k])
        # the array and the list form of the free slices make the same path
        free = path.V[1:] * 1.5
        a = path.with_velocities(free)
        b = path.with_velocities([VectorField(grid16, v) for v in free])
        assert a.V.tobytes() == b.V.tobytes() and a.rho is path.rho
        rebuilt = Path(grid16, path.eos, path.times, np.stack([s.v.data for s in path.states]),
                       np.stack([s.rho.data for s in path.states]))
        assert rebuilt.V.tobytes() == path.V.tobytes()
        assert rebuilt.rho.tobytes() == path.rho.tobytes()
        with pytest.raises(ValueError, match="one velocity per free slice"):
            path.with_velocities(free[1:])

    def test_density_checked_on_the_array(self, grid16, rng):
        path = _random_path(grid16, "compressible", 2, rng)
        rho = path.rho.copy()
        rho[2, 3, 4] = 0.0
        with pytest.raises(ValueError, match="positive"):
            Path(grid16, path.eos, path.times, path.V, rho)
        path = _random_path(grid16, "incompressible", 1, rng, rho0=1.3)
        with pytest.raises(ValueError, match="rho0"):
            Path(grid16, path.eos, path.times, path.V, np.ones((2, *grid16.shape)))

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_minimizer_over_several_blocks(self, grid16, kind):
        # the descent's gradients, directions and trial slices span two blocks;
        # with every block one slice the minimizer takes the same steps
        grav = Gravitation(grid16, "rigid_rotation", {"omega": 0.8})
        n_intervals = sben._BLOCK_BYTES // (3 * 16 * 16 * 8) + 3
        path = _random_path(grid16, kind, n_intervals, np.random.default_rng(2))
        opts = MinimizeConfig(max_iter=3)
        batched = minimize(path, 0.1, grav, opts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sben, "_BLOCK_BYTES", 1)
            sliced = minimize(path, 0.1, grav, opts)
        assert batched.report.iterations == 3
        assert batched.report.grad_norm_history == sliced.report.grad_norm_history
        assert batched.path.V.tobytes() == sliced.path.V.tobytes()


def _traced_peak(run):
    """(peak bytes allocated while run() runs, its result); a first call
    builds the per-grid caches outside the measurement."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestStreamedBlocks:
    def test_peak_memory_does_not_grow_with_the_intervals(self):
        # at 64^2 a block is one slice: evaluate_path and gradient_pi without
        # blocks hold one block's temporaries at a time, so apart from their
        # outputs (the pressures, the gradient) the peak is the same for 4
        # and for 16 intervals
        grid = Grid2P(64, 64, TWO_PI, TWO_PI)
        grav = Gravitation(grid, "zero")
        evaluate, gradient = {}, {}
        for n in (4, 16):
            path = _random_path(grid, "incompressible", n, np.random.default_rng(n))
            assert len(sben._blocks(path)) == n
            peak, (_, pressures) = _traced_peak(lambda: evaluate_path(path, 0.1, grav))
            evaluate[n] = peak - pressures.nbytes
            peak, grads = _traced_peak(lambda: gradient_pi(path, 0.1, grav))
            gradient[n] = peak - grads.data.nbytes
        assert evaluate[16] <= 1.25 * evaluate[4], evaluate
        assert gradient[16] <= 1.25 * gradient[4], gradient


class TestOneJacobianPerInterval:
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_matches_separate_calls_bit_for_bit(self, grid16, kind, preset, monkeypatch):
        rng = np.random.default_rng(3)
        path = _random_path(grid16, kind, 3, rng)
        grav = Gravitation(grid16, preset)

        report, pressures = evaluate_path(path, 0.1, grav)
        grads = gradient_pi(path, 0.1, grav)
        calls = []
        monkeypatch.setattr(sben, "_differentiate_midpoint",
                            lambda v_mid, mu: calls.append(v_mid) or _separate_calls(v_mid, mu))
        monkeypatch.setattr(sben, "_jacobian_transpose_dot", _padded_jacobian_contraction)
        expected_report, expected_pressures = evaluate_path(path, 0.1, grav)
        expected_grads = gradient_pi(path, 0.1, grav)
        assert len(calls) == 2 * len(sben._blocks(path))

        for name in REPORT_NAMES:
            assert getattr(report, name).tobytes() == getattr(expected_report, name).tobytes()
        assert report.phi_terms.min() > 0 and report.ns_residual_norms.min() > 0
        if kind == "incompressible":
            assert pressures.tobytes() == expected_pressures.tobytes()
        else:
            assert pressures is None and expected_pressures is None
        assert grads.data.tobytes() == expected_grads.data.tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (12, 10), (64, 64)])
    def test_jacobian_columns_contract_like_padded_jacobian(self, shape):
        rng = np.random.default_rng(5)
        grid = Grid2P(*shape, TWO_PI, 3.0)
        for planar in (False, True):
            v = random_vector(grid, rng)
            w = random_vector(grid, rng)
            if planar:      # the package's flows: no out-of-plane velocity
                v.data[2] = 0.0
            out = sben._jacobian_transpose_dot(v, w)
            assert out.data.tobytes() == _padded_jacobian_contraction(v, w).data.tobytes()
            assert not out.data[2].any()


def _kind_split_core(path, k, mu, grav):
    """The interval core with one branch per kind, each writing the momentum
    residual and the head loss itself: the formulas before both kinds built
    them from balance.momentum_residual."""
    s_prev, s_next = path.states[k], path.states[k + 1]
    t_mid = 0.5 * (s_prev.t + s_next.t)
    v_mid = 0.5 * (s_prev.v + s_next.v)
    advection, phi_v, kv = fd.advect(v_mid, v_mid), phi(v_mid, mu), apply_k(v_mid, mu)
    accel = (1.0 / path.dt) * (s_next.v - s_prev.v) + advection
    g_field = grav.gravity()
    body = g_field - 2.0 * fd.cross(grav.coriolis_vector(), v_mid)
    if path.kind == "incompressible":
        rho0 = path.eos.rho0
        f_raw = rho0 * (-accel + body)
        pairing = rho0 * (fd.inner(accel, v_mid) - fd.inner(g_field, v_mid))
    else:
        rho_mid = 0.5 * (s_prev.rho + s_next.rho)
        grad_p = fd.grad_scalar(ScalarField(path.grid, path.eos.pressure(rho_mid.data)))
        f_raw = -fd.scalar_times_vector(rho_mid, accel) - grad_p \
            + fd.scalar_times_vector(rho_mid, body)
        pairing = fd.inner(fd.scalar_times_vector(rho_mid, accel) + grad_p
                           - fd.scalar_times_vector(rho_mid, g_field), v_mid)
    return _residual_form(path.kind, _SliceCore(
        t_mid, v_mid, accel, f_raw, kv, phi_v, pairing,
        float(np.linalg.norm(fd.component_means(f_raw)))), mu)


def _kind_split_gradient_pieces(path, k, core, grav):
    """The gradient's (E, F) with one branch per kind for w, as before both
    kinds shared one formula."""
    rho = (path.eos.rho0 if path.kind == "incompressible"
           else 0.5 * (path.states[k].rho + path.states[k + 1].rho))
    w = _conjugate_weight(rho, core)
    return _residual_gradient(core.v_mid, w, core.f_raw - core.kv, grav), w


def _null_part(v):
    return v - fd.remove_stencil_null(v)


def _path_with_null_modes(grid, kind, rho0, rng):
    """Four slices with growing means and checkerboards on top of smooth noise;
    for the incompressible kind every slice stays divergence free."""
    times = [0.0, 0.05, 0.1, 0.15]
    checker = (-1.0) ** np.add.outer(np.arange(grid.nx), np.arange(grid.ny))
    null = np.stack([0.3 + 0.02 * checker, -0.2 * np.ones(grid.shape), 0.01 * checker])
    if kind == "incompressible":
        vels = [VectorField(grid, random_solenoidal(grid, rng).data + (1 + k) * null)
                for k in range(len(times))]
        return incompressible_path(grid, IncompressibleEos(rho0), times, vels)
    vels = [VectorField(grid, random_vector(grid, rng, amplitude=0.1).data
                        + 0.1 * (1 + k) * null) for k in range(len(times))]
    return compressible_path(grid, BarotropicPowerEos(rho0=rho0), times, vels)


class TestOneFormulaForBothKinds:
    @pytest.mark.parametrize("rho0", [1.0, 1.3])
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_matches_kind_split_formulas(self, grid16, kind, preset, rho0):
        path = _path_with_null_modes(grid16, kind, rho0, np.random.default_rng(8))
        grav = Gravitation(grid16, preset, {"g0": 1.0, "omega": 0.8})
        expected = _slice_reference(path, 0.1, grav, _kind_split_core,
                                    _kind_split_gradient_pieces)
        if (rho0 == 1.0 and preset == "zero") or (kind == "compressible"
                                                  and preset != "rigid_rotation"):
            _assert_same_bits(path, 0.1, grav, expected)
            return
        report, pressures = evaluate_path(path, 0.1, grav)
        grads = gradient_pi(path, 0.1, grav)
        expected_report, expected_pressures, expected_grads = expected
        pairs = list(zip(grads.data, expected_grads, strict=True))
        if kind == "incompressible":
            pairs += list(zip(pressures, expected_pressures, strict=True))
        # round-off of the largest terms, which cancel in the gap
        scale = (expected_report["phi_terms"] + expected_report["phi_star_terms"]
                 + np.abs(expected_report["pairing_terms"])).max()
        for name in REPORT_NAMES[1:]:
            diff = np.abs(getattr(report, name) - expected_report[name]).max()
            assert diff <= 1e-14 * scale, name
        for a, b in pairs:
            assert np.sqrt(((a - b)**2).sum()) <= 1e-13 * np.sqrt((b**2).sum())

    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_rest_state_terms_keep_their_bits(self, grid16, kind):
        # the sign of each zero term too: the reports print -0 and 0 apart
        v = VectorField.zeros(grid16)
        path = (incompressible_path(grid16, IncompressibleEos(), [0.0, 0.1], [v, v])
                if kind == "incompressible"
                else compressible_path(grid16, BarotropicPowerEos(), [0.0, 0.1], [v, v]))
        grav = Gravitation(grid16, "zero")
        report, _ = evaluate_path(path, 0.1, grav)
        expected = _slice_reference(path, 0.1, grav, _kind_split_core,
                                    _kind_split_gradient_pieces)[0]
        for name in ("phi_terms", "phi_star_terms", "pairing_terms", "gap_terms"):
            assert getattr(report, name).tobytes() == expected[name].tobytes()

    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_gap_is_residual_form_minus_null_mode_pairing(self, grid16, kind, preset):
        mu = 0.1
        path = _path_with_null_modes(grid16, kind, 1.2, np.random.default_rng(9))
        grav = Gravitation(grid16, preset, {"g0": 1.0, "omega": 0.8})
        report, _ = evaluate_path(path, mu, grav)
        null_pairings = []
        for k in range(path.n_intervals):
            c = _slice_core(path, k, mu, grav)
            f = leray_project(c.f_raw)[0] if kind == "incompressible" else c.f_raw
            r = fd.remove_stencil_null(f) - c.kv
            null_pairing = fd.inner(_null_part(c.f_raw), _null_part(c.v_mid))
            residual_form = 0.5 * fd.inner(solve_k(r, mu), r) - null_pairing
            assert abs(report.gap_terms[k] - residual_form) <= \
                1e-13 * (c.phi_v + c.phi_star_f + 1.0)
            null_pairings.append(null_pairing)
        assert np.abs(null_pairings).max() > 1e-3 * report.phi_terms.max()


class TestResidualForm:
    @pytest.mark.parametrize("shape, n_intervals", [((16, 16), 3), ((12, 10), 2)])
    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_residual_part_is_nonnegative_as_computed(self, kind, preset, shape, n_intervals,
                                                      monkeypatch):
        # 1/2 <K^(-1) r, r> of every interval, as the core computes it: the
        # Parseval sum it pairs the spectrum with its K^(-1) in, no tolerance
        grid = Grid2P(*shape, TWO_PI, TWO_PI)
        grav = Gravitation(grid, preset, {"g0": 1.0, "omega": 0.8})
        inner, parts = fd.spectral_inner, []

        def recording(grid, ah, bh):
            value = inner(grid, ah, bh)
            if ah is not bh:        # the gap's call, not the norm's
                parts.extend(0.5 * value)
            return value

        monkeypatch.setattr(fd, "spectral_inner", recording)
        for seed in range(4):
            path = _random_path(grid, kind, n_intervals, np.random.default_rng(seed))
            evaluate_path(path, 0.1, grav)
        assert len(parts) == 4 * n_intervals
        assert min(parts) >= 0.0 and max(parts) > 0.0

    @pytest.mark.parametrize("preset", ["zero", "uniform_gravity", "rigid_rotation"])
    @pytest.mark.parametrize("kind", ["incompressible", "compressible"])
    def test_spectral_terms_match_the_physical_space_formulas(self, grid16, kind, preset):
        # phi_star, the NS residual, the pressures and the gradient's K^(-1) r
        # from the one spectrum against leray_project, solve_k and phi on the
        # fields, on a path whose means and checkerboards move in time; the
        # block keeps the residual R = f_raw - K v_mid it took the spectrum of
        mu = 0.1
        path = _path_with_null_modes(grid16, kind, 1.2, np.random.default_rng(10))
        grav = Gravitation(grid16, preset, {"g0": 1.0, "omega": 0.8})
        report, pressures = evaluate_path(path, mu, grav)
        blk, _ = sben._block_core(path, slice(0, path.n_intervals), mu, grav)
        k_inv_r = np.fft.irfft2(blk.uh, s=grid16.shape)
        for k in range(path.n_intervals):
            c = _slice_core(path, k, mu, grav)
            f = fd.remove_stencil_null(leray_project(c.f_raw)[0] if kind == "incompressible"
                                       else c.f_raw)
            phi_star = phi(solve_k(f, mu), mu)
            # round-off of the largest terms, which cancel in phi_star's formula
            scale = phi_star + c.phi_v + abs(c.pairing)
            assert abs(report.phi_star_terms[k] - phi_star) <= 1e-14 * scale
            assert abs(report.ns_residual_norms[k] - fd.l2_norm(f - c.kv)) <= \
                1e-14 * (fd.l2_norm(f) + fd.l2_norm(c.kv))
            assert blk.residual[k].tobytes() == (c.f_raw - c.kv).data.tobytes()
            k_inv_r_ref = solve_k(f - c.kv, mu).data
            assert np.abs(k_inv_r[k] - k_inv_r_ref).max() <= 1e-13 * np.abs(k_inv_r_ref).max()
            if kind == "incompressible":
                q = leray_project(c.f_raw - c.kv)[1].data
                q -= q.mean()
                assert np.abs(pressures[k] - q).max() <= 1e-13 * np.abs(q).max()


class TestMinimize:
    @pytest.mark.parametrize("kind, condition", [
        ("incompressible", "a discarded mean of 6.500e-01 is above 1e-06: not a flow"),
        ("compressible",
         "the functional -3.003e-03 is below -1e-13 of the dissipation integral")])
    def test_cold_start_under_gravity_is_not_called_converged(self, grid16, kind, condition):
        # the case's initial state repeated (the CLI's cold start) does not
        # fall under g0 = 0.5: the descent stops on its functional
        # tolerance, on a path that is not a flow
        fluid = ("taylor_green", IncompressibleEos(1.3), {"amplitude": 1.0}) \
            if kind == "incompressible" else \
            ("compressible_smooth", BarotropicPowerEos(gamma=1.4), {"amplitude": 0.05})
        s0 = initial_state(CaseSpec(fluid[0], grid16, 0.25, 16, fluid[2], fluid[1]))
        start = Path(grid16, s0.eos, np.arange(5) * 0.0625, np.repeat(s0.v.data[None], 5, 0),
                     np.repeat(s0.rho.data[None], 5, 0))
        grav = Gravitation(grid16, "uniform_gravity", {"g0": 0.5})
        result = minimize(start, 0.1, grav, MinimizeConfig(max_iter=4))
        assert result.report.iterations == (1 if kind == "incompressible" else 3)
        assert result.message.startswith("functional below tolerance")
        assert not result.converged and result.message.endswith(condition)

    def test_every_accepted_step_meets_the_armijo_inequality(self, grid16, monkeypatch):
        # a stand-in functional 1/2 |x|^2 of the one free slice x, whose
        # first step is 2: back to Pi itself, outside the Armijo inequality
        # by 4 c Pi; accepting it would stall the descent
        grid = Grid2P(4, 4, 1.0, 1.0)
        V = np.ones((2, 3, 4, 4))
        V[0] *= np.sqrt(31.0)       # 0.5 |V| / (sqrt(2) |x|) = 2
        path = incompressible_path(grid, IncompressibleEos(), [0.0, 1.0], V)
        assembled = []

        def functional(path, mu, grav, take):
            pi = 0.5 * path_dot(VectorField(grid, path.V[1:]), VectorField(grid, path.V[1:]))
            assembled.append((path.V.copy(), pi))
            one = np.ones(1)
            return sben.SbenReport("incompressible", one, one, 0 * one, 0 * one, pi * one,
                                   0 * one, 0 * one, 1.0)

        monkeypatch.setattr(sben, "_assemble", functional)
        monkeypatch.setattr(sben, "gradient_pi",
                            lambda path, *args, **kwargs: VectorField(grid, path.V[1:].copy()))
        accepted = []
        sben._descend(path, path.with_velocities, 0.1, Gravitation(grid, "zero"),
                      MinimizeConfig(max_iter=3),
                      on_iteration=lambda *args: accepted.append(assembled[-1]))
        assert accepted
        for (v_old, pi_old), (v_new, pi_new) in zip([assembled[0]] + accepted, accepted):
            gradient, step = VectorField(grid, v_old[1:]), VectorField(grid, v_new[1:] - v_old[1:])
            assert pi_new <= pi_old + sben._ARMIJO_C * path_dot(gradient, step)

    def test_barotropic_accepted_values_monotone(self, grid16):
        # one minimize for both kinds: a barotropic path reports every
        # accepted value too, and they never increase
        grav = Gravitation(grid16, "rigid_rotation", {"omega": 0.8})
        path = _random_path(grid16, "compressible", 3, np.random.default_rng(4))
        pis = [functional_report(path, 0.05, grav, "compressible").total_pi]
        result = minimize(path, 0.05, grav, MinimizeConfig(max_iter=6),
                          on_iteration=lambda it, pi, g: pis.append(pi))
        assert result.report.iterations == 6 and len(pis) == 7
        assert all(b <= a for a, b in zip(pis, pis[1:]))
        assert pis[-1] == result.report.total_pi < pis[0]
        assert result.path.pressures is None

    @pytest.mark.parametrize("setting, match", [
        ({"max_iter": -1}, "max_iter must be >= 0"),
        ({"tol_pi_rel": -1e-8}, "tol_pi_rel must be finite and >= 0"),
        ({"tol_grad_rel": float("nan")}, "tol_grad_rel must be finite and >= 0")])
    def test_settings_out_of_range_are_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            MinimizeConfig(**setting)

    def test_frozen_start_descends_monotonically(self, grid16):
        grav = Gravitation(grid16, "zero")
        s0, _ = taylor_green_analytic(0.0, 0.1, grid16)
        v0, _ = leray_project(s0.v)
        eos = IncompressibleEos()
        times = np.linspace(0.0, 0.2, 5)
        path = incompressible_path(grid16, eos, times, [v0] * 5)
        rep0 = functional_report(path, 0.1, grav, "incompressible")
        pis = [rep0.total_pi]
        result = minimize(path, 0.1, grav, MinimizeConfig(max_iter=8),
                          on_iteration=lambda it, pi, g: pis.append(pi))
        assert result.report.total_pi < rep0.total_pi
        # accepted steps never increase the functional
        assert all(b <= a * (1 + 1e-12) for a, b in zip(pis, pis[1:]))
        assert all(np.isfinite(result.report.grad_norm_history))

    def test_reference_start_returns_quickly(self, grid16):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.5, 32, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=4)
        result = minimize(path, 0.1, grav)
        assert result.converged
        assert result.report.iterations == 0
        assert result.path.pressures.shape == (path.n_intervals, *grid16.shape)

    def test_recovers_from_small_noise(self, grid16, rng):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.25, 16, {"nu": 0.1})
        ref = reference_path(case, 0.1, grav, n_out=4)
        noisy = ref.with_velocities([
            s.v + 0.05 * np.sqrt(fd.inner(s.v, s.v) / (2 * np.pi**2))
            * random_solenoidal(grid16, rng) for s in ref.states[1:]])
        pi_noisy = functional_report(noisy, 0.1, grav, "incompressible").total_pi
        result = minimize(noisy, 0.1, grav, MinimizeConfig(max_iter=60))
        assert result.report.total_pi < pi_noisy / 10


def _taylor_green_reference(grid, n_out, n_ref, t_final=0.5):
    grav = Gravitation(grid, "zero")
    case = CaseSpec("taylor_green", grid, t_final, n_ref, {"nu": 0.1, "amplitude": 1.0})
    return grav, reference_path(case, 0.1, grav, n_out=n_out)


def _rel_l2(path, ref):
    num = sum(fd.inner(a.v - b.v, a.v - b.v) for a, b in zip(path.states, ref.states))
    return np.sqrt(num / sum(fd.inner(b.v, b.v) for b in ref.states))


class TestStokesPreconditioner:
    TIGHT = MinimizeConfig(max_iter=800, tol_pi_rel=1e-10, tol_grad_rel=1e-9)

    def test_sixteen_intervals_converge(self, grid16, rng):
        # measured: 17 iterations, rel_l2 5.2e-7; plain NCG stopped at
        # max_iter 800 (Pi 1.3e-5) on the same start
        grav, ref = _taylor_green_reference(grid16, n_out=16, n_ref=64)
        free = []
        for s in ref.states[1:]:
            noise = random_solenoidal(grid16, rng, kmax=3)
            free.append(s.v + 0.10 * np.sqrt(fd.inner(s.v, s.v) / fd.inner(noise, noise))
                        * noise)
        result = minimize(ref.with_velocities(free), 0.1, grav, self.TIGHT)
        rel_l2 = _rel_l2(result.path, ref)
        print(f"16 intervals: {result.report.iterations} iterations, rel_l2 {rel_l2:.2e}")
        assert result.converged
        assert result.report.iterations <= 40
        assert rel_l2 <= 1e-5

    def test_cold_start_taylor_green_converges_in_one_iteration(self, grid16):
        # the vortex is a Stokes solution (its advection is a pure gradient),
        # on which the preconditioner is the exact Hessian inverse; measured
        # Pi = -1.3e-15 after the one step, rel_l2 7.3e-7
        grav, ref = _taylor_green_reference(grid16, n_out=8, n_ref=32)
        v0, _ = leray_project(ref.states[0].v)
        result = minimize(ref.with_velocities([v0] * 8), 0.1, grav, self.TIGHT)
        assert result.converged
        assert result.report.iterations == 1
        assert _rel_l2(result.path, ref) <= 1e-5

    @staticmethod
    def _null_mode_start(grid):
        """A Taylor-Green path whose free slices carry a checkerboard of 0.01
        in v_x and a mean of 0.02 in v_y."""
        grav, ref = _taylor_green_reference(grid, n_out=8, n_ref=32)
        i, j = np.indices(grid.shape)
        checker = (-1.0) ** (i + j)
        null = np.zeros((3,) + grid.shape)
        null[0], null[1] = 0.01 * checker, 0.02
        start = ref.with_velocities([s.v + VectorField(grid, null) for s in ref.states[1:]])
        return grav, start, checker

    def test_stencil_null_modes_are_held(self, grid16):
        # the descent cannot move the null modes, so Pi stops at what the
        # pairing term keeps of them, rho0/2 |null part of the last slice|^2
        # = 9.87e-3.  Plain NCG moved slice 8's to 0.0086/0.0173 in 10 iterations and
        # to 0.0010/0.0021 (Pi 1.2e-4) in 50.
        grav, start, checker = self._null_mode_start(grid16)
        result = minimize(start, 0.1, grav, MinimizeConfig(max_iter=10))
        for s in result.path.states[1:]:
            assert abs((s.v.data[0] * checker).mean() - 0.01) <= 1e-12
            assert abs(s.v.data[1].mean() - 0.02) <= 1e-12
        floor = 0.5 * (0.01**2 + 0.02**2) * grid16.lx * grid16.ly
        assert result.report.total_pi == pytest.approx(floor, rel=1e-6)

    def test_start_with_null_modes_converges(self, grid16):
        # the same start under the default tolerances: the gradient norm
        # leaves out the held null modes, whose part of the gradient cannot
        # shrink; measured 16 iterations, null modes held to 2e-17.  With
        # that part counted, the norm stalled at 0.14 of 0.55 and every run
        # went to max_iter.  The held mean of v_y jumps from 0 to 0.02 in the
        # first interval with no force to move it, so the path is no flow and
        # is not called converged: that interval's discarded mean is
        # rho0 0.02 / dt = 0.32
        grav, start, checker = self._null_mode_start(grid16)
        result = minimize(start, 0.1, grav, MinimizeConfig())
        assert result.message.startswith("gradient norm below relative tolerance")
        assert not result.converged
        assert "discarded mean of 3.200e-01 is above 1e-06" in result.message
        assert result.report.iterations <= 40
        history = result.report.grad_norm_history
        assert history[-1] <= MinimizeConfig().tol_grad_rel * history[0]
        for s in result.path.states[1:]:
            assert abs((s.v.data[0] * checker).mean() - 0.01) <= 1e-12
            assert abs(s.v.data[1].mean() - 0.02) <= 1e-12


class TestMultiplierPressure:
    def test_pressure_matches_analytic_on_reference(self, grid32):
        # the recovered Lagrange multiplier approximates the vortex pressure
        grav = Gravitation(grid32, "zero")
        case = CaseSpec("taylor_green", grid32, 0.2, 40, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=4)
        pressures = multiplier_pressures(path, 0.1, grav)
        _, p_exact = taylor_green_analytic(path.dt / 2, 0.1, grid32)
        exact_centered = p_exact.data - p_exact.data.mean()
        rel = np.abs(pressures[0] - exact_centered).max() / np.abs(exact_centered).max()
        print("pressure recovery relative error:", rel)
        assert rel < 0.05


    def test_evaluate_path_builds_each_core_once(self, grid16, monkeypatch):
        grav = Gravitation(grid16, "zero")
        case = CaseSpec("taylor_green", grid16, 0.2, 16, {"nu": 0.1})
        path = reference_path(case, 0.1, grav, n_out=4)
        expected_report = functional_report(path, 0.1, grav, "incompressible")
        expected_pressures = multiplier_pressures(path, 0.1, grav)
        built = []
        core = sben._block_core
        monkeypatch.setattr(sben, "_block_core",
                            lambda *args: built.extend(range(path.n_intervals)[args[1]])
                            or core(*args))
        report, pressures = evaluate_path(path, 0.1, grav)
        assert built == list(range(path.n_intervals))
        assert np.array_equal(report.gap_terms, expected_report.gap_terms)
        assert np.array_equal(pressures, expected_pressures)

    def test_evaluate_path_has_no_pressure_for_compressible(self, grid16, rng):
        eos = BarotropicPowerEos()
        path = compressible_path(grid16, eos, [0.0, 0.05],
                                 [random_vector(grid16, rng, amplitude=0.1) for _ in range(2)])
        report, pressures = evaluate_path(path, 0.1, Gravitation(grid16, "zero"))
        assert pressures is None and report.kind == "compressible"


class TestCompressibleMinimize:
    def test_descends(self, grid16, rng):
        eos = BarotropicPowerEos(gamma=1.4)
        grav = Gravitation(grid16, "zero")
        times = np.linspace(0.0, 0.1, 3)
        x, y = grid16.x(), grid16.y()
        v0 = VectorField.from_components(grid16, 0.01 * np.sin(x) * np.cos(y),
                                         0.01 * np.sin(y))
        vels = [v0, 1.3 * v0, 0.8 * v0]
        path = compressible_path(grid16, eos, times, vels)
        rep0 = functional_report(path, 0.05, grav, "compressible")
        result = minimize_compressible(path, 0.05, grav, MinimizeConfig(max_iter=10))
        assert result.report.total_pi < rep0.total_pi

    def test_converges(self, grid16):
        # ten conjugate-gradient iterations take Pi down more than 1000x;
        # steepest descent from the same start gives 77x
        eos = BarotropicPowerEos(gamma=1.4)
        grav = Gravitation(grid16, "zero")
        times = np.linspace(0.0, 0.1, 3)
        x, y = grid16.x(), grid16.y()
        v0 = VectorField.from_components(grid16, 0.01 * np.sin(x) * np.cos(y),
                                         0.01 * np.sin(y))
        path = compressible_path(grid16, eos, times, [v0, 1.3 * v0, 0.8 * v0])
        pi0 = functional_report(path, 0.05, grav, "compressible").total_pi
        result = minimize_compressible(path, 0.05, grav, MinimizeConfig(max_iter=10))
        assert result.report.total_pi <= 1e-3 * pi0

    def test_trial_without_valid_density_is_a_rejected_step(self, monkeypatch):
        # the stand-in fails the first trial's rebuild (its second call) by
        # construction, whatever length the first step has, and records the
        # velocities of every rebuild
        grid = Grid2P(8, 8, 0.5, 0.5)
        rng = np.random.default_rng(1)
        dt = 0.05
        path = compressible_path(grid, BarotropicPowerEos(), [0.0, dt, 2 * dt],
                                 [random_vector(grid, rng, amplitude=0.2) for _ in range(3)])
        grav = Gravitation(grid, "zero")
        slave = sben.slave_density
        outcomes, velocities = [], []

        def recording_slave_density(rho_initial, V, times):
            velocities.append(V.copy())
            if len(outcomes) == 1:
                outcomes.append("failed")
                raise DensityError("first trial rejected by the test")
            try:
                densities = slave(rho_initial, V, times)
            except DensityError:
                outcomes.append("failed")
                raise
            outcomes.append("ok")
            return densities

        monkeypatch.setattr(sben, "slave_density", recording_slave_density)
        values = []
        for max_iter in range(4):
            outcomes.clear()
            velocities.clear()
            result = minimize_compressible(path, 0.05, grav,
                                           MinimizeConfig(max_iter=max_iter))
            values.append(result.report.total_pi)
        # the initial rebuild succeeds and the first trial is rejected; the
        # retry steps half as far along the same direction
        assert outcomes[:2] == ["ok", "failed"]
        rejected, retry = (v[1:] - velocities[0][1:] for v in velocities[1:3])
        assert np.sum(retry * rejected) / np.sum(rejected * rejected) == pytest.approx(0.5)
        assert np.abs(retry - 0.5 * rejected).max() <= 1e-12 * np.abs(rejected).max()
        assert result.report.iterations == 3
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]
