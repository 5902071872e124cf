"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers next to their bounds.
"""

import math
import time

import numpy as np
import pytest

from sbenflow import fields as fd
from sbenflow.balance import (BarotropicPowerEos, FluidState, head_loss, pi_i_residual,
                              momentum_reduction_gap)
from sbenflow.dissipation import apply_k, fenchel_gap, phi, phi_star
from sbenflow.fields import Grid2P, ScalarField, VectorField
from sbenflow.gravitation import Gravitation
from sbenflow.oracle import CaseSpec, reference_path, taylor_green_analytic
from sbenflow.sampling import random_solenoidal, random_vector
from sbenflow.sben import MinimizeConfig, gradient_pi, leray_project, minimize, path_dot
from sbenflow.symplectic import PhasePoint, omega

from conftest import TWO_PI, functional_report

NU = 0.1
MU = 0.1  # rho0 = 1

_budget_fail = "runtime budget exceeded"


def _announce(num, text):
    print(f"\n[criterion {num:2d}] PASS  {text}")


# --- criterion 1: Fenchel inequality on seeded random pairs -------------------

def test_criterion_1_fenchel_inequality():
    start = time.perf_counter()
    grid = Grid2P(32, 32, TWO_PI, TWO_PI)
    rng = np.random.default_rng(42)
    worst = np.inf
    for _ in range(100):
        v = random_vector(grid, rng)
        f = fd.remove_mean(random_vector(grid, rng))
        gap = fenchel_gap(v, f, MU)
        scale = phi(v, MU) + phi_star(f, MU) + 1.0
        margin = gap / scale
        worst = min(worst, margin)
        assert gap >= -1e-12 * scale
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, _budget_fail
    _announce(1, f"100 random pairs, worst gap/scale = {worst:.3e} >= -1e-12 "
                 f"({elapsed:.1f}s)")


# --- criterion 2: conjugacy equality for the quadratic potential ---------------

def test_criterion_2_conjugacy_equality():
    start = time.perf_counter()
    grid = Grid2P(32, 32, TWO_PI, TWO_PI)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        v = random_vector(grid, rng)
        rel = abs(phi_star(apply_k(v, MU), MU) - phi(v, MU)) / phi(v, MU)
        worst = max(worst, rel)
        assert rel <= 1e-8

    # eigenmode: K v = 2 mu v up to the O(h^2) stencil factor, and the
    # conjugacy equality holds to solver precision on it
    state, _ = taylor_green_analytic(0.0, NU, grid)
    kv = apply_k(state.v, MU)
    h = grid.dx
    assert fd.linf_norm(kv - 2 * MU * state.v) <= 2 * MU * (h**2 / 3) * 1.1
    rel_tg = abs(phi_star(kv, MU) - phi(state.v, MU)) / phi(state.v, MU)
    assert rel_tg <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, _budget_fail
    _announce(2, f"50 random + eigenmode, worst |phi*(Kv)-phi|/phi = "
                 f"{max(worst, rel_tg):.3e} <= 1e-8 ({elapsed:.1f}s)")


# --- criterion 3: zero minimum on true trajectories ----------------------------

@pytest.fixture(scope="module")
def vortex_refinement():
    start = time.perf_counter()
    levels = []
    for nx, n_out, n_ref in ((16, 25, 50), (32, 50, 100), (64, 100, 400)):
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        grav = Gravitation(grid, "zero")
        case = CaseSpec("taylor_green", grid, 1.0, n_ref, {"nu": NU, "amplitude": 1.0})
        path = reference_path(case, MU, grav, n_out=n_out)
        report = functional_report(path, MU, grav, "incompressible")
        levels.append((nx, path, report))
    return {"levels": levels, "wall": time.perf_counter() - start}


def test_criterion_3_zero_minimum_refinement(vortex_refinement):
    levels = vortex_refinement["levels"]
    pis = [rep.total_pi for _, _, rep in levels]
    orders = [math.log2(pis[i] / pis[i + 1]) for i in range(2)]
    ratio = pis[-1] / levels[-1][2].dissipation_integral
    assert min(orders) >= 1.8
    assert ratio <= 1e-3
    assert vortex_refinement["wall"] < 300.0, _budget_fail
    _announce(3, f"Pi = {pis[0]:.2e} -> {pis[1]:.2e} -> {pis[2]:.2e}, "
                 f"orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.8, "
                 f"Pi/int(phi) = {ratio:.2e} <= 1e-3 "
                 f"({vortex_refinement['wall']:.1f}s)")


# --- criterion 4: strict positivity off the constitutive manifold --------------

def test_criterion_4_strict_positivity(vortex_refinement):
    start = time.perf_counter()
    _, path, report = vortex_refinement["levels"][1]  # the 32^2 level
    grav = Gravitation(path.grid, "zero")
    scaled = path.with_velocities([1.1 * s.v for s in path.states[1:]])
    rep_scaled = functional_report(scaled, MU, grav, "incompressible")
    ratio = rep_scaled.total_pi / max(report.total_pi, 1e-300)
    assert ratio >= 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, _budget_fail
    _announce(4, f"Pi(1.1 v) / Pi(v) = {ratio:.2e} >= 10 ({elapsed:.1f}s)")


# --- criterion 5: minimization recovers the flow -------------------------------

@pytest.fixture(scope="module")
def recovery_run():
    grid = Grid2P(16, 16, TWO_PI, TWO_PI)
    grav = Gravitation(grid, "zero")
    case = CaseSpec("taylor_green", grid, 0.5, 32, {"nu": NU, "amplitude": 1.0})
    ref = reference_path(case, MU, grav, n_out=8)
    ref_report = functional_report(ref, MU, grav, "incompressible")

    rng = np.random.default_rng(42)
    noisy_free = []
    for s in ref.states[1:]:
        noise = random_solenoidal(grid, rng, kmax=3)
        level = 0.10 * math.sqrt(fd.inner(s.v, s.v) / fd.inner(noise, noise))
        noisy_free.append(s.v + level * noise)
    noisy = ref.with_velocities(noisy_free)
    noisy_report = functional_report(noisy, MU, grav, "incompressible")

    t0 = time.perf_counter()
    result = minimize(noisy, MU, grav,
                      MinimizeConfig(max_iter=800, tol_pi_rel=1e-10, tol_grad_rel=1e-9))
    wall = time.perf_counter() - t0
    return {"grid": grid, "grav": grav, "ref": ref, "ref_report": ref_report,
            "noisy_report": noisy_report, "result": result, "wall": wall}


def test_criterion_5_minimization_recovery(recovery_run):
    r = recovery_run
    reduction = r["noisy_report"].total_pi / max(r["result"].report.total_pi, 1e-300)
    num = sum(fd.inner(a.v - b.v, a.v - b.v)
              for a, b in zip(r["result"].path.states, r["ref"].states))
    den = sum(fd.inner(b.v, b.v) for b in r["ref"].states)
    rel_l2 = math.sqrt(num / den)
    assert reduction >= 10.0
    assert rel_l2 <= 0.05
    assert r["wall"] < 600.0, _budget_fail
    _announce(5, f"Pi reduced {reduction:.2e}x >= 10, recovered path "
                 f"{100 * rel_l2:.2e}% from reference <= 5% "
                 f"({r['result'].report.iterations} NCG iterations, "
                 f"minimize {r['wall']:.2f}s)")


# --- criterion 6: adjoint gradient against finite differences ------------------

def test_criterion_6_gradient_correctness():
    start = time.perf_counter()
    grid = Grid2P(8, 8, TWO_PI, TWO_PI)
    grav = Gravitation(grid, "zero")
    case = CaseSpec("taylor_green", grid, 0.4, 16, {"nu": NU})
    base = reference_path(case, MU, grav, n_out=4)
    rng = np.random.default_rng(42)
    path = base.with_velocities([s.v + 0.25 * random_solenoidal(grid, rng, kmax=2)
                                 for s in base.states[1:]])
    grads = gradient_pi(path, MU, grav)
    worst = 0.0
    for _ in range(5):
        d = [random_solenoidal(grid, rng, kmax=2) for _ in range(path.n_intervals)]
        eps = 1e-5
        plus = path.with_velocities([s.v + eps * dk for s, dk in zip(path.states[1:], d)])
        minus = path.with_velocities([s.v - eps * dk for s, dk in zip(path.states[1:], d)])
        fd_val = (functional_report(plus, MU, grav, "incompressible").total_pi
                  - functional_report(minus, MU, grav, "incompressible").total_pi) / (2 * eps)
        rel = abs(path_dot(grads, d) - fd_val) / abs(fd_val)
        worst = max(worst, rel)
        assert rel <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, _budget_fail
    _announce(6, f"5 directions, worst relative error {worst:.2e} <= 1e-5 "
                 f"({elapsed:.1f}s)")


# --- criterion 7: raw/reduced momentum reduction identity ----------------------

def test_criterion_7_reduction_identity_order():
    start = time.perf_counter()
    eos = BarotropicPowerEos(p0=1.0, rho0=1.0, gamma=1.4)
    errs = []
    for nx in (32, 64):
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        grav = Gravitation(grid, "zero")
        dt = 0.5 * grid.dx
        states = []
        for t in (0.0, dt):
            x, y = grid.x(), grid.y()
            rho = ScalarField(grid, 1.0 + 0.2 * np.sin(x) * np.cos(y) * math.cos(t)
                              + 0.1 * np.cos(2 * y - t))
            v = VectorField.from_components(
                grid, np.sin(y) + 0.3 * np.cos(x + t),
                0.2 * np.sin(x) * np.sin(y - t), 0.1 * np.cos(x))
            states.append(FluidState(t, v, rho, eos))
        errs.append(fd.l2_norm(momentum_reduction_gap(states[0], states[1], grav)))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, _budget_fail
    _announce(7, f"gap {errs[0]:.3e} -> {errs[1]:.3e}, order {order:.2f} >= 1.8 "
                 f"({elapsed:.1f}s)")


# --- criterion 8: minimizing paths satisfy the flow equations -------------------

def test_criterion_8_flow_equation_recovery(recovery_run):
    r = recovery_run
    # discretization estimate at matched resolution: the per-interval residual
    # of the reference trajectory itself
    estimate = r["ref_report"].ns_residual_norms.max()
    measured = r["result"].report.ns_residual_norms.max()
    assert measured <= 10.0 * estimate
    _announce(8, f"max NS residual {measured:.3e} <= 10 x reference estimate "
                 f"{estimate:.3e}")


# --- criterion 9: structural identities ----------------------------------------

def test_criterion_9_structure_checks():
    grid = Grid2P(32, 32, TWO_PI, TWO_PI)
    rng = np.random.default_rng(42)

    worst_omega = 0.0
    for _ in range(100):
        z1 = PhasePoint(random_vector(grid, rng), random_vector(grid, rng))
        z2 = PhasePoint(random_vector(grid, rng), random_vector(grid, rng))
        scale = abs(omega(z1, z2)) + 1.0
        worst_omega = max(worst_omega,
                          abs(omega(z1, z2) + omega(z2, z1)) / scale,
                          abs(omega(z1, z1)) / scale)
        a = rng.normal()
        z3 = PhasePoint(a * z1.v + z2.v, a * z1.pidot + z2.pidot)
        worst_omega = max(worst_omega,
                          abs(omega(z3, z2) - a * omega(z1, z2) - omega(z2, z2)) / scale)
    assert worst_omega <= 1e-12

    from sbenflow.dissipation import sigma_i
    d = fd.sym_grad(random_vector(grid, rng))
    sig = sigma_i(d, MU)
    assert fd.linf_norm(sig.trace()) <= 1e-13 * (np.abs(sig.data).max() + 1)

    grav = Gravitation(grid, "rigid_rotation", {"omega": 1.0})
    v = random_vector(grid, rng)
    power = fd.dot_vectors(-2.0 * fd.cross(grav.coriolis_vector(0.0), v), v)
    assert fd.linf_norm(power) <= 1e-12 * (fd.linf_norm(v) ** 2 + 1.0)

    w = random_vector(grid, rng)
    w1, _ = leray_project(w)
    w2, _ = leray_project(w1)
    assert fd.linf_norm(w2 - w1) <= 1e-10 * (fd.linf_norm(w1) + 1.0)

    _announce(9, f"omega worst deviation {worst_omega:.2e}, stress trace, "
                 f"Coriolis power, projector idempotence all within bounds")


# --- criterion 10: compressible evaluation --------------------------------------

def test_criterion_10_compressible_evaluation():
    start = time.perf_counter()
    mu = 0.01
    pis, masses = [], []
    for nx, n_out, n_ref in ((16, 16, 64), (32, 32, 128), (64, 64, 512)):
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        grav = Gravitation(grid, "zero")
        case = CaseSpec("compressible_smooth", grid, 0.5, n_ref,
                        {"gamma": 1.4, "amplitude": 0.01, "p0": 1.0, "rho0": 1.0})
        path = reference_path(case, mu, grav, n_out=n_out)
        drift = abs(fd.integrate(path.states[-1].rho) - fd.integrate(path.states[0].rho))
        masses.append(drift / fd.integrate(path.states[0].rho))
        pis.append(functional_report(path, mu, grav, "compressible").total_pi)
    orders = [math.log2(pis[i] / pis[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5
    assert max(masses) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, _budget_fail
    _announce(10, f"Pi = {pis[0]:.2e} -> {pis[1]:.2e} -> {pis[2]:.2e} "
                  f"(orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.5), "
                  f"mass drift <= {max(masses):.1e} ({elapsed:.1f}s)")


# --- criterion 11: vanishing head loss in the inviscid limit --------------------

def test_criterion_11_inviscid_head_loss():
    # On the steady inviscid vortex with its analytic pressure the discrete
    # head loss integrates to zero by parity; the bound that controls it is
    # the residual scale |pi_I| |v|, which must vanish at second order.
    losses, estimates = [], []
    for nx in (16, 32, 64):
        grid = Grid2P(nx, nx, TWO_PI, TWO_PI)
        grav = Gravitation(grid, "zero")
        dt = TWO_PI / nx
        s0, _ = taylor_green_analytic(0.0, 0.0, grid)
        s1, _ = taylor_green_analytic(dt, 0.0, grid)
        _, p_mid = taylor_green_analytic(0.5 * dt, 0.0, grid)
        hl = head_loss(s0, s1, grav, pressure=p_mid)
        v_mid = 0.5 * (s0.v + s1.v)
        est = fd.l2_norm(pi_i_residual(s0, s1, grav, pressure=p_mid)) * fd.l2_norm(v_mid)
        losses.append(abs(hl))
        estimates.append(est)
        assert abs(hl) <= est
    order = math.log2(estimates[0] / estimates[1])
    order2 = math.log2(estimates[1] / estimates[2])
    assert min(order, order2) >= 1.8
    _announce(11, f"head loss {losses[-1]:.2e} <= estimate {estimates[-1]:.2e}; "
                  f"estimate orders {order:.2f}/{order2:.2f} >= 1.8")
